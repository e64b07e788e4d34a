// The software baseline's historical name.
//
// zlib's deflate_fast/deflate_slow parses, their operation census and the
// cache-model observer all live in MatchFinderEncoder over the kHashChain
// backend (lzss/mf_encoder.hpp). This alias exists only because the
// benchmark harness (perfbench/ledger.cpp), which is maintained separately
// from the library, still names SoftwareEncoder; new code uses
// MatchFinderEncoder.
#pragma once

#include "lzss/mf_encoder.hpp"

namespace lzss::core {

using SoftwareEncoder = MatchFinderEncoder;

}  // namespace lzss::core
