// lzss_store — offline inspection and salvage for the durable log store.
//
//   lzss_store append <dir> [file]     append one record (stdin when no file)
//     --fsync <never|interval|every-record>   durability policy (default
//                                             every-record: the CLI acks
//                                             mean "on disk")
//     --segment-kb <k>                        rotation threshold
//   lzss_store cat <dir>               print every record payload to stdout
//     --seq <n>                               print one record only
//   lzss_store verify <dir>            full offline scan; exits 0 when every
//                                      surviving record checksums (a torn
//                                      tail is recoverable damage, reported
//                                      but not a failure), 1 on gaps
//   lzss_store recover <dir>           run recovery (scan every segment,
//                                      truncate the torn tail), print the
//                                      report; exits 1 when gaps remain
//   lzss_store compact <dir>           crash-safely rewrite gappy sealed
//                                      segments without their quarantined
//                                      bytes (RAW records recompressed)
//     --seg <id>                              compact one segment by id
//   lzss_store retain <dir>            delete whole sealed segments, oldest
//                                      first, until the budget holds
//     --max-bytes <b> --max-records <n> --max-age-s <s>
//
// On-disk format: docs/STORE.md.
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "store/log_store.hpp"

namespace {

using namespace lzss;

int usage() {
  std::fprintf(stderr,
               "usage: lzss_store append <dir> [file] [--fsync policy] [--segment-kb k]\n"
               "       lzss_store cat <dir> [--seq n]\n"
               "       lzss_store verify <dir>\n"
               "       lzss_store recover <dir>\n"
               "       lzss_store compact <dir> [--seg id]\n"
               "       lzss_store retain <dir> [--max-bytes b] [--max-records n]"
               " [--max-age-s s]\n");
  return 2;
}

std::vector<std::uint8_t> read_input(const std::string& path) {
  if (path.empty()) {
    return {std::istreambuf_iterator<char>(std::cin), std::istreambuf_iterator<char>()};
  }
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot open " + path);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

int cmd_append(const std::string& dir, const std::string& file, store::StoreOptions opt) {
  store::LogStore log(dir, opt);
  const auto bytes = read_input(file);
  const std::uint64_t seq = log.append(bytes);
  log.flush();
  std::printf("appended seq %" PRIu64 " (%zu bytes)\n", seq, bytes.size());
  return 0;
}

int cmd_cat(const std::string& dir, std::uint64_t seq, bool one) {
  store::StoreOptions opt;
  opt.fsync_policy = store::FsyncPolicy::kNever;  // cat never needs durability
  store::LogStore log(dir, opt);
  const std::uint64_t lo = one ? seq : log.first_sequence();
  const std::uint64_t hi = one ? seq + 1 : log.next_sequence();
  int rc = 0;
  for (std::uint64_t s = lo; s < hi; ++s) {
    try {
      const auto payload = log.read(s);
      std::fwrite(payload.data(), 1, payload.size(), stdout);
    } catch (const store::StoreError& e) {
      std::fprintf(stderr, "seq %" PRIu64 ": %s\n", s, e.what());
      rc = 1;
      if (one) return rc;
    }
  }
  return rc;
}

int cmd_verify(const std::string& dir) {
  const auto report = store::LogStore::verify(dir);
  std::fputs(report.render().c_str(), stdout);
  return report.ok() ? 0 : 1;
}

int cmd_recover(const std::string& dir) {
  store::RecoveryReport report;
  store::StoreOptions opt;
  {
    store::LogStore log(dir, opt, &report);
    log.flush();  // make the truncated tail durable
  }
  std::fputs(report.render().c_str(), stdout);
  return report.gaps.empty() ? 0 : 1;
}

int cmd_compact(const std::string& dir, std::uint64_t seg, bool have_seg) {
  store::StoreOptions opt;
  store::LogStore log(dir, opt);
  std::vector<std::uint64_t> victims;
  if (have_seg) {
    victims.push_back(seg);
  } else {
    for (const store::SegmentInfo& info : log.segment_infos())
      if (info.sealed && info.garbage_bytes > 0) victims.push_back(info.id);
  }
  if (victims.empty()) {
    std::printf("nothing to compact\n");
    return 0;
  }
  int rc = 0;
  for (const std::uint64_t id : victims) {
    try {
      const store::CompactionReport r = log.compact_segment(id);
      std::printf("segment %" PRIu64 ": %" PRIu64 " -> %" PRIu64 " bytes (%" PRIu64
                  " records, %" PRIu64 " recompressed, %" PRIu64 " reclaimed)\n",
                  r.segment_id, r.bytes_before, r.bytes_after, r.records, r.recompressed,
                  r.reclaimed());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "segment %" PRIu64 ": %s\n", id, e.what());
      rc = 1;
    }
  }
  log.flush();
  return rc;
}

int cmd_retain(const std::string& dir, const store::RetentionPolicy& policy) {
  if (policy.max_bytes == 0 && policy.max_records == 0 && policy.max_age_seconds == 0) {
    std::fprintf(stderr, "retain: give at least one of --max-bytes/--max-records/--max-age-s\n");
    return 2;
  }
  store::StoreOptions opt;
  store::LogStore log(dir, opt);
  const store::RetentionReport r = log.apply_retention(policy);
  log.flush();
  std::printf("retained out %" PRIu64 " segments (%" PRIu64 " bytes, %" PRIu64
              " records); first surviving seq %" PRIu64 "\n",
              r.segments_deleted, r.bytes_deleted, r.records_deleted, r.first_sequence);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string cmd = argv[1];
  const std::string dir = argv[2];

  std::string file;
  std::uint64_t seq = 0;
  bool have_seq = false;
  std::uint64_t seg = 0;
  bool have_seg = false;
  lzss::store::RetentionPolicy policy;
  lzss::store::StoreOptions opt;
  opt.fsync_policy = lzss::store::FsyncPolicy::kEveryRecord;

  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return (i + 1 < argc) ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (arg == "--fsync" && (v = next()) != nullptr) {
      try {
        opt.fsync_policy = lzss::store::fsync_policy_from_name(v);
      } catch (const std::invalid_argument&) {
        return usage();
      }
    } else if (arg == "--segment-kb" && (v = next()) != nullptr) {
      opt.segment_bytes = static_cast<std::size_t>(std::atoi(v)) * 1024;
    } else if (arg == "--seq" && (v = next()) != nullptr) {
      seq = static_cast<std::uint64_t>(std::atoll(v));
      have_seq = true;
    } else if (arg == "--seg" && (v = next()) != nullptr) {
      seg = static_cast<std::uint64_t>(std::atoll(v));
      have_seg = true;
    } else if (arg == "--max-bytes" && (v = next()) != nullptr) {
      policy.max_bytes = static_cast<std::uint64_t>(std::atoll(v));
    } else if (arg == "--max-records" && (v = next()) != nullptr) {
      policy.max_records = static_cast<std::uint64_t>(std::atoll(v));
    } else if (arg == "--max-age-s" && (v = next()) != nullptr) {
      policy.max_age_seconds = static_cast<std::uint64_t>(std::atoll(v));
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else if (file.empty()) {
      file = arg;
    } else {
      return usage();
    }
  }

  try {
    if (cmd == "append") return cmd_append(dir, file, opt);
    if (cmd == "cat") return cmd_cat(dir, seq, have_seq);
    if (cmd == "verify") return cmd_verify(dir);
    if (cmd == "recover") return cmd_recover(dir);
    if (cmd == "compact") return cmd_compact(dir, seg, have_seg);
    if (cmd == "retain") return cmd_retain(dir, policy);
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lzss_store: %s\n", e.what());
    return 1;
  }
}
