#include "store/log_store.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "common/checksum.hpp"
#include "common/le.hpp"
#include "deflate/container.hpp"
#include "deflate/inflate.hpp"
#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace lzss::store {

namespace {

constexpr char kSegmentMagic[4] = {'L', 'Z', 'S', 'G'};
constexpr char kRecordMagic[4] = {'L', 'Z', 'R', 'C'};
constexpr char kIndexMagic[4] = {'L', 'Z', 'S', 'X'};
constexpr std::uint32_t kFlagZlib = 0x1;
/// Tombstone written by compaction: sequence = first missing number, the
/// 8-byte payload = LE count of sequences lost to already-quarantined damage.
constexpr std::uint32_t kFlagSkip = 0x2;
constexpr std::uint32_t kSkipPayloadSize = 8;
constexpr const char* kIndexName = "index.lzsx";
constexpr const char* kIndexTmpName = "index.lzsx.tmp";
/// Compaction's staging suffix. list_segments' exact-name match ignores it,
/// so a crash before the rename leaves only the old image visible.
constexpr const char* kCompactionTmpSuffix = ".cmp";

std::vector<std::uint8_t> encode_segment_header(std::uint64_t id, std::uint64_t base_sequence) {
  std::vector<std::uint8_t> out;
  out.reserve(kSegmentHeaderSize);
  out.insert(out.end(), std::begin(kSegmentMagic), std::end(kSegmentMagic));
  le::put32(out, kFormatVersion);
  le::put64(out, id);
  le::put64(out, base_sequence);
  le::put32(out, checksum::crc32(std::span(out.data(), out.size())));
  le::put32(out, 0);  // reserved
  return out;
}

struct RecordHeader {
  std::uint64_t sequence;
  std::uint32_t raw_length;
  std::uint32_t stored_length;
  std::uint32_t flags;
  std::uint32_t crc;
};

/// Parses the fixed fields; returns false on bad magic or impossible sizes.
/// CRC still needs the payload (validate_record_at below).
bool parse_record_header(std::span<const std::uint8_t> buf, std::uint64_t off,
                         RecordHeader& out) noexcept {
  if (off + kRecordHeaderSize > buf.size()) return false;
  const std::uint8_t* p = buf.data() + off;
  if (std::memcmp(p, kRecordMagic, 4) != 0) return false;
  out.sequence = le::get64(p + 4);
  out.raw_length = le::get32(p + 12);
  out.stored_length = le::get32(p + 16);
  out.flags = le::get32(p + 20);
  out.crc = le::get32(p + 24);
  if (out.stored_length > kMaxRecordBytes || out.raw_length > kMaxRecordBytes) return false;
  if ((out.flags & ~(kFlagZlib | kFlagSkip)) != 0) return false;
  if (out.flags == (kFlagZlib | kFlagSkip)) return false;
  if (out.flags == kFlagSkip &&
      (out.raw_length != 0 || out.stored_length != kSkipPayloadSize))
    return false;
  if (out.flags == 0 && out.stored_length != out.raw_length) return false;
  if (out.sequence == 0) return false;
  if (off + kRecordHeaderSize + out.stored_length > buf.size()) return false;
  return true;
}

/// Full validation: header fields plus the CRC-32 over header-minus-crc and
/// the stored payload.
bool validate_record_at(std::span<const std::uint8_t> buf, std::uint64_t off,
                        RecordHeader& out) noexcept {
  if (!parse_record_header(buf, off, out)) return false;
  checksum::Crc32 crc;
  crc.update(buf.subspan(off, kRecordHeaderSize - 4));
  crc.update(buf.subspan(off + kRecordHeaderSize, out.stored_length));
  return crc.value() == out.crc;
}

std::string two_part_path(const std::string& dir, const char* name) {
  return dir + "/" + name;
}

/// Serializes one record (header + CRC + payload) onto the end of @p image.
void append_record_image(std::vector<std::uint8_t>& image, std::uint64_t sequence,
                         std::uint32_t raw_length, std::uint32_t flags,
                         std::span<const std::uint8_t> payload) {
  const std::size_t start = image.size();
  image.insert(image.end(), std::begin(kRecordMagic), std::end(kRecordMagic));
  le::put64(image, sequence);
  le::put32(image, raw_length);
  le::put32(image, static_cast<std::uint32_t>(payload.size()));
  le::put32(image, flags);
  checksum::Crc32 crc;
  crc.update(std::span(image.data() + start, kRecordHeaderSize - 4));
  crc.update(payload);
  le::put32(image, crc.value());
  image.insert(image.end(), payload.begin(), payload.end());
}

/// The sidecar index image: per-segment aggregates plus a trailing CRC.
/// end_sequence is the sequence the NEXT segment starts at (it is recorded
/// explicitly rather than derived as base + record_count, because a segment
/// with quarantined gaps holds fewer records than sequences — deriving it
/// would re-issue sequences that still exist as valid records after a gap).
struct IndexEntry {
  std::uint64_t id;
  std::uint64_t base_sequence;
  std::uint64_t record_count;
  std::uint64_t data_end;
  std::uint64_t end_sequence;
};

std::vector<std::uint8_t> encode_index(std::span<const IndexEntry> entries,
                                       std::uint64_t next_sequence) {
  std::vector<std::uint8_t> out;
  out.insert(out.end(), std::begin(kIndexMagic), std::end(kIndexMagic));
  le::put32(out, kFormatVersion);
  le::put32(out, static_cast<std::uint32_t>(entries.size()));
  le::put64(out, next_sequence);
  for (const IndexEntry& e : entries) {
    le::put64(out, e.id);
    le::put64(out, e.base_sequence);
    le::put64(out, e.record_count);
    le::put64(out, e.data_end);
    le::put64(out, e.end_sequence);
  }
  le::put32(out, checksum::crc32(std::span(out.data(), out.size())));
  return out;
}

bool decode_index(std::span<const std::uint8_t> buf, std::vector<IndexEntry>& entries,
                  std::uint64_t& next_sequence) {
  if (buf.size() < 24 || std::memcmp(buf.data(), kIndexMagic, 4) != 0) return false;
  if (le::get32(buf.data() + 4) != kFormatVersion) return false;
  const std::uint32_t count = le::get32(buf.data() + 8);
  const std::size_t body = 20 + static_cast<std::size_t>(count) * 40;
  if (buf.size() != body + 4) return false;
  if (le::get32(buf.data() + body) != checksum::crc32(buf.first(body))) return false;
  next_sequence = le::get64(buf.data() + 12);
  entries.clear();
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint8_t* p = buf.data() + 20 + static_cast<std::size_t>(i) * 40;
    entries.push_back({le::get64(p), le::get64(p + 8), le::get64(p + 16), le::get64(p + 24),
                       le::get64(p + 32)});
    if (entries.back().end_sequence < entries.back().base_sequence) return false;
  }
  return true;
}

std::vector<std::pair<std::uint64_t, std::string>> list_segments(const std::string& dir) {
  std::vector<std::pair<std::uint64_t, std::string>> out;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    unsigned long long id = 0;
    // sscanf alone is prefix-matching (it returns 1 once the id converts,
    // whether or not ".lzseg" follows), so stray siblings like
    // seg-00000001.lzseg.bak would alias a real segment id. Re-render the
    // canonical name from the parsed id and require an exact match.
    if (std::sscanf(name.c_str(), "seg-%llu", &id) != 1) continue;
    char expect[32];
    std::snprintf(expect, sizeof(expect), "seg-%08llu.lzseg", id);
    if (name == expect) out.emplace_back(id, entry.path().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

void render_gaps(std::string& out, const std::vector<Gap>& gaps) {
  char line[160];
  for (const Gap& g : gaps) {
    std::snprintf(line, sizeof(line),
                  "  gap: segment %" PRIu64 " offset %" PRIu64 " (%" PRIu64
                  " bytes, %" PRIu64 " records from seq %" PRIu64 ")%s\n",
                  g.segment_id, g.offset, g.bytes, g.sequence_count, g.first_sequence,
                  g.tombstone ? " [tombstone]" : "");
    out += line;
  }
}

/// Damage that ran to the end of a sealed segment lost every sequence up to
/// where the next segment starts, the one place that count is known.
/// Recovery and the offline verify both pin through here.
void pin_open_gap(Gap& gap, std::uint64_t next_base) noexcept {
  if (next_base > gap.first_sequence) gap.sequence_count = next_base - gap.first_sequence;
}

}  // namespace

struct LogStore::SegScan {
  bool header_ok = false;
  /// gaps.back() runs to EOF (the whole file when the header rotted); its
  /// sequence count stays 0 until pin_open_gap knows the next base.
  bool open_end = false;
  std::uint64_t base_sequence = 0;  ///< the header's, or the caller's when it rotted
  std::uint64_t file_size = 0;
  std::uint64_t data_end = kSegmentHeaderSize;  ///< offset past last valid record
  std::uint64_t next_expected = 0;              ///< sequence after the last record
  std::vector<RecordRef> records;
  std::vector<Gap> gaps;

  /// In the tail, damage running to EOF is a torn write rather than a gap:
  /// drops it and returns its bytes, for the caller to truncate or reset.
  std::uint64_t take_torn_tail() {
    if (!open_end) return 0;
    open_end = false;
    const std::uint64_t bytes = gaps.back().bytes;
    gaps.pop_back();
    return bytes;
  }
};

LogStore::SegScan LogStore::scan_segment(const std::string& path, std::uint64_t id,
                                         std::uint64_t expected_base) {
  SegScan out;
  File f = File::open_ro(path);
  out.file_size = f.size();
  std::vector<std::uint8_t> buf(out.file_size);
  if (!buf.empty()) f.pread(0, buf);
  const auto damage = [&](std::uint64_t off, std::uint64_t bytes, std::uint64_t first,
                          std::uint64_t count) {
    out.gaps.push_back({id, off, bytes, first, count});
  };

  // Segment header: magic, version, and its own CRC. A file that fails here
  // carries nothing recoverable: one gap over the whole file.
  if (buf.size() < kSegmentHeaderSize || std::memcmp(buf.data(), kSegmentMagic, 4) != 0 ||
      le::get32(buf.data() + 4) != kFormatVersion ||
      le::get32(buf.data() + 24) != checksum::crc32(std::span(buf.data(), 24))) {
    out.base_sequence = out.next_expected = expected_base;
    damage(0, out.file_size, expected_base, 0);
    out.open_end = true;
    return out;
  }
  out.header_ok = true;
  out.base_sequence = le::get64(buf.data() + 16);

  std::uint64_t off = kSegmentHeaderSize;
  std::uint64_t expected = out.base_sequence;
  while (off < buf.size()) {
    RecordHeader h{};
    if (validate_record_at(buf, off, h) && h.sequence == expected) {
      if ((h.flags & kFlagSkip) != 0) {
        // A tombstone: compaction's durable stand-in for sequences that were
        // already quarantined. The chain resumes past the recorded count.
        const std::uint64_t count = le::get64(buf.data() + off + kRecordHeaderSize);
        if (count != 0) {
          out.gaps.push_back({id, off, kRecordHeaderSize + h.stored_length, h.sequence, count,
                              /*tombstone=*/true});
          off += kRecordHeaderSize + h.stored_length;
          out.data_end = off;
          expected = h.sequence + count;
          continue;
        }
        // A zero-count skip marker is nothing compaction writes: fall
        // through to damage handling.
      } else {
        out.records.push_back({h.sequence, off, h.raw_length, h.stored_length, h.flags});
        off += kRecordHeaderSize + h.stored_length;
        out.data_end = off;
        expected = h.sequence + 1;
        continue;
      }
    }
    // Damage starting at `off`: resync by scanning for the next frame that
    // fully validates (magic + bounds + CRC + a later sequence).
    std::uint64_t cand = off + 1;
    for (; cand + kRecordHeaderSize <= buf.size(); ++cand) {
      RecordHeader h2{};
      if (std::memcmp(buf.data() + cand, kRecordMagic, 4) == 0 &&
          validate_record_at(buf, cand, h2) && h2.sequence >= expected) {
        damage(off, cand - off, expected, h2.sequence - expected);
        expected = h2.sequence;
        break;
      }
    }
    if (cand + kRecordHeaderSize > buf.size()) {
      damage(off, buf.size() - off, expected, 0);
      out.open_end = true;
      break;
    }
    off = cand;
  }
  out.next_expected = expected;
  return out;
}

void LogStore::Segment::adopt(SegScan&& scan) {
  records = std::move(scan.records);
  gaps = std::move(scan.gaps);
  record_count = records.size();
  data_end = scan.data_end;
  loaded = true;
}

void LogStore::Segment::vouch() noexcept {
  vouched_records = record_count;
  vouched_gaps = static_cast<std::uint64_t>(
      std::count_if(gaps.begin(), gaps.end(), [](const Gap& g) { return !g.tombstone; }));
}

const char* fsync_policy_name(FsyncPolicy p) noexcept {
  switch (p) {
    case FsyncPolicy::kNever: return "never";
    case FsyncPolicy::kInterval: return "interval";
    case FsyncPolicy::kEveryRecord: return "every-record";
  }
  return "?";
}

FsyncPolicy fsync_policy_from_name(const std::string& name) {
  if (name == "never") return FsyncPolicy::kNever;
  if (name == "interval") return FsyncPolicy::kInterval;
  if (name == "every-record") return FsyncPolicy::kEveryRecord;
  throw std::invalid_argument("unknown fsync policy: " + name);
}

void StoreOptions::validate() const {
  if (segment_bytes < kSegmentHeaderSize + kRecordHeaderSize)
    throw std::invalid_argument("StoreOptions: segment_bytes too small");
  if (fsync_policy == FsyncPolicy::kInterval && fsync_interval_records == 0)
    throw std::invalid_argument("StoreOptions: zero fsync interval");
}

std::string RecoveryReport::render() const {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line),
                "recovered %" PRIu64 " records (next seq %" PRIu64 "), %" PRIu64
                " torn tail bytes discarded, index %s\n",
                records, next_sequence, torn_bytes_discarded,
                index_rebuilt ? "rebuilt" : "loaded");
  out += line;
  render_gaps(out, gaps);
  return out;
}

std::string VerifyReport::render() const {
  std::string out;
  char line[192];
  std::snprintf(line, sizeof(line),
                "%" PRIu64 " segments, %" PRIu64 " records, %" PRIu64 " -> %" PRIu64
                " bytes, %" PRIu64 " torn tail bytes, %zu gaps: %s\n",
                segments, records, payload_bytes, stored_bytes, torn_tail_bytes, gaps.size(),
                ok() ? "OK" : "DAMAGED");
  out += line;
  render_gaps(out, gaps);
  return out;
}

LogStore::LogStore(std::string dir, StoreOptions options, RecoveryReport* report)
    : dir_(std::move(dir)), opt_(options) {
  opt_.validate();
  std::filesystem::create_directories(dir_);

  // Recovery findings land in the member first (bind_metrics exports them
  // later); the out-param is a courtesy copy.
  RecoveryReport& rep = recovery_;
  rep = RecoveryReport{};

  const auto found = list_segments(dir_);
  if (found.empty()) {
    create_segment_locked(1, 1);
    write_index_locked();
    rep.next_sequence = next_sequence_;
    if (report != nullptr) *report = recovery_;
    return;
  }

  // Try the sidecar. It is advisory: any inconsistency with the directory —
  // wrong segment set, a file shorter than its indexed extent — means it is
  // stale and everything is rebuilt from the segments themselves.
  std::vector<IndexEntry> idx;
  std::uint64_t idx_next = 0;
  bool index_usable = false;
  try {
    File f = File::open_ro(two_part_path(dir_, kIndexName));
    std::vector<std::uint8_t> buf(f.size());
    if (!buf.empty()) f.pread(0, buf);
    index_usable = decode_index(buf, idx, idx_next);
  } catch (const IoError&) {
    index_usable = false;
  }
  if (index_usable && idx.size() == found.size()) {
    for (std::size_t i = 0; i < idx.size(); ++i) {
      if (idx[i].id != found[i].first ||
          File::open_ro(found[i].second).size() < idx[i].data_end) {
        index_usable = false;
        break;
      }
    }
  } else {
    index_usable = false;
  }
  rep.index_rebuilt = !index_usable;

  std::uint64_t expected = 1;  // sequence the next segment should start at
  bool open_gap = false;       // the previous segment's damage ran to its end
  for (std::size_t i = 0; i < found.size(); ++i) {
    const bool last = i + 1 == found.size();
    Segment seg;
    seg.id = found[i].first;
    bool open_end = false;

    if (index_usable && !last) {
      // Sealed segment vouched for by the index: trust the aggregates, defer
      // the per-record scan until a read needs it.
      seg.base_sequence = idx[i].base_sequence;
      seg.record_count = seg.vouched_records = idx[i].record_count;
      seg.data_end = idx[i].data_end;
      // The recorded end, NOT base + record_count: a gappy segment holds
      // fewer records than sequences, and recreating a headerless tail from
      // the undercount would re-issue live sequence numbers.
      expected = idx[i].end_sequence;
    } else {
      SegScan scan = scan_segment(found[i].second, seg.id, expected);
      if (last) {
        // In the tail, damage running to EOF is a torn write, not a gap: it
        // is truncated below, where the tail reopens.
        rep.torn_bytes_discarded += scan.take_torn_tail();
        if (!scan.header_ok) {
          // The tail segment's own header never made it to disk: everything
          // in the file is torn. Reset it in place and resume appending.
          create_segment_locked(seg.id, expected);
          continue;
        }
      }
      seg.base_sequence = scan.base_sequence;
      expected = scan.next_expected;
      open_end = scan.open_end;
      seg.adopt(std::move(scan));
      seg.vouch();
    }
    if (open_gap) pin_open_gap(segments_.back().gaps.back(), seg.base_sequence);
    open_gap = open_end;
    segments_.push_back(std::move(seg));
  }
  for (const Segment& s : segments_) rep.gaps.insert(rep.gaps.end(), s.gaps.begin(), s.gaps.end());

  first_sequence_ = segments_.front().base_sequence;
  next_sequence_ = std::max(expected, std::uint64_t{1});

  // Reopen the tail for appending (create_segment_locked already did when the
  // tail was reset above).
  if (!tail_file_.is_open()) {
    tail_file_ = File::open_rw(found.back().second);
    tail_offset_ = segments_.back().data_end;
    if (tail_file_.size() > tail_offset_) {
      // Torn tail: truncate the garbage so appends resume at a clean edge.
      // Syncing the repair is best-effort: the truncate is effective
      // regardless, and if it is lost to a crash, recovery simply runs
      // again — so a flaky disk must not make the store unopenable.
      tail_file_.truncate(tail_offset_);
      try {
        tail_file_.fsync();
      } catch (const IoError&) {
      }
    }
  }

  rep.next_sequence = next_sequence_;
  for (const Segment& s : segments_) rep.records += s.record_count;

  if (rep.index_rebuilt || rep.torn_bytes_discarded != 0) {
    // Refresh the sidecar; failure is tolerable (it stays advisory).
    try {
      write_index_locked();
    } catch (const IoError&) {
      index_dirty_ = true;
    }
  }
  if (report != nullptr) *report = recovery_;
}

LogStore::~LogStore() {
  try {
    flush();
  } catch (...) {
    // Destructor: durability best-effort; the segments on disk stay valid.
  }
}

std::string LogStore::segment_path(std::uint64_t id) const {
  char name[32];
  std::snprintf(name, sizeof(name), "seg-%08llu.lzseg", static_cast<unsigned long long>(id));
  return two_part_path(dir_, name);
}

void LogStore::create_segment_locked(std::uint64_t id, std::uint64_t base_sequence) {
  File f = File::create(segment_path(id));
  const auto header = encode_segment_header(id, base_sequence);
  f.pwrite(0, header);
  f.fsync();
  File::sync_dir(dir_);

  Segment seg;
  seg.id = id;
  seg.base_sequence = base_sequence;
  seg.loaded = true;
  segments_.push_back(std::move(seg));
  tail_file_ = std::move(f);
  tail_offset_ = kSegmentHeaderSize;
  stat_bytes_stored_ += header.size();
}

void LogStore::fsync_tail_io() {
  // Action point for latency shaping: a kDelay here models a disk whose
  // flushes crawl. Because appends fsync under io_mutex_ only, readers keep
  // answering while the flush drags (pinned by a regression test).
  fault::point("store.fsync.pace");
  obs::Span span(trace_, "store.fsync");
  const auto t0 = std::chrono::steady_clock::now();
  tail_file_.fsync();
  stat_fsyncs_.fetch_add(1, std::memory_order_relaxed);
  unsynced_records_ = 0;
  if (m_fsyncs_ != nullptr) {
    m_fsyncs_->add(1);
    m_fsync_us_->record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
  }
}

void LogStore::rotate_locked() {
  // Seal the old tail durably before the new segment exists, so recovery
  // never finds a newer segment whose predecessor is still volatile.
  // (Rotation runs under BOTH io_mutex_ and mutex_ — the one rare spot that
  // still fsyncs under the metadata lock, because the tail handle itself is
  // being replaced.)
  fsync_tail_io();
  if (m_rotations_ != nullptr) m_rotations_->add(1);
  segments_.back().vouch();  // sealed from here on: scrub compares against this
  const std::uint64_t next_id = segments_.back().id + 1;
  create_segment_locked(next_id, next_sequence_);
  if (m_segments_g_ != nullptr)
    m_segments_g_->set(static_cast<std::int64_t>(segments_.size()));
  update_retained_gauge_locked();
  try {
    write_index_locked();
  } catch (const IoError&) {
    index_dirty_ = true;  // advisory; the next flush/rotation retries
  }
}

void LogStore::write_index_locked() {
  std::vector<IndexEntry> entries;
  entries.reserve(segments_.size());
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    const Segment& s = segments_[i];
    // A sealed segment's end sequence is pinned by its successor's base;
    // the tail's is the live next_sequence_. Both stay correct even when
    // the segment's record_count later shrinks to a lazily-found gap.
    const std::uint64_t end_sequence =
        i + 1 < segments_.size() ? segments_[i + 1].base_sequence : next_sequence_;
    entries.push_back({s.id, s.base_sequence, s.record_count, s.data_end, end_sequence});
  }
  const auto image = encode_index(entries, next_sequence_);

  const std::string tmp = two_part_path(dir_, kIndexTmpName);
  File f = File::create(tmp);
  f.pwrite(0, image);
  f.fsync();
  f.close();
  File::rename_file(tmp, two_part_path(dir_, kIndexName));
  File::sync_dir(dir_);
  index_dirty_ = false;
}

std::uint64_t LogStore::append(std::span<const std::uint8_t> bytes) {
  // Parents under the calling worker's span via the thread-local context;
  // the nested store.fsync span (when the policy syncs) hangs off this one.
  obs::Span span(trace_, "store.append");
  span.set_args(static_cast<std::int64_t>(bytes.size()));
  // The cap applies to the RAW size, not the stored payload: recovery's
  // parse_record_header rejects raw_length > kMaxRecordBytes as corruption,
  // so an oversized-but-compressible record must never be acked — it would
  // read fine in-session and then quarantine on reopen. Checking up front
  // also keeps bytes.size() within the header's u32 fields.
  if (bytes.size() > kMaxRecordBytes)
    throw StoreError(StoreError::Kind::kBadFormat,
                     "record of " + std::to_string(bytes.size()) +
                         " bytes exceeds the per-record cap of " +
                         std::to_string(kMaxRecordBytes));

  // Encode outside the lock: compression dominates append cost.
  std::uint32_t flags = 0;
  std::vector<std::uint8_t> stored;
  if (opt_.compress && !bytes.empty()) {
    auto z = deflate::zlib_compress(bytes, opt_.params, deflate::BlockKind::kDynamic);
    if (z.size() < bytes.size()) {
      stored = std::move(z);
      flags = kFlagZlib;
    }
  }
  // stored is only kept when strictly smaller than bytes, so the payload is
  // within the cap whenever the raw size is.
  const std::span<const std::uint8_t> payload =
      flags != 0 ? std::span<const std::uint8_t>(stored) : bytes;

  // io_mutex_ serializes the write+sync phase between appenders. mutex_ is
  // held only for the brief metadata read before the I/O and the publish
  // after it, so read()/stats() never wait out a disk flush.
  const std::lock_guard<std::mutex> io_lock(io_mutex_);
  std::uint64_t seq = 0;
  std::uint64_t off = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (tail_offset_ + kRecordHeaderSize + payload.size() > opt_.segment_bytes &&
        segments_.back().record_count != 0) {
      rotate_locked();
    }
    seq = next_sequence_;
    off = tail_offset_;
  }

  std::vector<std::uint8_t> rec;
  rec.reserve(kRecordHeaderSize + payload.size());
  append_record_image(rec, seq, static_cast<std::uint32_t>(bytes.size()), flags, payload);

  // Write, then satisfy the fsync policy, then — only then — publish the
  // record. Any throw on this path means the record was NOT appended: the
  // tail offset is unchanged and the next append overwrites the torn bytes.
  // (io_mutex_ guarantees no later append wrote past the torn bytes in the
  // meantime.)
  tail_file_.pwrite(off, rec);
  switch (opt_.fsync_policy) {
    case FsyncPolicy::kNever:
      ++unsynced_records_;
      break;
    case FsyncPolicy::kEveryRecord:
      fsync_tail_io();
      break;
    case FsyncPolicy::kInterval:
      // Counts the record just written; on a sync the counter resets so the
      // synced record is not carried into the next window.
      if (unsynced_records_ + 1 >= opt_.fsync_interval_records) {
        fsync_tail_io();
      } else {
        ++unsynced_records_;
      }
      break;
  }

  const std::lock_guard<std::mutex> lock(mutex_);
  Segment& tail = segments_.back();
  tail.records.push_back({seq, off, static_cast<std::uint32_t>(bytes.size()),
                          static_cast<std::uint32_t>(payload.size()), flags});
  ++tail.record_count;
  tail_offset_ = off + rec.size();
  tail.data_end = tail_offset_;
  next_sequence_ = seq + 1;
  ++stat_appends_;
  stat_bytes_in_ += bytes.size();
  stat_bytes_stored_ += rec.size();
  if (m_appends_ != nullptr) {
    m_appends_->add(1);
    m_bytes_in_->add(bytes.size());
    m_bytes_stored_->add(rec.size());
  }
  return seq;
}

LogStore::Segment* LogStore::find_segment_locked(std::uint64_t sequence) {
  // Last segment whose base is <= sequence.
  auto it = std::upper_bound(segments_.begin(), segments_.end(), sequence,
                             [](std::uint64_t seq, const Segment& s) {
                               return seq < s.base_sequence;
                             });
  if (it == segments_.begin()) return nullptr;
  return &*std::prev(it);
}

void LogStore::load_segment_locked(Segment& seg) {
  seg.adopt(scan_segment(segment_path(seg.id), seg.id, seg.base_sequence));
}

RecordVerdict LogStore::fetch_record_locked(std::uint64_t sequence, std::uint64_t skip,
                                            SealedHandle& sealed, RecordRef& ref,
                                            std::vector<std::uint8_t>& bytes) {
  if (sequence < first_sequence_ || sequence >= next_sequence_) return RecordVerdict::kNotFound;
  Segment* seg = find_segment_locked(sequence);
  if (seg == nullptr) return RecordVerdict::kNotFound;
  if (!seg->loaded) load_segment_locked(*seg);
  const auto it = std::lower_bound(seg->records.begin(), seg->records.end(), sequence,
                                   [](const RecordRef& r, std::uint64_t s) {
                                     return r.sequence < s;
                                   });
  if (it == seg->records.end() || it->sequence != sequence) return RecordVerdict::kGap;
  ref = *it;

  bytes.resize(kRecordHeaderSize + ref.stored_length - skip);
  if (bytes.empty()) return RecordVerdict::kOk;
  if (seg == &segments_.back()) {
    tail_file_.pread(ref.offset + skip, bytes);
  } else {
    if (!sealed.file.is_open() || sealed.id != seg->id) {
      sealed.file = File::open_ro(segment_path(seg->id));
      sealed.id = seg->id;
    }
    sealed.file.pread(ref.offset + skip, bytes);
  }
  return RecordVerdict::kOk;
}

std::vector<std::uint8_t> LogStore::read(std::uint64_t sequence) {
  const std::lock_guard<std::mutex> lock(mutex_);
  SealedHandle sealed;
  RecordRef ref{};
  std::vector<std::uint8_t> payload;
  switch (fetch_record_locked(sequence, kRecordHeaderSize, sealed, ref, payload)) {
    case RecordVerdict::kNotFound:
      throw StoreError(StoreError::Kind::kNotFound,
                       "sequence " + std::to_string(sequence) + " not in store");
    case RecordVerdict::kGap:
      throw StoreError(StoreError::Kind::kGap,
                       "sequence " + std::to_string(sequence) + " lost to storage damage");
    default:
      break;
  }

  if ((ref.flags & kFlagZlib) == 0) return payload;
  try {
    // raw_length (bounded by kMaxRecordBytes at parse) sizes the output.
    std::vector<std::uint8_t> raw(ref.raw_length);
    if (deflate::zlib_decompress_into(payload, raw) != raw.size())
      throw StoreError(StoreError::Kind::kCorrupt, "record inflated to the wrong size");
    return raw;
  } catch (const deflate::InflateError& e) {
    throw StoreError(StoreError::Kind::kCorrupt,
                     "record " + std::to_string(sequence) + " failed to inflate: " + e.what());
  }
}

std::uint64_t LogStore::first_sequence() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return first_sequence_;
}

std::uint64_t LogStore::next_sequence() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return next_sequence_;
}

void LogStore::flush() {
  // Same split as append: the fsync happens under io_mutex_ only, the index
  // publish under mutex_. tail_file_ is only re-seated under both locks, so
  // the open check is stable here.
  const std::lock_guard<std::mutex> io_lock(io_mutex_);
  if (!tail_file_.is_open()) return;
  fsync_tail_io();
  const std::lock_guard<std::mutex> lock(mutex_);
  write_index_locked();
}

void LogStore::bind_metrics(obs::Registry& registry, obs::TraceRing* trace) {
  const std::lock_guard<std::mutex> lock(mutex_);
  m_appends_ = &registry.counter("store_appends_total");
  m_bytes_in_ = &registry.counter("store_bytes_in_total");
  m_bytes_stored_ = &registry.counter("store_bytes_stored_total");
  m_fsyncs_ = &registry.counter("store_fsyncs_total");
  m_rotations_ = &registry.counter("store_rotations_total");
  m_fsync_us_ = &registry.histogram("store_fsync_us");
  m_compactions_ = &registry.counter("store_compactions_total");
  m_compaction_failures_ = &registry.counter("store_compaction_failures_total");
  m_compaction_reclaimed_ = &registry.counter("store_compaction_reclaimed_bytes_total");
  m_compaction_recompressed_ = &registry.counter("store_compaction_recompressed_total");
  m_scrub_segments_ = &registry.counter("store_scrub_segments_total");
  m_scrub_records_ = &registry.counter("store_scrub_records_total");
  m_scrub_errors_ = &registry.counter("store_scrub_errors_total");
  m_retention_segments_ = &registry.counter("store_retention_segments_total");
  m_retention_bytes_ = &registry.counter("store_retention_bytes_total");
  trace_ = trace;
  // One-shot export of what the opening recovery pass found/did. Counters
  // are cumulative across binds by design (a registry shared across store
  // generations keeps the full history). Tombstones are accounted damage
  // from a *previous* life, not something this recovery found — exclude
  // them from the gap count.
  std::uint64_t fresh_gaps = 0;
  for (const Gap& g : recovery_.gaps)
    if (!g.tombstone) ++fresh_gaps;
  registry.counter("store_recovery_records_total").add(recovery_.records);
  registry.counter("store_recovery_torn_bytes_total").add(recovery_.torn_bytes_discarded);
  registry.counter("store_recovery_gaps_total").add(fresh_gaps);
  registry.counter("store_recovery_index_rebuilds_total").add(recovery_.index_rebuilt ? 1 : 0);
  // Push-style gauges, not collectors: a collector capturing `this` could
  // outlive the store when the registry is shared.
  m_segments_g_ = &registry.gauge("store_segments");
  m_segments_g_->set(static_cast<std::int64_t>(segments_.size()));
  m_retained_bytes_g_ = &registry.gauge("store_retained_bytes");
  update_retained_gauge_locked();
}

StoreStats LogStore::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  StoreStats out;
  out.appends = stat_appends_;
  out.fsyncs = stat_fsyncs_.load(std::memory_order_relaxed);
  out.bytes_in = stat_bytes_in_;
  out.bytes_stored = stat_bytes_stored_;
  out.segments = segments_.size();
  for (const Segment& s : segments_) out.records += s.record_count;
  return out;
}

LogStore::Segment* LogStore::find_segment_by_id_locked(std::uint64_t id) {
  for (Segment& s : segments_)
    if (s.id == id) return &s;
  return nullptr;
}

void LogStore::update_retained_gauge_locked() {
  if (m_retained_bytes_g_ == nullptr) return;
  std::uint64_t total = 0;
  for (const Segment& s : segments_) total += s.data_end;
  m_retained_bytes_g_->set(static_cast<std::int64_t>(total));
}

std::vector<SegmentInfo> LogStore::segment_infos() {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SegmentInfo> out;
  out.reserve(segments_.size());
  const auto now = std::filesystem::file_time_type::clock::now();
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    Segment& s = segments_[i];
    const bool sealed = i + 1 != segments_.size();
    if (sealed && !s.loaded) load_segment_locked(s);
    SegmentInfo info;
    info.id = s.id;
    info.base_sequence = s.base_sequence;
    info.record_count = s.record_count;
    info.bytes = s.data_end;
    info.sealed = sealed;
    for (const Gap& g : s.gaps)
      if (!g.tombstone) info.garbage_bytes += g.bytes;
    for (const RecordRef& r : s.records)
      if ((r.flags & (kFlagZlib | kFlagSkip)) == 0 && r.raw_length != 0) ++info.raw_records;
    std::error_code ec;
    const auto mtime = std::filesystem::last_write_time(segment_path(s.id), ec);
    if (!ec)
      info.age_seconds =
          std::chrono::duration_cast<std::chrono::duration<double>>(now - mtime).count();
    out.push_back(info);
  }
  return out;
}

std::vector<std::uint64_t> LogStore::sealed_segment_ids() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::uint64_t> out;
  for (std::size_t i = 0; i + 1 < segments_.size(); ++i) out.push_back(segments_[i].id);
  return out;
}

CompactionReport LogStore::compact_segment(std::uint64_t id) {
  const std::lock_guard<std::mutex> maint(maintenance_mutex_);
  const auto note_failure = [this] {
    if (m_compaction_failures_ != nullptr) m_compaction_failures_->add(1);
  };

  // Snapshot the live-record table under the metadata lock. Everything the
  // rewrite needs is pinned from here on: sealed segments are immutable
  // (appends touch only the tail, other maintenance is excluded by
  // maintenance_mutex_), and the chain's end sequence is the successor's
  // base — exactly what the index records.
  std::uint64_t base = 0;
  std::uint64_t end = 0;
  std::uint64_t bytes_before = 0;
  std::vector<RecordRef> refs;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    Segment* seg = find_segment_by_id_locked(id);
    if (seg == nullptr)
      throw StoreError(StoreError::Kind::kNotFound,
                       "segment " + std::to_string(id) + " not in store");
    if (seg == &segments_.back())
      throw StoreError(StoreError::Kind::kBadFormat, "cannot compact the active tail segment");
    if (!seg->loaded) load_segment_locked(*seg);
    base = seg->base_sequence;
    bytes_before = seg->data_end;
    refs = seg->records;
    std::size_t i = 0;
    while (segments_[i].id != id) ++i;
    end = segments_[i + 1].base_sequence;
  }

  // Build the replacement image outside every lock. Live records are copied
  // (RAW-fallback ones re-tried through deflate: they were stored raw only
  // because the ingest-time ratio guard fired, and the offline pass can
  // afford the attempt); lost sequence ranges become skip markers so the
  // scanner sees an intentional, pinned chain instead of byte damage.
  CompactionReport report;
  report.segment_id = id;
  report.bytes_before = bytes_before;
  const std::string path = segment_path(id);
  std::vector<std::uint8_t> image;
  SegScan next;  // the new image's table, adopted once the rename lands
  try {
    File old = File::open_ro(path);
    image = encode_segment_header(id, base);
    next.records.reserve(refs.size());
    std::uint64_t expected = base;
    const auto emit_skip = [&](std::uint64_t first, std::uint64_t count) {
      Gap gap;
      gap.segment_id = id;
      gap.offset = image.size();
      gap.bytes = kRecordHeaderSize + kSkipPayloadSize;
      gap.first_sequence = first;
      gap.sequence_count = count;
      gap.tombstone = true;
      std::vector<std::uint8_t> skip_payload;
      le::put64(skip_payload, count);
      append_record_image(image, first, 0, kFlagSkip, skip_payload);
      next.gaps.push_back(gap);
    };
    for (const RecordRef& r : refs) {
      if (r.sequence > expected) emit_skip(expected, r.sequence - expected);
      std::vector<std::uint8_t> payload(r.stored_length);
      if (!payload.empty()) old.pread(r.offset + kRecordHeaderSize, payload);
      std::uint32_t flags = r.flags;
      if (flags == 0 && r.raw_length != 0 && opt_.compress) {
        auto z = deflate::zlib_compress(payload, opt_.params, deflate::BlockKind::kDynamic);
        if (z.size() < payload.size()) {
          payload = std::move(z);
          flags = kFlagZlib;
          ++report.recompressed;
        }
      }
      const std::uint64_t off = image.size();
      append_record_image(image, r.sequence, r.raw_length, flags, payload);
      next.records.push_back({r.sequence, off, r.raw_length,
                              static_cast<std::uint32_t>(payload.size()), flags});
      expected = r.sequence + 1;
    }
    if (expected < end) emit_skip(expected, end - expected);
  } catch (...) {
    note_failure();
    throw;
  }
  report.records = next.records.size();
  report.bytes_after = next.data_end = image.size();

  // Stage the image next to the old segment. The suffix keeps it invisible
  // to recovery's exact-name listing: a crash anywhere before the rename
  // leaves only the old image live, and the stale tmp is harmless litter.
  const std::string tmp = path + kCompactionTmpSuffix;
  try {
    File f = File::create(tmp);
    f.pwrite(0, image);
    f.fsync();
    f.close();
    // The crash-window point: tests park the process here with kDelay (tmp
    // staged, rename not yet issued) and SIGKILL it, or throw to abort.
    fault::point("store.compact.crash");
  } catch (...) {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    note_failure();
    throw;
  }

  const std::lock_guard<std::mutex> lock(mutex_);
  try {
    // rename(2) onto the live name: atomic replace, so there is no instant
    // where neither image exists — and deliberately no unlink step. The
    // swap must happen under mutex_: a reader resolving offsets against the
    // old table must never open the new file.
    File::rename_file(tmp, path, "store.compact.rename");
  } catch (...) {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    note_failure();
    throw;
  }
  try {
    File::sync_dir(dir_);
  } catch (const IoError&) {
    // A power cut could resurrect the old image — which is equally intact;
    // either side of the rename satisfies the crash contract.
  }
  Segment* seg = find_segment_by_id_locked(id);
  seg->adopt(std::move(next));
  seg->vouch();
  try {
    write_index_locked();
  } catch (const IoError&) {
    index_dirty_ = true;  // advisory; a stale index is rebuilt on reopen
  }
  if (m_compactions_ != nullptr) {
    m_compactions_->add(1);
    m_compaction_reclaimed_->add(report.reclaimed());
    m_compaction_recompressed_->add(report.recompressed);
  }
  update_retained_gauge_locked();
  return report;
}

RetentionReport LogStore::apply_retention(const RetentionPolicy& policy) {
  const std::lock_guard<std::mutex> maint(maintenance_mutex_);
  RetentionReport report;
  for (;;) {
    std::uint64_t victim_id = 0;
    std::uint64_t victim_bytes = 0;
    std::uint64_t victim_records = 0;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      report.first_sequence = first_sequence_;
      if (segments_.size() < 2) break;  // the active tail is never deleted
      std::uint64_t total_bytes = 0;
      std::uint64_t total_records = 0;
      for (const Segment& s : segments_) {
        total_bytes += s.data_end;
        total_records += s.record_count;
      }
      bool over = (policy.max_bytes != 0 && total_bytes > policy.max_bytes) ||
                  (policy.max_records != 0 && total_records > policy.max_records);
      if (!over && policy.max_age_seconds != 0) {
        std::error_code ec;
        const auto mtime =
            std::filesystem::last_write_time(segment_path(segments_.front().id), ec);
        if (!ec) {
          const auto age = std::chrono::duration_cast<std::chrono::duration<double>>(
                               std::filesystem::file_time_type::clock::now() - mtime)
                               .count();
          over = age > static_cast<double>(policy.max_age_seconds);
        }
      }
      if (!over) break;
      victim_id = segments_.front().id;
      victim_bytes = segments_.front().data_end;
      victim_records = segments_.front().record_count;
    }

    // Unlink first, metadata after. A crash in between leaves the directory
    // and the index out of step, which reopen resolves with a rebuild; a
    // thrown unlink aborts the pass with everything already deleted still
    // consistently gone.
    const std::string victim_path = segment_path(victim_id);
    if (fault::fires("store.retain.unlink")) throw IoError("unlink", victim_path, EIO);
    std::error_code ec;
    std::filesystem::remove(victim_path, ec);
    if (ec) throw IoError("unlink", victim_path, ec.value());

    const std::lock_guard<std::mutex> lock(mutex_);
    // The front cannot have moved underneath us: retention and compaction
    // exclude each other via maintenance_mutex_, and appends only grow the
    // back of the chain.
    segments_.erase(segments_.begin());
    first_sequence_ = segments_.front().base_sequence;
    report.first_sequence = first_sequence_;
    ++report.segments_deleted;
    report.bytes_deleted += victim_bytes;
    report.records_deleted += victim_records;
    if (m_retention_segments_ != nullptr) {
      m_retention_segments_->add(1);
      m_retention_bytes_->add(victim_bytes);
    }
    try {
      write_index_locked();
    } catch (const IoError&) {
      index_dirty_ = true;
    }
    if (m_segments_g_ != nullptr)
      m_segments_g_->set(static_cast<std::int64_t>(segments_.size()));
    update_retained_gauge_locked();
  }
  return report;
}

ScrubReport LogStore::scrub_segment(std::uint64_t id) {
  const std::lock_guard<std::mutex> maint(maintenance_mutex_);
  ScrubReport report;
  report.segment_id = id;

  std::uint64_t base = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    Segment* seg = find_segment_by_id_locked(id);
    if (seg == nullptr)
      throw StoreError(StoreError::Kind::kNotFound,
                       "segment " + std::to_string(id) + " not in store");
    if (seg == &segments_.back())
      throw StoreError(StoreError::Kind::kBadFormat, "cannot scrub the active tail segment");
    base = seg->base_sequence;
  }

  // Re-read the file end to end outside the locks (sealed == immutable). A
  // failing disk surfaces as a counted error, never an exception — scrub
  // runs unattended inside the server and must not take it down.
  SegScan scan;
  try {
    if (fault::fires("store.scrub.read")) throw IoError("read", segment_path(id), EIO);
    scan = scan_segment(segment_path(id), id, base);
  } catch (const IoError&) {
    report.errors = 1;
    if (m_scrub_segments_ != nullptr) {
      m_scrub_segments_->add(1);
      m_scrub_errors_->add(report.errors);
    }
    return report;
  }
  report.bytes = scan.file_size;
  report.records = scan.records.size();

  // Escalate fresh damage: adopt the scan as the segment's authoritative
  // table, so reads of newly-lost sequences answer kGap from now on. The
  // delta is taken against the vouched baseline, deliberately NOT against a
  // lazy load, which may already have run into the very damage this scrub
  // is here to report. (Other maintenance, the only thing that re-vouches a
  // sealed segment, is excluded by maintenance_mutex_.)
  const std::lock_guard<std::mutex> lock(mutex_);
  Segment* seg = find_segment_by_id_locked(id);
  if (seg != nullptr && seg != &segments_.back()) {
    const std::uint64_t prior_records = seg->vouched_records;
    const std::uint64_t prior_gaps = seg->vouched_gaps;
    seg->adopt(std::move(scan));
    seg->vouch();
    report.new_gaps = seg->vouched_gaps > prior_gaps ? seg->vouched_gaps - prior_gaps : 0;
    report.errors = prior_records > report.records ? prior_records - report.records : 0;
  }
  if (m_scrub_segments_ != nullptr) {
    m_scrub_segments_->add(1);
    m_scrub_records_->add(report.records);
    m_scrub_errors_->add(report.errors);
  }
  return report;
}

std::vector<RecordVerdict> LogStore::verify_range(std::uint64_t first, std::uint64_t count) {
  std::vector<RecordVerdict> out;
  out.reserve(static_cast<std::size_t>(count));
  const std::lock_guard<std::mutex> lock(mutex_);
  SealedHandle sealed;
  RecordRef ref{};
  std::vector<std::uint8_t> frame;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t seq = first + i;
    RecordVerdict verdict = RecordVerdict::kCorrupt;
    try {
      verdict = fetch_record_locked(seq, 0, sealed, ref, frame);
    } catch (const IoError&) {
      // A record the disk cannot hand back is reported, not thrown: kCorrupt.
    }
    RecordHeader h{};
    if (verdict == RecordVerdict::kOk && (!validate_record_at(frame, 0, h) || h.sequence != seq))
      verdict = RecordVerdict::kCorrupt;
    out.push_back(verdict);
  }
  return out;
}

VerifyReport LogStore::verify(const std::string& dir) {
  VerifyReport out;
  const auto found = list_segments(dir);
  if (found.empty())
    throw StoreError(StoreError::Kind::kBadFormat, "no segments in " + dir);
  // The same chain walk as recovery's rebuild, read-only: the tail's torn
  // end is counted, not truncated, and every other gap is reported as
  // recovery reports it.
  std::uint64_t expected = 1;
  bool open_gap = false;
  for (std::size_t i = 0; i < found.size(); ++i) {
    SegScan scan = scan_segment(found[i].second, found[i].first, expected);
    ++out.segments;
    if (open_gap) pin_open_gap(out.gaps.back(), scan.base_sequence);
    if (i + 1 == found.size()) out.torn_tail_bytes += scan.take_torn_tail();
    open_gap = scan.open_end;
    out.records += scan.records.size();
    for (const RecordRef& r : scan.records) out.payload_bytes += r.raw_length;
    out.stored_bytes += scan.data_end - kSegmentHeaderSize;
    out.gaps.insert(out.gaps.end(), scan.gaps.begin(), scan.gaps.end());
    expected = scan.next_expected;
  }
  return out;
}

}  // namespace lzss::store
