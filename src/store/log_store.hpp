// Crash-safe, append-only compressed log store.
//
// The paper's target workload is real-time compression of embedded logging
// streams; the LZBC container (src/container/) gives that stream a seekable
// *in-memory* shape (independently compressed blocks, after Kreft &
// Navarro). This subsystem is the durable half: per-record zlib containers
// persisted to segment files with a checksummed framing so that a crash —
// of the process or of the disk under it — loses at most the records that
// were never fsynced, and never the ability to read what came before.
//
// On-disk layout (docs/STORE.md has the full treatment):
//
//   <dir>/seg-XXXXXXXX.lzseg     segment files, append-only, rotated by size;
//                                the only files the store reads
//
//   segment header (32 bytes)          record (28-byte header + payload)
//   -------------------------          ---------------------------------
//   0   magic    "LZSG"                0   magic    "LZRC"
//   4   version  u32                   4   sequence u64
//   8   segment  u64                   12  raw_len  u32  (uncompressed)
//   16  base_seq u64                   16  len      u32  (stored payload)
//   24  crc32    u32 (bytes 0..24)     20  flags    u32  (bit0: zlib,
//   28  reserved u32                   24  crc32    u32   bit1: skip marker)
//                                      28  payload
//
// A *skip marker* (flags bit1) is a tombstone compaction writes in place of
// sequences that were already lost to quarantined damage: sequence is the
// first missing number, raw_len is 0 and the 8-byte payload is the LE count
// of missing sequences. The scanner treats a valid skip marker as an
// intentional, already-accounted gap — reads still answer kGap, but verify()
// stays clean, and the sequence chain across it is pinned by the marker
// itself rather than by byte-level damage.
//
// Durability: appends go through store::File positional writes at a tracked
// tail offset, so a failed write never advances logical state — retrying the
// append overwrites the torn bytes. fsync policy is configurable: kNever
// (crash loses the OS cache), kInterval (bounded loss window), kEveryRecord
// (an acked append survives power loss).
//
// Recovery (constructor): every segment is scanned, oldest first, and each
// scan becomes that segment's table, authoritative until a scrub or a
// compaction adopts a newer one. A record that fails magic/bounds/CRC starts
// damage handling — scan forward for the next frame that fully validates;
// if one exists the bad range is quarantined as a Gap (reads of those
// sequences throw StoreError::Kind::kGap). Damage that reaches EOF is a gap
// too, except in the tail, where it is torn: the file is truncated back to
// the last good record and appends resume there. Recovery, scrub and
// verify() share that one scan. Reads re-check each record's CRC-32 and
// throw StoreError::Kind::kCorrupt for bytes that rotted after the scan.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "lzss/params.hpp"
#include "store/file.hpp"

namespace lzss::obs {
class Counter;
class Gauge;
class Histogram;
class Registry;
class TraceRing;
}  // namespace lzss::obs

namespace lzss::store {

inline constexpr std::uint32_t kFormatVersion = 1;
inline constexpr std::size_t kSegmentHeaderSize = 32;
inline constexpr std::size_t kRecordHeaderSize = 28;
/// Hard cap on one record's RAW size (and therefore also its stored
/// payload); append() rejects anything larger up front, so lengths above
/// this in a header are corruption (they cannot have been written by this
/// store). Capping the raw size matters: a >64 MiB record that compresses
/// under the cap would be readable in-session but rejected by recovery.
inline constexpr std::uint32_t kMaxRecordBytes = 64u * 1024 * 1024;

enum class FsyncPolicy : std::uint8_t {
  kNever,        ///< leave durability to the OS cache
  kInterval,     ///< fsync every fsync_interval_records appends
  kEveryRecord,  ///< fsync before append() returns
};

[[nodiscard]] const char* fsync_policy_name(FsyncPolicy p) noexcept;
/// Parses "never" / "interval" / "every-record"; throws std::invalid_argument.
[[nodiscard]] FsyncPolicy fsync_policy_from_name(const std::string& name);

struct StoreOptions {
  std::size_t segment_bytes = 4 * 1024 * 1024;  ///< rotation threshold
  FsyncPolicy fsync_policy = FsyncPolicy::kInterval;
  std::uint32_t fsync_interval_records = 64;
  bool compress = true;  ///< zlib per record when it shrinks; raw otherwise
  core::MatchParams params = core::MatchParams::speed_optimized();

  void validate() const;  ///< throws std::invalid_argument when inconsistent
};

class StoreError : public std::runtime_error {
 public:
  enum class Kind : std::uint8_t {
    kBadFormat,  ///< directory contents are not a store / unsupported version
    kNotFound,   ///< sequence outside [first, next)
    kGap,        ///< sequence fell inside a quarantined (corrupt) range
    kCorrupt,    ///< record failed its checksum or failed to inflate
  };

  StoreError(Kind kind, const std::string& what) : std::runtime_error(what), kind_(kind) {}
  [[nodiscard]] Kind kind() const noexcept { return kind_; }

 private:
  Kind kind_;
};

/// A quarantined byte range: a mid-segment record (or run of records) that
/// failed validation but was followed by a frame that parsed cleanly.
struct Gap {
  std::uint64_t segment_id = 0;
  std::uint64_t offset = 0;          ///< first bad byte (file offset)
  std::uint64_t bytes = 0;           ///< quarantined byte count
  std::uint64_t first_sequence = 0;  ///< first sequence lost to the gap
  std::uint64_t sequence_count = 0;  ///< sequences lost (0 when unknowable)
  /// True when the range is a skip marker compaction wrote on purpose (the
  /// sequences were already quarantined); false for fresh byte-level damage.
  bool tombstone = false;
};

/// What the constructor's recovery pass found and did.
struct RecoveryReport {
  std::uint64_t records = 0;            ///< readable records after recovery
  std::uint64_t next_sequence = 1;      ///< the next append's sequence
  std::uint64_t torn_bytes_discarded = 0;  ///< tail bytes truncated away
  std::vector<Gap> gaps;                ///< quarantined mid-segment damage

  [[nodiscard]] std::string render() const;
};

/// Full offline scan result.
struct VerifyReport {
  std::uint64_t segments = 0;
  std::uint64_t records = 0;
  std::uint64_t payload_bytes = 0;      ///< uncompressed record bytes
  std::uint64_t stored_bytes = 0;       ///< on-disk record bytes (framing incl.)
  std::uint64_t torn_tail_bytes = 0;    ///< trailing garbage (recoverable)
  std::vector<Gap> gaps;                ///< unrecoverable mid-segment damage

  /// A store is healthy when every surviving record checksums; a torn tail
  /// is recoverable damage, and a tombstone (a skip marker compaction wrote
  /// for sequences that were already quarantined) is accounted-for history —
  /// neither fails verification. Fresh byte-level damage does.
  [[nodiscard]] bool ok() const noexcept {
    for (const Gap& g : gaps)
      if (!g.tombstone) return false;
    return true;
  }
  [[nodiscard]] std::string render() const;
};

/// Aggregate per-segment view for maintenance policy decisions.
struct SegmentInfo {
  std::uint64_t id = 0;
  std::uint64_t base_sequence = 0;
  std::uint64_t record_count = 0;     ///< readable records
  std::uint64_t bytes = 0;            ///< header + record area (data_end)
  std::uint64_t garbage_bytes = 0;    ///< quarantined, non-tombstone bytes
  std::uint64_t raw_records = 0;      ///< RAW-fallback records (recompressible)
  double age_seconds = 0;             ///< since the file was last written
  bool sealed = false;                ///< false only for the active tail
};

/// What one compact_segment() call did.
struct CompactionReport {
  std::uint64_t segment_id = 0;
  std::uint64_t records = 0;        ///< live records carried into the new image
  std::uint64_t recompressed = 0;   ///< RAW records converted to zlib
  std::uint64_t bytes_before = 0;   ///< old on-disk extent
  std::uint64_t bytes_after = 0;    ///< new on-disk extent

  [[nodiscard]] std::uint64_t reclaimed() const noexcept {
    return bytes_before > bytes_after ? bytes_before - bytes_after : 0;
  }
};

/// Retention limits; 0 means "no limit on this axis". Retention only ever
/// deletes whole sealed segments, oldest first — never the active tail.
struct RetentionPolicy {
  std::uint64_t max_bytes = 0;        ///< total on-disk record bytes
  std::uint64_t max_records = 0;      ///< total readable records
  std::uint64_t max_age_seconds = 0;  ///< oldest segment's file age
};

/// What one apply_retention() pass deleted.
struct RetentionReport {
  std::uint64_t segments_deleted = 0;
  std::uint64_t bytes_deleted = 0;
  std::uint64_t records_deleted = 0;
  std::uint64_t first_sequence = 0;  ///< oldest live sequence after the trim
};

/// What one scrub_segment() pass over a sealed segment found.
struct ScrubReport {
  std::uint64_t segment_id = 0;
  std::uint64_t records = 0;   ///< records that checksummed clean
  std::uint64_t bytes = 0;     ///< bytes scanned
  std::uint64_t errors = 0;    ///< read failures + records lost to new damage
  std::uint64_t new_gaps = 0;  ///< freshly quarantined ranges
};

/// Per-sequence verdict from verify_range() (the VERIFY opcode's store mode).
enum class RecordVerdict : std::uint8_t {
  kOk,        ///< record present and its CRC-32 checks out
  kGap,       ///< sequence lost to quarantined damage (or a tombstone)
  kNotFound,  ///< sequence outside [first, next)
  kCorrupt,   ///< stored bytes no longer match the record's checksum
};

struct StoreStats {
  std::uint64_t appends = 0;
  std::uint64_t fsyncs = 0;
  std::uint64_t bytes_in = 0;      ///< raw payload bytes appended
  std::uint64_t bytes_stored = 0;  ///< bytes written to segment files
  std::uint64_t segments = 0;      ///< live segment files
  std::uint64_t records = 0;       ///< readable records
};

class LogStore {
 public:
  /// Opens (creating if needed) the store at @p dir, running recovery; the
  /// report of what recovery found lands in @p report when non-null.
  explicit LogStore(std::string dir, StoreOptions options = {},
                    RecoveryReport* report = nullptr);
  ~LogStore();

  LogStore(const LogStore&) = delete;
  LogStore& operator=(const LogStore&) = delete;

  /// Appends one record; returns its sequence (starting at 1). Thread-safe.
  /// Throws IoError when the disk fails — logical state is unchanged and the
  /// append may simply be retried. Throws StoreError(kBadFormat) when
  /// @p bytes exceeds kMaxRecordBytes (raw, pre-compression size).
  std::uint64_t append(std::span<const std::uint8_t> bytes);

  /// Reads one record's payload by sequence. Thread-safe. Throws
  /// StoreError(kCorrupt) when the stored frame fails its CRC-32 or the
  /// payload fails to inflate.
  [[nodiscard]] std::vector<std::uint8_t> read(std::uint64_t sequence);

  /// fsyncs the tail segment.
  void flush();

  /// Oldest live sequence / the sequence the next append gets. Thread-safe
  /// (taken under the store mutex — concurrent append() mutates both).
  [[nodiscard]] std::uint64_t first_sequence() const;
  [[nodiscard]] std::uint64_t next_sequence() const;
  [[nodiscard]] StoreStats stats() const;
  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

  /// What the constructor's recovery pass found (same data the optional
  /// constructor out-param receives).
  [[nodiscard]] const RecoveryReport& recovery() const noexcept { return recovery_; }

  /// Starts reporting into @p registry: append/fsync/rotation counters, an
  /// fsync-latency histogram, and one-shot counters for what recovery did.
  /// Optional @p trace additionally records a span per fsync. Call once,
  /// before traffic — instruments are read by appending threads without
  /// synchronization. Both sinks must outlive the store.
  void bind_metrics(obs::Registry& registry, obs::TraceRing* trace = nullptr);

  /// Offline full scan of the store at @p dir; read-only, never repairs.
  [[nodiscard]] static VerifyReport verify(const std::string& dir);

  // -- maintenance surface (compaction / retention / scrub) ----------------
  //
  // All three are serialized against each other by an internal maintenance
  // mutex and are safe against concurrent append()/read() — they touch only
  // sealed segments, which appends never revisit.

  /// Aggregate stats for every segment (tail included, marked unsealed).
  [[nodiscard]] std::vector<SegmentInfo> segment_infos();

  /// Ids of every sealed segment, oldest first.
  [[nodiscard]] std::vector<std::uint64_t> sealed_segment_ids() const;

  /// Rewrites sealed segment @p id without its quarantined garbage: live
  /// records are copied (RAW-fallback ones recompressed through the deflate
  /// path when that shrinks them) into a tmp file alongside skip markers for
  /// the lost sequences, fsynced, and atomically renamed over the old
  /// segment. A crash at any byte of the process leaves either the old or
  /// the new image fully intact. Throws StoreError(kNotFound) for an unknown
  /// id, StoreError(kBadFormat) for the active tail, IoError on disk
  /// failure (the old segment stays live and the call may be retried).
  CompactionReport compact_segment(std::uint64_t id);

  /// Deletes whole sealed segments, oldest first, until @p policy is
  /// satisfied. The active tail is never deleted. Throws IoError if an
  /// unlink fails mid-pass; segments already deleted stay deleted and the
  /// store remains consistent.
  RetentionReport apply_retention(const RetentionPolicy& policy);

  /// Re-reads sealed segment @p id end to end, re-checking every record
  /// CRC. Fresh damage is escalated to quarantine (reads answer kGap) and
  /// counted; a read failure is counted and the segment left as it was.
  /// Never throws for damage — scrubbing a rotting disk must not crash the
  /// server. Throws StoreError for an unknown id or the active tail.
  ScrubReport scrub_segment(std::uint64_t id);

  /// CRC-checks the stored bytes of @p count records starting at @p first
  /// and returns one verdict per sequence (the VERIFY opcode's store mode).
  /// Checksum-only: nothing is inflated, no payload leaves the store.
  [[nodiscard]] std::vector<RecordVerdict> verify_range(std::uint64_t first,
                                                        std::uint64_t count);

 private:
  struct RecordRef {
    std::uint64_t sequence;
    std::uint64_t offset;  ///< of the record header, within the segment file
    std::uint32_t raw_length;
    std::uint32_t stored_length;
    std::uint32_t flags;
  };

  /// One pass over a segment file, already in table shape (log_store.cpp).
  struct SegScan;
  /// One pass over a store's whole segment chain (log_store.cpp).
  struct ChainScan;

  struct Segment {
    std::uint64_t id = 0;
    std::uint64_t base_sequence = 0;
    std::uint64_t record_count = 0;
    std::uint64_t data_end = kSegmentHeaderSize;  ///< offset past last record
    std::vector<RecordRef> records;     ///< readable records, by sequence
    std::vector<Gap> gaps;              ///< damage found while scanning

    /// Takes @p scan as the table: records, gaps, record_count, data_end.
    void adopt(SegScan&& scan);
  };

  /// A sealed segment's read handle, kept open across a run of lookups.
  struct SealedHandle {
    std::uint64_t id = 0;
    File file;
  };

  /// The one scan from segment bytes to a table. Every damage range comes
  /// back as a Gap of segment @p id, including a rotted header (the whole
  /// file, from @p expected_base on) and damage running to EOF.
  [[nodiscard]] static SegScan scan_segment(const std::string& path, std::uint64_t id,
                                            std::uint64_t expected_base);
  /// The one chain walk behind recovery and verify(): scans every segment
  /// of @p dir oldest first, each from where its predecessor's chain ended,
  /// pins a predecessor's gap that ran to EOF with the next segment's base,
  /// and takes the last segment's torn tail. Read-only.
  [[nodiscard]] static ChainScan scan_chain(const std::string& dir);

  [[nodiscard]] std::string segment_path(std::uint64_t id) const;
  void create_segment_locked(std::uint64_t id, std::uint64_t base_sequence);
  void rotate_locked();
  /// The one place the tail is fsynced: counts it, times it, and (when a
  /// trace ring is bound) records a "store.fsync" span. Requires io_mutex_
  /// (NOT mutex_ — appends must not block readers for the fsync's duration;
  /// the counters it touches are atomics / lock-free instruments).
  void fsync_tail_io();
  /// The one record locator behind read() and verify_range(): resolves
  /// @p sequence to its segment and table entry @p ref, preads the record's
  /// whole frame into @p frame, from the tail or through @p sealed, and
  /// validates it (magic, bounds, CRC-32, sequence). Returns kNotFound or
  /// kGap without reading, kCorrupt for a frame that fails validation; an
  /// IoError propagates.
  RecordVerdict fetch_record_locked(std::uint64_t sequence, SealedHandle& sealed,
                                    RecordRef& ref, std::vector<std::uint8_t>& frame);
  Segment* find_segment_locked(std::uint64_t sequence);
  Segment* find_segment_by_id_locked(std::uint64_t id);
  void update_retained_gauge_locked();

  std::string dir_;
  StoreOptions opt_;

  // Lock order (outer to inner): maintenance_mutex_ -> io_mutex_ -> mutex_.
  //
  //  * io_mutex_ serializes tail-file I/O (pwrite + fsync). Appends hold it
  //    for the whole write+sync, but hold mutex_ only for the brief metadata
  //    read before and the publish after — so read()/stats()/first_sequence()
  //    never wait out an fsync (the PR 3 contract survives unchanged: a
  //    record is published only after its bytes — and, per policy, its
  //    fsync — succeeded).
  //  * mutex_ guards the segment table and all logical state.
  //  * maintenance_mutex_ serializes compaction/retention/scrub against
  //    each other; none of them takes io_mutex_ (they never touch the tail).
  //
  // tail_file_ itself is only re-seated (rotation/recovery) under BOTH
  // io_mutex_ and mutex_; positional I/O on it is safe under either.
  std::mutex maintenance_mutex_;
  std::mutex io_mutex_;
  mutable std::mutex mutex_;
  std::vector<Segment> segments_;  ///< ordered by id / base_sequence
  File tail_file_;                 ///< the open tail segment
  std::uint64_t tail_offset_ = 0;  ///< logical end of the tail segment
  std::uint64_t first_sequence_ = 1;
  std::uint64_t next_sequence_ = 1;
  std::uint32_t unsynced_records_ = 0;  ///< guarded by io_mutex_

  std::uint64_t stat_appends_ = 0;
  std::atomic<std::uint64_t> stat_fsyncs_{0};  ///< bumped without mutex_
  std::uint64_t stat_bytes_in_ = 0;
  std::uint64_t stat_bytes_stored_ = 0;

  RecoveryReport recovery_;  ///< what the constructor's recovery pass found

  // Registry instruments (null until bind_metrics); guarded by mutex_ like
  // the stat_* counters they mirror.
  obs::Counter* m_appends_ = nullptr;
  obs::Counter* m_bytes_in_ = nullptr;
  obs::Counter* m_bytes_stored_ = nullptr;
  obs::Counter* m_fsyncs_ = nullptr;
  obs::Counter* m_rotations_ = nullptr;
  obs::Histogram* m_fsync_us_ = nullptr;
  obs::Gauge* m_segments_g_ = nullptr;
  obs::Gauge* m_retained_bytes_g_ = nullptr;
  obs::Counter* m_compactions_ = nullptr;
  obs::Counter* m_compaction_failures_ = nullptr;
  obs::Counter* m_compaction_reclaimed_ = nullptr;
  obs::Counter* m_compaction_recompressed_ = nullptr;
  obs::Counter* m_scrub_segments_ = nullptr;
  obs::Counter* m_scrub_records_ = nullptr;
  obs::Counter* m_scrub_errors_ = nullptr;
  obs::Counter* m_retention_segments_ = nullptr;
  obs::Counter* m_retention_bytes_ = nullptr;
  obs::TraceRing* trace_ = nullptr;
};

}  // namespace lzss::store
