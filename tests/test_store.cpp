// Durable log store: append/read round trips, reopen persistence, segment
// rotation, fsync-policy accounting, leftover index sidecar removal, concurrent
// appenders, and the LOG_APPEND / LOG_READ service opcodes over the loopback
// transport. Crash/corruption recovery lives in test_store_recovery.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/checksum.hpp"
#include "fault/fault.hpp"
#include "server/service.hpp"
#include "server/tcp.hpp"
#include "store/log_store.hpp"
#include "store/maintenance.hpp"
#include "store_test_util.hpp"

namespace lzss::store {
namespace {

using testutil::TempDir;
using testutil::record_payload;
using testutil::segment_files;

StoreOptions small_options() {
  StoreOptions opt;
  opt.segment_bytes = 2048;  // rotate often so multi-segment paths run
  opt.fsync_policy = FsyncPolicy::kNever;
  return opt;
}

TEST(Store, AppendReadRoundTrip) {
  TempDir dir;
  LogStore log(dir.path, small_options());
  EXPECT_EQ(log.first_sequence(), 1u);
  EXPECT_EQ(log.next_sequence(), 1u);

  for (std::uint64_t seq = 1; seq <= 50; ++seq) {
    EXPECT_EQ(log.append(record_payload(seq)), seq);
  }
  EXPECT_EQ(log.next_sequence(), 51u);
  for (std::uint64_t seq = 1; seq <= 50; ++seq) {
    EXPECT_EQ(log.read(seq), record_payload(seq)) << "seq " << seq;
  }
}

TEST(Store, EmptyRecordRoundTrips) {
  TempDir dir;
  LogStore log(dir.path, small_options());
  const std::uint64_t seq = log.append({});
  EXPECT_TRUE(log.read(seq).empty());
}

TEST(Store, CompressibleRecordsShrinkOnDisk) {
  TempDir dir;
  LogStore log(dir.path, small_options());
  const std::vector<std::uint8_t> text(4096, std::uint8_t{'a'});
  log.append(text);
  const auto stats = log.stats();
  EXPECT_LT(stats.bytes_stored, stats.bytes_in);
  EXPECT_EQ(log.read(1), text);
}

TEST(Store, OversizedRecordRejectedEvenWhenCompressible) {
  TempDir dir;
  {
    LogStore log(dir.path, small_options());
    log.append(record_payload(1));
    // All-zero input: compresses far below the cap, but the RAW size is over
    // it. Recovery rejects raw_length > kMaxRecordBytes as corruption, so
    // acking this record would lose it on reopen — append must refuse up
    // front instead.
    const std::vector<std::uint8_t> huge(static_cast<std::size_t>(kMaxRecordBytes) + 1, 0);
    try {
      log.append(huge);
      FAIL() << "oversized append was acked";
    } catch (const StoreError& e) {
      EXPECT_EQ(e.kind(), StoreError::Kind::kBadFormat);
    }
    EXPECT_EQ(log.next_sequence(), 2u);  // the rejection did not burn a sequence
    EXPECT_EQ(log.append(record_payload(2)), 2u);
  }
  // Reopen: nothing of the oversized record ever hit disk; everything acked
  // around the rejection survives.
  RecoveryReport report;
  LogStore log(dir.path, small_options(), &report);
  EXPECT_EQ(report.records, 2u);
  EXPECT_TRUE(report.gaps.empty());
  EXPECT_EQ(log.read(1), record_payload(1));
  EXPECT_EQ(log.read(2), record_payload(2));
}

TEST(Store, IncompressibleRecordsStoredRaw) {
  TempDir dir;
  LogStore log(dir.path, small_options());
  // High-entropy payload: zlib cannot shrink it, so the store keeps it raw
  // (flags bit clear) rather than paying for a larger container.
  std::vector<std::uint8_t> noise(512);
  std::uint32_t x = 0x12345678;
  for (auto& b : noise) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    b = static_cast<std::uint8_t>(x);
  }
  log.append(noise);
  EXPECT_EQ(log.read(1), noise);
}

TEST(Store, ReopenRecoversAllRecords) {
  TempDir dir;
  {
    LogStore log(dir.path, small_options());
    for (std::uint64_t seq = 1; seq <= 80; ++seq) log.append(record_payload(seq));
    log.flush();
  }
  RecoveryReport report;
  LogStore log(dir.path, small_options(), &report);
  EXPECT_EQ(report.records, 80u);
  EXPECT_EQ(report.next_sequence, 81u);
  EXPECT_EQ(report.torn_bytes_discarded, 0u);
  EXPECT_TRUE(report.gaps.empty());
  for (std::uint64_t seq = 1; seq <= 80; ++seq) {
    EXPECT_EQ(log.read(seq), record_payload(seq)) << "seq " << seq;
  }
  // Appends resume with the next sequence.
  EXPECT_EQ(log.append(record_payload(81)), 81u);
  EXPECT_EQ(log.read(81), record_payload(81));
}

TEST(Store, SegmentsRotateBySize) {
  TempDir dir;
  LogStore log(dir.path, small_options());
  for (std::uint64_t seq = 1; seq <= 100; ++seq) log.append(record_payload(seq));
  const auto stats = log.stats();
  EXPECT_GT(stats.segments, 2u);
  EXPECT_EQ(stats.records, 100u);
  EXPECT_EQ(segment_files(dir.path).size(), stats.segments);
  // Reads cross segment boundaries transparently.
  for (std::uint64_t seq = 1; seq <= 100; ++seq) {
    EXPECT_EQ(log.read(seq), record_payload(seq)) << "seq " << seq;
  }
}

TEST(Store, LeftoverIndexSidecarIsRemoved) {
  // Older versions kept an index sidecar next to the segments. Opening the
  // store deletes it (and its staging file), so an older binary that opens
  // the directory later rebuilds from the segments instead of trusting it.
  TempDir dir;
  {
    LogStore log(dir.path, small_options());
    for (std::uint64_t seq = 1; seq <= 30; ++seq) log.append(record_payload(seq));
  }
  const std::vector<std::uint8_t> junk(64, 0xAA);
  testutil::spit(dir.path + "/index.lzsx", junk, junk.size());
  testutil::spit(dir.path + "/index.lzsx.tmp", junk, junk.size());

  RecoveryReport report;
  LogStore log(dir.path, small_options(), &report);
  EXPECT_FALSE(std::filesystem::exists(dir.path + "/index.lzsx"));
  EXPECT_FALSE(std::filesystem::exists(dir.path + "/index.lzsx.tmp"));
  EXPECT_EQ(report.records, 30u);
  EXPECT_TRUE(report.gaps.empty());
  for (std::uint64_t seq = 1; seq <= 30; ++seq) {
    EXPECT_EQ(log.read(seq), record_payload(seq)) << "seq " << seq;
  }
}

TEST(Store, ReadOutOfRangeThrowsNotFound) {
  TempDir dir;
  LogStore log(dir.path, small_options());
  log.append(record_payload(1));
  for (const std::uint64_t bad : {std::uint64_t{0}, std::uint64_t{2}, std::uint64_t{999}}) {
    try {
      (void)log.read(bad);
      FAIL() << "seq " << bad << " should not be readable";
    } catch (const StoreError& e) {
      EXPECT_EQ(e.kind(), StoreError::Kind::kNotFound);
    }
  }
}

TEST(Store, FsyncPolicyAccounting) {
  {
    TempDir dir;
    StoreOptions opt = small_options();
    opt.fsync_policy = FsyncPolicy::kEveryRecord;
    LogStore log(dir.path, opt);
    for (std::uint64_t seq = 1; seq <= 10; ++seq) log.append(record_payload(seq));
    EXPECT_GE(log.stats().fsyncs, 10u);
  }
  {
    TempDir dir;
    StoreOptions opt = small_options();
    opt.fsync_policy = FsyncPolicy::kNever;
    opt.segment_bytes = 1 << 20;  // no rotation (rotation seals with an fsync)
    LogStore log(dir.path, opt);
    for (std::uint64_t seq = 1; seq <= 10; ++seq) log.append(record_payload(seq));
    EXPECT_EQ(log.stats().fsyncs, 0u);
  }
  {
    TempDir dir;
    StoreOptions opt = small_options();
    opt.fsync_policy = FsyncPolicy::kInterval;
    opt.fsync_interval_records = 4;
    opt.segment_bytes = 1 << 20;
    LogStore log(dir.path, opt);
    for (std::uint64_t seq = 1; seq <= 16; ++seq) log.append(record_payload(seq));
    EXPECT_EQ(log.stats().fsyncs, 4u);
  }
}

TEST(Store, BadOptionsRejected) {
  TempDir dir;
  StoreOptions opt;
  opt.fsync_policy = FsyncPolicy::kInterval;
  opt.fsync_interval_records = 0;
  EXPECT_THROW(LogStore(dir.path, opt), std::invalid_argument);
  opt = StoreOptions{};
  opt.segment_bytes = 8;
  EXPECT_THROW(LogStore(dir.path, opt), std::invalid_argument);
}

TEST(Store, FsyncPolicyNames) {
  EXPECT_STREQ(fsync_policy_name(FsyncPolicy::kNever), "never");
  EXPECT_STREQ(fsync_policy_name(FsyncPolicy::kInterval), "interval");
  EXPECT_STREQ(fsync_policy_name(FsyncPolicy::kEveryRecord), "every-record");
  EXPECT_EQ(fsync_policy_from_name("every-record"), FsyncPolicy::kEveryRecord);
  EXPECT_THROW((void)fsync_policy_from_name("sometimes"), std::invalid_argument);
}

TEST(Store, VerifyCleanStore) {
  TempDir dir;
  {
    LogStore log(dir.path, small_options());
    for (std::uint64_t seq = 1; seq <= 40; ++seq) log.append(record_payload(seq));
  }
  const auto report = LogStore::verify(dir.path);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.records, 40u);
  EXPECT_EQ(report.torn_tail_bytes, 0u);
  EXPECT_GT(report.segments, 1u);
}

TEST(Store, ConcurrentAppendersAllLand) {
  TempDir dir;
  LogStore log(dir.path, small_options());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;

  // Sequence assignment order across threads is nondeterministic, so each
  // appended payload carries its own identity; afterwards the multiset of
  // read-back payloads must equal the multiset appended.
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::uint64_t tag = static_cast<std::uint64_t>(t) * 1000 + static_cast<std::uint64_t>(i);
        log.append(record_payload(tag));
      }
    });
  }
  // Poll the sequence accessors while appenders mutate them: they are part
  // of the thread-safe surface and must not race the append path.
  std::atomic<bool> stop{false};
  std::thread poller([&log, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      EXPECT_LE(log.first_sequence(), log.next_sequence());
    }
  });
  for (auto& th : threads) th.join();
  stop.store(true, std::memory_order_relaxed);
  poller.join();

  EXPECT_EQ(log.next_sequence(), 1u + kThreads * kPerThread);
  std::multiset<std::vector<std::uint8_t>> expected, got;
  for (int t = 0; t < kThreads; ++t)
    for (int i = 0; i < kPerThread; ++i)
      expected.insert(record_payload(static_cast<std::uint64_t>(t) * 1000 +
                                     static_cast<std::uint64_t>(i)));
  for (std::uint64_t seq = 1; seq < log.next_sequence(); ++seq) got.insert(log.read(seq));
  EXPECT_EQ(got, expected);
}

// ---------------------------------------------------------------------------
// Background maintenance: the self-healing loop over the same store
// primitives, driven synchronously through run_once().

using testutil::parse_segment_records;
using testutil::slurp;
using testutil::spit;

/// Corrupts one payload byte of record @p index inside sealed segment file
/// @p path — silent bitrot, invisible until something re-reads the segment.
void corrupt_record(const std::string& path, std::size_t index) {
  const auto recs = parse_segment_records(path);
  ASSERT_GT(recs.size(), index);
  auto image = slurp(path);
  image[recs[index].offset + kRecordHeaderSize + 1] ^= 0x40;
  spit(path, image, image.size());
}

TEST(StoreMaintenance, CompactsTheGappiestSegmentPerTick) {
  TempDir dir;
  {
    LogStore log(dir.path, small_options());
    for (std::uint64_t seq = 1; seq <= 50; ++seq) log.append(record_payload(seq));
    log.flush();
  }
  const auto segs = segment_files(dir.path);
  ASSERT_GT(segs.size(), 2u);
  corrupt_record(segs[0], 1);
  corrupt_record(segs[1], 1);

  LogStore log(dir.path, small_options());  // recovery quarantines both
  const std::uintmax_t before =
      std::filesystem::file_size(segs[0]) + std::filesystem::file_size(segs[1]);

  MaintenanceConfig cfg;
  cfg.compact_trigger_garbage_pct = 1;
  Maintenance maint(log, cfg);
  maint.run_once();
  EXPECT_EQ(maint.stats().compactions, 1u) << "one segment per tick";
  maint.run_once();
  EXPECT_EQ(maint.stats().compactions, 2u);
  maint.run_once();
  EXPECT_EQ(maint.stats().compactions, 2u) << "no garbage left to compact";
  EXPECT_GT(maint.stats().bytes_reclaimed, 0u);
  EXPECT_LT(std::filesystem::file_size(segs[0]) + std::filesystem::file_size(segs[1]), before);

  // Quarantined sequences stay gaps; everything else still reads.
  std::uint64_t gaps = 0;
  for (std::uint64_t seq = 1; seq <= 50; ++seq) {
    try {
      EXPECT_EQ(log.read(seq), record_payload(seq)) << "seq " << seq;
    } catch (const StoreError& e) {
      EXPECT_EQ(e.kind(), StoreError::Kind::kGap);
      ++gaps;
    }
  }
  EXPECT_EQ(gaps, 2u);
}

TEST(StoreMaintenance, RetentionTrimsOldestSealedSegmentsOnly) {
  TempDir dir;
  LogStore log(dir.path, small_options());
  for (std::uint64_t seq = 1; seq <= 50; ++seq) log.append(record_payload(seq));
  const std::uint64_t segments_before = log.stats().segments;
  ASSERT_GT(segments_before, 3u);

  MaintenanceConfig cfg;
  cfg.retain_max_records = 15;
  Maintenance maint(log, cfg);
  maint.run_once();
  EXPECT_GT(maint.stats().retention_segments, 0u);

  // Whole sealed segments went, oldest first; the tail is untouchable even
  // under a budget of zero.
  EXPECT_GT(log.first_sequence(), 1u);
  for (std::uint64_t seq = log.first_sequence(); seq < log.next_sequence(); ++seq) {
    EXPECT_EQ(log.read(seq), record_payload(seq)) << "seq " << seq;
  }
  try {
    (void)log.read(1);
    FAIL() << "retained-out sequence still readable";
  } catch (const StoreError& e) {
    EXPECT_EQ(e.kind(), StoreError::Kind::kNotFound);
  }
  // New appends continue the dense sequence chain.
  const std::uint64_t next = log.next_sequence();
  EXPECT_EQ(log.append(record_payload(next)), next);
}

TEST(StoreMaintenance, ScrubEscalatesSilentCorruptionToQuarantine) {
  TempDir dir;
  {
    LogStore log(dir.path, small_options());
    for (std::uint64_t seq = 1; seq <= 50; ++seq) log.append(record_payload(seq));
    log.flush();
  }
  const auto segs = segment_files(dir.path);
  ASSERT_GT(segs.size(), 2u);

  // Open FIRST (recovery scans a clean store), then rot a byte behind the
  // store's back — only a scrub re-read can find this.
  LogStore log(dir.path, small_options());
  corrupt_record(segs[1], 1);
  const std::uint64_t damaged_seq = parse_segment_records(segs[1])[1].sequence;

  MaintenanceConfig cfg;
  cfg.scrub_interval_s = 3600;  // one pass, started immediately
  Maintenance maint(log, cfg);
  const std::size_t sealed = log.sealed_segment_ids().size();
  for (std::size_t i = 0; i <= sealed + 1; ++i) maint.run_once();

  const MaintenanceStats stats = maint.stats();
  EXPECT_EQ(stats.scrubbed_segments, sealed);
  EXPECT_EQ(stats.scrub_passes, 1u) << "second pass waits for the interval";
  EXPECT_GE(stats.scrub_errors, 1u);

  // The damage is now a quarantined gap; the store keeps serving.
  try {
    (void)log.read(damaged_seq);
    FAIL() << "scrubbed-out record still readable";
  } catch (const StoreError& e) {
    EXPECT_EQ(e.kind(), StoreError::Kind::kGap);
  }
  EXPECT_EQ(log.read(1), record_payload(1));
  const std::uint64_t next = log.next_sequence();
  EXPECT_EQ(log.append(record_payload(next)), next);
}

TEST(StoreMaintenance, BackgroundThreadRunsAndStopsCleanly) {
  TempDir dir;
  LogStore log(dir.path, small_options());
  for (std::uint64_t seq = 1; seq <= 50; ++seq) log.append(record_payload(seq));

  MaintenanceConfig cfg;
  cfg.retain_max_records = 15;
  cfg.scrub_interval_s = 3600;
  cfg.tick_interval_ms = 5;
  Maintenance maint(log, cfg);
  maint.start();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    const MaintenanceStats s = maint.stats();
    if (s.retention_segments > 0 && s.scrub_passes > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  maint.stop();
  maint.stop();  // idempotent
  const MaintenanceStats s = maint.stats();
  EXPECT_GT(s.ticks, 0u);
  EXPECT_GT(s.retention_segments, 0u);
  EXPECT_GT(s.scrub_passes, 0u);
  EXPECT_EQ(s.errors, 0u);
  for (std::uint64_t seq = log.first_sequence(); seq < log.next_sequence(); ++seq) {
    EXPECT_EQ(log.read(seq), record_payload(seq));
  }
}

TEST(StoreMaintenance, ReadsDoNotWaitForTailFsync) {
  // Regression pin for the append-path lock split: the tail fsync runs under
  // the io mutex only, so a concurrent read of an already-durable record must
  // not serialize behind a slow disk flush. Before the split, fsync and read
  // shared one store mutex and this read would block for the full delay.
  TempDir dir;
  StoreOptions opt;
  opt.segment_bytes = 1 << 20;  // no rotation (rotation legitimately holds both locks)
  opt.fsync_policy = FsyncPolicy::kEveryRecord;
  LogStore log(dir.path, opt);
  log.append(record_payload(1));

  fault::Spec spec;
  spec.action = fault::Action::kDelay;
  spec.delay_ms = 600;
  spec.max_triggers = 1;
  fault::ScopedFault guard("store.fsync.pace", spec);

  std::thread appender([&log] { log.append(record_payload(2)); });
  // Wait until the appender is inside the delayed fsync.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (fault::triggers("store.fsync.pace") == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(fault::triggers("store.fsync.pace"), 1u);

  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(log.read(1), record_payload(1));
  const auto elapsed =
      std::chrono::duration_cast<std::chrono::milliseconds>(std::chrono::steady_clock::now() - t0);
  appender.join();
  EXPECT_LT(elapsed.count(), 300) << "read serialized behind the tail fsync";
}

// ---------------------------------------------------------------------------
// Service opcodes: LOG_APPEND / LOG_READ over the loopback transport.

server::RequestFrame log_append_request(std::uint64_t id, std::vector<std::uint8_t> data) {
  server::RequestFrame req;
  req.id = id;
  req.opcode = server::Opcode::kLogAppend;
  req.payload = std::move(data);
  return req;
}

server::RequestFrame log_read_request(std::uint64_t id, std::uint64_t seq) {
  server::RequestFrame req;
  req.id = id;
  req.opcode = server::Opcode::kLogRead;
  for (int s = 0; s < 8; ++s) req.payload.push_back(static_cast<std::uint8_t>(seq >> (8 * s)));
  return req;
}

std::uint64_t decode_seq(const std::vector<std::uint8_t>& payload) {
  std::uint64_t seq = 0;
  for (int s = 7; s >= 0; --s) seq = (seq << 8) | payload[static_cast<std::size_t>(s)];
  return seq;
}

server::ServiceConfig service_config() {
  server::ServiceConfig cfg;
  cfg.workers = 2;
  cfg.queue_depth = 16;
  return cfg;
}

TEST(StoreService, LogOpcodesUnsupportedWithoutStore) {
  server::Service service(service_config());
  server::LoopbackClient client(service);
  EXPECT_EQ(client.call(log_append_request(1, record_payload(1))).status,
            server::Status::kUnsupported);
  EXPECT_EQ(client.call(log_read_request(2, 1)).status, server::Status::kUnsupported);
}

TEST(StoreService, LogAppendReadRoundTripAndRestart) {
  TempDir dir;
  LogStore log(dir.path, small_options());
  {
    server::Service service(service_config());
    service.attach_store(&log);
    server::LoopbackClient client(service);

    for (std::uint64_t i = 1; i <= 20; ++i) {
      const auto data = record_payload(i);
      const auto resp = client.call(log_append_request(i, data));
      ASSERT_EQ(resp.status, server::Status::kOk);
      EXPECT_EQ(resp.adler, checksum::adler32(data));
      ASSERT_EQ(resp.payload.size(), 8u);
      EXPECT_EQ(decode_seq(resp.payload), i);
    }
    for (std::uint64_t i = 1; i <= 20; ++i) {
      const auto resp = client.call(log_read_request(100 + i, i));
      ASSERT_EQ(resp.status, server::Status::kOk);
      EXPECT_EQ(resp.payload, record_payload(i));
      EXPECT_EQ(resp.adler, checksum::adler32(resp.payload));
    }
  }
  log.flush();

  // "Daemon restart": a fresh service over a freshly reopened store still
  // serves every record — this is the property the opcode pair exists for.
  LogStore reopened(dir.path, small_options());
  server::Service service(service_config());
  service.attach_store(&reopened);
  server::LoopbackClient client(service);
  for (std::uint64_t i = 1; i <= 20; ++i) {
    const auto resp = client.call(log_read_request(i, i));
    ASSERT_EQ(resp.status, server::Status::kOk);
    EXPECT_EQ(resp.payload, record_payload(i));
  }
}

TEST(StoreService, LogReadRejectsMalformedAndUnknown) {
  TempDir dir;
  LogStore log(dir.path, small_options());
  log.append(record_payload(1));
  server::Service service(service_config());
  service.attach_store(&log);
  server::LoopbackClient client(service);

  server::RequestFrame bad;
  bad.id = 1;
  bad.opcode = server::Opcode::kLogRead;
  bad.payload = {1, 2, 3};  // not an 8-byte sequence
  EXPECT_EQ(client.call(bad).status, server::Status::kBadRequest);

  EXPECT_EQ(client.call(log_read_request(2, 999)).status, server::Status::kBadRequest);
}

TEST(StoreService, RottedRecordReadsAsCorrupt) {
  // Record bytes that rot after recovery scanned them: read() re-checks the
  // frame's CRC-32 and throws kCorrupt instead of handing back the rotted
  // bytes, in a sealed segment and in the tail alike, and LOG_READ answers
  // CORRUPT. Records are stored raw, so nothing but the checksum can notice.
  TempDir dir;
  StoreOptions opt = small_options();
  opt.compress = false;
  LogStore log(dir.path, opt);
  for (std::uint64_t seq = 1; seq <= 30; ++seq) log.append(record_payload(seq));
  const auto segs = segment_files(dir.path);
  ASSERT_GT(segs.size(), 1u);
  const auto sealed_records = parse_segment_records(segs.front());
  const auto tail_records = parse_segment_records(segs.back());
  ASSERT_GE(sealed_records.size(), 2u);
  ASSERT_GE(tail_records.size(), 2u);
  const std::uint64_t sealed_seq = sealed_records[1].sequence;
  const std::uint64_t tail_seq = tail_records.back().sequence;
  corrupt_record(segs.front(), 1);
  corrupt_record(segs.back(), tail_records.size() - 1);

  for (const std::uint64_t seq : {sealed_seq, tail_seq}) {
    try {
      const auto bytes = log.read(seq);
      ADD_FAILURE() << "rotted seq " << seq << " read back " << bytes.size()
                    << " bytes with no error";
    } catch (const StoreError& e) {
      EXPECT_EQ(e.kind(), StoreError::Kind::kCorrupt) << "seq " << seq;
    }
  }

  server::Service service(service_config());
  service.attach_store(&log);
  server::LoopbackClient client(service);
  EXPECT_EQ(client.call(log_read_request(1, sealed_seq)).status, server::Status::kCorrupt);
  EXPECT_EQ(client.call(log_read_request(2, tail_seq)).status, server::Status::kCorrupt);

  // Their neighbours still read.
  const auto before = client.call(log_read_request(3, sealed_seq - 1));
  ASSERT_EQ(before.status, server::Status::kOk);
  EXPECT_EQ(before.payload, record_payload(sealed_seq - 1));
  EXPECT_EQ(log.read(tail_seq - 1), record_payload(tail_seq - 1));
}

// ---------------------------------------------------------------------------
// SCRUB / VERIFY opcodes.

server::RequestFrame scrub_request(std::uint64_t id) {
  server::RequestFrame req;
  req.id = id;
  req.opcode = server::Opcode::kScrub;
  return req;
}

server::RequestFrame verify_seq_request(std::uint64_t id, std::uint64_t first,
                                        std::uint64_t count) {
  server::RequestFrame req;
  req.id = id;
  req.opcode = server::Opcode::kVerify;
  req.flags = server::kFlagVerifyStore;
  for (int s = 0; s < 8; ++s) req.payload.push_back(static_cast<std::uint8_t>(first >> (8 * s)));
  for (int s = 0; s < 8; ++s) req.payload.push_back(static_cast<std::uint8_t>(count >> (8 * s)));
  return req;
}

std::string as_text(const std::vector<std::uint8_t>& payload) {
  return {payload.begin(), payload.end()};
}

TEST(StoreService, ScrubAndVerifyUnsupportedWithoutStore) {
  server::Service service(service_config());
  server::LoopbackClient client(service);
  EXPECT_EQ(client.call(scrub_request(1)).status, server::Status::kUnsupported);
  EXPECT_EQ(client.call(verify_seq_request(2, 1, 1)).status, server::Status::kUnsupported);
}

TEST(StoreService, ScrubCleanStoreAndVerifyRange) {
  TempDir dir;
  LogStore log(dir.path, small_options());
  for (std::uint64_t i = 1; i <= 50; ++i) log.append(record_payload(i));
  server::Service service(service_config());
  service.attach_store(&log);
  server::LoopbackClient client(service);

  const auto scrub = client.call(scrub_request(1));
  ASSERT_EQ(scrub.status, server::Status::kOk);
  const std::string scrub_json = as_text(scrub.payload);
  EXPECT_NE(scrub_json.find("\"clean\":true"), std::string::npos) << scrub_json;
  EXPECT_NE(scrub_json.find("\"errors\":0"), std::string::npos) << scrub_json;

  const auto verify = client.call(verify_seq_request(2, 1, 50));
  ASSERT_EQ(verify.status, server::Status::kOk);
  const std::string verify_json = as_text(verify.payload);
  EXPECT_NE(verify_json.find("\"ok\":50"), std::string::npos) << verify_json;
  EXPECT_NE(verify_json.find("\"clean\":true"), std::string::npos) << verify_json;

  // Beyond-the-end sequences come back not_found, not an error status.
  const auto beyond = client.call(verify_seq_request(3, 45, 10));
  ASSERT_EQ(beyond.status, server::Status::kOk);
  EXPECT_NE(as_text(beyond.payload).find("\"not_found\":4"), std::string::npos);

  // Malformed requests are the client's fault.
  EXPECT_EQ(client.call(verify_seq_request(4, 1, 0)).status, server::Status::kBadRequest);
  EXPECT_EQ(client.call(verify_seq_request(5, 1, 1u << 20)).status,
            server::Status::kBadRequest);
  server::RequestFrame bad = verify_seq_request(6, 1, 1);
  bad.payload.pop_back();
  EXPECT_EQ(client.call(bad).status, server::Status::kBadRequest);
  server::RequestFrame bad_scrub = scrub_request(7);
  bad_scrub.payload = {1, 2, 3};
  EXPECT_EQ(client.call(bad_scrub).status, server::Status::kBadRequest);
}

TEST(StoreService, ScrubFindsSeededCorruptionAndVerifyReportsGaps) {
  TempDir dir;
  {
    LogStore log(dir.path, small_options());
    for (std::uint64_t i = 1; i <= 50; ++i) log.append(record_payload(i));
    log.flush();
  }
  const auto segs = segment_files(dir.path);
  ASSERT_GT(segs.size(), 2u);

  // The service first: the store's metrics live in its registry, which must
  // outlive the store.
  server::Service service(service_config());
  LogStore log(dir.path, small_options());
  corrupt_record(segs[1], 1);  // silent bitrot after open
  const std::uint64_t damaged_seq = parse_segment_records(segs[1])[1].sequence;

  log.bind_metrics(service.metrics(), nullptr);
  service.attach_store(&log);
  server::LoopbackClient client(service);

  const auto scrub = client.call(scrub_request(1));
  ASSERT_EQ(scrub.status, server::Status::kOk) << "corruption must not fail the request";
  const std::string scrub_json = as_text(scrub.payload);
  EXPECT_NE(scrub_json.find("\"clean\":false"), std::string::npos) << scrub_json;
  EXPECT_EQ(scrub_json.find("\"errors\":0,"), std::string::npos) << scrub_json;

  // The quarantine is visible through VERIFY as a gap at the damaged seq.
  const auto verify = client.call(verify_seq_request(2, damaged_seq, 1));
  ASSERT_EQ(verify.status, server::Status::kOk);
  const std::string verify_json = as_text(verify.payload);
  EXPECT_NE(verify_json.find("\"gap\":1"), std::string::npos) << verify_json;
  EXPECT_NE(verify_json.find("\"clean\":false"), std::string::npos) << verify_json;

  // The store keeps serving everything else.
  const auto read = client.call(log_read_request(3, 1));
  ASSERT_EQ(read.status, server::Status::kOk);
  EXPECT_EQ(read.payload, record_payload(1));

  // The scrub tally reached the metrics registry.
  const std::string stats = service.stats_json();
  EXPECT_NE(stats.find("store_scrub_errors_total"), std::string::npos);
}

/// Two shapes of rot hitting a sealed segment after recovery scanned it: a
/// rotted segment header, and a 200-byte smear from inside the segment's
/// second record (its first record stays intact).
enum class Rot { kHeader, kSmear };

/// A 50-record store, reopened so recovery's scan is every sealed segment's
/// table, whose segment 2 then rots behind the store's back.
struct RottedStore {
  explicit RottedStore(Rot rot) {
    {
      LogStore writer(dir.path, small_options());
      for (std::uint64_t seq = 1; seq <= 50; ++seq) writer.append(record_payload(seq));
      writer.flush();
    }
    const auto segs = segment_files(dir.path);
    EXPECT_GT(segs.size(), 2u);
    victim = parse_segment_records(segs[1]);
    EXPECT_GE(victim.size(), 3u);
    log = std::make_unique<LogStore>(dir.path, small_options());
    auto image = slurp(segs[1]);
    if (rot == Rot::kHeader) {
      image[3] ^= 0xFF;
    } else {
      const std::size_t at = victim[1].offset + kRecordHeaderSize + 4;
      for (std::size_t i = at; i < at + 200 && i < image.size(); ++i) image[i] = 0x5A;
    }
    spit(segs[1], image, image.size());
  }

  /// A read from the rotted segment; its first record is intact unless the
  /// header rotted.
  void read_first() {
    try {
      EXPECT_EQ(log->read(victim.front().sequence), record_payload(victim.front().sequence));
    } catch (const StoreError& e) {
      EXPECT_EQ(e.kind(), StoreError::Kind::kGap);
    }
  }

  static constexpr std::uint64_t kSegment = 2;
  TempDir dir;
  std::vector<testutil::ParsedRecord> victim;  ///< segment 2's records before the rot
  std::unique_ptr<LogStore> log;
};

TEST(StoreScrub, ReadBeforeScrubStillReportsDamage) {
  // A read, or the compaction tick's segment_infos(), reaches the rotted
  // segment first. It must not move the table scrub compares against: the
  // scrub reports the same damage with or without it.
  for (const Rot rot : {Rot::kHeader, Rot::kSmear}) {
    SCOPED_TRACE(rot == Rot::kHeader ? "rotted header" : "mid-record smear");
    ScrubReport alone;
    {
      RottedStore store(rot);
      alone = store.log->scrub_segment(RottedStore::kSegment);
      EXPECT_EQ(alone.new_gaps, 1u);
      if (rot == Rot::kHeader) {
        EXPECT_EQ(alone.errors, store.victim.size());
      } else {
        EXPECT_GE(alone.errors, 1u);
      }
    }
    {
      RottedStore store(rot);
      store.read_first();
      const ScrubReport after_read = store.log->scrub_segment(RottedStore::kSegment);
      EXPECT_EQ(after_read.errors, alone.errors);
      EXPECT_EQ(after_read.new_gaps, alone.new_gaps);
      // Reported once: a second scrub finds nothing new.
      const ScrubReport again = store.log->scrub_segment(RottedStore::kSegment);
      EXPECT_EQ(again.errors, 0u);
      EXPECT_EQ(again.new_gaps, 0u);
    }
    {
      RottedStore store(rot);
      (void)store.log->segment_infos();
      const ScrubReport after_infos = store.log->scrub_segment(RottedStore::kSegment);
      EXPECT_EQ(after_infos.errors, alone.errors);
      EXPECT_EQ(after_infos.new_gaps, alone.new_gaps);
    }
    {
      // Through the opcodes: a LOG_READ first, then SCRUB of every segment.
      RottedStore store(rot);
      server::Service service(service_config());
      service.attach_store(store.log.get());
      server::LoopbackClient client(service);
      (void)client.call(log_read_request(1, store.victim.front().sequence));
      const auto scrub = client.call(scrub_request(2));
      ASSERT_EQ(scrub.status, server::Status::kOk);
      const std::string json = as_text(scrub.payload);
      EXPECT_NE(json.find("\"clean\":false"), std::string::npos) << json;
      EXPECT_NE(json.find("\"new_gaps\":1,"), std::string::npos) << json;
    }
  }
}

TEST(StoreService, VerifyContainerRoundTrip) {
  // VERIFY of a container the service itself produced: clean verdict, adler
  // matches the original input, and no payload echo of the data.
  server::Service service(service_config());
  server::LoopbackClient client(service);
  const std::vector<std::uint8_t> input(8192, std::uint8_t{'z'});

  for (const auto opcode : {server::Opcode::kCompress, server::Opcode::kCompressBlocked}) {
    server::RequestFrame comp;
    comp.id = 1;
    comp.opcode = opcode;
    comp.payload = input;
    const auto compressed = client.call(comp);
    ASSERT_EQ(compressed.status, server::Status::kOk);

    server::RequestFrame ver;
    ver.id = 2;
    ver.opcode = server::Opcode::kVerify;
    ver.payload = compressed.payload;
    const auto resp = client.call(ver);
    ASSERT_EQ(resp.status, server::Status::kOk);
    const std::string json = as_text(resp.payload);
    EXPECT_NE(json.find("\"clean\":true"), std::string::npos) << json;
    EXPECT_EQ(resp.adler, checksum::adler32(input)) << json;

    // One flipped payload byte: VERIFY reports damage, still with OK status.
    server::RequestFrame bad = ver;
    bad.id = 3;
    bad.payload[bad.payload.size() / 2] ^= 0x10;
    const auto bad_resp = client.call(bad);
    if (bad_resp.status == server::Status::kOk) {
      EXPECT_NE(as_text(bad_resp.payload).find("\"clean\":false"), std::string::npos);
    }
  }

  // Empty payload in container mode is malformed.
  server::RequestFrame empty;
  empty.id = 4;
  empty.opcode = server::Opcode::kVerify;
  EXPECT_EQ(client.call(empty).status, server::Status::kBadRequest);
}

}  // namespace
}  // namespace lzss::store
