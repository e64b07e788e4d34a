// Crash-recovery harness for the durable log store.
//
// The centrepiece is the torn-tail sweep the acceptance criteria name: build
// a multi-segment store, then for EVERY byte offset spanning the last two
// records of the tail segment, truncate the file there, reopen, and assert
// that recovery (a) keeps every record fully on disk before the cut, (b)
// reports the exact number of torn bytes discarded, and (c) leaves a store
// that accepts and round-trips new appends. The same sweep then runs with
// the `store.file.short_write` and `store.file.fsync` fault points armed, so
// recovery and the first post-recovery append are exercised on a disk that
// is still misbehaving.
//
// Record boundaries are computed by tests/store_test_util.hpp's independent
// segment parser — the sweep does not ask the code under test where its own
// records are.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <vector>

#include "fault/fault.hpp"
#include "store/log_store.hpp"
#include "store_test_util.hpp"

namespace lzss::store {
namespace {

using testutil::ParsedRecord;
using testutil::TempDir;
using testutil::parse_segment_records;
using testutil::record_payload;
using testutil::segment_files;
using testutil::slurp;
using testutil::spit;

StoreOptions sweep_options() {
  StoreOptions opt;
  opt.segment_bytes = 1024;  // several segments from a few dozen records
  opt.fsync_policy = FsyncPolicy::kEveryRecord;
  return opt;
}

/// Builds a multi-segment store with @p records deterministic records and
/// returns the tail segment's path.
std::string build_store(const std::string& dir, std::uint64_t records,
                        StoreOptions opt = sweep_options()) {
  {
    LogStore log(dir, opt);
    for (std::uint64_t seq = 1; seq <= records; ++seq) log.append(record_payload(seq));
    log.flush();
  }
  const auto segs = segment_files(dir);
  EXPECT_GT(segs.size(), 2u) << "sweep needs a multi-segment store";
  return segs.back();
}

/// Records of the tail segment plus the highest sequence stored in sealed
/// segments (== tail base_sequence - 1).
struct TailLayout {
  std::vector<ParsedRecord> records;
  std::uint64_t sealed_last_seq = 0;
};

TailLayout tail_layout(const std::string& tail_path) {
  TailLayout out;
  out.records = parse_segment_records(tail_path);
  EXPECT_GE(out.records.size(), 3u) << "sweep needs >= 3 records in the tail segment";
  out.sealed_last_seq = out.records.front().sequence - 1;
  return out;
}

/// Asserts that after reopening a store truncated at @p cut, exactly the
/// records wholly before the cut survive, the torn-byte count is exact, and
/// appends resume. @p fault_retries allows the post-recovery append to be
/// retried while a fault point is armed (0 = must succeed first try).
void check_recovery_at(const std::string& dir, const TailLayout& layout, std::uint64_t cut,
                       unsigned fault_retries) {
  // Expected survivors in the tail: records with end <= cut.
  std::uint64_t tail_survivors = 0;
  std::uint64_t last_good_end = kSegmentHeaderSize;
  for (const ParsedRecord& r : layout.records) {
    if (r.end <= cut) {
      ++tail_survivors;
      last_good_end = r.end;
    }
  }
  const std::uint64_t expected_torn = cut - last_good_end;
  const std::uint64_t expected_next = layout.sealed_last_seq + tail_survivors + 1;

  RecoveryReport report;
  LogStore log(dir, sweep_options(), &report);
  EXPECT_EQ(report.torn_bytes_discarded, expected_torn) << "cut " << cut;
  EXPECT_EQ(report.next_sequence, expected_next) << "cut " << cut;
  EXPECT_EQ(report.records, layout.sealed_last_seq + tail_survivors) << "cut " << cut;
  EXPECT_TRUE(report.gaps.empty()) << "cut " << cut;

  // Every fully-written record — sealed segments and the surviving tail —
  // reads back byte-exact.
  for (std::uint64_t seq = 1; seq < expected_next; ++seq) {
    EXPECT_EQ(log.read(seq), record_payload(seq)) << "cut " << cut << " seq " << seq;
  }

  // The recovered store accepts new appends (retrying past armed faults:
  // a failed append is contractually retry-safe).
  std::uint64_t seq = 0;
  for (unsigned attempt = 0;; ++attempt) {
    try {
      seq = log.append(record_payload(expected_next));
      break;
    } catch (const IoError&) {
      ASSERT_LT(attempt, fault_retries) << "cut " << cut;
    }
  }
  EXPECT_EQ(seq, expected_next) << "cut " << cut;
  EXPECT_EQ(log.read(seq), record_payload(expected_next)) << "cut " << cut;
}

/// Runs the every-byte-offset torn-tail sweep, optionally with one fault
/// point armed for each iteration (one trigger per recovery+append cycle).
void run_torn_tail_sweep(const char* fault_point) {
  TempDir dir;
  const std::string tail = build_store(dir.path, 40);
  const TailLayout layout = tail_layout(tail);
  const auto tail_image = slurp(tail);
  const auto original_segs = segment_files(dir.path);

  // Sweep every truncation point from the start of the second-to-last record
  // through the intact end of the file.
  const std::uint64_t from = layout.records[layout.records.size() - 2].offset;
  for (std::uint64_t cut = from; cut <= tail_image.size(); ++cut) {
    spit(tail, tail_image, cut);

    if (fault_point != nullptr) {
      fault::Spec spec;
      spec.action = fault::Action::kFire;
      spec.max_triggers = 1;
      spec.seed = cut + 1;
      fault::ScopedFault guard(fault_point, spec);
      check_recovery_at(dir.path, layout, cut, /*fault_retries=*/2);
    } else {
      check_recovery_at(dir.path, layout, cut, /*fault_retries=*/0);
    }

    // The iteration's append may have rotated into a fresh segment; drop
    // anything beyond the original set so the next cut starts clean.
    for (const std::string& seg : segment_files(dir.path)) {
      if (std::find(original_segs.begin(), original_segs.end(), seg) == original_segs.end())
        std::filesystem::remove(seg);
    }
  }
}

TEST(StoreRecovery, TornTailEveryByteOffsetSweep) { run_torn_tail_sweep(nullptr); }

// One genuinely torn write (half the bytes land, then EIO) per iteration —
// it hits the first append, where the first pwrite happens. Recovery must still open; the append must succeed on
// retry with the same sequence.
TEST(StoreRecovery, TornTailSweepWithShortWriteFaultArmed) {
  run_torn_tail_sweep("store.file.short_write");
}

// One fsync failure (EIO) per iteration. If it lands inside recovery (the
// torn-tail repair) the open still succeeds — repair
// durability is best-effort and re-converges. If it lands on the first
// every-record append, the append throws without advancing state and the
// retry succeeds.
TEST(StoreRecovery, TornTailSweepWithFsyncFaultArmed) {
  run_torn_tail_sweep("store.file.fsync");
}

TEST(StoreRecovery, MidSegmentCorruptionIsQuarantined) {
  // Seeded random single-byte corruption inside sealed segments. Recovery
  // must quarantine the damaged record(s) as a gap, keep every other record
  // readable, answer kGap for the lost sequences, and keep accepting appends.
  std::uint64_t seed = 0x9E3779B97F4A7C15ull;
  auto next_rand = [&seed]() {
    seed ^= seed << 13;
    seed ^= seed >> 7;
    seed ^= seed << 17;
    return seed;
  };

  for (int trial = 0; trial < 10; ++trial) {
    TempDir dir;
    build_store(dir.path, 40);
    const auto segs = segment_files(dir.path);
    ASSERT_GT(segs.size(), 2u);

    // Pick a sealed segment and corrupt one byte in its record region.
    const std::string victim = segs[next_rand() % (segs.size() - 1)];
    auto image = slurp(victim);
    ASSERT_GT(image.size(), kSegmentHeaderSize + 1);
    const std::uint64_t at =
        kSegmentHeaderSize + next_rand() % (image.size() - kSegmentHeaderSize);
    image[at] ^= static_cast<std::uint8_t>(1u << (next_rand() % 8));
    spit(victim, image, image.size());

    RecoveryReport report;
    LogStore log(dir.path, sweep_options(), &report);
    ASSERT_FALSE(report.gaps.empty()) << "trial " << trial << " offset " << at;

    // Union of readable and quarantined sequences covers 1..40 exactly once.
    std::uint64_t readable = 0, lost = 0;
    for (std::uint64_t seq = 1; seq <= 40; ++seq) {
      try {
        EXPECT_EQ(log.read(seq), record_payload(seq)) << "trial " << trial << " seq " << seq;
        ++readable;
      } catch (const StoreError& e) {
        EXPECT_EQ(e.kind(), StoreError::Kind::kGap) << "trial " << trial << " seq " << seq;
        ++lost;
      }
    }
    EXPECT_EQ(readable + lost, 40u);
    EXPECT_EQ(readable, report.records);
    EXPECT_GE(lost, 1u) << "trial " << trial;

    // Damage in a sealed segment never blocks new appends.
    const std::uint64_t seq = log.append(record_payload(41));
    EXPECT_EQ(log.read(seq), record_payload(41));

    // verify() sees the same damage offline.
    const auto verify = LogStore::verify(dir.path);
    EXPECT_FALSE(verify.ok());
    EXPECT_EQ(verify.records, readable + 1);
  }
}

TEST(StoreRecovery, StrayFilesAreNotTreatedAsSegments) {
  TempDir dir;
  build_store(dir.path, 40);
  const auto segs = segment_files(dir.path);
  ASSERT_GT(segs.size(), 2u);

  // Leftovers a backup tool / editor / crashed copy might drop next to real
  // segments. Several are byte-identical copies of segment 1, so if the
  // name filter prefix-matches, id 1 appears twice and the base-sequence
  // chain is corrupted during recovery.
  const auto image = slurp(segs.front());
  spit(segs.front() + ".bak", image, image.size());  // seg-00000001.lzseg.bak
  spit(dir.path + "/seg-00000001.tmp", image, image.size());
  spit(dir.path + "/seg-1.lzseg", image, image.size());  // wrong zero padding
  const std::vector<std::uint8_t> junk(64, 0xAA);
  spit(dir.path + "/seg-00000002.lzseg.swp", junk, junk.size());

  RecoveryReport report;
  LogStore log(dir.path, sweep_options(), &report);
  EXPECT_TRUE(report.gaps.empty());
  EXPECT_EQ(report.records, 40u);
  for (std::uint64_t seq = 1; seq <= 40; ++seq) {
    EXPECT_EQ(log.read(seq), record_payload(seq)) << "seq " << seq;
  }
  EXPECT_EQ(log.append(record_payload(41)), 41u);
}

TEST(StoreRecovery, GappySealedSegmentDoesNotReissueSequencesAfterTailHeaderLoss) {
  // Recovery must take each sealed segment's END sequence from the chain,
  // not derive it as base + record_count: after a mid-segment gap is
  // quarantined, the segment holds fewer records than sequences. If the
  // tail's header is then lost, a derived (undercounted) base for the
  // recreated tail would re-issue sequence numbers that still exist as
  // valid records after the gap.
  TempDir dir;
  build_store(dir.path, 40);
  const auto segs = segment_files(dir.path);
  ASSERT_GT(segs.size(), 2u);

  // Corrupt the FIRST record of the LAST sealed segment, so valid records
  // remain between the gap and the tail.
  const std::string victim = segs[segs.size() - 2];
  const auto victim_records = parse_segment_records(victim);
  ASSERT_GE(victim_records.size(), 2u);
  const std::uint64_t victim_base = victim_records.front().sequence;
  const std::uint64_t tail_base = parse_segment_records(segs.back()).front().sequence;
  {
    auto image = slurp(victim);
    image[victim_records.front().offset + kRecordHeaderSize] ^= 0xFF;
    spit(victim, image, image.size());
  }

  {
    // Open once: recovery quarantines the damaged record, so the segment's
    // record_count is one short of its sequences.
    RecoveryReport report;
    LogStore log(dir.path, sweep_options(), &report);
    EXPECT_THROW((void)log.read(victim_base), StoreError);
    log.flush();
  }

  // Crash shape: the tail segment's header never became durable.
  {
    auto tail_image = slurp(segs.back());
    ASSERT_GE(tail_image.size(), kSegmentHeaderSize);
    for (std::size_t i = 0; i < kSegmentHeaderSize; ++i) tail_image[i] = 0;
    spit(segs.back(), tail_image, tail_image.size());
  }

  RecoveryReport report;
  LogStore log(dir.path, sweep_options(), &report);
  // The recreated tail resumes at the sealed chain's true end.
  EXPECT_EQ(report.next_sequence, tail_base);
  EXPECT_EQ(log.append(record_payload(100)), tail_base);
  // Every post-gap record in the sealed segment is still uniquely
  // addressable — the new append did not collide with one.
  for (std::uint64_t seq = victim_base + 1; seq < tail_base; ++seq) {
    EXPECT_EQ(log.read(seq), record_payload(seq)) << "seq " << seq;
  }
  EXPECT_EQ(log.read(tail_base), record_payload(100));
}

TEST(StoreRecovery, SealedSegmentHeaderDestroyedBecomesWholeSegmentGap) {
  TempDir dir;
  build_store(dir.path, 40);
  const auto segs = segment_files(dir.path);
  ASSERT_GT(segs.size(), 2u);

  // Zero the first segment's header: nothing in it is recoverable.
  const std::string victim = segs.front();
  auto image = slurp(victim);
  const std::vector<ParsedRecord> victim_records = parse_segment_records(victim);
  for (std::size_t i = 0; i < kSegmentHeaderSize; ++i) image[i] = 0;
  spit(victim, image, image.size());

  RecoveryReport report;
  LogStore log(dir.path, sweep_options(), &report);
  ASSERT_EQ(report.gaps.size(), 1u);
  EXPECT_EQ(report.gaps[0].bytes, image.size());
  EXPECT_EQ(report.gaps[0].first_sequence, 1u);
  EXPECT_EQ(report.gaps[0].sequence_count, victim_records.size());

  for (std::uint64_t seq = 1; seq <= 40; ++seq) {
    if (seq <= victim_records.size()) {
      EXPECT_THROW((void)log.read(seq), StoreError);
    } else {
      EXPECT_EQ(log.read(seq), record_payload(seq)) << "seq " << seq;
    }
  }
  EXPECT_EQ(log.append(record_payload(41)), 41u);
}

TEST(StoreRecovery, OfflineVerifyReportsRecoveryGaps) {
  // Offline verify and recovery walk the same chain, so the same damage must
  // read the same in both: damage running to the end of a sealed segment and
  // a rotted sealed header each lose every sequence up to where the next
  // segment starts, and both reports pin that count.
  TempDir dir;
  build_store(dir.path, 60);
  const auto segs = segment_files(dir.path);
  ASSERT_GE(segs.size(), 5u);

  // Trailing damage: smear segment 2 from inside its third-to-last record to
  // EOF (the file keeps its size), so no later frame resyncs the scan.
  const auto smeared = parse_segment_records(segs[1]);
  ASSERT_GE(smeared.size(), 3u);
  const ParsedRecord& first_lost = smeared[smeared.size() - 3];
  {
    auto image = slurp(segs[1]);
    for (std::size_t i = first_lost.offset + 5; i < image.size(); ++i) image[i] = 0xA5;
    spit(segs[1], image, image.size());
  }
  // A rotted header on segment 4: nothing in it is recoverable.
  const auto rotted = parse_segment_records(segs[3]);
  {
    auto image = slurp(segs[3]);
    image[3] ^= 0xFF;
    spit(segs[3], image, image.size());
  }

  const VerifyReport verify = LogStore::verify(dir.path);
  RecoveryReport recovery;
  { LogStore log(dir.path, sweep_options(), &recovery); }

  ASSERT_EQ(recovery.gaps.size(), 2u);
  EXPECT_EQ(recovery.gaps[0].first_sequence, first_lost.sequence);
  EXPECT_EQ(recovery.gaps[0].sequence_count, 3u);
  EXPECT_EQ(recovery.gaps[1].offset, 0u);
  EXPECT_EQ(recovery.gaps[1].first_sequence, rotted.front().sequence);
  EXPECT_EQ(recovery.gaps[1].sequence_count, rotted.size());

  ASSERT_EQ(verify.gaps.size(), recovery.gaps.size());
  for (std::size_t i = 0; i < verify.gaps.size(); ++i) {
    const Gap& v = verify.gaps[i];
    const Gap& r = recovery.gaps[i];
    EXPECT_EQ(v.segment_id, r.segment_id) << "gap " << i;
    EXPECT_EQ(v.offset, r.offset) << "gap " << i;
    EXPECT_EQ(v.bytes, r.bytes) << "gap " << i;
    EXPECT_EQ(v.first_sequence, r.first_sequence) << "gap " << i;
    EXPECT_EQ(v.sequence_count, r.sequence_count) << "gap " << i;
    EXPECT_EQ(v.tombstone, r.tombstone) << "gap " << i;
  }
  EXPECT_EQ(verify.records, recovery.records);
}

TEST(StoreRecovery, ReopenKeepsQuarantinedGaps) {
  // Damage one open quarantined is quarantined the same way, field for
  // field, after a plain reopen, and the first scrub after that finds
  // nothing new: it was reported when it was found, not again per restart.
  TempDir dir;
  build_store(dir.path, 60);
  const auto segs = segment_files(dir.path);
  ASSERT_GE(segs.size(), 4u);

  // A 200-byte smear from inside segment 2's second record...
  const auto smeared = parse_segment_records(segs[1]);
  ASSERT_GE(smeared.size(), 3u);
  {
    auto image = slurp(segs[1]);
    const std::size_t at = smeared[1].offset + kRecordHeaderSize + 4;
    for (std::size_t i = at; i < at + 200 && i < image.size(); ++i) image[i] = 0x5A;
    spit(segs[1], image, image.size());
  }
  // ...and a rotted header on segment 3.
  {
    auto image = slurp(segs[2]);
    image[3] ^= 0xFF;
    spit(segs[2], image, image.size());
  }

  RecoveryReport first;
  { LogStore log(dir.path, sweep_options(), &first); }
  ASSERT_EQ(first.gaps.size(), 2u);

  RecoveryReport second;
  LogStore log(dir.path, sweep_options(), &second);
  ASSERT_EQ(second.gaps.size(), first.gaps.size());
  for (std::size_t i = 0; i < first.gaps.size(); ++i) {
    const Gap& a = first.gaps[i];
    const Gap& b = second.gaps[i];
    EXPECT_EQ(b.segment_id, a.segment_id) << "gap " << i;
    EXPECT_EQ(b.offset, a.offset) << "gap " << i;
    EXPECT_EQ(b.bytes, a.bytes) << "gap " << i;
    EXPECT_EQ(b.first_sequence, a.first_sequence) << "gap " << i;
    EXPECT_EQ(b.sequence_count, a.sequence_count) << "gap " << i;
    EXPECT_EQ(b.tombstone, a.tombstone) << "gap " << i;
  }
  EXPECT_EQ(second.records, first.records);

  for (const Gap& g : first.gaps) {
    const ScrubReport scrub = log.scrub_segment(g.segment_id);
    EXPECT_EQ(scrub.errors, 0u) << "segment " << g.segment_id;
    EXPECT_EQ(scrub.new_gaps, 0u) << "segment " << g.segment_id;
  }
}

TEST(StoreRecovery, TornAppendLeavesStoreRetrySafe) {
  // A live torn write: the append throws, logical state is unchanged, the
  // retry lands the same sequence, and the overwritten garbage never
  // resurfaces — in this process or after reopen.
  TempDir dir;
  StoreOptions opt = sweep_options();
  opt.segment_bytes = 1 << 20;
  LogStore log(dir.path, opt);
  for (std::uint64_t seq = 1; seq <= 5; ++seq) log.append(record_payload(seq));

  {
    fault::Spec spec;
    spec.action = fault::Action::kFire;
    spec.max_triggers = 1;
    fault::ScopedFault guard("store.file.short_write", spec);
    EXPECT_THROW(log.append(record_payload(6)), IoError);
  }
  EXPECT_EQ(log.next_sequence(), 6u);
  EXPECT_EQ(log.append(record_payload(6)), 6u);
  for (std::uint64_t seq = 1; seq <= 6; ++seq) EXPECT_EQ(log.read(seq), record_payload(seq));

  log.flush();
  RecoveryReport report;
  LogStore reopened(dir.path, opt, &report);
  EXPECT_EQ(report.records, 6u);
  EXPECT_TRUE(report.gaps.empty());
}

TEST(StoreRecovery, TornAppendGarbageTruncatedOnReopen) {
  // A torn write at the very tail that is never overwritten (the process
  // "crashes" right after): reopen must find and discard the partial bytes.
  TempDir dir;
  StoreOptions opt = sweep_options();
  opt.segment_bytes = 1 << 20;
  {
    LogStore log(dir.path, opt);
    for (std::uint64_t seq = 1; seq <= 5; ++seq) log.append(record_payload(seq));
    fault::Spec spec;
    spec.action = fault::Action::kFire;
    spec.max_triggers = 1;
    fault::ScopedFault guard("store.file.short_write", spec);
    EXPECT_THROW(log.append(record_payload(6)), IoError);
    // Simulated crash: no retry, no clean close — the destructor's flush
    // fsyncs, but never erases the torn bytes.
  }
  RecoveryReport report;
  LogStore log(dir.path, opt, &report);
  EXPECT_EQ(report.records, 5u);
  EXPECT_GT(report.torn_bytes_discarded, 0u);
  EXPECT_TRUE(report.gaps.empty());
  EXPECT_EQ(log.append(record_payload(6)), 6u);
  EXPECT_EQ(log.read(6), record_payload(6));
}

TEST(StoreRecovery, EnospcOnlyAckedRecordsSurvive) {
  // Flaky disk-full: appends fail at random, and after reopen the store
  // holds exactly the records that were acked — no more, no fewer.
  TempDir dir;
  StoreOptions opt = sweep_options();
  std::vector<std::uint64_t> acked;
  {
    LogStore log(dir.path, opt);
    fault::Spec spec;
    spec.action = fault::Action::kFire;
    spec.probability = 0.4;
    spec.seed = 99;
    fault::ScopedFault guard("store.file.enospc", spec);
    std::uint64_t tag = 0;
    for (int i = 0; i < 50; ++i) {
      try {
        const std::uint64_t seq = log.append(record_payload(tag + 1));
        EXPECT_EQ(seq, tag + 1);  // sequences stay dense: failures don't burn one
        acked.push_back(seq);
        ++tag;
      } catch (const IoError&) {
        // Not appended; the next iteration retries the same payload and must
        // land the same (never-burned) sequence.
      }
    }
  }
  ASSERT_FALSE(acked.empty());
  ASSERT_LT(acked.size(), 50u) << "fault never fired; test is vacuous";

  RecoveryReport report;
  LogStore log(dir.path, opt, &report);
  EXPECT_EQ(report.records, acked.size());
  for (const std::uint64_t seq : acked) EXPECT_EQ(log.read(seq), record_payload(seq));
}

TEST(StoreRecovery, FsyncFailureDoesNotAckTheRecord) {
  // every-record policy: if the fsync fails, the append must throw (the ack
  // would be a durability lie) and the retry lands the same sequence.
  TempDir dir;
  StoreOptions opt = sweep_options();
  LogStore log(dir.path, opt);
  log.append(record_payload(1));
  {
    fault::Spec spec;
    spec.action = fault::Action::kFire;
    spec.max_triggers = 1;
    fault::ScopedFault guard("store.file.fsync", spec);
    EXPECT_THROW(log.append(record_payload(2)), IoError);
  }
  EXPECT_EQ(log.next_sequence(), 2u);
  EXPECT_EQ(log.append(record_payload(2)), 2u);
  EXPECT_EQ(log.read(2), record_payload(2));
}

// ---------------------------------------------------------------------------
// Compaction crash safety.
//
// compact_segment stages the rewritten image as `<segment>.cmp`, fsyncs it,
// and atomically renames it over the old file. The sweep below simulates a
// SIGKILL at every byte offset of that staging write: a truncated tmp file is
// left next to the intact old segment, and recovery must land on exactly one
// intact copy of every live record — the old one, since the rename never
// happened. A second test covers the post-rename state (new image in place).
// ---------------------------------------------------------------------------

/// Copies every regular file of flat directory @p src into @p dst.
void copy_flat(const std::string& src, const std::string& dst) {
  for (const auto& entry : std::filesystem::directory_iterator(src)) {
    if (!entry.is_regular_file()) continue;
    std::filesystem::copy_file(entry.path(),
                               std::filesystem::path(dst) / entry.path().filename(),
                               std::filesystem::copy_options::overwrite_existing);
  }
}

/// A multi-segment store where one sealed segment has a quarantined record.
struct GappyStore {
  std::vector<std::uint64_t> live;  ///< sequences that read back
  std::vector<std::uint64_t> lost;  ///< quarantined sequences
  std::uint64_t next_sequence = 0;
  std::string victim_path;          ///< the gappy sealed segment
  std::uint64_t victim_id = 0;
};

GappyStore build_gappy_store(const std::string& dir) {
  GappyStore out;
  build_store(dir, 40);
  const auto segs = segment_files(dir);
  // Corrupt the middle record of the second segment (sealed, mid-chain).
  out.victim_path = segs[1];
  const auto recs = parse_segment_records(out.victim_path);
  EXPECT_GE(recs.size(), 3u);
  auto image = slurp(out.victim_path);
  image[recs[recs.size() / 2].offset + kRecordHeaderSize + 1] ^= 0x40;
  spit(out.victim_path, image, image.size());

  RecoveryReport report;
  LogStore log(dir, sweep_options(), &report);
  EXPECT_FALSE(report.gaps.empty());
  out.next_sequence = log.next_sequence();
  for (std::uint64_t seq = 1; seq < out.next_sequence; ++seq) {
    try {
      (void)log.read(seq);
      out.live.push_back(seq);
    } catch (const StoreError&) {
      out.lost.push_back(seq);
    }
  }
  EXPECT_FALSE(out.lost.empty());
  for (const SegmentInfo& info : log.segment_infos()) {
    if (info.sealed && info.garbage_bytes > 0) out.victim_id = info.id;
  }
  EXPECT_NE(out.victim_id, 0u);
  log.flush();
  return out;
}

/// Reopens @p dir and asserts the exact live/lost split of @p g survives.
void check_gappy_state(const std::string& dir, const GappyStore& g, const char* ctx) {
  RecoveryReport report;
  LogStore log(dir, sweep_options(), &report);
  EXPECT_EQ(log.next_sequence(), g.next_sequence) << ctx;
  for (const std::uint64_t seq : g.live) {
    EXPECT_EQ(log.read(seq), record_payload(seq)) << ctx << " seq " << seq;
  }
  for (const std::uint64_t seq : g.lost) {
    EXPECT_THROW((void)log.read(seq), StoreError) << ctx << " seq " << seq;
  }
}

/// The every-byte-offset compaction-crash sweep, optionally with a fault
/// point armed across each reopen.
void run_compaction_crash_sweep(const char* fault_point) {
  TempDir dir;
  const GappyStore g = build_gappy_store(dir.path);

  // Capture the image compaction would write, by compacting a scratch copy.
  std::vector<std::uint8_t> compacted;
  {
    TempDir scratch;
    copy_flat(dir.path, scratch.path);
    LogStore log(scratch.path, sweep_options());
    const CompactionReport rep = log.compact_segment(g.victim_id);
    EXPECT_EQ(rep.records, parse_segment_records(g.victim_path).size() - 1);
    EXPECT_LT(rep.bytes_after, rep.bytes_before);
    compacted = slurp(scratch.path + "/" +
                      std::filesystem::path(g.victim_path).filename().string());
    check_gappy_state(scratch.path, g, "scratch after compaction");
  }

  // Crash while staging: for every length of the tmp file, the old segment
  // is still in place and recovery must see the exact pre-compaction state.
  const std::string tmp = g.victim_path + ".cmp";
  for (std::uint64_t cut = 0; cut <= compacted.size(); ++cut) {
    spit(tmp, compacted, cut);
    if (fault_point != nullptr) {
      fault::Spec spec;
      spec.action = fault::Action::kFire;
      spec.max_triggers = 1;
      spec.seed = cut + 1;
      fault::ScopedFault guard(fault_point, spec);
      check_gappy_state(dir.path, g, "tmp cut");
    } else {
      check_gappy_state(dir.path, g, "tmp cut");
    }
  }
}

TEST(StoreCompaction, TmpTruncationEveryByteOffsetSweep) {
  run_compaction_crash_sweep(nullptr);
}

TEST(StoreCompaction, TmpTruncationSweepWithShortWriteFaultArmed) {
  run_compaction_crash_sweep("store.file.short_write");
}

TEST(StoreCompaction, CrashAfterRenameRecoversNewImage) {
  // The other side of the atomic rename: the new image IS the segment.
  // Reopen must land on the compacted copy — same live records, same
  // quarantined sequences (now tombstoned), no dupes.
  TempDir dir;
  const GappyStore g = build_gappy_store(dir.path);
  std::vector<std::uint8_t> compacted;
  {
    TempDir scratch;
    copy_flat(dir.path, scratch.path);
    LogStore log(scratch.path, sweep_options());
    (void)log.compact_segment(g.victim_id);
    compacted = slurp(scratch.path + "/" +
                      std::filesystem::path(g.victim_path).filename().string());
  }
  // Simulated crash immediately after rename: new image in place.
  spit(g.victim_path, compacted, compacted.size());
  check_gappy_state(dir.path, g, "post-rename");

  // And again: the second open walks the same tombstones.
  check_gappy_state(dir.path, g, "post-rename reopen");
}

TEST(StoreCompaction, RenameFaultAbortsAndRetrySucceeds) {
  TempDir dir;
  const GappyStore g = build_gappy_store(dir.path);
  LogStore log(dir.path, sweep_options());
  {
    fault::Spec spec;
    spec.action = fault::Action::kFire;
    spec.max_triggers = 1;
    fault::ScopedFault guard("store.compact.rename", spec);
    EXPECT_THROW((void)log.compact_segment(g.victim_id), IoError);
  }
  // The failed attempt left the store untouched and cleaned its tmp file.
  EXPECT_FALSE(std::filesystem::exists(g.victim_path + ".cmp"));
  for (const std::uint64_t seq : g.live) EXPECT_EQ(log.read(seq), record_payload(seq));
  // Retry with the fault gone: the same compaction lands.
  const CompactionReport rep = log.compact_segment(g.victim_id);
  EXPECT_GT(rep.reclaimed(), 0u);
  for (const std::uint64_t seq : g.live) EXPECT_EQ(log.read(seq), record_payload(seq));
  for (const std::uint64_t seq : g.lost) EXPECT_THROW((void)log.read(seq), StoreError);
}

TEST(StoreCompaction, CrashPointThrowAbortsCleanly) {
  // kThrow on store.compact.crash models dying in the staged-but-not-renamed
  // window; the in-process form must abort without touching the segment.
  TempDir dir;
  const GappyStore g = build_gappy_store(dir.path);
  LogStore log(dir.path, sweep_options());
  {
    fault::Spec spec;
    spec.action = fault::Action::kThrow;
    spec.max_triggers = 1;
    fault::ScopedFault guard("store.compact.crash", spec);
    EXPECT_THROW((void)log.compact_segment(g.victim_id), fault::InjectedFault);
  }
  EXPECT_FALSE(std::filesystem::exists(g.victim_path + ".cmp"));
  const CompactionReport rep = log.compact_segment(g.victim_id);
  EXPECT_GT(rep.reclaimed(), 0u);
  check_gappy_state(dir.path, g, "after aborted-then-retried compaction");
}

TEST(StoreCompaction, RecompressesRawRecordsAndKeepsTombstones) {
  // Records appended with compression off are stored RAW; compaction re-runs
  // them through deflate and keeps the smaller form. Quarantined sequences
  // stay addressable as gaps (tombstones), and the offline verifier treats
  // the compacted segment as clean.
  TempDir dir;
  StoreOptions raw_opt = sweep_options();
  raw_opt.compress = false;
  {
    LogStore log(dir.path, raw_opt);
    // Highly compressible payloads so the deflate pass genuinely shrinks.
    for (std::uint64_t seq = 1; seq <= 40; ++seq)
      log.append(std::vector<std::uint8_t>(120, static_cast<std::uint8_t>('a' + seq % 7)));
    log.flush();
  }
  const auto segs = segment_files(dir.path);
  ASSERT_GT(segs.size(), 2u);
  // Quarantine one record in segment 2.
  const auto recs = parse_segment_records(segs[1]);
  auto image = slurp(segs[1]);
  image[recs[1].offset + kRecordHeaderSize + 1] ^= 0x40;
  spit(segs[1], image, image.size());

  StoreOptions opt = sweep_options();  // compress back on
  LogStore log(dir.path, opt);
  std::uint64_t victim_id = 0;
  for (const SegmentInfo& info : log.segment_infos()) {
    if (info.sealed && info.garbage_bytes > 0) victim_id = info.id;
  }
  ASSERT_NE(victim_id, 0u);
  const CompactionReport rep = log.compact_segment(victim_id);
  EXPECT_GT(rep.recompressed, 0u);
  EXPECT_LT(rep.bytes_after, rep.bytes_before);

  const std::uint64_t lost_seq = recs[1].sequence;
  for (std::uint64_t seq = 1; seq <= 40; ++seq) {
    if (seq == lost_seq) {
      try {
        (void)log.read(seq);
        FAIL() << "quarantined seq " << seq << " readable after compaction";
      } catch (const StoreError& e) {
        EXPECT_EQ(e.kind(), StoreError::Kind::kGap);
      }
    } else {
      EXPECT_EQ(log.read(seq),
                std::vector<std::uint8_t>(120, static_cast<std::uint8_t>('a' + seq % 7)));
    }
  }
  log.flush();

  // Offline verify: the tombstone is damage already accounted, not new.
  const auto verify = LogStore::verify(dir.path);
  EXPECT_TRUE(verify.ok());
}

}  // namespace
}  // namespace lzss::store
