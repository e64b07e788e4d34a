// BlockScheduler: fans one request's blocks across a shared worker pool
// without ever depending on that pool for progress.
//
// The deadlock hazard it is built around: the parent request already holds
// a pool worker while its sub-jobs queue on the same bounded queue. If the
// parent *waited* for them, a pool full of parents would starve their own
// children. Instead the blocks live in a claim pool (Fanout): helper jobs
// are enqueued best-effort (a full queue just drops the helper — BUSY
// backpressure per block), every helper drains claims while they last, and
// the parent thread claims blocks too. The parent alone always finishes the
// request; helpers only add parallelism. A helper that dies mid-block
// (kill-fault, watchdog poison) abandons its claim on unwind and the parent
// re-claims it, so a lost worker costs latency, never completeness.
//
// Lifetime: helper closures hold the Fanout by shared_ptr and their own
// copy of the work functor, but the data the work functor references (the
// request payload, the results array) belongs to the parent's stack.
// run_fanout therefore quiesces on every exit path — claims are cancelled
// and in-flight blocks are waited out — so a stale helper dispatched after
// the parent returned finds no claim and never touches freed memory.
#pragma once

#include <cstddef>
#include <cstdint>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

namespace lzss::container {

/// The claim pool + completion latch shared by the parent and its helpers.
class Fanout {
 public:
  explicit Fanout(std::size_t blocks);

  /// Next block to run: abandoned blocks first, then the sequential
  /// counter. nullopt when nothing is claimable (exhausted or cancelled).
  [[nodiscard]] std::optional<std::size_t> claim();
  void complete(std::size_t index);
  /// Unwind path: hands a claimed-but-unfinished block back for re-claim.
  void abandon(std::size_t index);

  [[nodiscard]] bool all_complete() const;
  /// Blocks until progress is possible: a block completed, a block was
  /// abandoned (re-claimable), or the pool was cancelled. Returns
  /// all_complete().
  bool wait_progress();
  /// Stops handing out claims and waits for in-flight ones to land.
  void quiesce();

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t blocks_;
  std::size_t next_ = 0;
  std::size_t completed_ = 0;
  std::size_t in_flight_ = 0;
  bool cancelled_ = false;
  std::vector<std::size_t> retry_;
};

/// Per-block work; implementations must not throw — failures are recorded
/// out-of-band (see Service::do_*_blocked).
using BlockWork = std::function<void(std::size_t index)>;

/// Hands a helper task to the pool; returns false when the queue refuses
/// (full / stopping). The task runs at most once.
using HelperEnqueue = std::function<bool(std::function<void()>)>;

struct FanoutReport {
  std::size_t blocks = 0;
  std::size_t inline_blocks = 0;     ///< run on the calling thread
  std::size_t helper_blocks = 0;     ///< run by pool workers
  std::size_t helpers_enqueued = 0;
  std::size_t helpers_rejected = 0;  ///< BUSY per block: queue had no room
  std::uint64_t reassembly_wait_us = 0;  ///< parent idle, waiting on helpers
};

/// Runs work(i) for every block index in [0, blocks). Enqueues up to
/// max_helpers helper tasks, then claims blocks on the calling thread until
/// all complete. Visits fault point "container.reassemble.delay" before the
/// inline claim loop.
[[nodiscard]] FanoutReport run_fanout(std::size_t blocks, std::size_t max_helpers,
                                      const BlockWork& work, const HelperEnqueue& enqueue);

}  // namespace lzss::container
