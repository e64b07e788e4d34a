#include "container/scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "fault/fault.hpp"

namespace lzss::container {

Fanout::Fanout(std::size_t blocks) : blocks_(blocks) {}

std::optional<std::size_t> Fanout::claim() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (cancelled_) return std::nullopt;
  std::size_t index;
  if (!retry_.empty()) {
    index = retry_.back();
    retry_.pop_back();
  } else if (next_ < blocks_) {
    index = next_++;
  } else {
    return std::nullopt;
  }
  ++in_flight_;
  return index;
}

void Fanout::complete(std::size_t) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    --in_flight_;
    ++completed_;
  }
  cv_.notify_all();
}

void Fanout::abandon(std::size_t index) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    --in_flight_;
    retry_.push_back(index);
  }
  cv_.notify_all();
}

bool Fanout::all_complete() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return completed_ == blocks_;
}

bool Fanout::wait_progress() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [&] { return completed_ == blocks_ || !retry_.empty() || cancelled_; });
  return completed_ == blocks_;
}

void Fanout::quiesce() {
  std::unique_lock<std::mutex> lock(mutex_);
  cancelled_ = true;
  cv_.notify_all();
  cv_.wait(lock, [&] { return in_flight_ == 0; });
}

namespace {

/// Abandons the claim on unwind unless complete() was reached — the hook
/// that makes a kill-fault inside a helper recoverable by the parent.
struct ClaimGuard {
  Fanout* fan;
  std::size_t index;
  bool done = false;
  ~ClaimGuard() {
    if (!done) fan->abandon(index);
  }
  void complete() {
    fan->complete(index);
    done = true;
  }
};

}  // namespace

FanoutReport run_fanout(std::size_t blocks, std::size_t max_helpers, const BlockWork& work,
                        const HelperEnqueue& enqueue) {
  FanoutReport report;
  report.blocks = blocks;
  if (blocks == 0) return report;

  auto fan = std::make_shared<Fanout>(blocks);
  auto helper_blocks = std::make_shared<std::atomic<std::size_t>>(0);

  // Every exit path — including an exception out of work() on this thread —
  // must stop helpers from claiming before the caller's stack unwinds.
  struct QuiesceGuard {
    Fanout* fan;
    ~QuiesceGuard() { fan->quiesce(); }
  } quiesce_guard{fan.get()};

  // The parent keeps at least one block for itself: a helper that never
  // runs must not be the difference between done and deadlocked anyway, but
  // there is also no point queueing more helpers than leftover blocks.
  const std::size_t want_helpers = std::min(max_helpers, blocks - 1);
  for (std::size_t h = 0; h < want_helpers; ++h) {
    // Value copies on purpose: the helper may run (or sit queued) after
    // run_fanout returned; `fan` keeps the claim pool alive and `work` is
    // only invoked while quiesce() guarantees its referents are alive.
    const bool accepted = enqueue([fan, helper_blocks, work] {
      for (;;) {
        const auto index = fan->claim();
        if (!index) return;
        ClaimGuard guard{fan.get(), *index};
        work(*index);
        // Count before complete(): the parent reads this counter as soon as
        // the last completion is visible, and complete()'s mutex release is
        // what publishes the increment to it.
        helper_blocks->fetch_add(1, std::memory_order_relaxed);
        guard.complete();
      }
    });
    ++(accepted ? report.helpers_enqueued : report.helpers_rejected);
  }

  // Deterministic hook for tests and chaos: a delay armed here keeps the
  // parent out of the claim pool while the helpers drain it.
  fault::point("container.reassemble.delay");

  for (;;) {
    while (const auto index = fan->claim()) {
      ClaimGuard guard{fan.get(), *index};
      work(*index);
      guard.complete();
      ++report.inline_blocks;
    }
    // Nothing claimable: either done, or helpers hold the rest in flight.
    // wait_progress wakes on completion *and* on abandonment, so a helper
    // killed mid-block hands its claim back and the loop re-claims it.
    const auto wait_start = std::chrono::steady_clock::now();
    const bool done = fan->wait_progress();
    report.reassembly_wait_us += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - wait_start)
            .count());
    if (done) break;
  }
  report.helper_blocks = helper_blocks->load();
  return report;
}

}  // namespace lzss::container
