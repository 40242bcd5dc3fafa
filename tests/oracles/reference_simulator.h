// Reference event engine: a differential oracle for src/sim/simulator.h.
//
// This is the original std::function + shared_ptr<bool> +
// std::priority_queue engine, kept in the test tree so the pooled engine's
// dispatch order can be checked against the simplest possible
// implementation of the same contract: callbacks run in (time,
// insertion-sequence) order, a cancelled event never runs, and a handle
// whose event has fired reads as invalid and cancels nothing.
//
// It has the method names of syrup::Simulator (ScheduleAt, ScheduleAfter,
// NextEventTime, RunUntil, RunToCompletion, Stop, Now, pending_events,
// engine_stats), so tests and benches drive both through one template
// parameter. It is slow by design (one heap allocation per event and
// O(log n) moves of type-erased closures) and is not used by src/.
#ifndef SYRUP_TESTS_ORACLES_REFERENCE_SIMULATOR_H_
#define SYRUP_TESTS_ORACLES_REFERENCE_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <queue>
#include <utility>

#include "src/common/logging.h"
#include "src/common/time.h"

namespace syrup {

class ReferenceSimulator {
 public:
  // The subset of Simulator::EngineStats this engine can count. Cancel()
  // acts on the handle's shared cell alone, so `cancelled` stays 0.
  struct EngineStats {
    uint64_t scheduled = 0;
    uint64_t dispatched = 0;
    uint64_t cancelled = 0;
  };

  // Cancels through a cancellation cell shared with the queued event.
  // Dispatch sets the cell, so a fired event's handle reads as invalid.
  class Handle {
   public:
    Handle() = default;

    bool valid() const { return cancelled_ != nullptr && !*cancelled_; }
    void Cancel() {
      if (cancelled_ != nullptr) {
        *cancelled_ = true;
        cancelled_ = nullptr;
      }
    }

   private:
    friend class ReferenceSimulator;
    explicit Handle(std::shared_ptr<bool> cancelled)
        : cancelled_(std::move(cancelled)) {}

    std::shared_ptr<bool> cancelled_;
  };

  static constexpr Time kNoEventTime = ~Time{0};

  const EngineStats& engine_stats() const { return stats_; }

  Time Now() const { return now_; }

  template <typename F>
  Handle ScheduleAt(Time when, F&& fn) {
    SYRUP_CHECK_GE(when, now_) << "event scheduled in the past";
    auto cancelled = std::make_shared<bool>(false);
    queue_.push(RefEvent{when, next_seq_++,
                         std::function<void()>(std::forward<F>(fn)),
                         cancelled});
    ++stats_.scheduled;
    return Handle(std::move(cancelled));
  }

  template <typename F>
  Handle ScheduleAfter(Duration delay, F&& fn) {
    return ScheduleAt(now_ + delay, std::forward<F>(fn));
  }

  // Time of the queue's top event, live or cancelled.
  Time NextEventTime() const {
    return queue_.empty() ? kNoEventTime : queue_.top().when;
  }

  uint64_t RunUntil(Time horizon) {
    return Run(horizon, /*advance_clock_on_idle=*/true);
  }

  uint64_t RunToCompletion() {
    return Run(std::numeric_limits<Time>::max(),
               /*advance_clock_on_idle=*/false);
  }

  void Stop() { stopped_ = true; }

  // Includes cancelled-but-not-yet-popped events.
  size_t pending_events() const { return queue_.size(); }

 private:
  struct RefEvent {
    Time when;
    uint64_t seq;
    std::function<void()> fn;
    std::shared_ptr<bool> cancelled;

    // Min-heap by (when, seq): std::priority_queue is a max-heap, so invert.
    bool operator<(const RefEvent& other) const {
      if (when != other.when) {
        return when > other.when;
      }
      return seq > other.seq;
    }
  };

  uint64_t Run(Time horizon, bool advance_clock_on_idle) {
    stopped_ = false;
    uint64_t dispatched = 0;
    while (!queue_.empty() && !stopped_) {
      const RefEvent& top = queue_.top();
      if (top.when > horizon) {
        break;
      }
      // Moving out of the priority queue requires a const_cast because
      // std::priority_queue only exposes a const top(); the element is
      // popped immediately after so the heap invariant is never observed
      // broken.
      RefEvent event = std::move(const_cast<RefEvent&>(top));
      queue_.pop();
      if (*event.cancelled) {
        continue;
      }
      now_ = event.when;
      // Dispatch invalidates handles before the callback runs (valid() ->
      // false, Cancel() -> no-op, including from inside the callback), as
      // the pooled engine's generation bump does.
      *event.cancelled = true;
      event.fn();
      ++dispatched;
    }
    stats_.dispatched += dispatched;
    if (advance_clock_on_idle && queue_.empty() && now_ < horizon) {
      now_ = horizon;
    }
    return dispatched;
  }

  Time now_ = 0;
  uint64_t next_seq_ = 0;
  bool stopped_ = false;
  EngineStats stats_;
  std::priority_queue<RefEvent> queue_;
};

}  // namespace syrup

#endif  // SYRUP_TESTS_ORACLES_REFERENCE_SIMULATOR_H_
