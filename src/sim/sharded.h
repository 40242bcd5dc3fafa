// Sharded parallel simulation: N independent timing-wheel engines, one per
// thread, synchronized with conservative time windows.
//
// Ownership model: every simulated component (stack, syrupd, machine, app)
// belongs to exactly one shard and only ever touches that shard's Simulator.
// Cross-shard interactions — packet handoff through the ToR switch or a
// remote host stack, map traffic, ghOSt messages — flow through timestamped
// bounded SPSC channels (one per ordered shard pair) via Post(), which
// requires the delivery time to be at least `lookahead` past the sender's
// clock. The lookahead models the link/PCIe latency that any cross-shard
// interaction already pays, so the constraint costs no fidelity.
//
// Synchronization protocol (conservative / YAWNS-style windows). Each round:
//
//   1. Barrier A. While waiting, a shard keeps draining its inbound
//      channels into a staging buffer so a neighbor blocked on a full
//      channel always makes progress (no deadlock).
//   2. Authoritative drain: after barrier A every send from the previous
//      window is complete and visible, so the staging buffer now holds
//      exactly the messages sent last window.
//   3. Each shard announces ne_i = min(next local event, staged arrivals).
//   4. Barrier B. Every thread then computes the same T = min_i(ne_i) and
//      runs its engine through the window [T, min(horizon, T+lookahead-1)].
//      Staged messages are first sorted by (when, src_shard, seq) and
//      scheduled, so the dispatch order is independent of thread timing.
//
// Every arrival is >= send_time + lookahead > window end, so no message can
// target the window currently executing: shards never see a message "from
// the past". Within a round at least one shard dispatches (or pops a
// cancelled) event at T, so the protocol always makes progress.
//
// Determinism: for a fixed shard count and seed, runs are bit-identical
// across repeats regardless of thread scheduling — channel drain order is
// erased by the (when, src_shard, seq) sort, and per-channel seqs are
// assigned in each sender's (deterministic) program order. At shards=1 the
// engine degenerates to the wrapped Simulator run inline on the calling
// thread, so results are bit-identical to the single-engine path by
// construction.
#ifndef SYRUP_SRC_SIM_SHARDED_H_
#define SYRUP_SRC_SIM_SHARDED_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/common/time.h"
#include "src/sim/simulator.h"

namespace syrup {

struct ShardedSimConfig {
  // Number of shards (engines/threads). 1 = inline single-engine execution.
  int shards = 1;
  // Minimum sender-clock-to-delivery latency for Post(); also the window
  // width. Model it on the smallest cross-shard link/PCIe latency.
  Duration lookahead = 2 * kMicrosecond;
  // Pin worker thread i to CPU (i mod hardware_concurrency).
  bool pinning = false;
  // Per-channel message capacity (rounded up to a power of two).
  size_t channel_capacity = 4096;
};

// Pause-instruction hint for spin loops.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

// A timestamped cross-shard message: run `fn` on the destination shard at
// simulated time `when`. `seq` is the per-channel sequence number assigned
// by the producer; (when, src, seq) totally orders any staging buffer.
struct ShardMessage {
  Time when = 0;
  uint32_t src = 0;
  uint64_t seq = 0;
  std::function<void()> fn;
};

// Bounded single-producer single-consumer ring. The producer is the source
// shard's thread, the consumer the destination shard's thread; head_/tail_
// are the only shared state and are touched with acquire/release pairs.
class ShardChannel {
 public:
  explicit ShardChannel(size_t capacity);

  ShardChannel(const ShardChannel&) = delete;
  ShardChannel& operator=(const ShardChannel&) = delete;

  // Producer side. False when the ring is full (caller must drain its own
  // inbound channels and retry, never just spin — see ShardedSim::Post).
  bool TryPush(ShardMessage&& msg);

  // Consumer side. False when the ring is empty.
  bool TryPop(ShardMessage& out);

  uint64_t next_seq() { return seq_++; }

 private:
  std::vector<ShardMessage> ring_;
  size_t mask_;
  uint64_t seq_ = 0;  // producer-side per-channel sequence
  alignas(64) std::atomic<uint64_t> head_{0};  // consumer position
  alignas(64) std::atomic<uint64_t> tail_{0};  // producer position
};

// Sense-reversing spin barrier. The waiter loop invokes `idle` so a shard
// parked at the barrier keeps servicing its inbound channels.
class SpinBarrier {
 public:
  explicit SpinBarrier(int parties) : parties_(parties) {}

  template <typename Idle>
  void ArriveAndWait(Idle&& idle) {
    const uint64_t gen = generation_.load(std::memory_order_acquire);
    if (count_.fetch_add(1, std::memory_order_acq_rel) == parties_ - 1) {
      count_.store(0, std::memory_order_relaxed);
      generation_.store(gen + 1, std::memory_order_release);
      return;
    }
    uint32_t spins = 0;
    while (generation_.load(std::memory_order_acquire) == gen) {
      idle();
      CpuRelax();
      if ((++spins & 0xfffu) == 0) {
        std::this_thread::yield();
      }
    }
  }

 private:
  const int parties_;
  std::atomic<int> count_{0};
  alignas(64) std::atomic<uint64_t> generation_{0};
};

class ShardedSim {
 public:
  explicit ShardedSim(ShardedSimConfig config);
  ~ShardedSim();

  ShardedSim(const ShardedSim&) = delete;
  ShardedSim& operator=(const ShardedSim&) = delete;

  int shards() const { return config_.shards; }
  Duration lookahead() const { return config_.lookahead; }
  Simulator& shard(int i) { return shards_[static_cast<size_t>(i)]->sim; }

  // Schedules `fn` on shard `dst` at absolute time `when`, from shard `src`.
  // Must be called on src's worker thread (i.e. from inside an event running
  // on shard src) or before/between Run* calls from the driving thread.
  // `when` must be >= shard(src).Now() + lookahead; deliveries to the owning
  // shard (src == dst) are exempt and schedule directly.
  template <typename F>
  void Post(int src, int dst, Time when, F&& fn) {
    SYRUP_CHECK_GE(src, 0);
    SYRUP_CHECK_LT(src, config_.shards);
    SYRUP_CHECK_GE(dst, 0);
    SYRUP_CHECK_LT(dst, config_.shards);
    if (src == dst) {
      shard(src).ScheduleAt(when, std::forward<F>(fn));
      return;
    }
    SYRUP_CHECK_GE(when, shard(src).Now() + config_.lookahead)
        << "cross-shard delivery inside the lookahead window";
    ShardChannel& ch = channel(src, dst);
    ShardMessage msg{when, static_cast<uint32_t>(src), ch.next_seq(),
                     std::function<void()>(std::forward<F>(fn))};
    // A full channel means dst is behind on draining; keep our own inbound
    // channels moving while we wait so two mutually-posting shards can
    // never deadlock on a pair of full rings.
    uint32_t spins = 0;
    while (!ch.TryPush(std::move(msg))) {
      DrainInbound(src);
      CpuRelax();
      if ((++spins & 0xfffu) == 0) {
        std::this_thread::yield();
      }
    }
    shards_[static_cast<size_t>(src)]->messages_posted += 1;
  }

  // Runs all shards (in parallel for shards > 1) until each has no event at
  // or before `horizon`; idle shards' clocks advance to `horizon` exactly
  // like Simulator::RunUntil. Returns total events dispatched this call.
  uint64_t RunUntil(Time horizon);

  // Runs until every shard's queue and every channel is empty. Clocks are
  // not advanced past the last dispatched event, like
  // Simulator::RunToCompletion.
  uint64_t RunToCompletion();

  struct Stats {
    uint64_t rounds = 0;            // synchronization windows executed
    uint64_t messages = 0;          // cross-shard messages posted
    uint64_t dispatched = 0;        // events dispatched across all shards
  };
  Stats stats() const;

 private:
  struct ShardState {
    Simulator sim;
    std::vector<ShardMessage> staging;  // drained, not yet scheduled
    alignas(64) std::atomic<Time> announced{0};
    uint64_t messages_posted = 0;
    uint64_t rounds = 0;
    uint64_t dispatched = 0;
  };

  ShardChannel& channel(int src, int dst) {
    return *channels_[static_cast<size_t>(src) *
                          static_cast<size_t>(config_.shards) +
                      static_cast<size_t>(dst)];
  }

  // Moves every currently-visible inbound message of shard i into its
  // staging buffer. Only ever called from shard i's thread.
  void DrainInbound(int i);

  // Sorts shard i's staging buffer by (when, src, seq) and schedules it.
  void ScheduleStaged(int i);

  // One shard's worker loop for a single Run* call.
  void WorkerLoop(int i, Time horizon, bool advance_clock_on_idle);

  uint64_t Run(Time horizon, bool advance_clock_on_idle);

  ShardedSimConfig config_;
  std::vector<std::unique_ptr<ShardState>> shards_;
  std::vector<std::unique_ptr<ShardChannel>> channels_;  // [src * N + dst]
  SpinBarrier barrier_;
  uint64_t rounds_ = 0;
};

}  // namespace syrup

#endif  // SYRUP_SRC_SIM_SHARDED_H_
