#include "src/sim/sharded.h"

#include <algorithm>
#include <bit>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace syrup {

ShardChannel::ShardChannel(size_t capacity)
    : ring_(std::bit_ceil(std::max<size_t>(capacity, 2))),
      mask_(ring_.size() - 1) {}

bool ShardChannel::TryPush(ShardMessage&& msg) {
  const uint64_t tail = tail_.load(std::memory_order_relaxed);
  const uint64_t head = head_.load(std::memory_order_acquire);
  if (tail - head >= ring_.size()) {
    return false;  // full — msg is left intact for the caller to retry
  }
  ring_[tail & mask_] = std::move(msg);
  tail_.store(tail + 1, std::memory_order_release);
  return true;
}

bool ShardChannel::TryPop(ShardMessage& out) {
  const uint64_t head = head_.load(std::memory_order_relaxed);
  const uint64_t tail = tail_.load(std::memory_order_acquire);
  if (head == tail) {
    return false;
  }
  out = std::move(ring_[head & mask_]);
  ring_[head & mask_].fn = nullptr;  // release the closure's captures now
  head_.store(head + 1, std::memory_order_release);
  return true;
}

ShardedSim::ShardedSim(ShardedSimConfig config)
    : config_(config), barrier_(config.shards) {
  SYRUP_CHECK_GE(config_.shards, 1);
  SYRUP_CHECK_GE(config_.lookahead, 1u) << "lookahead must be positive";
  shards_.reserve(static_cast<size_t>(config_.shards));
  for (int i = 0; i < config_.shards; ++i) {
    shards_.push_back(std::make_unique<ShardState>());
  }
  channels_.resize(static_cast<size_t>(config_.shards) *
                   static_cast<size_t>(config_.shards));
  for (int src = 0; src < config_.shards; ++src) {
    for (int dst = 0; dst < config_.shards; ++dst) {
      if (src != dst) {
        channels_[static_cast<size_t>(src) *
                      static_cast<size_t>(config_.shards) +
                  static_cast<size_t>(dst)] =
            std::make_unique<ShardChannel>(config_.channel_capacity);
      }
    }
  }
}

ShardedSim::~ShardedSim() = default;

void ShardedSim::DrainInbound(int i) {
  ShardState& st = *shards_[static_cast<size_t>(i)];
  ShardMessage msg;
  for (int src = 0; src < config_.shards; ++src) {
    if (src == i) {
      continue;
    }
    ShardChannel& ch = channel(src, i);
    while (ch.TryPop(msg)) {
      st.staging.push_back(std::move(msg));
    }
  }
}

void ShardedSim::ScheduleStaged(int i) {
  ShardState& st = *shards_[static_cast<size_t>(i)];
  if (st.staging.empty()) {
    return;
  }
  // The physical drain order depends on thread timing; the sort erases it.
  std::sort(st.staging.begin(), st.staging.end(),
            [](const ShardMessage& a, const ShardMessage& b) {
              if (a.when != b.when) return a.when < b.when;
              if (a.src != b.src) return a.src < b.src;
              return a.seq < b.seq;
            });
  for (ShardMessage& msg : st.staging) {
    st.sim.ScheduleAt(msg.when, std::move(msg.fn));
  }
  st.staging.clear();
}

void ShardedSim::WorkerLoop(int i, Time horizon, bool advance_clock_on_idle) {
  ShardState& st = *shards_[static_cast<size_t>(i)];
  for (;;) {
    // Barrier A: drain while waiting so senders blocked on a full channel
    // always find their consumer making progress.
    barrier_.ArriveAndWait([&] { DrainInbound(i); });
    // All sends from the previous window happened before their sender's
    // barrier-A arrival, which happens before our return from the barrier:
    // this drain is authoritative.
    DrainInbound(i);
    Time ne = st.sim.NextEventTime();
    for (const ShardMessage& msg : st.staging) {
      ne = std::min(ne, msg.when);
    }
    st.announced.store(ne, std::memory_order_release);
    barrier_.ArriveAndWait([] {});
    // Every thread computes the same T from the same announcements, so all
    // shards take the same continue/exit decision each round.
    Time t = Simulator::kNoEventTime;
    for (const auto& other : shards_) {
      t = std::min(t, other->announced.load(std::memory_order_acquire));
    }
    if (t == Simulator::kNoEventTime || t > horizon) {
      break;
    }
    // Window [t, w]: every cross-shard arrival is >= sender_now + lookahead
    // > w, so nothing sent this round can target it.
    const Time w =
        horizon - t >= config_.lookahead ? t + config_.lookahead - 1 : horizon;
    ScheduleStaged(i);
    st.dispatched += st.sim.RunUntil(w);
    st.rounds += 1;
  }
  // Staged arrivals past the horizon belong to a later Run* call: file them
  // into the engine now (they are all > horizon, so nothing runs).
  ScheduleStaged(i);
  if (advance_clock_on_idle) {
    st.sim.RunUntil(horizon);  // advance an idle shard's clock to the horizon
  }
}

uint64_t ShardedSim::Run(Time horizon, bool advance_clock_on_idle) {
  uint64_t before = 0;
  for (const auto& st : shards_) {
    before += st->dispatched;
  }
  if (config_.shards == 1) {
    // Inline single-engine execution on the calling thread: bit-identical
    // to driving the wrapped Simulator directly, and usable from contexts
    // that must not spawn threads.
    ShardState& st = *shards_[0];
    st.dispatched += advance_clock_on_idle ? st.sim.RunUntil(horizon)
                                           : st.sim.RunToCompletion();
    st.rounds += 1;
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(config_.shards));
    for (int i = 0; i < config_.shards; ++i) {
      threads.emplace_back(
          [this, i, horizon, advance_clock_on_idle] {
#if defined(__linux__)
            if (config_.pinning) {
              const unsigned ncpu =
                  std::max(1u, std::thread::hardware_concurrency());
              cpu_set_t set;
              CPU_ZERO(&set);
              CPU_SET(static_cast<unsigned>(i) % ncpu, &set);
              pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
            }
#endif
            WorkerLoop(i, horizon, advance_clock_on_idle);
          });
    }
    for (std::thread& th : threads) {
      th.join();  // join orders all shard writes before our reads below
    }
  }
  rounds_ = shards_[0]->rounds;
  uint64_t after = 0;
  for (const auto& st : shards_) {
    after += st->dispatched;
  }
  return after - before;
}

uint64_t ShardedSim::RunUntil(Time horizon) {
  return Run(horizon, /*advance_clock_on_idle=*/true);
}

uint64_t ShardedSim::RunToCompletion() {
  return Run(Simulator::kNoEventTime, /*advance_clock_on_idle=*/false);
}

ShardedSim::Stats ShardedSim::stats() const {
  Stats s;
  s.rounds = rounds_;
  for (const auto& st : shards_) {
    s.messages += st->messages_posted;
    s.dispatched += st->dispatched;
  }
  return s;
}

}  // namespace syrup
