#include "src/net/stack.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"
#include "src/common/trace.h"
#include "src/sim/sharded.h"

namespace syrup {

HostStack::Metrics HostStack::DetachedMetrics() {
  HostStack::Metrics m;
  m.rx_packets = std::make_shared<obs::Counter>();
  m.nic_ring_drops = std::make_shared<obs::Counter>();
  m.socket_drops = std::make_shared<obs::Counter>();
  m.policy_drops = std::make_shared<obs::Counter>();
  m.invalid_decisions = std::make_shared<obs::Counter>();
  m.delivered_socket = std::make_shared<obs::Counter>();
  m.delivered_afxdp = std::make_shared<obs::Counter>();
  m.cpu_redirects = std::make_shared<obs::Counter>();
  m.late_bound = std::make_shared<obs::Counter>();
  m.delivery_latency_ns = std::make_shared<Histogram>();
  return m;
}

HostStack::HostStack(Simulator& sim, StackConfig config)
    : sim_(sim), config_(config), m_(DetachedMetrics()) {
  SYRUP_CHECK_GT(config_.num_nic_queues, 0);
  cores_.resize(static_cast<size_t>(config_.num_nic_queues));
  af_xdp_sockets_.resize(static_cast<size_t>(config_.num_nic_queues));
}

void HostStack::BindMetrics(obs::MetricsRegistry& registry) {
  if (metrics_bound_) {
    return;
  }
  metrics_bound_ = true;
  auto rebind = [&](std::shared_ptr<obs::Counter>& cell, const char* name) {
    std::shared_ptr<obs::Counter> fresh =
        registry.GetCounter("host", "stack", name);
    fresh->Inc(cell->value);
    cell = std::move(fresh);
  };
  rebind(m_.rx_packets, "rx_packets");
  rebind(m_.nic_ring_drops, "nic_ring_drops");
  rebind(m_.socket_drops, "socket_drops");
  rebind(m_.policy_drops, "policy_drops");
  rebind(m_.invalid_decisions, "invalid_decisions");
  rebind(m_.delivered_socket, "delivered_socket");
  rebind(m_.delivered_afxdp, "delivered_afxdp");
  rebind(m_.cpu_redirects, "cpu_redirects");
  rebind(m_.late_bound, "late_bound_deliveries");
  std::shared_ptr<Histogram> fresh =
      registry.GetHistogram("host", "stack", "delivery_latency_ns");
  fresh->Merge(*m_.delivery_latency_ns);
  m_.delivery_latency_ns = std::move(fresh);
}

StackStats HostStack::stats() const {
  StackStats s;
  s.rx_packets = m_.rx_packets->value;
  s.nic_ring_drops = m_.nic_ring_drops->value;
  s.socket_drops = m_.socket_drops->value;
  s.policy_drops = m_.policy_drops->value;
  s.invalid_decisions = m_.invalid_decisions->value;
  s.delivered_socket = m_.delivered_socket->value;
  s.delivered_afxdp = m_.delivered_afxdp->value;
  s.cpu_redirects = m_.cpu_redirects->value;
  return s;
}

ReuseportGroup* HostStack::GetOrCreateGroup(uint16_t port) {
  auto& slot = groups_[port];
  if (slot == nullptr) {
    slot = std::make_unique<ReuseportGroup>(port);
  }
  return slot.get();
}

Socket* HostStack::RegisterAfXdpSocket(int queue, size_t queue_depth) {
  SYRUP_CHECK_GE(queue, 0);
  SYRUP_CHECK_LT(queue, config_.num_nic_queues);
  auto& per_queue = af_xdp_sockets_[static_cast<size_t>(queue)];
  per_queue.push_back(std::make_unique<Socket>(/*port=*/0, queue_depth));
  return per_queue.back().get();
}

void HostStack::RouteToQueue(Packet pkt, Decision d) {
  if (d == kDrop) {
    m_.policy_drops->value += 1;
    return;
  }
  int queue;
  if (d == kPass) {
    // RSS-style 5-tuple hashing (the NIC default).
    queue = static_cast<int>(pkt.tuple.Hash() %
                             static_cast<uint64_t>(config_.num_nic_queues));
  } else if (d < static_cast<Decision>(config_.num_nic_queues)) {
    queue = static_cast<int>(d);
  } else {
    m_.invalid_decisions->value += 1;
    queue = static_cast<int>(pkt.tuple.Hash() %
                             static_cast<uint64_t>(config_.num_nic_queues));
  }
  EnqueueJob(queue, Job{std::move(pkt), Stage::kDriver});
}

void HostStack::Rx(Packet pkt) {
  m_.rx_packets->value += 1;
  pkt.nic_arrival = sim_.Now();

  // XDP Offload hook: a policy running on the NIC picks the RX queue.
  Decision d = kPass;
  if (hooks_.xdp_offload) {
    d = hooks_.xdp_offload(PacketView::Of(pkt));
  }
  RouteToQueue(std::move(pkt), d);
}

void HostStack::BindShard(ShardedSim* sharded, int shard) {
  SYRUP_CHECK(sharded != nullptr);
  SYRUP_CHECK_GE(shard, 0);
  SYRUP_CHECK_LT(shard, sharded->shards());
  SYRUP_CHECK_EQ(&sharded->shard(shard), &sim_)
      << "stack must be built on its owning shard's engine";
  sharded_ = sharded;
  shard_ = shard;
}

void HostStack::PostRx(int from_shard, Time when, Packet pkt) {
  SYRUP_CHECK(sharded_ != nullptr) << "PostRx requires BindShard";
  sharded_->Post(from_shard, shard_, when,
                 [this, p = std::move(pkt)]() mutable { Rx(std::move(p)); });
}

void HostStack::RxBurst(std::span<Packet> pkts) {
  if (pkts.empty()) {
    return;
  }
  const Time now = sim_.Now();
  for (Packet& pkt : pkts) {
    m_.rx_packets->value += 1;
    pkt.nic_arrival = now;
  }
  // All packets traverse the offload hook before any is enqueued: the
  // NIC sees the whole DMA burst, then the driver drains it. Per-queue
  // order is arrival order either way; only the offload/driver interleave
  // differs from per-packet Rx.
  std::vector<Decision> decisions(pkts.size(), kPass);
  if (batch_hooks_.xdp_offload) {
    std::vector<PacketView> views;
    views.reserve(pkts.size());
    for (const Packet& pkt : pkts) {
      views.push_back(PacketView::Of(pkt));
    }
    batch_hooks_.xdp_offload(views, decisions);
  } else if (hooks_.xdp_offload) {
    for (size_t i = 0; i < pkts.size(); ++i) {
      decisions[i] = hooks_.xdp_offload(PacketView::Of(pkts[i]));
    }
  }
  for (size_t i = 0; i < pkts.size(); ++i) {
    RouteToQueue(std::move(pkts[i]), decisions[i]);
  }
}

void HostStack::EnqueueJob(int core, Job job) {
  SoftirqCore& sc = cores_[static_cast<size_t>(core)];
  if (sc.ring.size() >= config_.nic_ring_depth) {
    m_.nic_ring_drops->value += 1;
    SYRUP_TRACE(sim_.Now(), "stack", "nic ring drop core=" << core);
    return;
  }
  sc.ring.push_back(std::move(job));
  if (!sc.busy) {
    StartNext(core);
  }
}

void HostStack::StartNext(int core) {
  SoftirqCore& sc = cores_[static_cast<size_t>(core)];
  if (sc.ring.empty()) {
    sc.busy = false;
    return;
  }
  sc.busy = true;
  // The packet lives in the core's inflight slot until the completion event
  // fires: the event itself captures only {this, core}, so it fits the
  // simulator's inline callback storage and copies no packet bytes.
  sc.inflight = std::move(sc.ring.front());
  sc.ring.pop_front();
  sc.action = DeliverAction{};
  sc.requeue_core = -1;

  const Duration cost = ProcessJob(core, sc.inflight, sc.action,
                                   sc.requeue_core);
  sc.busy_time += cost;

  sim_.ScheduleAfter(cost, [this, core]() { CompleteJob(core); });
}

void HostStack::CompleteJob(int core) {
  SoftirqCore& sc = cores_[static_cast<size_t>(core)];
  if (sc.requeue_core >= 0) {
    m_.cpu_redirects->value += 1;
    // Requeue is always to a *different* core (ProcessJob treats the same
    // core as inline), so EnqueueJob never touches this core's state.
    EnqueueJob(sc.requeue_core,
               Job{std::move(sc.inflight.pkt), Stage::kProtocol});
  } else {
    switch (sc.action.kind) {
      case DeliverAction::Kind::kNone:
        break;
      case DeliverAction::Kind::kPolicyDrop:
        m_.policy_drops->value += 1;
        break;
      case DeliverAction::Kind::kAfxdp:
        if (sc.action.socket->Enqueue(sc.inflight.pkt)) {
          m_.delivered_afxdp->value += 1;
        } else {
          m_.socket_drops->value += 1;
        }
        break;
      case DeliverAction::Kind::kGroup:
        DeliverToGroupSocket(sc.inflight.pkt);
        break;
    }
  }
  StartNext(core);
}

Duration HostStack::ProcessJob(int core, const Job& job,
                               DeliverAction& action, int& requeue_core) {
  const Packet& pkt = job.pkt;
  const PacketView view = PacketView::Of(pkt);
  Duration cost = 0;

  auto drop = [&action]() {
    action = DeliverAction{DeliverAction::Kind::kPolicyDrop, nullptr};
  };
  auto deliver_afxdp = [this, core, &action](Decision d) -> bool {
    const auto& per_queue = af_xdp_sockets_[static_cast<size_t>(core)];
    if (d >= per_queue.size()) {
      m_.invalid_decisions->value += 1;
      return false;
    }
    action = DeliverAction{DeliverAction::Kind::kAfxdp, per_queue[d].get()};
    return true;
  };

  if (job.stage == Stage::kDriver) {
    cost += config_.driver_cost;

    // XDP_DRV: native mode, pre-SKB, zero copy.
    if (hooks_.xdp_drv) {
      cost += config_.xdp_cost;
      const Decision d = hooks_.xdp_drv(view);
      if (d == kDrop) {
        drop();
        return cost;
      }
      if (d != kPass) {
        cost += config_.afxdp_deliver_cost;
        if (deliver_afxdp(d)) {
          return cost;
        }
      }
    }

    cost += config_.skb_alloc_cost;

    // XDP_SKB: generic mode, post-SKB, copies the frame.
    if (hooks_.xdp_skb) {
      cost += config_.xdp_cost;
      const Decision d = hooks_.xdp_skb(view);
      if (d == kDrop) {
        drop();
        return cost;
      }
      if (d != kPass) {
        cost += config_.afxdp_deliver_cost + config_.afxdp_copy_cost;
        if (deliver_afxdp(d)) {
          return cost;
        }
      }
    }

    // CPU Redirect: move protocol processing to another softirq core.
    if (hooks_.cpu_redirect) {
      cost += config_.xdp_cost;
      const Decision d = hooks_.cpu_redirect(view);
      if (d == kDrop) {
        drop();
        return cost;
      }
      if (d != kPass) {
        if (d < static_cast<Decision>(config_.num_nic_queues)) {
          if (static_cast<int>(d) != core) {
            cost += config_.ipi_cost;
            requeue_core = static_cast<int>(d);
            return cost;
          }
        } else {
          m_.invalid_decisions->value += 1;
        }
      }
    }
  }

  // Protocol stage (inline or after a CPU redirect).
  cost += ProtocolCost(core, pkt);
  if (hooks_.socket_select) {
    cost += config_.socket_policy_cost;
  }
  action = DeliverAction{DeliverAction::Kind::kGroup, nullptr};
  return cost;
}

Duration HostStack::ProtocolCost(int core, const Packet& pkt) {
  Duration cost = config_.protocol_cost;
  if (config_.protocol_cold_penalty > 0) {
    SoftirqCore& sc = cores_[static_cast<size_t>(core)];
    const uint64_t flow = pkt.tuple.Hash();
    const Time now = sim_.Now();
    auto it = sc.flow_last_seen.find(flow);
    const bool warm = it != sc.flow_last_seen.end() &&
                      now - it->second <= config_.affinity_window;
    if (!warm) {
      cost += config_.protocol_cold_penalty;
    }
    sc.flow_last_seen[flow] = now;
  }
  return cost;
}

void HostStack::EnableLateBinding(uint16_t port, size_t buffer_depth) {
  LateBindState& state = late_binding_[port];
  state.buffer_depth = buffer_depth;
}

void HostStack::NotifySocketIdle(uint16_t port, Socket* socket) {
  auto it = late_binding_.find(port);
  if (it == late_binding_.end()) {
    return;  // early-binding port
  }
  LateBindState& state = it->second;
  if (!state.buffer.empty()) {
    // An input was waiting for exactly this moment: bind it now (move the
    // front out instead of copying it before the pop).
    Packet pkt = std::move(state.buffer.front());
    state.buffer.pop_front();
    m_.late_bound->value += 1;
    if (socket->Enqueue(pkt)) {
      RecordDelivery(pkt);
    } else {
      m_.socket_drops->value += 1;
    }
    return;
  }
  state.idle.push_back(socket);
}

bool HostStack::LateBindDeliver(LateBindState& state, ReuseportGroup& group,
                                const Packet& pkt) {
  if (state.idle.empty()) {
    // No executor available: buffer the input (scheduler-side queueing).
    if (state.buffer.size() >= state.buffer_depth) {
      m_.socket_drops->value += 1;
      return true;
    }
    state.buffer.push_back(pkt);
    return true;
  }

  // An executor is available; consult the policy, constrained to idle
  // executors (a busy pick falls back to the longest-idle socket).
  Socket* target = nullptr;
  if (hooks_.socket_select) {
    const Decision d = hooks_.socket_select(PacketView::Of(pkt));
    if (d == kDrop) {
      m_.policy_drops->value += 1;
      return true;
    }
    if (d != kPass && d < group.size()) {
      Socket* chosen = group.at(d);
      auto it = std::find(state.idle.begin(), state.idle.end(), chosen);
      if (it != state.idle.end()) {
        state.idle.erase(it);
        target = chosen;
      }
    }
  }
  if (target == nullptr) {
    target = state.idle.front();
    state.idle.pop_front();
  }
  m_.late_bound->value += 1;
  if (target->Enqueue(pkt)) {
    RecordDelivery(pkt);
  } else {
    m_.socket_drops->value += 1;
  }
  return true;
}

void HostStack::DeliverToGroupSocket(const Packet& pkt) {
  auto it = groups_.find(pkt.tuple.dst_port);
  if (it == groups_.end() || it->second->size() == 0) {
    // No listener: the kernel would send ICMP port unreachable.
    m_.socket_drops->value += 1;
    return;
  }
  ReuseportGroup& group = *it->second;

  // Established TCP connections bypass the policy: the connection was the
  // scheduled input, not the packet.
  if (pkt.tuple.protocol == kProtoTcp) {
    auto bound = connections_.find(pkt.tuple);
    if (bound != connections_.end()) {
      if (bound->second->Enqueue(pkt)) {
        RecordDelivery(pkt);
      } else {
        m_.socket_drops->value += 1;
      }
      return;
    }
  }

  auto late = late_binding_.find(pkt.tuple.dst_port);
  if (late != late_binding_.end()) {
    LateBindDeliver(late->second, group, pkt);
    return;
  }

  Socket* target = nullptr;
  if (hooks_.socket_select) {
    const Decision d = hooks_.socket_select(PacketView::Of(pkt));
    if (d == kDrop) {
      m_.policy_drops->value += 1;
      return;
    }
    if (d != kPass) {
      if (d < group.size()) {
        target = group.at(d);
      } else {
        m_.invalid_decisions->value += 1;
      }
    }
  }
  if (target == nullptr) {
    target = group.DefaultSelect(pkt);
  }
  // A connection-establishing TCP packet pins the chosen socket for the
  // connection's lifetime.
  if (pkt.tuple.protocol == kProtoTcp) {
    connections_[pkt.tuple] = target;
  }
  if (target->Enqueue(pkt)) {
    RecordDelivery(pkt);
  } else {
    m_.socket_drops->value += 1;
    SYRUP_TRACE(sim_.Now(), "stack",
                "socket drop port=" << pkt.tuple.dst_port);
  }
}

void HostStack::CloseConnection(const FiveTuple& tuple) {
  connections_.erase(tuple);
}

double HostStack::SoftirqUtilization(int core) const {
  const Time now = sim_.Now();
  if (now == 0) {
    return 0.0;
  }
  return static_cast<double>(cores_[static_cast<size_t>(core)].busy_time) /
         static_cast<double>(now);
}

}  // namespace syrup
