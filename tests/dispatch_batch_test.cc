// Batched dispatch differential tests: Syrupd::DispatchBatch must be
// observably identical to per-packet dispatch — same decisions in the same
// order, same counters — for every packet hook, every chunking, and every
// mix of cacheable/uncacheable/absent policies. The batch API is allowed
// to hoist pure work (port resolution, key derivation, prefetch), never to
// reorder or coalesce effects.
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/syrup_api.h"
#include "src/core/syrupd.h"
#include "src/net/kcm.h"
#include "src/net/stack.h"
#include "src/policies/builtin.h"
#include "src/sim/simulator.h"

namespace syrup {
namespace {

Packet MakePacket(uint16_t dst_port, uint32_t key_hash,
                  uint16_t src_port = 20'000) {
  Packet pkt;
  pkt.tuple.src_ip = 0x0a000001;
  pkt.tuple.dst_ip = 0x0a0000ff;
  pkt.tuple.src_port = src_port;
  pkt.tuple.dst_port = dst_port;
  pkt.SetHeader(ReqType::kGet, 1, key_hash, 1, 0);
  return pkt;
}

SteerHook& SingleHook(HostStack& stack, Hook hook) {
  switch (hook) {
    case Hook::kXdpOffload:
      return stack.hooks().xdp_offload;
    case Hook::kXdpDrv:
      return stack.hooks().xdp_drv;
    case Hook::kXdpSkb:
      return stack.hooks().xdp_skb;
    case Hook::kCpuRedirect:
      return stack.hooks().cpu_redirect;
    default:
      return stack.hooks().socket_select;
  }
}

// One daemon + stack pair; the differential runs two of these in lockstep.
struct Side {
  Side() : stack(sim, StackConfig{}), syrupd(sim, &stack) {
    app = syrupd.RegisterApp("a", 1000, 9000).value();
  }

  uint64_t Counter(Hook hook, const char* name) {
    return syrupd.StatsSnapshot().CounterValue(
        "syrupd", HookName(hook), std::string("flow_cache.") + name);
  }

  Simulator sim;
  HostStack stack;
  Syrupd syrupd;
  AppId app = 0;
};

// Drives the same randomized packet sequence through per-packet dispatch
// on one side and randomly-chunked DispatchBatch on the other. Any
// map mutation happens only at chunk boundaries, identically on both
// sides, so per-packet state evolution must match exactly.
void RunDifferential(Hook hook, const std::string& policy_asm,
                     bool with_load_map, uint64_t seed) {
  SCOPED_TRACE(std::string(HookName(hook)) + " seed=" +
               std::to_string(seed));
  Side single, batch;
  MapHandle single_load, batch_load;
  auto pin_load = [](Side& side) {
    SyrupClient client(side.syrupd, side.app);
    MapSpec spec;
    spec.max_entries = 6;
    spec.name = "load";
    MapHandle load = client.MapCreate(spec, "/syrup/a/load").value();
    for (uint32_t i = 0; i < 6; ++i) {
      EXPECT_TRUE(load.Update(i, 10 + i).ok());
    }
    return load;
  };
  if (with_load_map) {
    single_load = pin_load(single);
    batch_load = pin_load(batch);
  }
  ASSERT_TRUE(
      single.syrupd.DeployPolicyFile(single.app, policy_asm, hook).ok());
  ASSERT_TRUE(
      batch.syrupd.DeployPolicyFile(batch.app, policy_asm, hook).ok());

  // ~200 flows across 1500 packets, with a sprinkle of packets to an
  // unowned port (no-policy fall-through) so the batch's port-resolution
  // memoization sees transitions.
  Rng traffic(seed);
  std::vector<Packet> packets;
  packets.reserve(1500);
  for (int i = 0; i < 1500; ++i) {
    const uint16_t port = traffic.NextBounded(10) == 0 ? 9001 : 9000;
    packets.push_back(MakePacket(
        port, static_cast<uint32_t>(traffic.NextBounded(200)) * 2654435761u));
  }
  std::vector<PacketView> views;
  views.reserve(packets.size());
  for (const Packet& pkt : packets) {
    views.push_back(PacketView::Of(pkt));
  }

  std::vector<Decision> single_out(packets.size(), 0);
  std::vector<Decision> batch_out(packets.size(), 0);
  Rng chunks(seed ^ 0x9e3779b97f4a7c15ull);
  size_t pos = 0;
  while (pos < packets.size()) {
    const size_t n = std::min(
        packets.size() - pos, size_t{1} + chunks.NextBounded(63));
    if (with_load_map && chunks.NextBounded(4) == 0) {
      // Shift the load between chunks — same update on both sides, so
      // version-sum invalidation fires at the same packet index.
      const uint32_t idx = static_cast<uint32_t>(chunks.NextBounded(6));
      const uint64_t value = 1 + chunks.NextBounded(100);
      ASSERT_TRUE(single_load.Update(idx, value).ok());
      ASSERT_TRUE(batch_load.Update(idx, value).ok());
    }
    for (size_t i = pos; i < pos + n; ++i) {
      single_out[i] = SingleHook(single.stack, hook)(views[i]);
    }
    batch.syrupd.DispatchBatch(
        hook, std::span<const PacketView>(&views[pos], n),
        std::span<Decision>(&batch_out[pos], n));
    pos += n;
  }

  for (size_t i = 0; i < packets.size(); ++i) {
    ASSERT_EQ(single_out[i], batch_out[i]) << "packet " << i;
  }
  // Counter-for-counter equality: the batch path may not change *when*
  // policies run or cache entries move, only amortize the bookkeeping.
  for (const char* name : {"hits", "misses", "invalidations", "uncacheable",
                           "bypassed", "evictions", "admission_rejects",
                           "resizes"}) {
    EXPECT_EQ(single.Counter(hook, name), batch.Counter(hook, name))
        << "flow_cache." << name;
  }
  EXPECT_EQ(single.syrupd.dispatch_stats(hook).dispatched,
            batch.syrupd.dispatch_stats(hook).dispatched);
  EXPECT_EQ(single.syrupd.dispatch_stats(hook).no_policy,
            batch.syrupd.dispatch_stats(hook).no_policy);
  EXPECT_EQ(single.syrupd.StatsSnapshot().CounterValue(
                "a", HookName(hook), "policy.invocations"),
            batch.syrupd.StatsSnapshot().CounterValue(
                "a", HookName(hook), "policy.invocations"));
}

constexpr Hook kPacketHooks[] = {Hook::kXdpOffload, Hook::kXdpDrv,
                                 Hook::kXdpSkb, Hook::kCpuRedirect,
                                 Hook::kSocketSelect};

TEST(DispatchBatch, CacheablePolicyMatchesSingleOnAllHooks) {
  for (Hook hook : kPacketHooks) {
    RunDifferential(hook, MicaHomePolicyAsm(6), /*with_load_map=*/false, 1);
  }
}

TEST(DispatchBatch, UncacheableStatefulPolicyMatchesSingleOnAllHooks) {
  // Round robin mutates map state on every decision: the batch must
  // execute it per packet, in order.
  for (Hook hook : kPacketHooks) {
    RunDifferential(hook, RoundRobinPolicyAsm(6), /*with_load_map=*/false, 2);
  }
}

TEST(DispatchBatch, MapReadingPolicyWithChurnMatchesSingle) {
  // least_loaded reads the pinned load map through map_lookup_batch (its
  // asm twin batches the whole register scan); chunk-boundary updates
  // force invalidations at identical packet indices on both sides. All
  // packet hooks: the batched miss path must stay bit-identical to
  // single-packet dispatch everywhere.
  for (Hook hook : kPacketHooks) {
    RunDifferential(hook, LeastLoadedPolicyAsm(6, "/syrup/a/load"),
                    /*with_load_map=*/true, 3);
  }
}

TEST(DispatchBatch, TinyAdaptiveCacheStillMatchesSingle) {
  // Same differential under a deliberately churning cache config.
  FlowCacheConfig config;
  config.capacity = 64;
  config.admission = true;
  config.adaptive = true;
  Side single, batch;
  single.syrupd.set_flow_cache_config(config);
  batch.syrupd.set_flow_cache_config(config);
  ASSERT_TRUE(single.syrupd
                  .DeployPolicyFile(single.app, MicaHomePolicyAsm(6),
                                    Hook::kSocketSelect)
                  .ok());
  ASSERT_TRUE(batch.syrupd
                  .DeployPolicyFile(batch.app, MicaHomePolicyAsm(6),
                                    Hook::kSocketSelect)
                  .ok());
  Rng traffic(11);
  std::vector<Packet> packets;
  for (int i = 0; i < 4000; ++i) {
    packets.push_back(MakePacket(
        9000, static_cast<uint32_t>(traffic.NextBounded(500)) * 2654435761u));
  }
  std::vector<PacketView> views;
  for (const Packet& pkt : packets) {
    views.push_back(PacketView::Of(pkt));
  }
  std::vector<Decision> batch_out(packets.size(), 0);
  Rng chunks(12);
  size_t pos = 0;
  while (pos < packets.size()) {
    const size_t n = std::min(
        packets.size() - pos, size_t{1} + chunks.NextBounded(63));
    batch.syrupd.DispatchBatch(
        Hook::kSocketSelect, std::span<const PacketView>(&views[pos], n),
        std::span<Decision>(&batch_out[pos], n));
    pos += n;
  }
  for (size_t i = 0; i < packets.size(); ++i) {
    const Decision d = single.stack.hooks().socket_select(views[i]);
    ASSERT_EQ(d, batch_out[i]) << "packet " << i;
  }
  for (const char* name : {"hits", "misses", "bypassed", "evictions",
                           "admission_rejects", "resizes"}) {
    EXPECT_EQ(single.Counter(Hook::kSocketSelect, name),
              batch.Counter(Hook::kSocketSelect, name))
        << "flow_cache." << name;
  }
}

// Every counter a gate flip can move, compared side against side.
void ExpectSameCounters(Side& a, Side& b, Hook hook) {
  for (const char* name : {"hits", "misses", "bypassed", "uncacheable",
                           "evictions", "admission_rejects", "resizes"}) {
    EXPECT_EQ(a.Counter(hook, name), b.Counter(hook, name))
        << "flow_cache." << name;
  }
  EXPECT_EQ(a.syrupd.dispatch_stats(hook).dispatched,
            b.syrupd.dispatch_stats(hook).dispatched);
  EXPECT_EQ(a.syrupd.StatsSnapshot().CounterValue("a", HookName(hook),
                                                  "policy.invocations"),
            b.syrupd.StatsSnapshot().CounterValue("a", HookName(hook),
                                                  "policy.invocations"));
}

std::vector<Packet> OneShotPackets(uint32_t first, size_t count) {
  std::vector<Packet> packets;
  for (size_t i = 0; i < count; ++i) {
    packets.push_back(
        MakePacket(9000, (first + static_cast<uint32_t>(i)) * 2654435761u));
  }
  return packets;
}

TEST(DispatchBatch, GateFlipInsideAChunkMatchesSingle) {
  // A 16-slot table decides at every 16th access once the sampler holds
  // enough evidence, and a one-shot stream then closes the gate. Eight
  // single dispatches first put every decision point 8 packets off a
  // 64-packet chunk edge, so the flip falls inside a chunk.
  FlowCacheConfig config;
  config.capacity = FlowDecisionCache::kMinSlots;
  Side single, batch;
  for (Side* side : {&single, &batch}) {
    side->syrupd.set_flow_cache_config(config);
    ASSERT_TRUE(side->syrupd
                    .DeployPolicyFile(side->app, MicaHomePolicyAsm(6),
                                      Hook::kSocketSelect)
                    .ok());
  }
  const std::vector<Packet> packets = OneShotPackets(0, 8 + 64 * 64);
  std::vector<PacketView> views;
  for (const Packet& pkt : packets) {
    views.push_back(PacketView::Of(pkt));
  }
  std::vector<Decision> batch_out(views.size(), 0);
  for (size_t i = 0; i < 8; ++i) {
    batch_out[i] = batch.stack.hooks().socket_select(views[i]);
  }
  bool flipped_inside = false;
  for (size_t pos = 8; pos < views.size(); pos += 64) {
    const uint64_t before = batch.Counter(Hook::kSocketSelect, "bypassed");
    batch.syrupd.DispatchBatch(
        Hook::kSocketSelect, std::span<const PacketView>(&views[pos], 64),
        std::span<Decision>(&batch_out[pos], 64));
    const uint64_t in_chunk =
        batch.Counter(Hook::kSocketSelect, "bypassed") - before;
    flipped_inside = flipped_inside || (in_chunk > 0 && in_chunk < 64);
  }
  for (size_t i = 0; i < views.size(); ++i) {
    ASSERT_EQ(single.stack.hooks().socket_select(views[i]), batch_out[i])
        << "packet " << i;
  }
  EXPECT_TRUE(flipped_inside);
  ExpectSameCounters(single, batch, Hook::kSocketSelect);
}

TEST(DispatchBatch, ShardedLanesKeepIndependentDeterministicGates) {
  // Lane 1 sees a one-shot stream that closes its gate; lane 0 must keep
  // its own gate open. One side dispatches whole chunks, the other one
  // packet at a time, and both must agree counter for counter.
  constexpr Hook kHook = Hook::kXdpSkb;
  FlowCacheConfig config;
  config.capacity = FlowDecisionCache::kMinSlots;
  Side chunked, single;
  for (Side* side : {&chunked, &single}) {
    side->syrupd.set_flow_cache_config(config);
    side->syrupd.ConfigureSharding(2);  // lanes get tables at deploy
    ASSERT_TRUE(side->syrupd
                    .DeployPolicyFile(side->app, MicaHomePolicyAsm(6), kHook)
                    .ok());
  }
  auto run = [&](const std::vector<Packet>& packets, int shard) {
    std::vector<PacketView> views;
    for (const Packet& pkt : packets) {
      views.push_back(PacketView::Of(pkt));
    }
    std::vector<Decision> chunked_out(views.size(), 0);
    chunked.syrupd.DispatchBatch(kHook, views, chunked_out, shard);
    for (size_t i = 0; i < views.size(); ++i) {
      Decision d = 0;
      single.syrupd.DispatchBatch(
          kHook, std::span<const PacketView>(&views[i], 1),
          std::span<Decision>(&d, 1), shard);
      ASSERT_EQ(d, chunked_out[i]) << "shard " << shard << " packet " << i;
    }
  };

  run(OneShotPackets(0, 4096), 1);
  const uint64_t lane1_bypassed = chunked.Counter(kHook, "bypassed");
  EXPECT_GT(lane1_bypassed, 0u);
  ExpectSameCounters(chunked, single, kHook);

  // Fewer accesses than the first decision needs: lane 0's gate is still
  // open whatever lane 1 decided.
  run(OneShotPackets(100'000, 31), 0);
  EXPECT_EQ(chunked.Counter(kHook, "bypassed"), lane1_bypassed);
  ExpectSameCounters(chunked, single, kHook);
}

TEST(DispatchBatch, OversizedBatchIsChunkedTransparently) {
  Side side;
  ASSERT_TRUE(side.syrupd
                  .DeployPolicyFile(side.app, MicaHomePolicyAsm(6),
                                    Hook::kSocketSelect)
                  .ok());
  // 3 * kMaxDispatchBatch + 7 packets in one call: the public API accepts
  // any span and chunks internally.
  const size_t total = 3 * Syrupd::kMaxDispatchBatch + 7;
  std::vector<Packet> packets;
  for (size_t i = 0; i < total; ++i) {
    packets.push_back(MakePacket(9000, static_cast<uint32_t>(i)));
  }
  std::vector<PacketView> views;
  for (const Packet& pkt : packets) {
    views.push_back(PacketView::Of(pkt));
  }
  std::vector<Decision> out(total, 0);
  side.syrupd.DispatchBatch(Hook::kSocketSelect, views, out);
  for (size_t i = 0; i < total; ++i) {
    EXPECT_EQ(out[i], static_cast<Decision>(i % 6));
  }
  EXPECT_EQ(side.syrupd.dispatch_stats(Hook::kSocketSelect).dispatched,
            total);
}

// --- burst entry points ------------------------------------------------------

TEST(DispatchBatch, RxBurstMatchesSequentialRx) {
  // Same packets, same instant: RxBurst (batched offload hook, NIC DMA
  // burst model) must produce the same stack accounting as per-packet Rx
  // when the offload policy has no cross-packet state.
  auto run = [](bool burst) {
    Simulator sim;
    HostStack stack(sim, StackConfig{});
    Syrupd syrupd(sim, &stack);
    const AppId app = syrupd.RegisterApp("a", 1000, 9000).value();
    EXPECT_TRUE(syrupd
                    .DeployPolicyFile(app, MicaHomePolicyAsm(4),
                                      Hook::kXdpOffload)
                    .ok());
    ReuseportGroup* group = stack.GetOrCreateGroup(9000);
    for (int i = 0; i < 4; ++i) {
      group->AddSocket(64);
    }
    std::vector<Packet> packets;
    for (uint32_t i = 0; i < 256; ++i) {
      packets.push_back(MakePacket(9000, i, 20'000 + (i % 64)));
    }
    if (burst) {
      stack.RxBurst(packets);
    } else {
      for (const Packet& pkt : packets) {
        stack.Rx(pkt);
      }
    }
    sim.RunUntil(1 * kMillisecond);
    return stack.stats();
  };
  const StackStats sequential = run(false);
  const StackStats bursty = run(true);
  EXPECT_EQ(sequential.rx_packets, bursty.rx_packets);
  EXPECT_EQ(sequential.delivered_socket, bursty.delivered_socket);
  EXPECT_EQ(sequential.policy_drops, bursty.policy_drops);
  EXPECT_EQ(sequential.socket_drops, bursty.socket_drops);
  EXPECT_EQ(sequential.invalid_decisions, bursty.invalid_decisions);
  EXPECT_GT(bursty.rx_packets, 0u);
}

TEST(DispatchBatch, KcmBatchPolicySchedulesWholeSegments) {
  // A TCP segment carrying several complete messages reaches the batch
  // policy as one burst; decisions and delivery order match the
  // per-message policy exactly.
  struct Delivered {
    uint64_t stream;
    Decision decision;
    std::vector<uint8_t> message;
  };
  auto run = [](bool batched) {
    std::vector<Delivered> log;
    KcmMultiplexor kcm([&log](uint64_t stream, Decision d,
                              const std::vector<uint8_t>& msg) {
      log.push_back({stream, d, msg});
    });
    auto decide = [](const PacketView& view) -> Decision {
      // Schedule by first payload byte; drop 0xFF messages.
      if (view.size() > 0 && view.start[0] == 0xFF) {
        return kDrop;
      }
      return view.size() > 0 ? view.start[0] % 4 : kPass;
    };
    if (batched) {
      kcm.SetBatchPolicy([decide](std::span<const PacketView> msgs,
                                  std::span<Decision> out) {
        for (size_t i = 0; i < msgs.size(); ++i) {
          out[i] = decide(msgs[i]);
        }
      });
    } else {
      kcm.SetPolicy(decide);
    }
    // One segment, four messages (one of them a drop).
    std::vector<uint8_t> segment;
    for (uint8_t first : {uint8_t{1}, uint8_t{6}, uint8_t{0xFF},
                          uint8_t{3}}) {
      const uint8_t payload[3] = {first, 0xAA, 0xBB};
      const std::vector<uint8_t> frame = KcmFrame(payload, sizeof(payload));
      segment.insert(segment.end(), frame.begin(), frame.end());
    }
    EXPECT_TRUE(kcm.OnSegment(7, segment.data(), segment.size()).ok());
    EXPECT_EQ(kcm.messages_delivered(), 3u);
    EXPECT_EQ(kcm.messages_dropped(), 1u);
    return log;
  };
  const std::vector<Delivered> single = run(false);
  const std::vector<Delivered> batch = run(true);
  ASSERT_EQ(single.size(), batch.size());
  ASSERT_EQ(single.size(), 3u);
  for (size_t i = 0; i < single.size(); ++i) {
    EXPECT_EQ(single[i].stream, batch[i].stream);
    EXPECT_EQ(single[i].decision, batch[i].decision);
    EXPECT_EQ(single[i].message, batch[i].message);
  }
  EXPECT_EQ(batch[0].decision, 1u);
  EXPECT_EQ(batch[1].decision, 2u);
  EXPECT_EQ(batch[2].decision, 3u);
}

}  // namespace
}  // namespace syrup
