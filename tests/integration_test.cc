// Integration tests: assert the *shape* of every paper figure — who wins,
// roughly by how much, and where behaviour flips — on shortened runs.
// The bench binaries regenerate the full curves.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "src/apps/experiments.h"
#include "src/bpf/compiler.h"

namespace syrup {
namespace {

RocksDbExperimentConfig QuickRocks() {
  RocksDbExperimentConfig config;
  config.warmup = 100 * kMillisecond;
  config.measure = 400 * kMillisecond;
  return config;
}

// --- Fig. 2: 100% GET, vanilla vs round robin ----------------------------------------

TEST(Fig2, VanillaDropsAndExplodesAtHighLoadRoundRobinDoesNot) {
  RocksDbExperimentConfig config = QuickRocks();
  config.load_rps = 400'000;
  config.socket_policy = SocketPolicyKind::kVanilla;
  const RocksDbResult vanilla = RunRocksDbExperiment(config);
  config.socket_policy = SocketPolicyKind::kRoundRobin;
  const RocksDbResult rr = RunRocksDbExperiment(config);

  EXPECT_GT(vanilla.drop_fraction, 0.005);  // Fig. 2b: visible drops
  EXPECT_LT(rr.drop_fraction, 0.001);
  EXPECT_GT(vanilla.p99_us, 1000);          // Fig. 2a: vanilla explodes
  EXPECT_LT(rr.p99_us, 200);                // RR still sub-200us
}

TEST(Fig2, BothPoliciesFineAtLowLoad) {
  RocksDbExperimentConfig config = QuickRocks();
  config.load_rps = 100'000;
  config.socket_policy = SocketPolicyKind::kVanilla;
  const RocksDbResult vanilla = RunRocksDbExperiment(config);
  config.socket_policy = SocketPolicyKind::kRoundRobin;
  const RocksDbResult rr = RunRocksDbExperiment(config);
  EXPECT_LT(vanilla.p99_us, 200);
  EXPECT_LT(rr.p99_us, 100);
  EXPECT_EQ(vanilla.drop_fraction, 0.0);
}

TEST(Fig2, RoundRobinSustainsHigherLoad) {
  // "a load 80% higher than the default policy" with sub-200us tails.
  RocksDbExperimentConfig config = QuickRocks();
  config.load_rps = 420'000;
  config.socket_policy = SocketPolicyKind::kRoundRobin;
  const RocksDbResult rr = RunRocksDbExperiment(config);
  EXPECT_LT(rr.p99_us, 300);
  EXPECT_GT(rr.throughput_rps, 410'000);
}

// --- Fig. 6: 99.5% GET / 0.5% SCAN -----------------------------------------------------

TEST(Fig6, PolicyOrderingAtModerateLoad) {
  RocksDbExperimentConfig config = QuickRocks();
  config.get_fraction = 0.995;
  config.load_rps = 150'000;

  config.socket_policy = SocketPolicyKind::kVanilla;
  const RocksDbResult vanilla = RunRocksDbExperiment(config);
  config.socket_policy = SocketPolicyKind::kRoundRobin;
  const RocksDbResult rr = RunRocksDbExperiment(config);
  config.socket_policy = SocketPolicyKind::kScanAvoid;
  const RocksDbResult scan_avoid = RunRocksDbExperiment(config);
  config.socket_policy = SocketPolicyKind::kSita;
  const RocksDbResult sita = RunRocksDbExperiment(config);

  // Head-of-line blocking keeps vanilla and RR SCAN-dominated (>500us);
  // SCAN Avoid stays under 150us (paper: 8x better than vanilla); SITA is
  // at least as good.
  EXPECT_GT(vanilla.p99_us, 500);
  EXPECT_GT(rr.p99_us, 500);
  EXPECT_LT(scan_avoid.p99_us, 150);
  EXPECT_LT(sita.p99_us, 150);
  EXPECT_GT(vanilla.p99_us / scan_avoid.p99_us, 8.0);
}

TEST(Fig6, SitaOutlastsScanAvoid) {
  // Paper: SITA holds <150us up to ~310k, 100% beyond SCAN Avoid's range.
  RocksDbExperimentConfig config = QuickRocks();
  config.get_fraction = 0.995;
  config.load_rps = 310'000;
  config.socket_policy = SocketPolicyKind::kScanAvoid;
  const RocksDbResult scan_avoid = RunRocksDbExperiment(config);
  config.socket_policy = SocketPolicyKind::kSita;
  const RocksDbResult sita = RunRocksDbExperiment(config);
  EXPECT_LT(sita.p99_us, 150);
  EXPECT_GT(scan_avoid.p99_us, 300);  // SCAN Avoid has degraded by now
}

// --- Fig. 7: token-based QoS ------------------------------------------------------------

TEST(Fig7, TokensProtectLsLatencyAtCostOfBeThroughput) {
  TokenQosConfig config;
  config.warmup = 100 * kMillisecond;
  config.measure = 400 * kMillisecond;
  config.ls_load_rps = 100'000;
  config.be_load_rps = 300'000;

  config.token_policy = true;
  const TokenQosResult token = RunTokenQosExperiment(config);
  config.token_policy = false;
  const TokenQosResult rr = RunTokenQosExperiment(config);

  // BE under tokens is capped by gifted leftovers (~350k - LS); under RR it
  // gets its full offered load.
  EXPECT_LT(token.be_throughput_rps, 270'000);
  EXPECT_GT(token.be_throughput_rps, 180'000);
  EXPECT_GT(rr.be_throughput_rps, token.be_throughput_rps);
  // LS latency is at least as good under tokens.
  EXPECT_LE(token.ls_p99_us, rr.ls_p99_us * 1.1);
}

TEST(Fig7, BeThroughputTracksLeftoverTokens) {
  TokenQosConfig config;
  config.warmup = 100 * kMillisecond;
  config.measure = 300 * kMillisecond;
  config.token_policy = true;
  // BE gets roughly (token_rate - LS) at every split.
  for (double ls : {50'000.0, 250'000.0}) {
    config.ls_load_rps = ls;
    config.be_load_rps = 400'000 - ls;
    const TokenQosResult result = RunTokenQosExperiment(config);
    const double expected_be = config.token_rate_per_sec - ls;
    EXPECT_NEAR(result.be_throughput_rps, expected_be, expected_be * 0.25)
        << "ls=" << ls;
    // LS itself is never throttled below its own load.
    EXPECT_NEAR(result.ls_throughput_rps, ls, ls * 0.05);
  }
}

// --- Fig. 8: cross-layer scheduling -------------------------------------------------------

TEST(Fig8, CrossLayerBeatsEitherSingleLayer) {
  RocksDbExperimentConfig config;
  config.warmup = 100 * kMillisecond;
  config.measure = 600 * kMillisecond;
  config.get_fraction = 0.5;
  config.num_threads = 36;
  config.num_cores = 6;
  config.load_rps = 8'000;

  config.socket_policy = SocketPolicyKind::kScanAvoid;
  config.thread_sched = ThreadSchedKind::kCfs;
  const RocksDbResult request_only = RunRocksDbExperiment(config);

  config.socket_policy = SocketPolicyKind::kVanilla;
  config.thread_sched = ThreadSchedKind::kGhostGetPriority;
  const RocksDbResult thread_only = RunRocksDbExperiment(config);

  config.socket_policy = SocketPolicyKind::kScanAvoid;
  const RocksDbResult both = RunRocksDbExperiment(config);

  // Paper: thread-scheduling-only suffers socket HoL blocking (>800us GET
  // p99 even at low load); request-only degrades by 8k; combined stays low.
  EXPECT_GT(thread_only.p99_get_us, 500);
  EXPECT_LT(both.p99_get_us, 500);
  EXPECT_LT(both.p99_get_us, request_only.p99_get_us);
  EXPECT_LT(both.p99_get_us, thread_only.p99_get_us);
}

TEST(Fig8, ThreadSchedulingAloneSuffersEvenAtLowLoad) {
  RocksDbExperimentConfig config;
  config.warmup = 100 * kMillisecond;
  config.measure = 600 * kMillisecond;
  config.get_fraction = 0.5;
  config.num_threads = 36;
  config.num_cores = 6;
  config.load_rps = 2'000;
  config.socket_policy = SocketPolicyKind::kVanilla;
  config.thread_sched = ThreadSchedKind::kGhostGetPriority;
  const RocksDbResult result = RunRocksDbExperiment(config);
  EXPECT_GT(result.p99_get_us, 250);  // GETs stuck behind SCANs in sockets
}

// Oracle for the thread-policy memo: the deployed GetPriority classifier
// (memoized per tid, since the verifier proves it pure) must schedule
// exactly like the native mirror (which has no memo) on every exec tier.
// `stats_json` differs by design: only the bytecode run has policy.*.
TEST(Fig8, BytecodeGhostMatchesNativeMirrorOnEveryTier) {
  RocksDbExperimentConfig config;
  config.socket_policy = SocketPolicyKind::kScanAvoid;
  config.thread_sched = ThreadSchedKind::kGhostGetPriority;
  config.get_fraction = 0.5;
  config.num_threads = 36;
  config.num_cores = 6;
  config.load_rps = 8'000;
  config.measure = 1 * kSecond;
  config.seed = 3;
  const RocksDbResult native = RunRocksDbExperiment(config);
  EXPECT_GT(native.throughput_rps, 7'000);

  config.use_bytecode = true;
  for (const bpf::ExecMode mode :
       {bpf::ExecMode::kInterpret, bpf::ExecMode::kCompiled,
        bpf::ExecMode::kCompiledParanoid, bpf::ExecMode::kNative}) {
    SCOPED_TRACE(std::string(bpf::ExecModeName(mode)));
    config.exec_mode = mode;
    const RocksDbResult bytecode = RunRocksDbExperiment(config);
    EXPECT_EQ(bytecode.load_rps, native.load_rps);
    EXPECT_EQ(bytecode.throughput_rps, native.throughput_rps);
    EXPECT_EQ(bytecode.p50_us, native.p50_us);
    EXPECT_EQ(bytecode.p99_us, native.p99_us);
    EXPECT_EQ(bytecode.p99_get_us, native.p99_get_us);
    EXPECT_EQ(bytecode.p99_scan_us, native.p99_scan_us);
    EXPECT_EQ(bytecode.drop_fraction, native.drop_fraction);
    EXPECT_EQ(bytecode.get_throughput_rps, native.get_throughput_rps);
    EXPECT_EQ(bytecode.scan_throughput_rps, native.scan_throughput_rps);
    // The memo served part of the agent's classifier calls.
    const std::string& json = bytecode.stats_json;
    const size_t at = json.find("\"policy.memo_hits\":{");
    ASSERT_NE(at, std::string::npos);
    const size_t value = json.find("\"value\":", at);
    ASSERT_NE(value, std::string::npos);
    EXPECT_GT(std::strtoull(json.c_str() + value + 8, nullptr, 10), 0u);
  }
}

// --- Fig. 9: MICA across hooks --------------------------------------------------------------

MicaExperimentConfig QuickMica(MicaVariant variant, double load) {
  MicaExperimentConfig config;
  config.variant = variant;
  config.load_rps = load;
  config.warmup = 50 * kMillisecond;
  config.measure = 150 * kMillisecond;
  return config;
}

TEST(Fig9, SwRedirectSaturatesFirst) {
  // At 2.2 MRPS the original (app-layer redirect) has exploded; both Syrup
  // variants are still healthy.
  const MicaResult original =
      RunMicaExperiment(QuickMica(MicaVariant::kSwRedirect, 2'200'000));
  const MicaResult sw =
      RunMicaExperiment(QuickMica(MicaVariant::kSyrupSw, 2'200'000));
  const MicaResult hw =
      RunMicaExperiment(QuickMica(MicaVariant::kSyrupHw, 2'200'000));
  EXPECT_GT(original.p999_us, 1000);
  EXPECT_LT(sw.p999_us, 400);
  EXPECT_LT(hw.p999_us, 200);
}

TEST(Fig9, HwOutlastsSw) {
  // At 3.1 MRPS kernel-level steering has exploded; NIC offload holds.
  const MicaResult sw =
      RunMicaExperiment(QuickMica(MicaVariant::kSyrupSw, 3'100'000));
  const MicaResult hw =
      RunMicaExperiment(QuickMica(MicaVariant::kSyrupHw, 3'100'000));
  EXPECT_GT(sw.p999_us, 1000);
  EXPECT_LT(hw.p999_us, 400);
}

TEST(Fig9, OrderingHoldsForBothMixes) {
  for (double get_fraction : {0.5, 0.95}) {
    MicaExperimentConfig config = QuickMica(MicaVariant::kSwRedirect,
                                            1'500'000);
    config.get_fraction = get_fraction;
    const MicaResult original = RunMicaExperiment(config);
    config.variant = MicaVariant::kSyrupSw;
    const MicaResult sw = RunMicaExperiment(config);
    config.variant = MicaVariant::kSyrupHw;
    const MicaResult hw = RunMicaExperiment(config);
    EXPECT_LT(sw.p999_us, original.p999_us) << "mix " << get_fraction;
    EXPECT_LT(hw.p999_us, sw.p999_us) << "mix " << get_fraction;
  }
}

TEST(Fig9, BytecodeDeploymentMatchesNativeShape) {
  // The same experiment with the actual untrusted policy file deployed via
  // syrupd (assemble -> verify -> attach) reproduces the native result.
  MicaExperimentConfig config = QuickMica(MicaVariant::kSyrupSw, 2'000'000);
  const MicaResult native = RunMicaExperiment(config);
  config.use_bytecode = true;
  const MicaResult bytecode = RunMicaExperiment(config);
  EXPECT_NEAR(bytecode.p999_us, native.p999_us, native.p999_us * 0.2);
  EXPECT_NEAR(bytecode.throughput_rps, native.throughput_rps,
              native.throughput_rps * 0.05);
}

// --- determinism across the whole harness ----------------------------------------------------

TEST(Determinism, IdenticalSeedsIdenticalResults) {
  RocksDbExperimentConfig config = QuickRocks();
  config.load_rps = 200'000;
  config.socket_policy = SocketPolicyKind::kRoundRobin;
  config.measure = 200 * kMillisecond;
  const RocksDbResult a = RunRocksDbExperiment(config);
  const RocksDbResult b = RunRocksDbExperiment(config);
  EXPECT_EQ(a.p99_us, b.p99_us);
  EXPECT_EQ(a.throughput_rps, b.throughput_rps);
  EXPECT_EQ(a.drop_fraction, b.drop_fraction);
}

TEST(Determinism, DifferentSeedsDifferentNoise) {
  RocksDbExperimentConfig config = QuickRocks();
  config.load_rps = 200'000;
  config.socket_policy = SocketPolicyKind::kVanilla;
  config.measure = 200 * kMillisecond;
  config.seed = 1;
  const RocksDbResult a = RunRocksDbExperiment(config);
  config.seed = 2;
  const RocksDbResult b = RunRocksDbExperiment(config);
  EXPECT_NE(a.p99_us, b.p99_us);  // hash imbalance is seed-dependent
}


TEST(LateBinding, NoPolicyMatchesBestEarlyPolicies) {
  // §6.3 extension: late binding with no policy rivals SITA at moderate
  // load on the Fig. 6 workload.
  RocksDbExperimentConfig config = QuickRocks();
  config.get_fraction = 0.995;
  config.load_rps = 150'000;
  config.late_binding = true;
  const RocksDbResult late = RunRocksDbExperiment(config);
  config.late_binding = false;
  config.socket_policy = SocketPolicyKind::kVanilla;
  const RocksDbResult early_vanilla = RunRocksDbExperiment(config);
  EXPECT_LT(late.p99_us, 100);
  EXPECT_GT(early_vanilla.p99_us / late.p99_us, 5.0);
}

}  // namespace
}  // namespace syrup
