// Map data-plane scaling: the swiss-table HashMap against the chained map
// (the test oracle in tests/oracles/) across entry counts, under contended
// reads, and through the batched lookup path, machine-readable.
//
// Three scenarios:
//
//   lookup_ns       single-thread random Lookup ns/op at 1k / 64k / 1M
//                   entries, swiss vs chained. At 1k both live in cache;
//                   at 1M every probe is a memory walk, where the swiss
//                   table's single-array layout (one line for 16 tags)
//                   beats the chained map's pointer chase.
//   contended_read  4 reader threads on the 1M-entry swiss map: the
//                   lock-free path (seqlock-validated probes, no shared
//                   writes) vs the same lookups serialized through one
//                   mutex — the shape the old bucket-locked map degraded
//                   to under read contention.
//   batch           LookupBatch(32) vs 32 sequential Lookups on the
//                   1M-entry map; the batch path pipelines hash+prefetch
//                   ahead of the probes so the memory walks overlap.
//
// Writes `BENCH_map_scale.json`. `--baseline <file>` gates against the
// checked-in floors: lock-free contended reads >= 3x the mutex baseline
// (needs >= 4 hardware threads; reports itself skipped otherwise), swiss
// no slower than chained at 1M entries, and the batch path no slower than
// sequential lookups.
//
// Flags:
//   --quick            ~6x fewer measured ops (CI smoke mode)
//   --baseline <file>  compare against checked-in floors; exit 1 when below
//   --out <file>       JSON output path (default BENCH_map_scale.json)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/map/hash_map.h"
#include "tests/oracles/chained_hash_map.h"

namespace syrup {
namespace {

constexpr uint32_t kContendedThreads = 4;

struct SizePoint {
  const char* label;
  uint32_t entries;
};
constexpr SizePoint kSizes[] = {
    {"1k", 1'000},
    {"64k", 64'000},
    {"1m", 1'000'000},
};

std::unique_ptr<Map> MakeMap(bool swiss, uint32_t entries) {
  MapSpec spec;
  spec.type = MapType::kHash;
  spec.max_entries = entries;
  spec.name = swiss ? "swiss" : "chained";
  std::unique_ptr<Map> map;
  if (swiss) {
    map = std::make_unique<HashMap>(spec);
  } else {
    map = std::make_unique<ChainedHashMap>(spec);
  }
  for (uint32_t key = 0; key < entries; ++key) {
    (void)map->UpdateU64(key, key);
  }
  return map;
}

double MeasureLookupNs(Map& map, uint32_t entries, int iters) {
  Rng rng(9);
  volatile uint64_t sink = 0;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    const uint32_t key = static_cast<uint32_t>(rng.NextBounded(entries));
    void* value = map.Lookup(&key);
    if (value != nullptr) {
      sink = sink + Map::AtomicLoad(value);
    }
  }
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(stop - start).count() /
         iters;
}

// Aggregate Mops/sec of `threads` readers hammering random keys. With
// `serialize` each Lookup goes through one shared mutex — the degenerate
// shape the lock-free read path exists to avoid; the map underneath is
// identical either way, so the delta is pure synchronization.
double MeasureContendedMops(Map& map, uint32_t entries, int iters_per_thread,
                            unsigned threads, bool serialize) {
  std::mutex mu;
  std::vector<std::thread> readers;
  readers.reserve(threads);
  const auto start = std::chrono::steady_clock::now();
  for (unsigned t = 0; t < threads; ++t) {
    readers.emplace_back([&map, &mu, entries, iters_per_thread, serialize,
                          t]() {
      Rng rng(100 + t);
      volatile uint64_t sink = 0;
      for (int i = 0; i < iters_per_thread; ++i) {
        const uint32_t key = static_cast<uint32_t>(rng.NextBounded(entries));
        if (serialize) {
          std::lock_guard<std::mutex> lock(mu);
          void* value = map.Lookup(&key);
          if (value != nullptr) {
            sink = sink + Map::AtomicLoad(value);
          }
        } else {
          void* value = map.Lookup(&key);
          if (value != nullptr) {
            sink = sink + Map::AtomicLoad(value);
          }
        }
      }
    });
  }
  for (std::thread& reader : readers) {
    reader.join();
  }
  const double elapsed_ns = std::chrono::duration<double, std::nano>(
                                std::chrono::steady_clock::now() - start)
                                .count();
  return static_cast<double>(iters_per_thread) * threads / (elapsed_ns * 1e-3);
}

struct BatchResult {
  double batch_ns_per_key = 0;
  double sequential_ns_per_key = 0;
};

BatchResult MeasureBatch(Map& map, uint32_t entries, int rounds) {
  constexpr uint32_t kBatch = Map::kMaxLookupBatch;
  BatchResult result;
  uint32_t keys[kBatch];
  void* values[kBatch];
  for (int pass = 0; pass < 2; ++pass) {
    const bool batched = pass == 0;
    Rng rng(21);
    volatile uint64_t sink = 0;
    const auto start = std::chrono::steady_clock::now();
    for (int r = 0; r < rounds; ++r) {
      for (uint32_t i = 0; i < kBatch; ++i) {
        keys[i] = static_cast<uint32_t>(rng.NextBounded(entries));
      }
      if (batched) {
        map.LookupBatch(kBatch, keys, values);
        for (uint32_t i = 0; i < kBatch; ++i) {
          if (values[i] != nullptr) {
            sink = sink + Map::AtomicLoad(values[i]);
          }
        }
      } else {
        for (uint32_t i = 0; i < kBatch; ++i) {
          void* value = map.Lookup(&keys[i]);
          if (value != nullptr) {
            sink = sink + Map::AtomicLoad(value);
          }
        }
      }
    }
    const auto stop = std::chrono::steady_clock::now();
    const double ns_per_key =
        std::chrono::duration<double, std::nano>(stop - start).count() /
        (static_cast<double>(rounds) * kBatch);
    if (batched) {
      result.batch_ns_per_key = ns_per_key;
    } else {
      result.sequential_ns_per_key = ns_per_key;
    }
  }
  return result;
}

bool BaselineFor(const std::string& text, const std::string& name,
                 double* out) {
  const std::string needle = "\"" + name + "\":";
  const size_t pos = text.find(needle);
  if (pos == std::string::npos) {
    return false;
  }
  return std::sscanf(text.c_str() + pos + needle.size(), " %lf", out) == 1;
}

int Run(bool quick, const char* out_path, const char* baseline_path) {
  const int lookup_iters = quick ? 300'000 : 2'000'000;
  const int contended_iters = quick ? 400'000 : 2'000'000;
  const int batch_rounds = quick ? 20'000 : 120'000;
  const unsigned cores = std::thread::hardware_concurrency();

  std::printf("# map_scale: swiss-table data plane (%s mode, %u hw threads)\n",
              quick ? "quick" : "full", cores);

  // lookup_ns: swiss vs chained at each size.
  std::printf("%-10s %14s %14s %9s\n", "entries", "swiss ns/op",
              "chained ns/op", "ratio");
  double swiss_ns[std::size(kSizes)];
  double chained_ns[std::size(kSizes)];
  std::unique_ptr<Map> swiss_1m;  // reused by the contended + batch runs
  for (size_t i = 0; i < std::size(kSizes); ++i) {
    std::unique_ptr<Map> swiss = MakeMap(/*swiss=*/true, kSizes[i].entries);
    std::unique_ptr<Map> chained = MakeMap(/*swiss=*/false, kSizes[i].entries);
    swiss_ns[i] = MeasureLookupNs(*swiss, kSizes[i].entries, lookup_iters);
    chained_ns[i] = MeasureLookupNs(*chained, kSizes[i].entries, lookup_iters);
    std::printf("%-10s %14.1f %14.1f %8.2fx\n", kSizes[i].label, swiss_ns[i],
                chained_ns[i], chained_ns[i] / swiss_ns[i]);
    if (kSizes[i].entries == 1'000'000) {
      swiss_1m = std::move(swiss);
    }
  }

  // contended_read: lock-free vs mutex-serialized, same map, same keys.
  const uint32_t big = kSizes[std::size(kSizes) - 1].entries;
  const double lockfree_mops = MeasureContendedMops(
      *swiss_1m, big, contended_iters, kContendedThreads, /*serialize=*/false);
  const double mutex_mops = MeasureContendedMops(
      *swiss_1m, big, contended_iters, kContendedThreads, /*serialize=*/true);
  const double contended_speedup = lockfree_mops / mutex_mops;
  std::printf("# contended_read (%u threads, 1M entries): lock-free %.2f "
              "Mops, mutex %.2f Mops, %.2fx\n",
              kContendedThreads, lockfree_mops, mutex_mops, contended_speedup);

  // batch: pipelined LookupBatch vs sequential probes.
  const BatchResult batch = MeasureBatch(*swiss_1m, big, batch_rounds);
  const double batch_speedup =
      batch.sequential_ns_per_key / batch.batch_ns_per_key;
  std::printf("# batch (32 keys, 1M entries): batched %.1f ns/key, "
              "sequential %.1f ns/key, %.2fx\n",
              batch.batch_ns_per_key, batch.sequential_ns_per_key,
              batch_speedup);

  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path);
    return 1;
  }
  std::fprintf(out,
               "{\n  \"bench\": \"map_scale\",\n"
               "  \"mode\": \"%s\",\n"
               "  \"hardware_concurrency\": %u,\n  \"scenarios\": {\n",
               quick ? "quick" : "full", cores);
  std::fprintf(out, "    \"lookup_ns\": {");
  for (size_t i = 0; i < std::size(kSizes); ++i) {
    std::fprintf(out, "\"swiss_%s\": %.1f, \"chained_%s\": %.1f%s",
                 kSizes[i].label, swiss_ns[i], kSizes[i].label, chained_ns[i],
                 i + 1 == std::size(kSizes) ? "" : ", ");
  }
  std::fprintf(out, "},\n");
  std::fprintf(out,
               "    \"contended_read\": {\"lockfree_mops_%u\": %.2f, "
               "\"mutex_mops_%u\": %.2f, \"speedup_%u\": %.3f},\n",
               kContendedThreads, lockfree_mops, kContendedThreads,
               mutex_mops, kContendedThreads, contended_speedup);
  std::fprintf(out,
               "    \"batch\": {\"batch_ns_per_key\": %.1f, "
               "\"sequential_ns_per_key\": %.1f, \"speedup\": %.3f}\n",
               batch.batch_ns_per_key, batch.sequential_ns_per_key,
               batch_speedup);
  std::fprintf(out, "  }\n}\n");
  std::fclose(out);
  std::printf("# wrote %s\n", out_path);

  if (baseline_path == nullptr) {
    return 0;
  }
  std::FILE* in = std::fopen(baseline_path, "r");
  if (in == nullptr) {
    std::fprintf(stderr, "cannot read baseline %s\n", baseline_path);
    return 1;
  }
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0) {
    text.append(buf, n);
  }
  std::fclose(in);

  int failures = 0;
  const auto gate = [&text, &failures](const char* key, double measured,
                                       const char* what) {
    double floor;
    if (!BaselineFor(text, key, &floor)) {
      std::fprintf(stderr, "baseline missing %s\n", key);
      ++failures;
      return;
    }
    if (measured < floor) {
      std::fprintf(stderr, "REGRESSION %s: %s %.2fx below floor %.2fx\n", key,
                   what, measured, floor);
      ++failures;
    } else {
      std::printf("# baseline ok %s: %s %.2fx >= %.2fx\n", key, what,
                  measured, floor);
    }
  };
  if (cores < kContendedThreads) {
    // The contended gate measures reader parallelism; with fewer hardware
    // threads the mutex baseline is not actually contended and the ratio
    // says nothing. Report, don't fail.
    std::printf("# gate_skipped contended_read_speedup_4: %u hw threads < "
                "%u\n",
                cores, kContendedThreads);
  } else {
    gate("contended_read_speedup_4", contended_speedup,
         "lock-free vs mutex reads");
  }
  gate("lookup_vs_chained_1m",
       chained_ns[std::size(kSizes) - 1] / swiss_ns[std::size(kSizes) - 1],
       "swiss vs chained 1M-entry lookup");
  gate("batch_speedup", batch_speedup, "batched vs sequential lookups");
  return failures > 0 ? 1 : 0;
}

}  // namespace
}  // namespace syrup

int main(int argc, char** argv) {
  bool quick = false;
  const char* out_path = "BENCH_map_scale.json";
  const char* baseline_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--baseline <file>] [--out <file>]\n",
                   argv[0]);
      return 2;
    }
  }
  return syrup::Run(quick, out_path, baseline_path);
}
