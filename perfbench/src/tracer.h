// In-memory span recorder for the benchmark's traced pass.
//
// The traced pass interposes on public seams of each layer (the load
// generator's sink in front of HostStack::Rx, the StackHooks syrupd
// installs, the machine's Scheduler, Simulator::RunUntil, the stats
// snapshot) and brackets every call with a span. Per-kind totals cover
// every span; the first kMaxRawSpans spans are also kept verbatim
// (kind, parent, start, end) and written out as a Chrome trace at the end,
// so nothing touches the disk while the simulation runs.
#ifndef PERFBENCH_SRC_TRACER_H_
#define PERFBENCH_SRC_TRACER_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string_view>
#include <vector>

#include "src/core/hook.h"

namespace perfbench {

enum class SpanKind : uint8_t {
  kSimRun,                // Simulator::RunUntil
  kNetRx,                 // HostStack::Rx, called from the generator sink
  kDispatchXdpOffload,    // syrupd's hook callbacks, one kind per hook
  kDispatchXdpDrv,
  kDispatchXdpSkb,
  kDispatchCpuRedirect,
  kDispatchSocketSelect,
  kSchedCallback,         // Scheduler::On* callbacks from the Machine
  kObsSnapshot,           // Syrupd::StatsSnapshot().ToJson()
  kCount,
};

inline constexpr size_t kNumSpanKinds = static_cast<size_t>(SpanKind::kCount);

std::string_view SpanKindName(SpanKind kind);

// The dispatch span kind of a packet hook (syrup::Hook::kThreadScheduler is
// not a stack hook and has none).
SpanKind DispatchSpanKind(syrup::Hook hook);

struct SpanTotals {
  uint64_t spans = 0;         // spans closed, nested ones included
  uint64_t items = 0;         // work items the spans covered (e.g. packets)
  uint64_t inclusive_ns = 0;  // outermost spans of the kind only
  uint64_t self_ns = 0;       // minus the time direct child spans cover
};

class Tracer {
 public:
  // Spans kept verbatim for the Chrome trace; later spans count in the
  // totals only.
  static constexpr size_t kMaxRawSpans = 1 << 14;

  Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Spans nest strictly: End closes the innermost open span, which must be
  // of `kind`.
  void Begin(SpanKind kind, uint64_t items = 1);
  void End(SpanKind kind);

  // From here on Begin/End record nothing (no span may be open).
  void Pause();

  const SpanTotals& totals(SpanKind kind) const {
    return totals_[static_cast<size_t>(kind)];
  }
  size_t raw_spans() const { return raw_.size(); }

  // Chrome trace-event JSON ("X" events, microsecond timestamps relative to
  // the tracer's creation) of the retained raw spans.
  void WriteChromeTrace(std::ostream& out) const;

 private:
  struct OpenSpan {
    SpanKind kind;
    int64_t start_ns;
    uint64_t child_ns;
    int32_t raw;  // index into raw_, or -1 past the retention limit
  };
  struct RawSpan {
    SpanKind kind;
    int32_t parent;
    int64_t start_ns;
    int64_t end_ns;
  };

  static int64_t NowNs();

  const int64_t origin_ns_;
  bool paused_ = false;
  std::vector<OpenSpan> open_;
  std::array<uint32_t, kNumSpanKinds> open_of_kind_{};
  std::array<SpanTotals, kNumSpanKinds> totals_{};
  std::vector<RawSpan> raw_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, SpanKind kind, uint64_t items = 1)
      : tracer_(tracer), kind_(kind) {
    tracer_.Begin(kind_, items);
  }
  ~ScopedSpan() { tracer_.End(kind_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  SpanKind kind_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACER_H_
