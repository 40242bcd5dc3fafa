#include "perfbench/src/tracer.h"

#include <chrono>

#include "src/common/logging.h"

namespace perfbench {

std::string_view SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kSimRun: return "sim.run";
    case SpanKind::kNetRx: return "net.rx";
    case SpanKind::kDispatchXdpOffload: return "core.dispatch.xdp_offload";
    case SpanKind::kDispatchXdpDrv: return "core.dispatch.xdp_drv";
    case SpanKind::kDispatchXdpSkb: return "core.dispatch.xdp_skb";
    case SpanKind::kDispatchCpuRedirect: return "core.dispatch.cpu_redirect";
    case SpanKind::kDispatchSocketSelect:
      return "core.dispatch.socket_select";
    case SpanKind::kSchedCallback: return "sched.callback";
    case SpanKind::kObsSnapshot: return "obs.snapshot";
    case SpanKind::kCount: break;
  }
  return "?";
}

SpanKind DispatchSpanKind(syrup::Hook hook) {
  switch (hook) {
    case syrup::Hook::kXdpOffload: return SpanKind::kDispatchXdpOffload;
    case syrup::Hook::kXdpDrv: return SpanKind::kDispatchXdpDrv;
    case syrup::Hook::kXdpSkb: return SpanKind::kDispatchXdpSkb;
    case syrup::Hook::kCpuRedirect: return SpanKind::kDispatchCpuRedirect;
    case syrup::Hook::kSocketSelect: return SpanKind::kDispatchSocketSelect;
    case syrup::Hook::kThreadScheduler: break;
  }
  SYRUP_CHECK(false) << "no dispatch span for the thread hook";
  return SpanKind::kCount;
}

Tracer::Tracer() : origin_ns_(NowNs()) {
  open_.reserve(16);
  raw_.reserve(kMaxRawSpans);
}

int64_t Tracer::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Tracer::Pause() {
  SYRUP_CHECK(open_.empty()) << "pausing with open spans";
  paused_ = true;
}

void Tracer::Begin(SpanKind kind, uint64_t items) {
  if (paused_) {
    return;
  }
  const size_t k = static_cast<size_t>(kind);
  totals_[k].items += items;
  ++open_of_kind_[k];
  int32_t raw = -1;
  if (raw_.size() < kMaxRawSpans) {
    raw = static_cast<int32_t>(raw_.size());
    raw_.push_back({kind, open_.empty() ? -1 : open_.back().raw, 0, 0});
  }
  // Stamp last so the bookkeeping above stays outside the span.
  open_.push_back({kind, NowNs(), 0, raw});
  if (raw >= 0) {
    raw_[static_cast<size_t>(raw)].start_ns = open_.back().start_ns;
  }
}

void Tracer::End(SpanKind kind) {
  if (paused_) {
    return;
  }
  const int64_t end = NowNs();
  SYRUP_CHECK(!open_.empty() && open_.back().kind == kind)
      << "unbalanced span " << SpanKindName(kind);
  const OpenSpan span = open_.back();
  open_.pop_back();
  const uint64_t duration = static_cast<uint64_t>(end - span.start_ns);
  const size_t k = static_cast<size_t>(kind);
  SpanTotals& totals = totals_[k];
  ++totals.spans;
  totals.self_ns += duration > span.child_ns ? duration - span.child_ns : 0;
  if (--open_of_kind_[k] == 0) {
    totals.inclusive_ns += duration;
  }
  if (!open_.empty()) {
    open_.back().child_ns += duration;
  }
  if (span.raw >= 0) {
    raw_[static_cast<size_t>(span.raw)].end_ns = end;
  }
}

void Tracer::WriteChromeTrace(std::ostream& out) const {
  out << "{\"traceEvents\":[";
  const char* separator = "\n";
  for (size_t i = 0; i < raw_.size(); ++i) {
    const RawSpan& span = raw_[i];
    if (span.end_ns == 0) {
      continue;  // still open when the trace was written
    }
    out << separator << "{\"name\":\"" << SpanKindName(span.kind)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << static_cast<double>(span.start_ns - origin_ns_) / 1000.0
        << ",\"dur\":"
        << static_cast<double>(span.end_ns - span.start_ns) / 1000.0
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << span.parent << "}}";
    separator = ",\n";
  }
  out << "\n]}\n";
}

}  // namespace perfbench
