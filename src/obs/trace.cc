#include "obs/trace.h"

#include <atomic>
#include <cstdio>

#include "common/logging.h"

namespace hazy::obs {

namespace {

thread_local TraceContext* t_current_trace = nullptr;

// Lazily-resolved registry histogram per span kind ("hazy_span_us",
// span="<name>", values in microseconds). Resolved on first close/event of
// that kind so a registered family implies an exercised one.
Histogram* SpanHistogram(SpanKind kind) {
  static std::array<std::atomic<Histogram*>, kNumSpanKinds> cache{};
  std::atomic<Histogram*>& slot = cache[static_cast<int>(kind)];
  Histogram* h = slot.load(std::memory_order_acquire);
  if (h == nullptr) {
    h = Registry::Global().GetHistogram(
        "hazy_span_us",
        std::string("span=\"") + SpanKindName(kind) + "\"");
    slot.store(h, std::memory_order_release);
  }
  return h;
}

}  // namespace

const char* SpanKindName(SpanKind k) {
  switch (k) {
    case SpanKind::kStatement:
      return "statement";
    case SpanKind::kParse:
      return "parse";
    case SpanKind::kGateWait:
      return "gate.wait";
    case SpanKind::kExecute:
      return "execute";
    case SpanKind::kTriggerDrain:
      return "trigger.drain";
    case SpanKind::kLazyScan:
      return "view.lazy_scan";
    case SpanKind::kSnapshotScan:
      return "view.snapshot_scan";
    case SpanKind::kRelabelSweep:
      return "view.relabel_sweep";
    case SpanKind::kWindowStep:
      return "view.window_step";
    case SpanKind::kWalAppend:
      return "wal.append";
    case SpanKind::kWalFsync:
      return "wal.fsync";
    case SpanKind::kPoolMiss:
      return "pool.miss";
    case SpanKind::kPoolEvict:
      return "pool.evict";
    case SpanKind::kCheckpoint:
      return "checkpoint";
    case SpanKind::kCheckpointCommit:
      return "checkpoint.commit";
    case SpanKind::kNumKinds:
      break;
  }
  return "unknown";
}

void TraceContext::Clear() {
  spans_.clear();
  open_stack_.clear();
  for (EventAgg& agg : events_) {
    agg.count.store(0);
    agg.total_ns.store(0);
  }
}

int TraceContext::OpenSpanAt(SpanKind kind, uint64_t start_ns) {
  SpanNode node;
  node.kind = kind;
  node.parent = open_stack_.empty() ? -1 : open_stack_.back();
  node.start_ns = start_ns;
  int index = static_cast<int>(spans_.size());
  spans_.push_back(node);
  open_stack_.push_back(index);
  return index;
}

void TraceContext::CloseSpanAt(int index, uint64_t end_ns) {
  HAZY_DCHECK(!open_stack_.empty() && open_stack_.back() == index);
  SpanNode& node = spans_[index];
  node.duration_ns = end_ns - node.start_ns;
  open_stack_.pop_back();
  SpanHistogram(node.kind)->Observe(static_cast<double>(node.duration_ns) /
                                    1000.0);
}

void TraceContext::AddEvent(SpanKind kind, uint64_t duration_ns) {
  EventAgg& agg = events_[static_cast<int>(kind)];
  agg.count += 1;
  agg.total_ns += duration_ns;
  SpanHistogram(kind)->Observe(static_cast<double>(duration_ns) / 1000.0);
}

uint64_t TraceContext::root_duration_ns() const {
  return spans_.empty() ? 0 : spans_[0].duration_ns;
}

uint64_t TraceContext::EventTotalNs(SpanKind kind) const {
  return events_[static_cast<int>(kind)].total_ns.load();
}

uint64_t TraceContext::EventCount(SpanKind kind) const {
  return events_[static_cast<int>(kind)].count.load();
}

std::vector<TraceRow> TraceContext::Flatten() const {
  std::vector<TraceRow> rows;
  rows.reserve(spans_.size() + 4);
  // Depth-first over the span tree. Spans are stored in open order, so a
  // child always follows its parent; a simple recursion over child lists
  // keeps sibling order.
  std::vector<std::vector<int>> children(spans_.size());
  std::vector<int> roots;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent < 0) {
      roots.push_back(static_cast<int>(i));
    } else {
      children[spans_[i].parent].push_back(static_cast<int>(i));
    }
  }
  struct Walker {
    const std::vector<SpanNode>& spans;
    const std::vector<std::vector<int>>& children;
    std::vector<TraceRow>& rows;
    void Walk(int index, int depth) {
      const SpanNode& node = spans[index];
      TraceRow row;
      row.depth = depth;
      row.span = SpanKindName(node.kind);
      row.total_ms = static_cast<double>(node.duration_ns) / 1e6;
      rows.push_back(std::move(row));
      for (int child : children[index]) Walk(child, depth + 1);
    }
  };
  Walker walker{spans_, children, rows};
  for (int root : roots) walker.Walk(root, 0);
  for (int k = 0; k < kNumSpanKinds; ++k) {
    uint64_t count = events_[k].count.load();
    if (count == 0) continue;
    TraceRow row;
    row.depth = 1;
    row.span = SpanKindName(static_cast<SpanKind>(k));
    row.count = count;
    row.total_ms = static_cast<double>(events_[k].total_ns.load()) / 1e6;
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string TraceContext::ToTreeString() const {
  std::string out;
  for (const TraceRow& row : Flatten()) {
    out.append(static_cast<size_t>(row.depth) * 2, ' ');
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s  %.3f ms", row.span.c_str(),
                  row.total_ms);
    out += buf;
    if (row.count > 1) {
      std::snprintf(buf, sizeof(buf), "  (x%llu)",
                    static_cast<unsigned long long>(row.count));
      out += buf;
    }
    out += "\n";
  }
  return out;
}

TraceContext* CurrentTrace() { return t_current_trace; }

ScopedTraceInstall::ScopedTraceInstall(TraceContext* trace)
    : prev_(t_current_trace) {
  t_current_trace = trace;
}

ScopedTraceInstall::~ScopedTraceInstall() { t_current_trace = prev_; }

}  // namespace hazy::obs
