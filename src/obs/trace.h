// Per-statement tracing: a TraceContext records a tree of timed spans on
// the statement thread plus thread-safe per-kind event aggregates that
// parallel workers (scan pipeline, buffer pool misses under a worker) feed.
//
// Propagation is via a thread-local current-trace pointer. Installing costs
// a pointer swap; every instrumentation point first checks the pointer and
// is a no-op when tracing is off, so benches driving the engine without a
// trace installed pay only a thread-local load per probe.
//
// Threading contract:
//   - OpenSpan/CloseSpan: statement thread only (spans form a stack).
//   - AddEvent: any thread (relaxed atomic aggregates per kind).
//   - ScopedTraceInstall may be used on worker threads to propagate the
//     parent statement's context into ParallelFor bodies; those workers
//     must then only AddEvent, never open spans.
//
// Closing a span also feeds the process-wide registry histogram for its
// kind (`hazy_span_us{span="..."}`), so per-span latency quantiles are
// exported without a second instrumentation pass. Histograms register
// lazily on first observation: a span family that appears in SHOW METRICS
// has by construction been exercised (keeps the CI dead-metric lint exact).

#ifndef HAZY_OBS_TRACE_H_
#define HAZY_OBS_TRACE_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/timer.h"
#include "obs/metrics.h"

namespace hazy::obs {

enum class SpanKind : uint8_t {
  kStatement = 0,   // whole statement, root
  kParse,           // SQL text -> AST
  kGateWait,        // waiting on the statement mutex (serialized statements)
  kExecute,         // statement body after parse
  kTriggerDrain,    // draining queued view maintenance triggers
  kLazyScan,        // lazy on-demand (re)scoring scan
  kSnapshotScan,    // All Members over a pinned epoch (eps columns + window)
  kRelabelSweep,    // eager relabel sweep between water lines
  kWindowStep,      // per-batch incremental window step (classify/relabel rids)
  kWalAppend,       // WAL record append (buffered)
  kWalFsync,        // WAL fdatasync
  kPoolMiss,        // buffer-pool miss: page read from pager
  kPoolEvict,       // buffer-pool eviction write-back on the foreground path
  kCheckpoint,      // whole checkpoint
  kCheckpointCommit,  // checkpoint commit section (statement mutex held)
  kNumKinds
};

constexpr int kNumSpanKinds = static_cast<int>(SpanKind::kNumKinds);

/// Stable dotted name, e.g. "wal.fsync"; used in trace rows and as the
/// `span` label on the registry histogram family.
const char* SpanKindName(SpanKind k);

/// One row of a flattened trace, ready for a ResultSet or pretty-printer.
/// Aggregated events render as depth-1 rows under the root.
struct TraceRow {
  int depth = 0;
  std::string span;
  uint64_t count = 1;
  double total_ms = 0;
};

class TraceContext {
 public:
  TraceContext() = default;
  TraceContext(const TraceContext&) = delete;
  TraceContext& operator=(const TraceContext&) = delete;

  /// Resets to empty, keeping allocations.
  void Clear();

  bool empty() const { return spans_.empty(); }

  /// Opens a span as a child of the innermost open span; returns its index.
  int OpenSpan(SpanKind kind) {
    return OpenSpanAt(kind, static_cast<uint64_t>(NowNanos()));
  }
  /// OpenSpan back-dated to `start_ns` (work timed before the trace was
  /// installed, e.g. the parse that decides whether a statement is traced).
  int OpenSpanAt(SpanKind kind, uint64_t start_ns);

  /// Closes the span (must be the innermost open one) and feeds the
  /// registry histogram for its kind.
  void CloseSpan(int index) {
    CloseSpanAt(index, static_cast<uint64_t>(NowNanos()));
  }
  void CloseSpanAt(int index, uint64_t end_ns);

  /// Thread-safe: folds one timed event into the per-kind aggregate.
  void AddEvent(SpanKind kind, uint64_t duration_ns);

  /// Wall-clock duration of the root span (ns); 0 if none closed yet.
  uint64_t root_duration_ns() const;

  /// Depth-first span rows followed by aggregate-event rows at depth 1.
  std::vector<TraceRow> Flatten() const;

  /// Human-readable indented tree (for the slow-statement log and shell).
  std::string ToTreeString() const;

  /// Sum of `duration_ns` over aggregated events of `kind` (test hook).
  uint64_t EventTotalNs(SpanKind kind) const;
  uint64_t EventCount(SpanKind kind) const;

 private:
  struct SpanNode {
    SpanKind kind;
    int32_t parent;  // -1 for root
    uint64_t start_ns;
    uint64_t duration_ns = 0;
  };
  struct EventAgg {
    RelaxedU64 count;
    RelaxedU64 total_ns;
  };

  std::vector<SpanNode> spans_;
  std::vector<int> open_stack_;
  std::array<EventAgg, kNumSpanKinds> events_;
};

/// The current thread's active trace, or nullptr when tracing is off.
TraceContext* CurrentTrace();

/// Installs `trace` as the current thread's trace for the scope (nullptr
/// to disable tracing within the scope). Restores the previous pointer.
class ScopedTraceInstall {
 public:
  explicit ScopedTraceInstall(TraceContext* trace);
  ~ScopedTraceInstall();
  ScopedTraceInstall(const ScopedTraceInstall&) = delete;
  ScopedTraceInstall& operator=(const ScopedTraceInstall&) = delete;

 private:
  TraceContext* prev_;
};

/// RAII span on the current trace; no-op when tracing is off.
class TraceScope {
 public:
  explicit TraceScope(SpanKind kind) : trace_(CurrentTrace()) {
    if (trace_ != nullptr) index_ = trace_->OpenSpan(kind);
  }
  ~TraceScope() {
    if (trace_ != nullptr) trace_->CloseSpan(index_);
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  TraceContext* trace_;
  int index_ = -1;
};

/// RAII timed event on the current trace (thread-safe, for code reachable
/// from parallel workers or internally-locked subsystems); no-op when
/// tracing is off.
class TraceEventTimer {
 public:
  explicit TraceEventTimer(SpanKind kind)
      : trace_(CurrentTrace()), kind_(kind) {
    if (trace_ != nullptr) start_ns_ = NowNanos();
  }
  ~TraceEventTimer() {
    if (trace_ != nullptr) {
      trace_->AddEvent(kind_, static_cast<uint64_t>(NowNanos() - start_ns_));
    }
  }
  TraceEventTimer(const TraceEventTimer&) = delete;
  TraceEventTimer& operator=(const TraceEventTimer&) = delete;

 private:
  TraceContext* trace_;
  SpanKind kind_;
  int64_t start_ns_ = 0;
};

}  // namespace hazy::obs

#endif  // HAZY_OBS_TRACE_H_
