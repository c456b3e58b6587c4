// The shared read-path machinery (this repo's F-IVM-style tight-loop
// discipline): every architecture's hot scan — lazy AllMembers, eager
// relabel sweeps, window reclassification — funnels through here instead of
// hand-rolling a decode-allocate-score loop per view.
//
// The pipeline composes three levers:
//   1. zero-copy: tuples are scored through FeatureVectorView straight out
//      of the pinned page (or the MM row's own arrays) — no per-tuple
//      FeatureVector allocation, no payload copies;
//   2. strips: views are batched and scored kScoreStripSize at a time
//      through ml/simd.h ScoreStrip (AVX2/FMA when built in), keeping the
//      weight vector hot and the dispatch cost amortized;
//   3. striping: heap scans partition the page chain across the shared
//      ThreadPool (pages are the natural stripe: each worker pins only its
//      own pages, so the relabel sweep can even patch in place without
//      locking record bytes).

#ifndef HAZY_CORE_SCAN_PIPELINE_H_
#define HAZY_CORE_SCAN_PIPELINE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/status.h"
#include "core/entity_record.h"
#include "ml/model.h"
#include "ml/simd.h"
#include "ml/vector.h"
#include "obs/trace.h"
#include "storage/heap_file.h"

namespace hazy::core {

/// Views scored per ScoreStrip flush.
inline constexpr size_t kScoreStripSize = 256;

/// Pages a scan worker may keep pinned to let one strip span page
/// boundaries (dense pages hold only ~17 records; flushing per page would
/// forfeit most of the strip's batching).
inline constexpr size_t kMaxStripPins = 8;

/// Minimum data pages before a heap scan is striped across the pool: below
/// this the per-chunk latch costs more than it saves.
inline constexpr size_t kMinParallelPages = 8;

/// One scored tuple as emitted by the heap scans.
struct ScoredRow {
  int64_t id = 0;
  storage::Rid rid;
  double eps = 0.0;         ///< under the model passed to the scan
  int32_t stored_label = 1; ///< the label materialized in the record
};

/// Number of chunks ScoreHeapScan will emit into (size per-chunk buffers
/// with this before calling).
size_t HeapScanChunks(const storage::HeapFile& heap);

namespace detail {

/// Accumulates zero-copy views (plus their row identity) and flushes them
/// through one ScoreStrip pass. Bound to a chunk of pages; all views added
/// since the last Flush must still have their backing page pinned. Fixed
/// flat arrays — the Add/Flush pair is the innermost scan loop, so no
/// capacity checks or element construction beyond stores.
template <typename Emit>
class StripScorer {
 public:
  StripScorer(const ml::LinearModel& model, size_t chunk, Emit& emit)
      : model_(model), chunk_(chunk), emit_(emit) {}

  bool full() const { return n_ == kScoreStripSize; }

  void Add(int64_t id, storage::Rid rid, int32_t stored_label,
           const ml::FeatureVectorView& view) {
    views_[n_] = view;
    ids_[n_] = id;
    rids_[n_] = rid;
    labels_[n_] = stored_label;
    ++n_;
  }

  void Flush() {
    if (n_ == 0) return;
    ml::simd::ScoreStrip(views_, n_, model_.w, model_.b, eps_);
    for (size_t i = 0; i < n_; ++i) {
      emit_(chunk_, ScoredRow{ids_[i], rids_[i], eps_[i], labels_[i]});
    }
    n_ = 0;
  }

 private:
  const ml::LinearModel& model_;
  size_t chunk_;
  Emit& emit_;
  size_t n_ = 0;
  ml::FeatureVectorView views_[kScoreStripSize];
  int64_t ids_[kScoreStripSize];
  storage::Rid rids_[kScoreStripSize];
  int32_t labels_[kScoreStripSize];
  double eps_[kScoreStripSize];
};

}  // namespace detail

/// Scores every live record in the heap under `model`, calling
/// emit(chunk_index, ScoredRow) with chunk_index < HeapScanChunks(heap).
/// Chunks are contiguous page ranges processed concurrently on the shared
/// pool; within a chunk, inline rows arrive in heap (page, slot) order, but
/// an overflow record is emitted as soon as it is materialized and may
/// therefore overtake inline neighbors still buffered in a strip — callers
/// needing a total order must sort. `emit` must be safe to call
/// concurrently on distinct chunks and must not touch the heap or its
/// buffer pool. Worker counts and pinned-page budgets are clamped against
/// the pool's capacity so a striped scan cannot exhaust the pool's frames.
template <typename Emit>
Status ScoreHeapScan(const storage::HeapFile& heap, const ml::LinearModel& model,
                     Emit emit) {
  // Every caller of a scoring heap scan is computing labels on demand — the
  // lazy read path — so the span lives here rather than in each view.
  obs::TraceScope scan_span(obs::SpanKind::kLazyScan);
  HAZY_RETURN_NOT_OK(heap.EnsurePageIds());
  const std::vector<uint32_t>& pages = heap.PageIds();
  const size_t nchunks = HeapScanChunks(heap);
  // Each worker may hold pin_budget completed pages plus its live cursor
  // (and a transient overflow fetch); keep the sum well under capacity.
  const size_t pin_budget =
      std::min(kMaxStripPins, heap.buffer_pool()->capacity() / (4 * nchunks));
  std::vector<Status> statuses(nchunks);
  RunChunks(pages.size(), nchunks, [&](size_t chunk, size_t begin, size_t end) {
    detail::StripScorer<Emit> strip(model, chunk, emit);
    // Completed pages whose records are still buffered in the strip stay
    // pinned here until the next flush, so strips span page boundaries.
    std::vector<storage::HeapFile::PageCursor> pins;
    pins.reserve(kMaxStripPins);
    for (size_t p = begin; p < end; ++p) {
      auto cur = heap.OpenPage(pages[p]);
      if (!cur.ok()) {
        statuses[chunk] = cur.status();
        return;
      }
      while (cur->Next()) {
        if (strip.full()) {
          strip.Flush();
          pins.clear();
        }
        if (!cur->partial()) {
          EntityRecordView rec;
          if (!TryDecodeEntityRecordView(cur->bytes(), &rec)) {
            statuses[chunk] = DecodeEntityRecordView(cur->bytes()).status();
            return;
          }
          strip.Add(rec.id, cur->rid(), rec.label, rec.features);
          continue;
        }
        // Overflow record: header lives in the stub head, features must be
        // materialized. Scored on the spot (no strip) — rare by design.
        auto header = DecodeEntityHeader(cur->bytes());
        if (!header.ok()) {
          statuses[chunk] = header.status();
          return;
        }
        storage::Rid rid = cur->rid();
        Status s = heap.WithRecord(rid, [&](std::string_view full) {
          auto rec = DecodeEntityRecordView(full);
          if (!rec.ok()) {
            statuses[chunk] = rec.status();
            return;
          }
          emit(chunk, ScoredRow{rec->id, rid,
                                rec->features.Dot(model.w) - model.b, rec->label});
        });
        if (!s.ok()) {
          statuses[chunk] = s;
          return;
        }
        if (!statuses[chunk].ok()) return;
      }
      if (!cur->status().ok()) {
        statuses[chunk] = cur->status();
        return;
      }
      // Page done but its records may still sit in the strip: keep the pin
      // until the strip flushes (bounded by the capacity-aware budget).
      pins.push_back(std::move(*cur));
      if (pins.size() > pin_budget) {
        strip.Flush();
        pins.clear();
      }
    }
    strip.Flush();
  });
  for (const Status& s : statuses) {
    HAZY_RETURN_NOT_OK(s);
  }
  return Status::OK();
}

/// The eager relabel sweep: rescans the whole heap, rescores every tuple
/// under `model`, and patches flipped labels in place. Page-striped (each
/// worker mutates only its own pinned pages). Returns the number of flips;
/// adds the rows scanned to *rows_scanned when non-null.
StatusOr<uint64_t> RelabelHeapScan(storage::HeapFile* heap,
                                   const ml::LinearModel& model,
                                   uint64_t* rows_scanned);

/// Classifies the records at `rids` under `model` (the window of a lazy
/// scan or an eager incremental step), writing sign labels into
/// labels[i]. Parallel over the window; zero-copy for inline records.
Status ClassifyRids(const storage::HeapFile& heap, const ml::LinearModel& model,
                    const std::vector<std::pair<int64_t, storage::Rid>>& rids,
                    std::vector<int8_t>* labels);

/// Reclassifies the records at `rids` under `model`, patching flipped
/// labels in place. Parallel over the window (workers may share a page but
/// patch disjoint slots). Returns the number of flips.
StatusOr<uint64_t> RelabelRids(storage::HeapFile* heap, const ml::LinearModel& model,
                               const std::vector<std::pair<int64_t, storage::Rid>>& rids);

/// Decodes the fixed entity header at `rid` without copying the record
/// (the header is inline even for overflow records).
StatusOr<EntityHeader> ReadEntityHeader(const storage::HeapFile& heap,
                                        storage::Rid rid);

/// Classifies the record at `rid` under `model` through the zero-copy view
/// (the shared point-read path).
StatusOr<int> ClassifyRecordAt(const storage::HeapFile& heap, storage::Rid rid,
                               const ml::LinearModel& model);

/// Scores n in-memory feature vectors against `model` in parallel strips:
/// eps_out[i] = eps(get(i)) for i in [0, n). `get` must return a stable
/// reference (the row vector itself, not a temporary).
template <typename Getter>
void ScoreRange(size_t n, const ml::LinearModel& model, size_t min_parallel,
                Getter get, double* eps_out) {
  ParallelFor(n, min_parallel, [&](size_t begin, size_t end) {
    std::vector<ml::FeatureVectorView> views;
    views.reserve(std::min(kScoreStripSize, end - begin));
    size_t base = begin;
    for (size_t i = begin; i < end; ++i) {
      if (views.size() == kScoreStripSize) {
        ml::simd::ScoreStrip(views.data(), views.size(), model.w, model.b,
                             eps_out + base);
        base = i;
        views.clear();
      }
      views.push_back(ml::FeatureVectorView::Of(get(i)));
    }
    if (!views.empty()) {
      ml::simd::ScoreStrip(views.data(), views.size(), model.w, model.b,
                           eps_out + base);
    }
  });
}

/// Like ScoreRange but emits sign labels instead of raw eps.
template <typename Getter>
void ClassifyRange(size_t n, const ml::LinearModel& model, size_t min_parallel,
                   Getter get, int8_t* labels_out) {
  ParallelFor(n, min_parallel, [&](size_t begin, size_t end) {
    std::vector<ml::FeatureVectorView> views;
    std::vector<double> eps;
    const size_t cap = std::min(kScoreStripSize, end - begin);
    views.reserve(cap);
    eps.resize(cap);
    size_t base = begin;
    auto flush = [&](size_t upto) {
      ml::simd::ScoreStrip(views.data(), views.size(), model.w, model.b, eps.data());
      for (size_t j = 0; j < views.size(); ++j) {
        labels_out[base + j] = static_cast<int8_t>(ml::SignOf(eps[j]));
      }
      base = upto;
      views.clear();
    };
    for (size_t i = begin; i < end; ++i) {
      if (views.size() == kScoreStripSize) flush(i);
      views.push_back(ml::FeatureVectorView::Of(get(i)));
    }
    if (!views.empty()) flush(end);
  });
}

}  // namespace hazy::core

#endif  // HAZY_CORE_SCAN_PIPELINE_H_
