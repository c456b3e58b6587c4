#include "core/scan_pipeline.h"

#include <algorithm>

namespace hazy::core {

size_t HeapScanChunks(const storage::HeapFile& heap) {
  // Clamp workers so their pinned working sets (pin budget + live cursor
  // each) fit comfortably inside the pool.
  size_t by_pages = ParallelChunkCount(heap.num_data_pages(), kMinParallelPages);
  size_t by_capacity = std::max<size_t>(1, heap.buffer_pool()->capacity() / 8);
  return std::min(by_pages, by_capacity);
}

StatusOr<uint64_t> RelabelHeapScan(storage::HeapFile* heap,
                                   const ml::LinearModel& model,
                                   uint64_t* rows_scanned) {
  obs::TraceScope sweep_span(obs::SpanKind::kRelabelSweep);
  HAZY_RETURN_NOT_OK(heap->EnsurePageIds());
  const std::vector<uint32_t>& pages = heap->PageIds();
  const size_t nchunks = HeapScanChunks(*heap);
  std::vector<Status> statuses(nchunks);
  std::vector<uint64_t> flips(nchunks, 0);
  std::vector<uint64_t> rows(nchunks, 0);
  // Overflow records cannot be scored from their stub head; collect them per
  // chunk and finish them sequentially below (rare by design).
  std::vector<std::vector<storage::Rid>> deferred(nchunks);

  RunChunks(pages.size(), nchunks, [&](size_t chunk, size_t begin, size_t end) {
    std::vector<ml::FeatureVectorView> views;
    std::vector<char*> heads;
    std::vector<size_t> head_sizes;
    std::vector<int32_t> stored;
    std::vector<double> eps;
    views.reserve(kScoreStripSize);
    for (size_t p = begin; p < end; ++p) {
      auto cur = heap->OpenPage(pages[p]);
      if (!cur.ok()) {
        statuses[chunk] = cur.status();
        return;
      }
      // One strip per page: heads stay valid while the cursor pins it.
      views.clear();
      heads.clear();
      head_sizes.clear();
      stored.clear();
      bool dirtied = false;
      auto flush = [&]() {
        if (views.empty()) return;
        eps.resize(views.size());
        ml::simd::ScoreStrip(views.data(), views.size(), model.w, model.b,
                             eps.data());
        for (size_t i = 0; i < views.size(); ++i) {
          int32_t label = ml::SignOf(eps[i]);
          if (label != stored[i]) {
            ++flips[chunk];
            PatchLabel(heads[i], head_sizes[i], label);
            dirtied = true;
          }
        }
        views.clear();
        heads.clear();
        head_sizes.clear();
        stored.clear();
      };
      while (cur->Next()) {
        ++rows[chunk];
        if (cur->partial()) {
          deferred[chunk].push_back(cur->rid());
          continue;
        }
        if (views.size() >= kScoreStripSize) flush();
        auto rec = DecodeEntityRecordView(cur->bytes());
        if (!rec.ok()) {
          statuses[chunk] = rec.status();
          return;
        }
        views.push_back(rec->features);
        heads.push_back(cur->mutable_head());
        head_sizes.push_back(cur->head_size());
        stored.push_back(rec->label);
      }
      if (!cur->status().ok()) {
        statuses[chunk] = cur->status();
        return;
      }
      flush();
      if (dirtied) cur->MarkDirty();
    }
  });
  for (const Status& s : statuses) {
    HAZY_RETURN_NOT_OK(s);
  }

  uint64_t total_flips = 0;
  uint64_t total_rows = 0;
  for (size_t c = 0; c < nchunks; ++c) {
    total_flips += flips[c];
    total_rows += rows[c];
  }
  for (const auto& chunk_rids : deferred) {
    for (storage::Rid rid : chunk_rids) {
      int label = 0;
      int32_t old_label = 0;
      HAZY_RETURN_NOT_OK(heap->WithRecord(rid, [&](std::string_view bytes) {
        auto rec = DecodeEntityRecordView(bytes);
        if (!rec.ok()) {
          label = 0;  // flagged below
          return;
        }
        old_label = rec->label;
        label = ml::SignOf(rec->features.Dot(model.w) - model.b);
      }));
      if (label == 0) return Status::Corruption("overflow entity record truncated");
      if (label != old_label) {
        ++total_flips;
        HAZY_RETURN_NOT_OK(heap->Patch(
            rid, [&](char* head, size_t size) { PatchLabel(head, size, label); }));
      }
    }
  }
  if (rows_scanned != nullptr) *rows_scanned += total_rows;
  return total_flips;
}

Status ClassifyRids(const storage::HeapFile& heap, const ml::LinearModel& model,
                    const std::vector<std::pair<int64_t, storage::Rid>>& rids,
                    std::vector<int8_t>* labels) {
  obs::TraceScope window_span(obs::SpanKind::kWindowStep);
  labels->resize(rids.size());
  // Each worker pins at most one data page plus a transient overflow
  // fetch; capacity/4 leaves headroom for pins the caller still holds
  // (e.g. the B+-tree leaf of the iterator that produced the window).
  const size_t nchunks =
      std::min(ParallelChunkCount(rids.size(), kDefaultMinParallelRows / 8),
               std::max<size_t>(1, heap.buffer_pool()->capacity() / 4));
  std::vector<Status> statuses(nchunks);
  RunChunks(rids.size(), nchunks, [&](size_t chunk, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      Status s = heap.WithRecord(rids[i].second, [&](std::string_view bytes) {
        auto rec = DecodeEntityRecordView(bytes);
        if (!rec.ok()) {
          statuses[chunk] = rec.status();
          return;
        }
        (*labels)[i] = static_cast<int8_t>(
            ml::SignOf(rec->features.Dot(model.w) - model.b));
      });
      if (!s.ok()) {
        statuses[chunk] = s;
        return;
      }
      if (!statuses[chunk].ok()) return;
    }
  });
  for (const Status& s : statuses) {
    HAZY_RETURN_NOT_OK(s);
  }
  return Status::OK();
}

StatusOr<uint64_t> RelabelRids(storage::HeapFile* heap, const ml::LinearModel& model,
                               const std::vector<std::pair<int64_t, storage::Rid>>& rids) {
  obs::TraceScope window_span(obs::SpanKind::kWindowStep);
  // capacity/4: see ClassifyRids — headroom for caller-held pins.
  const size_t min_parallel = kDefaultMinParallelRows / 8;
  const size_t nchunks =
      std::min(ParallelChunkCount(rids.size(), min_parallel),
               std::max<size_t>(1, heap->buffer_pool()->capacity() / 4));
  std::vector<Status> statuses(nchunks);
  std::vector<uint64_t> flips(nchunks, 0);
  RunChunks(rids.size(), nchunks, [&](size_t chunk, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      storage::Rid rid = rids[i].second;
      int label = 0;
      int32_t old_label = 0;
      Status s = heap->WithRecord(rid, [&](std::string_view bytes) {
        auto rec = DecodeEntityRecordView(bytes);
        if (!rec.ok()) {
          statuses[chunk] = rec.status();
          return;
        }
        old_label = rec->label;
        label = ml::SignOf(rec->features.Dot(model.w) - model.b);
      });
      if (!s.ok()) {
        statuses[chunk] = s;
        return;
      }
      if (!statuses[chunk].ok()) return;
      if (label != old_label) {
        ++flips[chunk];
        s = heap->Patch(
            rid, [&](char* head, size_t size) { PatchLabel(head, size, label); });
        if (!s.ok()) {
          statuses[chunk] = s;
          return;
        }
      }
    }
  });
  for (const Status& s : statuses) {
    HAZY_RETURN_NOT_OK(s);
  }
  uint64_t total = 0;
  for (uint64_t f : flips) total += f;
  return total;
}

StatusOr<EntityHeader> ReadEntityHeader(const storage::HeapFile& heap,
                                        storage::Rid rid) {
  EntityHeader header;
  Status inner;
  HAZY_RETURN_NOT_OK(heap.WithRecordHead(rid, [&](std::string_view head, bool) {
    auto h = DecodeEntityHeader(head);
    if (!h.ok()) {
      inner = h.status();
      return;
    }
    header = *h;
  }));
  HAZY_RETURN_NOT_OK(inner);
  return header;
}

StatusOr<int> ClassifyRecordAt(const storage::HeapFile& heap, storage::Rid rid,
                               const ml::LinearModel& model) {
  int label = 0;
  Status inner;
  HAZY_RETURN_NOT_OK(heap.WithRecord(rid, [&](std::string_view bytes) {
    auto rec = DecodeEntityRecordView(bytes);
    if (!rec.ok()) {
      inner = rec.status();
      return;
    }
    label = ml::SignOf(rec->features.Dot(model.w) - model.b);
  }));
  HAZY_RETURN_NOT_OK(inner);
  return label;
}

}  // namespace hazy::core
