#include "core/naive_od.h"

#include <algorithm>

#include "common/strings.h"
#include "common/timer.h"
#include "core/scan_pipeline.h"

namespace hazy::core {

Status NaiveODView::BulkLoad(const std::vector<Entity>& entities) {
  HAZY_RETURN_NOT_OK(heap_.Create());
  id_index_.Reserve(entities.size());
  std::string buf;
  for (const auto& e : entities) {
    if (e.id < 0) return Status::InvalidArgument("entity ids must be non-negative");
    if (id_index_.Contains(e.id)) {
      return Status::AlreadyExists(StrFormat("duplicate entity id %lld",
                                             static_cast<long long>(e.id)));
    }
    EntityRecord rec;
    rec.id = e.id;
    rec.eps = model_.Eps(e.features);
    rec.label = ml::SignOf(rec.eps);
    rec.features = e.features;
    EncodeEntityRecord(rec, &buf);
    HAZY_ASSIGN_OR_RETURN(storage::Rid rid, heap_.Append(buf));
    id_index_.Put(e.id, rid);
    ++num_rows_;
  }
  return Status::OK();
}

Status NaiveODView::AddEntity(const Entity& entity) {
  if (entity.id < 0) return Status::InvalidArgument("entity ids must be non-negative");
  if (id_index_.Contains(entity.id)) {
    return Status::AlreadyExists(StrFormat("duplicate entity id %lld",
                                           static_cast<long long>(entity.id)));
  }
  EntityRecord rec;
  rec.id = entity.id;
  rec.eps = model_.Eps(entity.features);
  rec.label = ml::SignOf(rec.eps);
  rec.features = entity.features;
  std::string buf;
  EncodeEntityRecord(rec, &buf);
  HAZY_ASSIGN_OR_RETURN(storage::Rid rid, heap_.Append(buf));
  id_index_.Put(entity.id, rid);
  ++num_rows_;
  return Status::OK();
}

Status NaiveODView::ReclassifyAll() {
  // The eager relabel sweep, page-striped and strip-scored through the scan
  // pipeline (labels are patched in place on each worker's own pages).
  uint64_t scanned = 0;
  HAZY_ASSIGN_OR_RETURN(uint64_t flips,
                        RelabelHeapScan(&heap_, model_, &scanned));
  stats_.tuples_scanned += scanned;
  stats_.label_flips += flips;
  return Status::OK();
}

Status NaiveODView::Update(const ml::LabeledExample& example) {
  Timer timer;
  TrainStep(example);
  if (options_.mode == Mode::kEager) {
    HAZY_RETURN_NOT_OK(ReclassifyAll());
  }
  ++stats_.updates;
  stats_.total_update_seconds += timer.ElapsedSeconds();
  return Status::OK();
}

Status NaiveODView::UpdateBatch(Span<const ml::LabeledExample> batch) {
  if (batch.empty()) return Status::OK();
  Timer timer;
  for (const auto& ex : batch) TrainStep(ex);
  if (options_.mode == Mode::kEager) {
    HAZY_RETURN_NOT_OK(ReclassifyAll());  // one heap scan per batch
  }
  stats_.updates += batch.size();
  ++stats_.batches;
  stats_.total_update_seconds += timer.ElapsedSeconds();
  return Status::OK();
}

StatusOr<int> NaiveODView::SingleEntityRead(int64_t id) {
  ++stats_.single_reads;
  HAZY_ASSIGN_OR_RETURN(storage::Rid rid, id_index_.Get(id));
  ++stats_.reads_from_store;
  if (options_.mode == Mode::kEager) {
    HAZY_ASSIGN_OR_RETURN(EntityHeader h, ReadEntityHeader(heap_, rid));
    return h.label;
  }
  return ClassifyRecordAt(heap_, rid, model_);
}

StatusOr<std::vector<int64_t>> NaiveODView::AllMembers(int label) {
  ++stats_.all_members_queries;
  if (options_.mode == Mode::kEager) {
    // Labels are materialized; a header-only pass suffices (overflow
    // feature payloads are never touched).
    std::vector<int64_t> out;
    out.reserve(num_rows_);
    Status inner;
    HAZY_RETURN_NOT_OK(heap_.ScanHeads([&](storage::Rid, std::string_view head, bool) {
      ++stats_.tuples_scanned;
      auto h = DecodeEntityHeader(head);
      if (!h.ok()) {
        inner = h.status();
        return false;
      }
      if (h->label == label) out.push_back(h->id);
      return true;
    }));
    HAZY_RETURN_NOT_OK(inner);
    return out;
  }
  // Lazy: the whole heap is rescored through the zero-copy pipeline.
  std::vector<std::vector<int64_t>> chunks(HeapScanChunks(heap_));
  for (auto& c : chunks) c.reserve(num_rows_ / chunks.size() + 1);
  HAZY_RETURN_NOT_OK(ScoreHeapScan(
      heap_, model_, [&](size_t chunk, const ScoredRow& row) {
        if (ml::SignOf(row.eps) == label) chunks[chunk].push_back(row.id);
      }));
  std::vector<int64_t> out;
  out.reserve(num_rows_);
  for (const auto& c : chunks) out.insert(out.end(), c.begin(), c.end());
  stats_.tuples_scanned += num_rows_;
  return out;
}

StatusOr<uint64_t> NaiveODView::AllMembersCount(int label) {
  ++stats_.all_members_queries;
  if (options_.mode == Mode::kEager) {
    uint64_t n = 0;
    Status inner;
    HAZY_RETURN_NOT_OK(heap_.ScanHeads([&](storage::Rid, std::string_view head, bool) {
      ++stats_.tuples_scanned;
      auto h = DecodeEntityHeader(head);
      if (!h.ok()) {
        inner = h.status();
        return false;
      }
      if (h->label == label) ++n;
      return true;
    }));
    HAZY_RETURN_NOT_OK(inner);
    return n;
  }
  std::vector<uint64_t> counts(HeapScanChunks(heap_), 0);
  HAZY_RETURN_NOT_OK(ScoreHeapScan(
      heap_, model_, [&](size_t chunk, const ScoredRow& row) {
        if (ml::SignOf(row.eps) == label) ++counts[chunk];
      }));
  stats_.tuples_scanned += num_rows_;
  uint64_t n = 0;
  for (uint64_t c : counts) n += c;
  return n;
}

size_t NaiveODView::MemoryBytes() const { return id_index_.ApproxBytes(); }

}  // namespace hazy::core
