#include "core/naive_mm.h"

#include "common/parallel.h"
#include "common/strings.h"
#include "common/timer.h"
#include "core/scan_pipeline.h"

namespace hazy::core {

Status NaiveMMView::BulkLoad(const std::vector<Entity>& entities) {
  rows_.clear();
  index_.clear();
  rows_.reserve(entities.size());
  index_.reserve(entities.size());
  for (const auto& e : entities) {
    if (index_.count(e.id) > 0) {
      return Status::AlreadyExists(StrFormat("duplicate entity id %lld",
                                             static_cast<long long>(e.id)));
    }
    index_[e.id] = rows_.size();
    rows_.push_back(Row{e.id, model_.Classify(e.features), e.features});
  }
  return Status::OK();
}

Status NaiveMMView::AddEntity(const Entity& entity) {
  if (index_.count(entity.id) > 0) {
    return Status::AlreadyExists(StrFormat("duplicate entity id %lld",
                                           static_cast<long long>(entity.id)));
  }
  index_[entity.id] = rows_.size();
  rows_.push_back(Row{entity.id, model_.Classify(entity.features), entity.features});
  return Status::OK();
}

void NaiveMMView::ClassifyAllRows(std::vector<int8_t>* labels) const {
  labels->resize(rows_.size());
  ClassifyRange(rows_.size(), model_, kDefaultMinParallelRows,
                [&](size_t i) -> const ml::FeatureVector& { return rows_[i].features; },
                labels->data());
}

void NaiveMMView::ReclassifyAll() {
  obs::TraceScope sweep_span(obs::SpanKind::kRelabelSweep);
  std::vector<int8_t> labels;
  ClassifyAllRows(&labels);
  uint64_t flips = 0;
  for (size_t i = 0; i < rows_.size(); ++i) {
    if (labels[i] != rows_[i].label) ++flips;
    rows_[i].label = labels[i];
  }
  stats_.label_flips += flips;
  stats_.tuples_scanned += rows_.size();
}

Status NaiveMMView::Update(const ml::LabeledExample& example) {
  Timer timer;
  TrainStep(example);
  if (options_.mode == Mode::kEager) {
    ReclassifyAll();
  }
  ++stats_.updates;
  stats_.total_update_seconds += timer.ElapsedSeconds();
  return Status::OK();
}

Status NaiveMMView::UpdateBatch(Span<const ml::LabeledExample> batch) {
  if (batch.empty()) return Status::OK();
  Timer timer;
  for (const auto& ex : batch) TrainStep(ex);
  if (options_.mode == Mode::kEager) {
    ReclassifyAll();  // one full relabel per batch, not per example
  }
  stats_.updates += batch.size();
  ++stats_.batches;
  stats_.total_update_seconds += timer.ElapsedSeconds();
  return Status::OK();
}

StatusOr<int> NaiveMMView::SingleEntityRead(int64_t id) {
  ++stats_.single_reads;
  auto it = index_.find(id);
  if (it == index_.end()) {
    return Status::NotFound(StrFormat("no entity %lld", static_cast<long long>(id)));
  }
  ++stats_.reads_from_store;
  const Row& r = rows_[it->second];
  if (options_.mode == Mode::kEager) return r.label;
  return model_.Classify(r.features);
}

StatusOr<std::vector<int64_t>> NaiveMMView::AllMembers(int label) {
  ++stats_.all_members_queries;
  std::vector<int64_t> out;
  out.reserve(rows_.size());
  if (options_.mode == Mode::kEager) {
    for (const auto& r : rows_) {
      if (r.label == label) out.push_back(r.id);
    }
  } else {
    // Lazy: the classification pass dominates; shard it, then collect ids
    // in row order.
    obs::TraceScope scan_span(obs::SpanKind::kLazyScan);
    std::vector<int8_t> labels;
    ClassifyAllRows(&labels);
    for (size_t i = 0; i < rows_.size(); ++i) {
      if (labels[i] == label) out.push_back(rows_[i].id);
    }
  }
  stats_.tuples_scanned += rows_.size();
  return out;
}

StatusOr<uint64_t> NaiveMMView::AllMembersCount(int label) {
  ++stats_.all_members_queries;
  uint64_t n = 0;
  if (options_.mode == Mode::kEager) {
    for (const auto& r : rows_) {
      if (r.label == label) ++n;
    }
  } else {
    obs::TraceScope scan_span(obs::SpanKind::kLazyScan);
    std::vector<int8_t> labels;
    ClassifyAllRows(&labels);
    for (int8_t l : labels) {
      if (l == label) ++n;
    }
  }
  stats_.tuples_scanned += rows_.size();
  return n;
}

size_t NaiveMMView::MemoryBytes() const {
  size_t b = rows_.capacity() * sizeof(Row) +
             index_.size() * (sizeof(int64_t) + sizeof(size_t) + 2 * sizeof(void*));
  for (const auto& r : rows_) b += r.features.ApproxBytes() - sizeof(ml::FeatureVector);
  return b;
}

}  // namespace hazy::core
