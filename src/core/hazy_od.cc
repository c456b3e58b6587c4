#include "core/hazy_od.h"

#include <algorithm>

#include "common/strings.h"
#include "common/timer.h"
#include "core/scan_pipeline.h"

namespace hazy::core {

namespace {
storage::BtKey KeyFor(double eps, int64_t id) {
  return storage::BtKey{eps, static_cast<uint64_t>(id)};
}
}  // namespace

Status HazyODView::FetchRecord(storage::Rid rid, EntityRecord* rec) const {
  std::string buf;
  HAZY_RETURN_NOT_OK(heap_->Get(rid, &buf));
  HAZY_ASSIGN_OR_RETURN(*rec, DecodeEntityRecord(buf));
  return Status::OK();
}

Status HazyODView::BulkLoad(const std::vector<Entity>& entities) {
  HAZY_RETURN_NOT_OK(heap_->Create());
  HAZY_RETURN_NOT_OK(tree_->Create());
  const double q = ml::HolderConjugate(options_.holder_p);

  std::vector<EntityRecord> records;
  records.reserve(entities.size());
  for (const auto& e : entities) {
    if (e.id < 0) return Status::InvalidArgument("entity ids must be non-negative");
    EntityRecord rec;
    rec.id = e.id;
    rec.eps = model_.Eps(e.features);
    rec.label = ml::SignOf(rec.eps);
    rec.features = e.features;
    max_norm_q_ = std::max(max_norm_q_, e.features.Norm(q));
    records.push_back(std::move(rec));
  }
  water_.SetM(max_norm_q_);

  Timer timer;
  std::sort(records.begin(), records.end(), [](const EntityRecord& a, const EntityRecord& b) {
    if (a.eps != b.eps) return a.eps < b.eps;
    return a.id < b.id;
  });
  id_index_.Reserve(records.size());
  std::vector<std::pair<storage::BtKey, uint64_t>> tree_entries;
  tree_entries.reserve(records.size());
  std::vector<storage::Rid> rids;
  rids.reserve(records.size());
  std::string buf;
  for (const auto& rec : records) {
    if (id_index_.Contains(rec.id)) {
      return Status::AlreadyExists(StrFormat("duplicate entity id %lld",
                                             static_cast<long long>(rec.id)));
    }
    EncodeEntityRecord(rec, &buf);
    HAZY_ASSIGN_OR_RETURN(storage::Rid rid, heap_->Append(buf));
    id_index_.Put(rec.id, rid);
    tree_entries.emplace_back(KeyFor(rec.eps, rec.id), rid.Pack());
    rids.push_back(rid);
  }
  HAZY_RETURN_NOT_OK(tree_->BulkLoad(tree_entries));
  num_rows_ = records.size();
  water_.Reorganize(model_);
  strategy_->OnReorganize();
  double elapsed = timer.ElapsedSeconds();
  reorg_cost_ = options_.cost_model == CostModel::kMeasuredTime
                    ? elapsed
                    : static_cast<double>(num_rows_);
  stats_.last_reorg_cost = reorg_cost_;
  OnReorganized(records, rids);
  return Status::OK();
}

Status HazyODView::Reorganize() {
  obs::TraceScope sweep_span(obs::SpanKind::kRelabelSweep);
  Timer timer;
  // Materialize everything, re-score under the current model, re-cluster.
  std::vector<EntityRecord> records;
  records.reserve(num_rows_);
  Status inner;
  HAZY_RETURN_NOT_OK(heap_->Scan([&](storage::Rid, std::string_view bytes) {
    auto rec = DecodeEntityRecord(bytes);
    if (!rec.ok()) {
      inner = rec.status();
      return false;
    }
    records.push_back(std::move(*rec));
    return true;
  }));
  HAZY_RETURN_NOT_OK(inner);
  for (auto& rec : records) {
    rec.eps = model_.Eps(rec.features);
    rec.label = ml::SignOf(rec.eps);
  }
  std::sort(records.begin(), records.end(), [](const EntityRecord& a, const EntityRecord& b) {
    if (a.eps != b.eps) return a.eps < b.eps;
    return a.id < b.id;
  });

  HAZY_RETURN_NOT_OK(heap_->Truncate());
  id_index_.Clear();
  id_index_.Reserve(records.size());
  std::vector<std::pair<storage::BtKey, uint64_t>> tree_entries;
  tree_entries.reserve(records.size());
  std::vector<storage::Rid> rids;
  rids.reserve(records.size());
  std::string buf;
  for (const auto& rec : records) {
    EncodeEntityRecord(rec, &buf);
    HAZY_ASSIGN_OR_RETURN(storage::Rid rid, heap_->Append(buf));
    id_index_.Put(rec.id, rid);
    tree_entries.emplace_back(KeyFor(rec.eps, rec.id), rid.Pack());
    rids.push_back(rid);
  }
  HAZY_RETURN_NOT_OK(tree_->BulkLoad(tree_entries));

  water_.Reorganize(model_);
  strategy_->OnReorganize();
  ++stats_.reorgs;
  double elapsed = timer.ElapsedSeconds();
  stats_.total_reorg_seconds += elapsed;
  reorg_cost_ = options_.cost_model == CostModel::kMeasuredTime
                    ? elapsed
                    : static_cast<double>(num_rows_);
  stats_.last_reorg_cost = reorg_cost_;
  OnReorganized(records, rids);
  return Status::OK();
}

Status HazyODView::ClassifyWindow(const std::vector<WindowEntry>& window,
                                  std::vector<int8_t>* labels) {
  return ClassifyRids(*heap_, model_, window, labels);
}

StatusOr<uint64_t> HazyODView::ReclassifyWindow(const std::vector<WindowEntry>& window) {
  return RelabelRids(heap_.get(), model_, window);
}

StatusOr<int> HazyODView::ReadWindowLabel(int64_t id, storage::Rid rid) {
  (void)id;
  // The materialized label lives in the fixed header, which is inline even
  // for overflow records — no record copy, no overflow chase.
  HAZY_ASSIGN_OR_RETURN(EntityHeader h, ReadEntityHeader(*heap_, rid));
  return h.label;
}

StatusOr<uint64_t> HazyODView::IncrementalStep() {
  const double lw = water_.low_water();
  const double hw = water_.high_water();
  // Collect the window first: reclassification patches pages and we keep
  // the tree iteration pin-discipline simple. Leaf-array iteration
  // (ScanFrom) walks each leaf's packed entry array directly — no per-key
  // cursor step — and stops at the high-water mark.
  std::vector<WindowEntry> window;
  HAZY_RETURN_NOT_OK(
      tree_->ScanFrom(KeyFor(lw, 0), [&](const storage::BtKey& k, uint64_t v) {
        if (k.k >= hw) return false;
        window.emplace_back(static_cast<int64_t>(k.tie), storage::Rid::Unpack(v));
        return true;
      }));
  HAZY_ASSIGN_OR_RETURN(uint64_t flips, ReclassifyWindow(window));
  stats_.label_flips += flips;
  stats_.window_tuples += window.size();
  ++stats_.incremental_steps;
  return window.size();
}

Status HazyODView::AddEntity(const Entity& entity) {
  if (entity.id < 0) return Status::InvalidArgument("entity ids must be non-negative");
  if (id_index_.Contains(entity.id)) {
    return Status::AlreadyExists(StrFormat("duplicate entity id %lld",
                                           static_cast<long long>(entity.id)));
  }
  const double q = ml::HolderConjugate(options_.holder_p);
  double norm = entity.features.Norm(q);

  EntityRecord rec;
  rec.id = entity.id;
  rec.eps = water_.stored_model().Eps(entity.features);
  rec.label = model_.Classify(entity.features);
  rec.features = entity.features;
  std::string buf;
  EncodeEntityRecord(rec, &buf);
  HAZY_ASSIGN_OR_RETURN(storage::Rid rid, heap_->Append(buf));
  id_index_.Put(rec.id, rid);
  HAZY_RETURN_NOT_OK(tree_->Insert(KeyFor(rec.eps, rec.id), rid.Pack()));
  ++num_rows_;
  OnEntityAppended(rec, rid);

  if (norm > max_norm_q_) {
    // Larger M invalidates the accumulated water lines; re-cluster.
    max_norm_q_ = norm;
    water_.SetM(max_norm_q_);
    HAZY_RETURN_NOT_OK(Reorganize());
  }
  return Status::OK();
}

Status HazyODView::MaintainEager() {
  if (strategy_->ShouldReorganize(reorg_cost_)) {
    return Reorganize();
  }
  Timer inc;
  HAZY_ASSIGN_OR_RETURN(uint64_t n, IncrementalStep());
  double cost = options_.cost_model == CostModel::kMeasuredTime
                    ? inc.ElapsedSeconds()
                    : static_cast<double>(n);
  strategy_->OnIncrementalCost(cost);
  return Status::OK();
}

Status HazyODView::Update(const ml::LabeledExample& example) {
  Timer timer;
  TrainStep(example);
  water_.Advance(model_);
  if (options_.mode == Mode::kEager) {
    HAZY_RETURN_NOT_OK(MaintainEager());
  }
  ++stats_.updates;
  stats_.total_update_seconds += timer.ElapsedSeconds();
  return Status::OK();
}

Status HazyODView::UpdateBatch(Span<const ml::LabeledExample> batch) {
  if (batch.empty()) return Status::OK();
  if (!options_.monotone_water) {
    // The two-round bounds (Appendix B.3) are only sound when every round's
    // window is relabeled; amortizing across a batch skips rounds.
    for (const auto& ex : batch) {
      HAZY_RETURN_NOT_OK(Update(ex));
    }
    ++stats_.batches;
    return Status::OK();
  }
  Timer timer;
  for (const auto& ex : batch) {
    TrainStep(ex);
    // Monotone water is a running min/max over rounds; advancing per
    // example widens the window to cover the whole batch's drift, while
    // the expensive B+-tree range pass below runs once.
    water_.Advance(model_);
  }
  if (options_.mode == Mode::kEager) {
    HAZY_RETURN_NOT_OK(MaintainEager());
  }
  stats_.updates += batch.size();
  ++stats_.batches;
  stats_.total_update_seconds += timer.ElapsedSeconds();
  return Status::OK();
}

StatusOr<int> HazyODView::SingleEntityRead(int64_t id) {
  ++stats_.single_reads;
  HAZY_ASSIGN_OR_RETURN(storage::Rid rid, id_index_.Get(id));
  HAZY_ASSIGN_OR_RETURN(EntityHeader h, ReadEntityHeader(*heap_, rid));
  if (options_.mode == Mode::kEager) {
    ++stats_.reads_from_store;
    return h.label;
  }
  if (water_.CertainPositive(h.eps)) {
    ++stats_.reads_by_bounds;
    return 1;
  }
  if (water_.CertainNegative(h.eps)) {
    ++stats_.reads_by_bounds;
    return -1;
  }
  ++stats_.reads_from_store;
  return ClassifyRecordAt(*heap_, rid, model_);
}

StatusOr<uint64_t> HazyODView::LazyMembersScan(int label, std::vector<int64_t>* out) {
  if (strategy_->ShouldReorganize(reorg_cost_)) HAZY_RETURN_NOT_OK(Reorganize());
  obs::TraceScope scan_span(obs::SpanKind::kLazyScan);
  Timer timer;
  const double lw = water_.low_water();
  const double hw = water_.high_water();
  uint64_t matched = 0;
  uint64_t positives = 0;
  uint64_t nr = 0;

  if (label == -1) {
    // Everything below lw is certainly negative: ids come straight from the
    // index entries, no heap access (leaf-array iteration, early exit at lw).
    HAZY_RETURN_NOT_OK(tree_->ScanFrom(
        storage::BtKey::Min(), [&](const storage::BtKey& k, uint64_t) {
          if (k.k >= lw) return false;
          if (out != nullptr) out->push_back(static_cast<int64_t>(k.tie));
          ++matched;
          return true;
        }));
  }

  std::vector<WindowEntry> window;
  HAZY_RETURN_NOT_OK(
      tree_->ScanFrom(KeyFor(lw, 0), [&](const storage::BtKey& k, uint64_t v) {
        ++nr;
        int64_t id = static_cast<int64_t>(k.tie);
        if (k.k >= hw) {
          ++positives;
          if (label == 1) {
            if (out != nullptr) out->push_back(id);
            ++matched;
          }
        } else {
          window.emplace_back(id, storage::Rid::Unpack(v));
        }
        return true;
      }));
  // Only the window needs the current model: batch it through the parallel
  // zero-copy pipeline instead of fetching record copies one by one.
  std::vector<int8_t> window_labels;
  HAZY_RETURN_NOT_OK(ClassifyWindow(window, &window_labels));
  stats_.window_tuples += window.size();
  for (size_t i = 0; i < window.size(); ++i) {
    int l = window_labels[i];
    if (l == 1) ++positives;
    if (l == label) {
      if (out != nullptr) out->push_back(window[i].first);
      ++matched;
    }
  }
  stats_.tuples_scanned += nr;

  double cost = 0.0;
  if (nr > 0) {
    double waste_frac = static_cast<double>(nr - positives) / static_cast<double>(nr);
    cost = options_.cost_model == CostModel::kMeasuredTime
               ? waste_frac * timer.ElapsedSeconds()
               : static_cast<double>(nr - positives);
  }
  strategy_->OnIncrementalCost(cost);
  return matched;
}

StatusOr<uint64_t> HazyODView::EagerMembersScan(int label, std::vector<int64_t>* out) {
  const double lw = water_.low_water();
  const double hw = water_.high_water();
  uint64_t matched = 0;
  std::vector<WindowEntry> window;
  HAZY_RETURN_NOT_OK(tree_->ScanFrom(
      storage::BtKey::Min(), [&](const storage::BtKey& k, uint64_t v) {
        int64_t id = static_cast<int64_t>(k.tie);
        if (k.k < lw) {
          if (label == -1) {
            if (out != nullptr) out->push_back(id);
            ++matched;
          }
        } else if (k.k >= hw) {
          if (label == 1) {
            if (out != nullptr) out->push_back(id);
            ++matched;
          }
        } else {
          window.emplace_back(id, storage::Rid::Unpack(v));
        }
        return true;
      }));
  // Window tuples: labels are materialized (eager invariant); read headers.
  for (const auto& [id, rid] : window) {
    HAZY_ASSIGN_OR_RETURN(int l, ReadWindowLabel(id, rid));
    ++stats_.window_tuples;
    if (l == label) {
      if (out != nullptr) out->push_back(id);
      ++matched;
    }
  }
  stats_.tuples_scanned += num_rows_;
  return matched;
}

StatusOr<std::vector<int64_t>> HazyODView::AllMembers(int label) {
  ++stats_.all_members_queries;
  std::vector<int64_t> out;
  out.reserve(num_rows_);
  if (options_.mode == Mode::kLazy) {
    HAZY_RETURN_NOT_OK(LazyMembersScan(label, &out).status());
  } else {
    HAZY_RETURN_NOT_OK(EagerMembersScan(label, &out).status());
  }
  std::sort(out.begin(), out.end());
  return out;
}

StatusOr<uint64_t> HazyODView::AllMembersCount(int label) {
  ++stats_.all_members_queries;
  if (options_.mode == Mode::kLazy) {
    return LazyMembersScan(label, nullptr);
  }
  return EagerMembersScan(label, nullptr);
}

size_t HazyODView::MemoryBytes() const { return id_index_.ApproxBytes(); }

}  // namespace hazy::core
