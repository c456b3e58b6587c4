#include "core/hazy_mm.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "common/parallel.h"
#include "common/strings.h"
#include "common/timer.h"
#include "core/scan_pipeline.h"

namespace hazy::core {

double HazyMMView::ComputeMaxNormQ(const std::vector<Entity>& entities) const {
  const double q = ml::HolderConjugate(options_.holder_p);
  double m = 0.0;
  for (const auto& e : entities) m = std::max(m, e.features.Norm(q));
  return m;
}

Status HazyMMView::BulkLoad(const std::vector<Entity>& entities) {
  rows_.clear();
  index_.clear();
  rows_.reserve(entities.size());
  for (const auto& e : entities) {
    if (index_.count(e.id) > 0) {
      return Status::AlreadyExists(StrFormat("duplicate entity id %lld",
                                             static_cast<long long>(e.id)));
    }
    index_[e.id] = rows_.size();  // fixed up by Reorganize below
    rows_.push_back(Row{e.id, 0.0, 1, e.features});
  }
  max_norm_q_ = ComputeMaxNormQ(entities);
  water_.SetM(max_norm_q_);
  Reorganize();
  // The initial organization is part of loading, not maintenance.
  stats_.reorgs = 0;
  stats_.total_reorg_seconds = 0.0;
  return Status::OK();
}

void HazyMMView::Reorganize() {
  Timer timer;
  // Re-score everything in parallel strips, then derive labels from eps.
  std::vector<double> eps(rows_.size());
  ScoreRange(rows_.size(), model_, kDefaultMinParallelRows,
             [&](size_t i) -> const ml::FeatureVector& { return rows_[i].features; },
             eps.data());
  for (size_t i = 0; i < rows_.size(); ++i) {
    rows_[i].eps = eps[i];
    rows_[i].label = ml::SignOf(eps[i]);
  }
  std::sort(rows_.begin(), rows_.end(), [](const Row& a, const Row& b) {
    if (a.eps != b.eps) return a.eps < b.eps;
    return a.id < b.id;
  });
  index_.clear();
  index_.reserve(rows_.size());
  for (size_t i = 0; i < rows_.size(); ++i) index_[rows_[i].id] = i;
  water_.Reorganize(model_);
  strategy_->OnReorganize();
  ++stats_.reorgs;
  double elapsed = timer.ElapsedSeconds();
  stats_.total_reorg_seconds += elapsed;
  reorg_cost_ = options_.cost_model == CostModel::kMeasuredTime
                    ? elapsed
                    : static_cast<double>(rows_.size());
  stats_.last_reorg_cost = reorg_cost_;
}

size_t HazyMMView::LowerBound(double x) const {
  size_t lo = 0, hi = rows_.size();
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (rows_[mid].eps < x) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

size_t HazyMMView::WindowSize() const {
  return LowerBound(water_.high_water()) - LowerBound(water_.low_water());
}

size_t HazyMMView::IncrementalStep() {
  const size_t lo = LowerBound(water_.low_water());
  const size_t hi = LowerBound(water_.high_water());
  uint64_t flips = 0;
  if (hi - lo <= 64) {
    // Warm-model windows are tiny (a handful of rows per update); a plain
    // loop avoids the strip path's scratch allocations on this hot path.
    // model_.Classify routes through the same kernels, so the labels are
    // bit-for-bit the ones ClassifyRange would produce.
    for (size_t i = lo; i < hi; ++i) {
      Row& r = rows_[i];
      int label = model_.Classify(r.features);
      if (label != r.label) ++flips;
      r.label = label;
    }
  } else {
    // The window is contiguous in the eps-clustered layout; strip-score
    // it, sharding across the pool when it is wide enough to pay off.
    std::vector<int8_t> labels(hi - lo);
    ClassifyRange(hi - lo, model_, kDefaultMinParallelRows,
                  [&](size_t i) -> const ml::FeatureVector& {
                    return rows_[lo + i].features;
                  },
                  labels.data());
    for (size_t i = lo; i < hi; ++i) {
      if (labels[i - lo] != rows_[i].label) ++flips;
      rows_[i].label = labels[i - lo];
    }
  }
  stats_.label_flips += flips;
  stats_.window_tuples += hi - lo;
  ++stats_.incremental_steps;
  return hi - lo;
}

Status HazyMMView::AddEntity(const Entity& entity) {
  if (index_.count(entity.id) > 0) {
    return Status::AlreadyExists(StrFormat("duplicate entity id %lld",
                                           static_cast<long long>(entity.id)));
  }
  const double q = ml::HolderConjugate(options_.holder_p);
  double norm = entity.features.Norm(q);

  Row r;
  r.id = entity.id;
  r.eps = water_.stored_model().Eps(entity.features);
  r.label = model_.Classify(entity.features);
  r.features = entity.features;

  auto pos_it = std::lower_bound(
      rows_.begin(), rows_.end(), r, [](const Row& a, const Row& b) {
        if (a.eps != b.eps) return a.eps < b.eps;
        return a.id < b.id;
      });
  size_t pos = static_cast<size_t>(pos_it - rows_.begin());
  rows_.insert(pos_it, std::move(r));
  for (size_t i = pos; i < rows_.size(); ++i) index_[rows_[i].id] = i;

  if (norm > max_norm_q_) {
    // A larger M invalidates the accumulated water lines (they were built
    // with the smaller M); re-cluster to restore soundness. Rare: with ℓ1-
    // normalized text features every entity has norm exactly 1.
    max_norm_q_ = norm;
    water_.SetM(max_norm_q_);
    Reorganize();
  }
  return Status::OK();
}

void HazyMMView::MaintainEager() {
  if (strategy_->ShouldReorganize(reorg_cost_)) {
    Reorganize();
    return;
  }
  Timer inc;
  size_t n = IncrementalStep();
  double cost = options_.cost_model == CostModel::kMeasuredTime
                    ? inc.ElapsedSeconds()
                    : static_cast<double>(n);
  strategy_->OnIncrementalCost(cost);
}

Status HazyMMView::Update(const ml::LabeledExample& example) {
  Timer timer;
  TrainStep(example);
  water_.Advance(model_);
  if (options_.mode == Mode::kEager) MaintainEager();
  // Lazy mode: updates are already optimal; waste accumulates on reads.
  ++stats_.updates;
  stats_.total_update_seconds += timer.ElapsedSeconds();
  return Status::OK();
}

Status HazyMMView::UpdateBatch(Span<const ml::LabeledExample> batch) {
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
    // Monotone water is a running min/max over rounds, so advancing per
    // example widens the window to cover the whole batch's drift; the
    // expensive part — the window scan — runs once below.
    water_.Advance(model_);
  }
  if (options_.mode == Mode::kEager) MaintainEager();
  stats_.updates += batch.size();
  ++stats_.batches;
  stats_.total_update_seconds += timer.ElapsedSeconds();
  return Status::OK();
}

StatusOr<int> HazyMMView::ReadOnlyLabel(int64_t id) const {
  auto it = index_.find(id);
  if (it == index_.end()) {
    return Status::NotFound(StrFormat("no entity %lld", static_cast<long long>(id)));
  }
  const Row& r = rows_[it->second];
  if (options_.mode == Mode::kEager) return r.label;
  if (water_.CertainPositive(r.eps)) return 1;
  if (water_.CertainNegative(r.eps)) return -1;
  return model_.Classify(r.features);
}

StatusOr<int> HazyMMView::SingleEntityRead(int64_t id) {
  ++stats_.single_reads;
  auto it = index_.find(id);
  if (it == index_.end()) {
    return Status::NotFound(StrFormat("no entity %lld", static_cast<long long>(id)));
  }
  const Row& r = rows_[it->second];
  if (options_.mode == Mode::kEager) {
    ++stats_.reads_from_store;
    return r.label;
  }
  if (water_.CertainPositive(r.eps)) {
    ++stats_.reads_by_bounds;
    return 1;
  }
  if (water_.CertainNegative(r.eps)) {
    ++stats_.reads_by_bounds;
    return -1;
  }
  ++stats_.reads_from_store;
  return model_.Classify(r.features);
}

template <typename Emit>
StatusOr<uint64_t> HazyMMView::LazyMembersScan(int label, Emit emit) {
  if (strategy_->ShouldReorganize(reorg_cost_)) Reorganize();
  obs::TraceScope scan_span(obs::SpanKind::kLazyScan);
  Timer timer;
  const size_t begin = LowerBound(water_.low_water());
  const size_t wend = LowerBound(water_.high_water());
  const uint64_t nr = rows_.size() - begin;
  uint64_t positives = 0;
  uint64_t matched = 0;
  // Below lw everything is certainly negative.
  if (label == -1) {
    for (size_t i = 0; i < begin; ++i) {
      emit(rows_[i].id);
      ++matched;
    }
  }
  // Only the window [begin, wend) needs the current model; strip-score it
  // in parallel, then emit in clustering order.
  std::vector<int8_t> labels(wend - begin);
  ClassifyRange(wend - begin, model_, kDefaultMinParallelRows,
                [&](size_t i) -> const ml::FeatureVector& {
                  return rows_[begin + i].features;
                },
                labels.data());
  stats_.window_tuples += wend - begin;
  for (size_t i = begin; i < rows_.size(); ++i) {
    int l = i < wend ? labels[i - begin] : 1;  // eps >= hw: certainly positive
    if (l == 1) ++positives;
    if (l == label) {
      emit(rows_[i].id);
      ++matched;
    }
  }
  stats_.tuples_scanned += nr;
  // Section 3.4: waste = fraction of the read that was not in the class.
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

StatusOr<std::vector<int64_t>> HazyMMView::AllMembers(int label) {
  ++stats_.all_members_queries;
  std::vector<int64_t> out;
  out.reserve(rows_.size());
  if (options_.mode == Mode::kLazy) {
    HAZY_RETURN_NOT_OK(LazyMembersScan(label, [&](int64_t id) { out.push_back(id); })
                           .status());
    return out;
  }
  // Eager: labels are materialized; use the clustering to skip certain
  // regions (the "slight improvement" of Section 2.2).
  const size_t lo = LowerBound(water_.low_water());
  const size_t hi = LowerBound(water_.high_water());
  if (label == -1) {
    for (size_t i = 0; i < lo; ++i) out.push_back(rows_[i].id);
    for (size_t i = lo; i < hi; ++i) {
      if (rows_[i].label == -1) out.push_back(rows_[i].id);
    }
  } else {
    for (size_t i = lo; i < hi; ++i) {
      if (rows_[i].label == 1) out.push_back(rows_[i].id);
    }
    for (size_t i = hi; i < rows_.size(); ++i) out.push_back(rows_[i].id);
  }
  stats_.tuples_scanned += hi - lo;
  return out;
}

StatusOr<uint64_t> HazyMMView::AllMembersCount(int label) {
  ++stats_.all_members_queries;
  if (options_.mode == Mode::kLazy) {
    return LazyMembersScan(label, [](int64_t) {});
  }
  const size_t lo = LowerBound(water_.low_water());
  const size_t hi = LowerBound(water_.high_water());
  uint64_t count = 0;
  for (size_t i = lo; i < hi; ++i) {
    if (rows_[i].label == label) ++count;
  }
  stats_.tuples_scanned += hi - lo;
  if (label == -1) {
    count += lo;
  } else {
    count += rows_.size() - hi;
  }
  return count;
}

StatusOr<std::vector<int64_t>> HazyMMView::TopUncertain(size_t k) {
  if (k == 0 || rows_.empty()) return std::vector<int64_t>{};
  k = std::min(k, rows_.size());
  const double lw = water_.low_water();
  const double hw = water_.high_water();

  // Max-heap of (|eps under the current model|, id), capped at k entries.
  std::priority_queue<std::pair<double, int64_t>> best;
  auto consider = [&](const Row& r) {
    double e = std::fabs(model_.Eps(r.features));
    if (best.size() < k) {
      best.emplace(e, r.id);
    } else if (e < best.top().first) {
      best.pop();
      best.emplace(e, r.id);
    }
  };

  // Expand outward from the stored-model boundary. A tuple right of `hi`
  // has current eps >= stored_eps + lw and one left of `lo` has current
  // eps <= stored_eps + hw (Lemma 3.1 again), so once those guards exceed
  // the k-th best exact distance, nothing outside can improve the answer.
  size_t hi = LowerBound(0.0);
  size_t lo = hi;
  uint64_t inspected = 0;
  while (lo > 0 || hi < rows_.size()) {
    if (best.size() == k) {
      double kth = best.top().first;
      double right_guard = hi < rows_.size()
                               ? std::max(0.0, rows_[hi].eps + lw)
                               : std::numeric_limits<double>::infinity();
      double left_guard = lo > 0 ? std::max(0.0, -(rows_[lo - 1].eps + hw))
                                 : std::numeric_limits<double>::infinity();
      if (right_guard >= kth && left_guard >= kth) break;
    }
    bool take_hi;
    if (lo == 0) {
      take_hi = true;
    } else if (hi >= rows_.size()) {
      take_hi = false;
    } else {
      take_hi = std::fabs(rows_[hi].eps) <= std::fabs(rows_[lo - 1].eps);
    }
    consider(take_hi ? rows_[hi++] : rows_[--lo]);
    ++inspected;
  }
  stats_.tuples_scanned += inspected;

  std::vector<int64_t> out(best.size());
  for (size_t i = out.size(); i-- > 0;) {
    out[i] = best.top().second;
    best.pop();
  }
  return out;
}

size_t HazyMMView::MemoryBytes() const {
  size_t b = rows_.capacity() * sizeof(Row) +
             index_.size() * (sizeof(int64_t) + sizeof(size_t) + 2 * sizeof(void*));
  for (const auto& r : rows_) b += r.features.ApproxBytes() - sizeof(ml::FeatureVector);
  return b;
}

}  // namespace hazy::core
