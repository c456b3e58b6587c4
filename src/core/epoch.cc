#include "core/epoch.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/strings.h"
#include "core/scan_pipeline.h"

namespace hazy::core {

namespace {

/// Below this many entities a snapshot scan stays single-threaded (same
/// spirit as the scan pipeline's per-page striping thresholds).
constexpr size_t kMinParallelScan = 2048;

/// Size-tiered merge threshold: a freshly sealed tail chunk is folded into
/// its neighbor until the neighbor is more than this factor larger. The
/// resulting invariant (each sealed chunk > kMergeFactor x its successor)
/// keeps the chunk count logarithmic in the entity count, so lookups stay
/// flat even under a sustained stream of tiny append-and-publish batches.
constexpr size_t kMergeFactor = 2;

}  // namespace

std::shared_ptr<const EpochChunk> MakeEpochChunk(std::vector<Entity> rows) {
  auto chunk = std::make_shared<EpochChunk>();
  chunk->rows = std::move(rows);
  chunk->by_id.reserve(chunk->rows.size());
  for (uint32_t i = 0; i < chunk->rows.size(); ++i) {
    chunk->by_id[chunk->rows[i].id] = i;
  }
  return chunk;
}

EpochEntityStore::EpochEntityStore(
    std::vector<std::shared_ptr<const EpochChunk>> chunks)
    : chunks_(std::move(chunks)) {
  for (const auto& c : chunks_) size_ += c->rows.size();
}

const Entity* EpochEntityStore::Find(int64_t id) const {
  // Newest chunk wins (appends only ever add fresh ids, but shadowing is
  // the safe direction regardless).
  for (auto it = chunks_.rbegin(); it != chunks_.rend(); ++it) {
    auto hit = (*it)->by_id.find(id);
    if (hit != (*it)->by_id.end()) return &(*it)->rows[hit->second];
  }
  return nullptr;
}

EpochSnapshot::EpochSnapshot(uint64_t epoch, ml::LinearModel model,
                             std::shared_ptr<const EpochEntityStore> store,
                             double holder_p)
    : epoch_(epoch),
      model_(std::make_shared<const ml::LinearModel>(std::move(model))),
      store_(std::move(store)),
      holder_p_(holder_p) {}

StatusOr<int> EpochSnapshot::SingleEntityRead(int64_t id) const {
  const Entity* e = store_->Find(id);
  if (e == nullptr) {
    return Status::NotFound(
        StrFormat("no entity with id %lld", static_cast<long long>(id)));
  }
  return model_->Classify(e->features);
}

void EpochSnapshot::BuildColumn(const EpochChunk& chunk, const EpsColumn* prev,
                                int8_t* labels) const {
  const auto& rows = chunk.rows;
  auto col = std::make_shared<EpsColumn>();
  col->model = model_;
  col->eps.resize(rows.size());
  ScoreRange(
      rows.size(), *model_, kMinParallelScan,
      [&](size_t i) -> const ml::FeatureVector& { return rows[i].features; },
      col->eps.data());
  if (prev != nullptr) {
    col->max_norm_q = prev->max_norm_q;
    col->max_terms = prev->max_terms;
  } else {
    const double q = ml::HolderConjugate(holder_p_);
    for (const Entity& e : rows) {
      col->max_norm_q = std::max(col->max_norm_q, e.features.Norm(q));
      col->max_terms =
          std::max(col->max_terms, static_cast<uint32_t>(e.features.nnz()));
    }
  }
  col->model_norm_p =
      ml::LinearModel::DeltaNorm(*model_, ml::LinearModel{}, holder_p_);
  for (size_t i = 0; i < rows.size(); ++i) {
    labels[i] = static_cast<int8_t>(ml::SignOf(col->eps[i]));
  }
  std::atomic_store_explicit(&chunk.eps_column,
                             std::shared_ptr<const EpsColumn>(std::move(col)),
                             std::memory_order_release);
}

void EpochSnapshot::LabelChunk(
    const EpochChunk& chunk, int8_t* labels, ScanCounts* counts,
    std::vector<std::pair<std::shared_ptr<const ml::LinearModel>, double>>*
        delta_cache) const {
  const auto& rows = chunk.rows;
  const size_t n = rows.size();
  if (n == 0) return;
  auto col =
      std::atomic_load_explicit(&chunk.eps_column, std::memory_order_acquire);
  if (col == nullptr) {
    BuildColumn(chunk, nullptr, labels);
    counts->scored += n;
    return;
  }
  const double* eps = col->eps.data();
  if (col->model == model_) {
    // Built under this very model: the stored eps are the answer.
    for (size_t i = 0; i < n; ++i) {
      labels[i] = static_cast<int8_t>(ml::SignOf(eps[i]));
    }
    counts->by_bounds += n;
    return;
  }

  const ml::LinearModel& ref = *col->model;
  double delta = -1.0;
  for (const auto& [m, d] : *delta_cache) {
    if (m == col->model) delta = d;
  }
  if (delta < 0.0) {
    // For finite p, DeltaNorm sums over all d weights, so it can come out
    // up to ~(d + 4) ulps low; round it up by that much so M·δ stays an
    // upper bound however sparse the rows are.
    const double d = static_cast<double>(
        std::max(model_->w.size(), ref.w.size()));
    delta = ml::LinearModel::DeltaNorm(*model_, ref, holder_p_) *
            (1.0 + (d + 4.0) * std::numeric_limits<double>::epsilon());
    delta_cache->emplace_back(col->model, delta);
  }
  // Lemma 3.1: |eps(w) − eps(w_s) + db| <= M·‖δw‖_p for every row, so a
  // stored eps at or above hw stays >= 0 and one below lw stays < 0. The
  // slack covers the rounding of both dot products (each off by at most
  // ~terms·ulp·(‖w‖_p·M + |b|)) and of M·δ itself.
  const double m = col->max_norm_q;
  const double reach = m * delta;
  const double db = model_->b - ref.b;
  const double slack =
      2.0 * (col->max_terms + 2.0) * std::numeric_limits<double>::epsilon() *
      (m * (2.0 * col->model_norm_p + 2.0 * delta) + std::fabs(ref.b) +
       std::fabs(model_->b) + std::fabs(db));
  const double hw = reach + db + slack;
  const double lw = -reach + db - slack;

  std::vector<uint32_t> window;
  for (size_t i = 0; i < n; ++i) {
    const double e = eps[i];
    if (e >= hw) {
      labels[i] = 1;
    } else if (e < lw) {
      labels[i] = -1;
    } else {
      window.push_back(static_cast<uint32_t>(i));
    }
  }

  // Skiing (§3.3) with α = 1 and tuple counts as cost: once the rows
  // scored inside this column's windows reach a rebuild's cost (n rows),
  // the reader whose window crosses that line rebuilds under its model.
  const uint64_t before =
      col->window_rows.fetch_add(window.size(), std::memory_order_relaxed);
  if (before < n && before + window.size() >= n) {
    BuildColumn(chunk, col.get(), labels);
    counts->scored += n;
    return;
  }
  std::vector<double> window_eps(window.size());
  ScoreRange(
      window.size(), *model_, kMinParallelScan,
      [&](size_t k) -> const ml::FeatureVector& {
        return rows[window[k]].features;
      },
      window_eps.data());
  for (size_t k = 0; k < window.size(); ++k) {
    labels[window[k]] = static_cast<int8_t>(ml::SignOf(window_eps[k]));
  }
  counts->scored += window.size();
  counts->by_bounds += n - window.size();
}

template <typename Fn>
void EpochSnapshot::ForEachLabeledChunk(ScanCounts* counts, Fn fn) const {
  ScanCounts local;
  std::vector<int8_t> labels;
  std::vector<std::pair<std::shared_ptr<const ml::LinearModel>, double>>
      delta_cache;
  for (const auto& chunk : store_->chunks()) {
    labels.resize(chunk->rows.size());
    LabelChunk(*chunk, labels.data(), &local, &delta_cache);
    if (!fn(*chunk, labels.data())) break;
  }
  if (counts != nullptr) {
    counts->scored += local.scored;
    counts->by_bounds += local.by_bounds;
  }
}

StatusOr<std::vector<int64_t>> EpochSnapshot::AllMembers(
    int label, ScanCounts* counts, size_t limit) const {
  std::vector<int64_t> out;
  if (limit == 0) return out;
  ForEachLabeledChunk(counts, [&](const EpochChunk& chunk, const int8_t* labels) {
    for (size_t i = 0; i < chunk.rows.size(); ++i) {
      if (labels[i] != label) continue;
      out.push_back(chunk.rows[i].id);
      if (out.size() == limit) return false;
    }
    return true;
  });
  return out;
}

StatusOr<uint64_t> EpochSnapshot::AllMembersCount(int label,
                                                  ScanCounts* counts) const {
  uint64_t n = 0;
  ForEachLabeledChunk(counts, [&](const EpochChunk& chunk, const int8_t* labels) {
    for (size_t i = 0; i < chunk.rows.size(); ++i) n += labels[i] == label;
    return true;
  });
  return n;
}

std::vector<std::pair<int64_t, int8_t>> EpochSnapshot::LabeledEntities(
    ScanCounts* counts) const {
  std::vector<std::pair<int64_t, int8_t>> out;
  out.reserve(store_->size());
  ForEachLabeledChunk(counts, [&](const EpochChunk& chunk, const int8_t* labels) {
    for (size_t i = 0; i < chunk.rows.size(); ++i) {
      out.emplace_back(chunk.rows[i].id, labels[i]);
    }
    return true;
  });
  return out;
}

void EpochStoreBuilder::ReplaceAll(std::vector<Entity> all) {
  sealed_.clear();
  open_.clear();
  last_.reset();
  sealed_.push_back(MakeEpochChunk(std::move(all)));
}

std::shared_ptr<const EpochEntityStore> EpochStoreBuilder::Seal() {
  if (!dirty()) return last_;
  if (!open_.empty()) {
    sealed_.push_back(MakeEpochChunk(std::move(open_)));
    open_.clear();
    // Size-tiered merge, tail-local: fold the new chunk into its neighbor
    // while the neighbor is not decisively larger, cascading toward the
    // head. A chunk grows by at least a third of its size with every merge
    // it joins, so a sustained single-row append-and-publish stream copies
    // each row O(log N) times total — full compaction here would copy the
    // whole store every few publishes, O(N^2) overall. Chunks ahead of the
    // cascade are untouched and stay shared with earlier epochs. Old stores
    // keep references to the pre-merge chunks; only future epochs see the
    // merged runs.
    while (sealed_.size() > 1) {
      const auto& prev = sealed_[sealed_.size() - 2];
      const auto& tail = sealed_.back();
      if (prev->rows.size() > kMergeFactor * tail->rows.size()) break;
      std::vector<Entity> merged;
      merged.reserve(prev->rows.size() + tail->rows.size());
      merged.insert(merged.end(), prev->rows.begin(), prev->rows.end());
      merged.insert(merged.end(), tail->rows.begin(), tail->rows.end());
      sealed_.pop_back();
      sealed_.pop_back();
      sealed_.push_back(MakeEpochChunk(std::move(merged)));
    }
  }
  last_ = std::make_shared<EpochEntityStore>(sealed_);
  return last_;
}

SnapshotPin::SnapshotPin(EpochManager* mgr,
                         std::shared_ptr<const EpochSnapshot> snap)
    : mgr_(mgr), snap_(std::move(snap)) {}

SnapshotPin& SnapshotPin::operator=(SnapshotPin&& o) noexcept {
  if (this != &o) {
    Release();
    mgr_ = o.mgr_;
    snap_ = std::move(o.snap_);
    o.mgr_ = nullptr;
    o.snap_.reset();
  }
  return *this;
}

void SnapshotPin::Release() {
  if (snap_ != nullptr && mgr_ != nullptr) mgr_->Unpin(snap_);
  snap_.reset();
  mgr_ = nullptr;
}

void EpochManager::SetMetricLabels(const std::string& labels) {
  auto& reg = obs::Registry::Global();
  published_gauge_ = reg.GetGauge("hazy_epoch_published", labels);
  pinned_gauge_ = reg.GetGauge("hazy_epoch_pinned", labels);
  oldest_live_gauge_ = reg.GetGauge("hazy_epoch_oldest_live", labels);
  reclaimed_counter_ = reg.GetCounter("hazy_epoch_reclaimed_total", labels);
}

std::shared_ptr<const EpochSnapshot> EpochManager::Publish(
    ml::LinearModel model, std::shared_ptr<const EpochEntityStore> store,
    double holder_p) {
  MutexLock lock(mu_);
  auto snap = std::make_shared<const EpochSnapshot>(
      next_epoch_++, std::move(model), std::move(store), holder_p);
  ring_.push_back(snap);
  std::atomic_store_explicit(&latest_, snap, std::memory_order_release);
  if (published_gauge_ != nullptr) {
    published_gauge_->Set(static_cast<int64_t>(snap->epoch()));
  }
  ReclaimLocked();
  return snap;
}

SnapshotPin EpochManager::Pin() {
  // Lock-free fast path: readers never touch mu_, so a publishing writer
  // (or a reclaim pass) cannot stall them.
  auto snap = std::atomic_load_explicit(&latest_, std::memory_order_acquire);
  if (snap == nullptr) return SnapshotPin();
  snap->pins_.fetch_add(1, std::memory_order_relaxed);
  if (pinned_gauge_ != nullptr) pinned_gauge_->Add(1);
  return SnapshotPin(this, std::move(snap));
}

void EpochManager::Unpin(const std::shared_ptr<const EpochSnapshot>& snap) {
  snap->pins_.fetch_sub(1, std::memory_order_relaxed);
  if (pinned_gauge_ != nullptr) pinned_gauge_->Add(-1);
  MutexLock lock(mu_);
  ReclaimLocked();
}

void EpochManager::ReclaimLocked() {
  // A retired epoch (anything but the latest) is reclaimable once its pin
  // count drains. Removal from the ring drops the manager's chunk/model
  // references; a reader that raced its way to a shared_ptr keeps the
  // object alive until it finishes — reclaim is bookkeeping, never a free
  // under a reader.
  auto latest = std::atomic_load_explicit(&latest_, std::memory_order_acquire);
  size_t kept = 0;
  for (size_t i = 0; i < ring_.size(); ++i) {
    const bool retired = ring_[i] != latest;
    if (retired && ring_[i]->pins() == 0) {
      ++reclaimed_;
      if (reclaimed_counter_ != nullptr) reclaimed_counter_->Increment();
      continue;
    }
    ring_[kept++] = ring_[i];
  }
  ring_.resize(kept);
  if (oldest_live_gauge_ != nullptr && !ring_.empty()) {
    oldest_live_gauge_->Set(static_cast<int64_t>(ring_.front()->epoch()));
  }
}

uint64_t EpochManager::latest_epoch() const {
  auto snap = std::atomic_load_explicit(&latest_, std::memory_order_acquire);
  return snap == nullptr ? 0 : snap->epoch();
}

bool EpochManager::IsLive(uint64_t epoch) const {
  MutexLock lock(mu_);
  for (const auto& s : ring_) {
    if (s->epoch() == epoch) return true;
  }
  return false;
}

size_t EpochManager::live_epochs() const {
  MutexLock lock(mu_);
  return ring_.size();
}

uint64_t EpochManager::reclaimed_total() const {
  MutexLock lock(mu_);
  return reclaimed_;
}

}  // namespace hazy::core
