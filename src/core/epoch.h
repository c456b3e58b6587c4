// Epoch-based snapshot reads (MVCC-lite). At any update-batch boundary a
// Hazy view's read answers are a pure function of (model, entity set):
// label(id) = sign(w·f(id) − b) with the paper's sign(0) = +1 convention —
// the water-line bounds guarantee the eager architectures' materialized
// labels agree with the current model, and the lazy architectures compute
// exactly this at read time. That makes an architecture-independent
// snapshot possible: an immutable LinearModel copy plus a shared immutable
// entity store answers Single Entity / All Members / count queries
// bit-identically to the live view, without touching any of its mutable
// state (heap pages, B+-tree, water lines, ε-map).
//
// Writers publish a new EpochSnapshot at batch boundaries (the natural Hazy
// granularity — model and water state are per-epoch immutable). Readers pin
// the latest published epoch, answer from it, and unpin on completion; they
// never take the statement mutex. Retired epochs are reclaimed once their
// pin count drains.
//
// Entity payloads are shared across epochs through sealed chunks: an
// update-only batch publishes in O(d) (one model copy); a batch that
// appended entities seals those appends into one new chunk and reuses every
// earlier chunk. In the engine the store builder is a view's only copy of
// its entity set (engine::ManagedView); the core architectures keep their
// own.
//
// All Members reads use the paper's water lines (§3.2, Lemma 3.1) instead
// of rescoring every entity. Each sealed chunk lazily carries an eps column:
// its rows' eps under a reference model (w_s, b_s), in row order, plus
// M = max ‖f‖_q over its rows. A read under model (w, b) settles every row
// whose stored eps lies outside the Hölder window
//     [lw, hw) = ±M·‖w − w_s‖_p + (b − b_s)
// (widened by a rounding slack), and scores only the rows inside it, so
// labels stay exactly sign(w·f − b). A column built under the reader's own
// model (the same shared model object) has an empty window. The first All
// Members read of a chunk builds its column; later readers add their window
// sizes to the column's accumulator and rebuild it under their own model
// once that sum reaches the chunk's row count — Skiing (§3.3) with the
// tuple-count cost model and α = 1. Columns are built only by readers, so
// ingest and point reads pay nothing for them. The column is unsorted: in
// memory one sequential 8-byte pass per row is cheaper than keeping an eps
// order across merges (the paper clusters by eps to bound disk I/O).

#ifndef HAZY_CORE_EPOCH_H_
#define HAZY_CORE_EPOCH_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/classifier_view.h"
#include "ml/model.h"
#include "obs/metrics.h"

namespace hazy::core {

/// \brief A chunk's eps under one reference model, in row order, with what
/// Lemma 3.1 needs to bound how far any row's eps has drifted since.
/// Immutable once installed, except for the Skiing accumulator.
struct EpsColumn {
  std::shared_ptr<const ml::LinearModel> model;  ///< reference (w_s, b_s)
  std::vector<double> eps;   ///< eps under `model`, one per chunk row
  double max_norm_q = 0.0;   ///< M = max ‖f‖_q over the chunk's rows
  double model_norm_p = 0.0; ///< ‖w_s‖_p (sizes the rounding slack)
  uint32_t max_terms = 0;    ///< longest dot product in the chunk (ditto)
  /// Rows scored inside windows since this column was built; a reader that
  /// carries it past the chunk's row count rebuilds the column.
  mutable std::atomic<uint64_t> window_rows{0};
};

/// \brief One sealed, immutable run of entities plus its id index.
struct EpochChunk {
  std::vector<Entity> rows;
  std::unordered_map<int64_t, uint32_t> by_id;  // id -> index in rows
  /// Lazily built by All Members readers and replaced on a Skiing rebuild;
  /// accessed only through std::atomic_load/store, so the chunk stays
  /// logically immutable and shareable across epochs.
  mutable std::shared_ptr<const EpsColumn> eps_column;
};

/// Rows of one All Members read, split by how their label was obtained.
struct ScanCounts {
  uint64_t scored = 0;     ///< rescored under the snapshot's model
  uint64_t by_bounds = 0;  ///< settled by the water lines from stored eps
};

/// Builds a chunk (and its index) from an entity run.
std::shared_ptr<const EpochChunk> MakeEpochChunk(std::vector<Entity> rows);

/// \brief An immutable entity set shared across epochs as a list of sealed
/// chunks. Lookups consult newer chunks first.
class EpochEntityStore {
 public:
  explicit EpochEntityStore(
      std::vector<std::shared_ptr<const EpochChunk>> chunks);

  size_t size() const { return size_; }
  const std::vector<std::shared_ptr<const EpochChunk>>& chunks() const {
    return chunks_;
  }

  /// The entity with the given id, or nullptr.
  const Entity* Find(int64_t id) const;

 private:
  std::vector<std::shared_ptr<const EpochChunk>> chunks_;
  size_t size_ = 0;
};

/// \brief A published read epoch: model copy + shared entity store. All
/// methods are const and safe for any number of concurrent readers.
class EpochSnapshot {
 public:
  /// `holder_p` is the view's Hölder exponent p; the eps columns bound drift
  /// with ‖δw‖_p and M = max ‖f‖_q for its conjugate q, so every snapshot
  /// over the same chunks must pass the same p.
  EpochSnapshot(uint64_t epoch, ml::LinearModel model,
                std::shared_ptr<const EpochEntityStore> store,
                double holder_p);

  uint64_t epoch() const { return epoch_; }
  const ml::LinearModel& model() const { return *model_; }
  size_t num_entities() const { return store_->size(); }
  const EpochEntityStore& store() const { return *store_; }

  /// Label of one entity under this epoch's model (NotFound if absent).
  StatusOr<int> SingleEntityRead(int64_t id) const;

  /// The first `limit` entity ids labeled `label` (+1/-1), in store order
  /// (all of them with no limit). Labeling stops with the chunk that
  /// completes the limit, so a small LIMIT labels few chunks. Adds the rows
  /// scored and the rows settled by the water lines to *counts when set.
  StatusOr<std::vector<int64_t>> AllMembers(
      int label, ScanCounts* counts = nullptr,
      size_t limit = std::numeric_limits<size_t>::max()) const;

  /// Count of entities labeled `label`.
  StatusOr<uint64_t> AllMembersCount(int label,
                                     ScanCounts* counts = nullptr) const;

  /// Every entity as (id, label), in store order: both classes in one pass.
  std::vector<std::pair<int64_t, int8_t>> LabeledEntities(
      ScanCounts* counts = nullptr) const;

  uint64_t pins() const { return pins_.load(std::memory_order_relaxed); }

 private:
  friend class EpochManager;

  /// Calls fn(chunk, labels) per chunk in store order, with labels[i] the
  /// sign of chunk.rows[i] under this epoch's model, until fn returns
  /// false.
  template <typename Fn>
  void ForEachLabeledChunk(ScanCounts* counts, Fn fn) const;

  /// Labels one chunk from its eps column, scoring only the window rows
  /// (building or rebuilding the column when it is missing or its Skiing
  /// accumulator runs out). `delta_cache` memoizes ‖w − w_s‖_p per
  /// reference model across the chunks of one read; it holds the models so
  /// a freed one's address cannot be reused by another during the read.
  void LabelChunk(const EpochChunk& chunk, int8_t* labels, ScanCounts* counts,
                  std::vector<std::pair<std::shared_ptr<const ml::LinearModel>,
                                        double>>* delta_cache) const;

  /// Scores every row of `chunk`, installs the result as its eps column and
  /// writes the labels. `prev` (may be null) donates M and max_terms.
  void BuildColumn(const EpochChunk& chunk, const EpsColumn* prev,
                   int8_t* labels) const;

  uint64_t epoch_;
  /// Shared with the eps columns built under it: a column whose model is
  /// this very object needs no bound at all.
  std::shared_ptr<const ml::LinearModel> model_;
  std::shared_ptr<const EpochEntityStore> store_;
  double holder_p_;
  mutable std::atomic<uint64_t> pins_{0};
};

/// \brief Writer-side accumulator that turns entity mutations into shared
/// immutable chunk lists. Not thread-safe — it lives with the (single)
/// writer; only the stores it hands out are shared with readers.
class EpochStoreBuilder {
 public:
  /// Buffers one appended entity (sealed into a chunk at the next Seal).
  void Append(const Entity& entity) { open_.push_back(entity); }

  /// Replaces the whole entity set (bulk load, retrain-from-scratch,
  /// checkpoint restore).
  void ReplaceAll(std::vector<Entity> all);

  /// True when Seal() would produce a different store than last time.
  bool dirty() const { return last_ == nullptr || !open_.empty(); }

  /// Seals buffered appends into a chunk and returns the current immutable
  /// store. Reuses the previous store when nothing changed. Adjacent runs of
  /// similar size are merged (size-tiered, geometric invariant) so the chunk
  /// count stays logarithmic and a long stream of tiny append batches costs
  /// O(log N) amortized copies per row instead of degrading lookups or
  /// recopying the whole store.
  std::shared_ptr<const EpochEntityStore> Seal();

 private:
  std::vector<std::shared_ptr<const EpochChunk>> sealed_;
  std::vector<Entity> open_;
  std::shared_ptr<const EpochEntityStore> last_;
};

/// \brief RAII pin on an EpochSnapshot (see EpochManager::Pin). A null
/// `mgr` holds an epoch no manager published, with nothing to unpin.
class SnapshotPin {
 public:
  SnapshotPin() = default;
  SnapshotPin(class EpochManager* mgr,
              std::shared_ptr<const EpochSnapshot> snap);
  SnapshotPin(SnapshotPin&& o) noexcept { *this = std::move(o); }
  SnapshotPin& operator=(SnapshotPin&& o) noexcept;
  SnapshotPin(const SnapshotPin&) = delete;
  SnapshotPin& operator=(const SnapshotPin&) = delete;
  ~SnapshotPin() { Release(); }

  explicit operator bool() const { return snap_ != nullptr; }
  const EpochSnapshot* operator->() const { return snap_.get(); }
  const EpochSnapshot& operator*() const { return *snap_; }
  const EpochSnapshot* get() const { return snap_.get(); }

  void Release();

 private:
  class EpochManager* mgr_ = nullptr;
  std::shared_ptr<const EpochSnapshot> snap_;
};

/// \brief Publication point and reclaim bookkeeping for one view's epochs.
///
/// Publish runs on the writer side (under whatever serializes writers);
/// Pin/Unpin are lock-free on the reader fast path (atomic shared_ptr load
/// + relaxed pin count). The live ring holds the latest epoch plus any
/// retired epochs still pinned; a retired epoch is reclaimed — removed from
/// the ring, its chunk references dropped — as soon as its last pin drains.
class EpochManager {
 public:
  EpochManager() = default;

  /// Installs the metric label body (e.g. `view="spam",arch="hazy_mm"`) for
  /// the hazy_epoch_* instruments. Call before the first Publish.
  void SetMetricLabels(const std::string& labels);

  /// Publishes the next epoch (see EpochSnapshot for `holder_p`). Returns
  /// the published snapshot.
  std::shared_ptr<const EpochSnapshot> Publish(
      ml::LinearModel model, std::shared_ptr<const EpochEntityStore> store,
      double holder_p) EXCLUDES(mu_);

  /// Pins the latest published epoch (empty pin when none published yet).
  SnapshotPin Pin();

  bool HasPublished() const {
    return std::atomic_load_explicit(&latest_, std::memory_order_acquire) !=
           nullptr;
  }
  uint64_t latest_epoch() const;

  /// True while `epoch` has not been reclaimed (still in the live ring).
  bool IsLive(uint64_t epoch) const EXCLUDES(mu_);
  size_t live_epochs() const EXCLUDES(mu_);
  uint64_t reclaimed_total() const EXCLUDES(mu_);

 private:
  friend class SnapshotPin;
  void Unpin(const std::shared_ptr<const EpochSnapshot>& snap) EXCLUDES(mu_);
  void ReclaimLocked() REQUIRES(mu_);

  mutable Mutex mu_;  // guards ring_/counters; never held by readers
  /// Accessed only through std::atomic_load/store (the reader fast path
  /// never touches mu_), so deliberately NOT GUARDED_BY.
  std::shared_ptr<const EpochSnapshot> latest_;
  std::vector<std::shared_ptr<const EpochSnapshot>> ring_
      GUARDED_BY(mu_);  // oldest first
  uint64_t next_epoch_ GUARDED_BY(mu_) = 1;
  uint64_t reclaimed_ GUARDED_BY(mu_) = 0;
  obs::Gauge* published_gauge_ = nullptr;
  obs::Gauge* pinned_gauge_ = nullptr;
  obs::Gauge* oldest_live_gauge_ = nullptr;
  obs::Counter* reclaimed_counter_ = nullptr;
};

}  // namespace hazy::core

#endif  // HAZY_CORE_EPOCH_H_
