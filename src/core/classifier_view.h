// The classification-view abstraction (paper Section 2): a view
// V(id, class) over a set of entities, maintained under a stream of
// training-example updates. All five architectures the paper evaluates
// implement this interface:
//
//   NaiveMMView   main-memory,  relabel everything (naive)    [naive MM]
//   HazyMMView    main-memory,  water window + Skiing         [hazy MM]
//   NaiveODView   on-disk,      relabel everything (naive)    [naive OD]
//   HazyODView    on-disk,      clustered H + B+-tree window  [hazy OD]
//   HybridView    on-disk + ε-map + bounded buffer            [hybrid]
//
// Each can run eager (labels materialized after every update) or lazy
// (labels computed at read time) — the three operations of Section 2.2:
// Update, Single Entity read, All Members.

#ifndef HAZY_CORE_CLASSIFIER_VIEW_H_
#define HAZY_CORE_CLASSIFIER_VIEW_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/span.h"
#include "common/status.h"
#include "core/skiing.h"
#include "ml/model.h"
#include "ml/sgd.h"
#include "ml/vector.h"
#include "obs/metrics.h"

namespace hazy::persist {
class StateWriter;
class StateReader;
}  // namespace hazy::persist

namespace hazy::core {

/// An entity to classify: id plus feature vector (the In(id, f) relation).
struct Entity {
  int64_t id = 0;
  ml::FeatureVector features;
};

/// Eager vs lazy maintenance (Section 2.2).
enum class Mode { kEager, kLazy };

/// How Skiing's costs are accounted: measured wall time (what the paper's
/// deployment does) or deterministic tuple counts (for reproducible tests).
enum class CostModel { kMeasuredTime, kTupleCount };

/// \brief Configuration shared by all view architectures.
struct ViewOptions {
  Mode mode = Mode::kEager;
  ml::SgdOptions sgd;
  /// Norm p for the model-delta bound; q = HolderConjugate(p) for M.
  /// Text with ℓ1-normalized features uses p = inf (q = 1); dense ℓ2 data
  /// uses p = q = 2 (Section 3.2.2 "Choosing the Norm").
  double holder_p = ml::kInf;
  /// Monotone water lines (Eq. 2) or the non-monotone two-round variant
  /// (Appendix B.3; eager mode only — see bounds.h).
  bool monotone_water = true;
  StrategyKind strategy = StrategyKind::kSkiing;
  double alpha = 1.0;
  int periodic_period = 100;
  CostModel cost_model = CostModel::kMeasuredTime;
  /// Hybrid only: max entities resident in the in-memory buffer.
  size_t hybrid_buffer_capacity = 1024;
};

/// \brief Counters every view maintains (benchmarks report these).
///
/// Fields are relaxed-atomic cells (obs::RelaxedU64/F64) so the metrics
/// registry's scrape thread can read them while statement threads mutate:
/// each field is independently consistent, a copied struct is a per-field
/// snapshot, and the arithmetic call sites read exactly as before.
struct ViewStats {
  obs::RelaxedU64 updates;
  obs::RelaxedU64 batches;          ///< UpdateBatch calls (each >= 1 update)
  obs::RelaxedU64 reorgs;
  obs::RelaxedU64 incremental_steps;
  obs::RelaxedU64 window_tuples;    ///< tuples inspected inside water windows
  obs::RelaxedU64 tuples_scanned;   ///< tuples scored by All Members scans
  /// Snapshot All Members rows labeled from a stored eps by the water lines
  /// without rescoring (not checkpointed: a restart rebuilds the columns).
  obs::RelaxedU64 rows_by_bounds;
  obs::RelaxedU64 label_flips;
  obs::RelaxedU64 single_reads;
  obs::RelaxedU64 reads_by_bounds;  ///< answered by the ε-map/water test alone
  obs::RelaxedU64 reads_by_buffer;  ///< hybrid: answered from the buffer
  obs::RelaxedU64 reads_from_store;  ///< had to touch the backing store
  obs::RelaxedU64 all_members_queries;
  obs::RelaxedF64 total_update_seconds;
  obs::RelaxedF64 total_reorg_seconds;
  obs::RelaxedF64 last_reorg_cost;  ///< S in the Skiing accounting
};

/// \brief Abstract classification view.
class ClassificationView {
 public:
  virtual ~ClassificationView() = default;

  /// Populates the view with its entity set (the In relation). Called once.
  virtual Status BulkLoad(const std::vector<Entity>& entities) = 0;

  /// Type-(1) dynamic data: a new entity arrives; classify and store it.
  virtual Status AddEntity(const Entity& entity) = 0;

  /// Type-(2) dynamic data: a new training example arrives; fold it into
  /// the model and maintain the view per the architecture's policy.
  virtual Status Update(const ml::LabeledExample& example) = 0;

  /// Folds a whole batch of training examples, amortizing the per-update
  /// maintenance work (the batching lever of delta-batched IVM systems like
  /// F-IVM applied to Hazy's cost model): the model absorbs every example,
  /// but labels are only re-synced once per batch. After it returns the
  /// view answers every query exactly as if the batch had been applied
  /// one-by-one through Update. The base implementation is that loop;
  /// architectures override it with amortized paths.
  virtual Status UpdateBatch(Span<const ml::LabeledExample> batch) {
    if (batch.empty()) return Status::OK();
    for (const auto& ex : batch) {
      HAZY_RETURN_NOT_OK(Update(ex));
    }
    ++mutable_stats()->batches;
    return Status::OK();
  }

  /// Bulk-trains the model on `examples` without per-update view
  /// maintenance, then re-syncs the view state to the final model. This is
  /// the paper's warm-up protocol ("the experiment begins with a partially
  /// trained (warm) model (after 12k training examples)", Section 4.1.1).
  virtual Status WarmModel(const std::vector<ml::LabeledExample>& examples) = 0;

  /// Label of one entity under the current model.
  virtual StatusOr<int> SingleEntityRead(int64_t id) = 0;

  /// All entity ids currently labeled `label`.
  virtual StatusOr<std::vector<int64_t>> AllMembers(int label) = 0;

  /// Count of entities currently labeled `label` (the Fig 4(B) query).
  virtual StatusOr<uint64_t> AllMembersCount(int label) = 0;

  /// Current Skiing water lines when the architecture maintains them
  /// (Hazy MM/OD); false otherwise. Exported as gauges by the metrics
  /// registry's view collector.
  virtual bool WaterLines(double* low, double* high) const {
    (void)low;
    (void)high;
    return false;
  }

  /// The current model (reflects every Update so far).
  virtual const ml::LinearModel& model() const = 0;

  virtual const ViewStats& stats() const = 0;
  virtual ViewStats* mutable_stats() = 0;

  /// Appends every entity (id + features) to `out`, in an unspecified but
  /// deterministic order. This is the epoch-snapshot seeding path
  /// (core/epoch.h): after a bulk load, restore, or retrain-from-scratch
  /// the engine re-exports the entity set into the immutable snapshot
  /// store, which answers every SQL read of the view.
  virtual Status ExportEntities(std::vector<Entity>* out) const = 0;

  /// Approximate resident main-memory footprint in bytes.
  virtual size_t MemoryBytes() const = 0;

  virtual const char* name() const = 0;

  /// Serializes the architecture's complete runtime state — model, trainer
  /// schedule position, stats, entity set, and incremental-maintenance state
  /// (water lines, strategy accumulator, clustering order, ε-map/buffer) —
  /// so LoadState on a freshly constructed view of the same architecture and
  /// options reproduces answers bit-for-bit with zero retraining.
  virtual Status SaveState(persist::StateWriter* w) const = 0;

  /// Restores a SaveState blob. Must be called instead of BulkLoad, on a
  /// view constructed with the same ViewOptions that produced the blob.
  virtual Status LoadState(persist::StateReader* r) = 0;
};

/// \brief Shared trainer/model/stats plumbing for the concrete views.
class ViewBase : public ClassificationView {
 public:
  explicit ViewBase(ViewOptions options)
      : options_(options), trainer_(options.sgd) {}

  const ml::LinearModel& model() const override { return model_; }
  const ViewStats& stats() const override { return stats_; }
  ViewStats* mutable_stats() override { return &stats_; }

  Status WarmModel(const std::vector<ml::LabeledExample>& examples) override {
    for (const auto& ex : examples) TrainStep(ex);
    return SyncToModel();
  }

 protected:
  /// Serializes / restores the state shared by every architecture: the
  /// model, the trainer's learning-rate schedule position, and the stats
  /// counters. Concrete SaveState/LoadState implementations call these
  /// first, then handle their own structures.
  Status SaveBaseState(persist::StateWriter* w) const;
  Status LoadBaseState(persist::StateReader* r);

  /// Makes the view's materialized state consistent with the current model
  /// (a full reclassify or reorganization, depending on architecture).
  virtual Status SyncToModel() = 0;
  /// Folds a training example into the model (identical across all
  /// architectures, so equivalent update streams yield identical models).
  void TrainStep(const ml::LabeledExample& ex) { trainer_.AddExample(&model_, ex); }

  ViewOptions options_;
  ml::LinearModel model_;
  ml::SgdTrainer trainer_;
  ViewStats stats_;
};

}  // namespace hazy::core

#endif  // HAZY_CORE_CLASSIFIER_VIEW_H_
