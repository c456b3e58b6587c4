// Hazy on-disk architecture (Section 3.2): the scratch table H(s) kept
// clustered on stored-model eps in a heap file, a clustered B+-tree index on
// (eps, id), and a hash index on id. Incremental steps touch only the
// [lw, hw) window via B+-tree range scans; Skiing decides when to pay the
// reorganization (re-sort + rebuild) cost S.
//
// HybridView (hybrid.h) derives from this class and layers the ε-map and
// the bounded in-memory buffer on top (Section 3.5.2); the protected hooks
// below are its extension points.

#ifndef HAZY_CORE_HAZY_OD_H_
#define HAZY_CORE_HAZY_OD_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/bounds.h"
#include "core/classifier_view.h"
#include "core/entity_record.h"
#include "storage/bptree.h"
#include "storage/hash_index.h"
#include "storage/heap_file.h"

namespace hazy::core {

/// \brief Hazy-OD: incremental maintenance with on-disk clustering.
class HazyODView : public ViewBase {
 public:
  HazyODView(ViewOptions options, storage::BufferPool* pool)
      : ViewBase(options),
        heap_(std::make_unique<storage::HeapFile>(pool)),
        tree_(std::make_unique<storage::BPlusTree>(pool)),
        water_(options.holder_p, options.monotone_water),
        strategy_(MakeStrategy(options.strategy, options.alpha,
                               options.periodic_period)) {}

  Status BulkLoad(const std::vector<Entity>& entities) override;
  Status AddEntity(const Entity& entity) override;
  Status Update(const ml::LabeledExample& example) override;
  /// Batched path: the model absorbs every example while the monotone water
  /// lines accumulate the whole batch's drift, then ONE B+-tree range pass
  /// over [lw, hw) (or one reorganization — a single amortized Skiing
  /// decision per batch) re-syncs the materialized labels. HybridView
  /// inherits this; its window/buffer hooks keep the buffer and ε-map
  /// maintenance batched too. Non-monotone water falls back to per-example
  /// updates (its two-round bounds require relabeling every round).
  Status UpdateBatch(Span<const ml::LabeledExample> batch) override;
  StatusOr<int> SingleEntityRead(int64_t id) override;
  StatusOr<std::vector<int64_t>> AllMembers(int label) override;
  StatusOr<uint64_t> AllMembersCount(int label) override;
  size_t MemoryBytes() const override;
  const char* name() const override {
    return options_.mode == Mode::kEager ? "hazy-od-eager" : "hazy-od-lazy";
  }


  const WaterLineTracker& water() const { return water_; }

  uint64_t DiskBytes() const { return (heap_->num_pages() + tree_->num_pages()) *
                                      storage::kPageSize; }
  uint64_t num_rows() const { return num_rows_; }

 protected:
  Status SyncToModel() override { return Reorganize(); }

  /// Rebuilds H clustered on current-model eps; measures and stores S.
  Status Reorganize();

  /// A window tuple: entity id plus its record's location in H.
  using WindowEntry = std::pair<int64_t, storage::Rid>;

  /// Classifies every window tuple under the current model without writing,
  /// filling labels[i] for window[i] (the lazy read path). The base
  /// implementation runs the zero-copy parallel pipeline over the heap;
  /// HybridView overrides to answer buffered tuples from its buffer.
  virtual Status ClassifyWindow(const std::vector<WindowEntry>& window,
                                std::vector<int8_t>* labels);

  /// Reclassifies every window tuple under the current model, patching
  /// flipped labels in place (the eager incremental step). Returns the
  /// number of flips. HybridView overrides to keep its buffer labels — the
  /// source of truth for buffered tuples — in sync.
  virtual StatusOr<uint64_t> ReclassifyWindow(const std::vector<WindowEntry>& window);

  /// Reads one tuple's materialized label (eager read path) without
  /// copying the record. HybridView overrides to consult its buffer (whose
  /// labels are the source of truth for buffered window tuples).
  virtual StatusOr<int> ReadWindowLabel(int64_t id, storage::Rid rid);

  /// Called after a reorganization with the new clustered contents,
  /// in eps order, paired with their new RIDs.
  virtual void OnReorganized(const std::vector<EntityRecord>& sorted,
                             const std::vector<storage::Rid>& rids) {
    (void)sorted;
    (void)rids;
  }

  /// Called when a single entity is appended outside a reorganization.
  virtual void OnEntityAppended(const EntityRecord& rec, storage::Rid rid) {
    (void)rec;
    (void)rid;
  }

  /// Runs the eager incremental step over [lw, hw). Returns tuples touched.
  StatusOr<uint64_t> IncrementalStep();

  /// One round of eager maintenance: reorganize if Skiing says so, else an
  /// incremental step whose cost is reported to the strategy. Shared by the
  /// per-example and batched update paths.
  Status MaintainEager();

  /// Lazy read path shared by AllMembers/AllMembersCount.
  StatusOr<uint64_t> LazyMembersScan(int label, std::vector<int64_t>* out);

  /// Eager read path: certain regions from the tree, window from the heap.
  StatusOr<uint64_t> EagerMembersScan(int label, std::vector<int64_t>* out);

  Status FetchRecord(storage::Rid rid, EntityRecord* rec) const;

  std::unique_ptr<storage::HeapFile> heap_;
  std::unique_ptr<storage::BPlusTree> tree_;
  storage::HashIndex id_index_;
  WaterLineTracker water_;
  std::unique_ptr<MaintenanceStrategy> strategy_;
  double reorg_cost_ = 0.0;  // S
  double max_norm_q_ = 0.0;  // M
  uint64_t num_rows_ = 0;
};

}  // namespace hazy::core

#endif  // HAZY_CORE_HAZY_OD_H_
