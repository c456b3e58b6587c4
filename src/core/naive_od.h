// Naive on-disk architecture — "the state-of-the-art approach to integrate
// classification with an RDBMS is captured by the naive on-disk approach"
// (Section 4.1.1). Entities live in a heap file; eager updates rescan and
// relabel the entire heap; lazy reads classify every tuple.

#ifndef HAZY_CORE_NAIVE_OD_H_
#define HAZY_CORE_NAIVE_OD_H_

#include <vector>

#include "core/classifier_view.h"
#include "core/entity_record.h"
#include "storage/hash_index.h"
#include "storage/heap_file.h"

namespace hazy::core {

/// \brief Baseline on-disk view with naive maintenance.
class NaiveODView : public ViewBase {
 public:
  NaiveODView(ViewOptions options, storage::BufferPool* pool)
      : ViewBase(options), heap_(pool) {}

  Status BulkLoad(const std::vector<Entity>& entities) override;
  Status AddEntity(const Entity& entity) override;
  Status Update(const ml::LabeledExample& example) override;
  /// Batched path: absorb every example into the model, then rescan and
  /// relabel the heap once per batch instead of once per example.
  Status UpdateBatch(Span<const ml::LabeledExample> batch) override;
  StatusOr<int> SingleEntityRead(int64_t id) override;
  StatusOr<std::vector<int64_t>> AllMembers(int label) override;
  StatusOr<uint64_t> AllMembersCount(int label) override;
  size_t MemoryBytes() const override;
  const char* name() const override {
    return options_.mode == Mode::kEager ? "naive-od-eager" : "naive-od-lazy";
  }


  /// On-disk footprint (pages held by the heap).
  uint64_t DiskBytes() const { return heap_.SizeBytes(); }

 protected:
  Status SyncToModel() override { return ReclassifyAll(); }

 private:
  Status ReclassifyAll();

  storage::HeapFile heap_;
  storage::HashIndex id_index_;
  uint64_t num_rows_ = 0;
};

}  // namespace hazy::core

#endif  // HAZY_CORE_NAIVE_OD_H_
