// Hazy's hybrid architecture (Section 3.5.2): the on-disk structure of
// HazyODView plus two in-memory assists:
//
//   * the ε-map h(s): id -> stored-model eps for every entity (tiny — it
//     drops the feature vector, e.g. 5.4 MB vs 1.3 GB for Citeseer), and
//   * a bounded buffer of B entities nearest the hyperplane — exactly the
//     tuples Hazy's water lines say are likely to change labels.
//
// Single-entity reads follow Figure 8: ε-map + water lines answer certain
// tuples without any I/O; the buffer answers most of the rest; only misses
// touch the disk structure.

#ifndef HAZY_CORE_HYBRID_H_
#define HAZY_CORE_HYBRID_H_

#include <unordered_map>
#include <vector>

#include "core/hazy_od.h"

namespace hazy::core {

/// \brief Hybrid main-memory/on-disk classification view.
class HybridView : public HazyODView {
 public:
  HybridView(ViewOptions options, storage::BufferPool* pool)
      : HazyODView(options, pool),
        buffer_capacity_(options.hybrid_buffer_capacity) {}

  StatusOr<int> SingleEntityRead(int64_t id) override;
  size_t MemoryBytes() const override;
  const char* name() const override {
    return options_.mode == Mode::kEager ? "hybrid-eager" : "hybrid-lazy";
  }

  /// Resident size of the ε-map alone (the Fig 6(A) column).
  size_t EpsMapBytes() const;
  /// Resident size of the entity buffer.
  size_t BufferBytes() const;
  size_t buffer_size() const { return buffer_.size(); }
  size_t buffer_capacity() const { return buffer_capacity_; }

  /// Re-targets the buffer capacity (used by the Fig 6(B) sweep); takes
  /// effect at the next reorganization.
  void set_buffer_capacity(size_t capacity) { buffer_capacity_ = capacity; }

 protected:
  Status ClassifyWindow(const std::vector<WindowEntry>& window,
                        std::vector<int8_t>* labels) override;
  StatusOr<uint64_t> ReclassifyWindow(const std::vector<WindowEntry>& window) override;
  StatusOr<int> ReadWindowLabel(int64_t id, storage::Rid rid) override;
  void OnReorganized(const std::vector<EntityRecord>& sorted,
                     const std::vector<storage::Rid>& rids) override;
  void OnEntityAppended(const EntityRecord& rec, storage::Rid rid) override;

 private:
  struct BufferedEntity {
    ml::FeatureVector features;
    int label;
  };

  size_t buffer_capacity_;
  std::unordered_map<int64_t, double> eps_map_;
  std::unordered_map<int64_t, BufferedEntity> buffer_;
};

}  // namespace hazy::core

#endif  // HAZY_CORE_HYBRID_H_
