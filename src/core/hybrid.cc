#include "core/hybrid.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"
#include "core/scan_pipeline.h"

namespace hazy::core {

void HybridView::OnReorganized(const std::vector<EntityRecord>& sorted,
                               const std::vector<storage::Rid>& rids) {
  (void)rids;
  eps_map_.clear();
  eps_map_.reserve(sorted.size());
  for (const auto& rec : sorted) eps_map_[rec.id] = rec.eps;

  // Refill the buffer with the B entities nearest the hyperplane. `sorted`
  // is in eps order, so expand outward from the sign crossover.
  buffer_.clear();
  if (buffer_capacity_ == 0 || sorted.empty()) return;
  auto cross = std::lower_bound(
      sorted.begin(), sorted.end(), 0.0,
      [](const EntityRecord& r, double v) { return r.eps < v; });
  size_t hi = static_cast<size_t>(cross - sorted.begin());  // first eps >= 0
  size_t lo = hi;  // elements below are (lo-1), (lo-2), ...
  while (buffer_.size() < buffer_capacity_ && (lo > 0 || hi < sorted.size())) {
    bool take_hi;
    if (lo == 0) {
      take_hi = true;
    } else if (hi >= sorted.size()) {
      take_hi = false;
    } else {
      take_hi = std::fabs(sorted[hi].eps) <= std::fabs(sorted[lo - 1].eps);
    }
    const EntityRecord& rec = take_hi ? sorted[hi++] : sorted[--lo];
    buffer_.emplace(rec.id, BufferedEntity{rec.features, rec.label});
  }
}

void HybridView::OnEntityAppended(const EntityRecord& rec, storage::Rid rid) {
  (void)rid;
  eps_map_[rec.id] = rec.eps;
  if (buffer_.size() < buffer_capacity_) {
    buffer_.emplace(rec.id, BufferedEntity{rec.features, rec.label});
  }
}

Status HybridView::ClassifyWindow(const std::vector<WindowEntry>& window,
                                  std::vector<int8_t>* labels) {
  labels->resize(window.size());
  // Buffered tuples are classified from memory; only the rest go through
  // the heap pipeline.
  std::vector<WindowEntry> misses;
  std::vector<size_t> miss_pos;
  for (size_t i = 0; i < window.size(); ++i) {
    auto it = buffer_.find(window[i].first);
    if (it != buffer_.end()) {
      (*labels)[i] = static_cast<int8_t>(model_.Classify(it->second.features));
    } else {
      misses.push_back(window[i]);
      miss_pos.push_back(i);
    }
  }
  if (misses.empty()) return Status::OK();
  std::vector<int8_t> miss_labels;
  HAZY_RETURN_NOT_OK(HazyODView::ClassifyWindow(misses, &miss_labels));
  for (size_t i = 0; i < misses.size(); ++i) (*labels)[miss_pos[i]] = miss_labels[i];
  return Status::OK();
}

StatusOr<uint64_t> HybridView::ReclassifyWindow(const std::vector<WindowEntry>& window) {
  uint64_t flips = 0;
  std::vector<WindowEntry> misses;
  for (const auto& entry : window) {
    auto it = buffer_.find(entry.first);
    if (it == buffer_.end()) {
      misses.push_back(entry);
      continue;
    }
    // Buffered: the buffer label is the source of truth; the on-disk copy
    // is refreshed wholesale at the next reorganization.
    int label = model_.Classify(it->second.features);
    if (label != it->second.label) ++flips;
    it->second.label = label;
  }
  HAZY_ASSIGN_OR_RETURN(uint64_t disk_flips, HazyODView::ReclassifyWindow(misses));
  return flips + disk_flips;
}

StatusOr<int> HybridView::ReadWindowLabel(int64_t id, storage::Rid rid) {
  auto it = buffer_.find(id);
  if (it != buffer_.end()) return it->second.label;
  return HazyODView::ReadWindowLabel(id, rid);
}

StatusOr<int> HybridView::SingleEntityRead(int64_t id) {
  // Figure 8's lookup algorithm.
  ++stats_.single_reads;
  auto eit = eps_map_.find(id);
  if (eit == eps_map_.end()) {
    return Status::NotFound(StrFormat("no entity %lld", static_cast<long long>(id)));
  }
  const double eps = eit->second;
  if (water_.CertainPositive(eps)) {
    ++stats_.reads_by_bounds;
    return 1;
  }
  if (water_.CertainNegative(eps)) {
    ++stats_.reads_by_bounds;
    return -1;
  }
  auto bit = buffer_.find(id);
  if (bit != buffer_.end()) {
    ++stats_.reads_by_buffer;
    if (options_.mode == Mode::kEager) return bit->second.label;
    return model_.Classify(bit->second.features);
  }
  ++stats_.reads_from_store;
  HAZY_ASSIGN_OR_RETURN(storage::Rid rid, id_index_.Get(id));
  if (options_.mode == Mode::kEager) {
    HAZY_ASSIGN_OR_RETURN(EntityHeader h, ReadEntityHeader(*heap_, rid));
    return h.label;
  }
  return ClassifyRecordAt(*heap_, rid, model_);
}

size_t HybridView::EpsMapBytes() const {
  // id (8) + eps (8) + bucket/node overhead of the hash map.
  return eps_map_.size() * (sizeof(int64_t) + sizeof(double) + 2 * sizeof(void*)) +
         eps_map_.bucket_count() * sizeof(void*);
}

size_t HybridView::BufferBytes() const {
  size_t b = 0;
  for (const auto& [id, e] : buffer_) {
    b += sizeof(int64_t) + sizeof(int) + e.features.ApproxBytes() + 2 * sizeof(void*);
  }
  return b;
}

size_t HybridView::MemoryBytes() const {
  return EpsMapBytes() + BufferBytes() + HazyODView::MemoryBytes();
}

}  // namespace hazy::core
