#include "obs/stats_collectors.h"

#include <utility>

#include "core/classifier_view.h"
#include "obs/metrics.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"
#include "storage/wal.h"

namespace hazy::obs {

namespace {

double Load(const std::atomic<uint64_t>& v) {
  return static_cast<double>(v.load(std::memory_order_relaxed));
}

}  // namespace

uint64_t RegisterWalStats(const storage::Wal* wal, std::string labels) {
  return Registry::Global().RegisterCollector(
      [wal, labels = std::move(labels)](SampleList* out) {
        const storage::WalStats& s = wal->stats();
        out->Counter("hazy_wal_records_total", labels, Load(s.records));
        out->Counter("hazy_wal_before_images_total", labels,
                     Load(s.before_images));
        out->Counter("hazy_wal_commits_total", labels, Load(s.commits));
        out->Counter("hazy_wal_syncs_total", labels, Load(s.syncs));
        out->Counter("hazy_wal_bytes_total", labels, Load(s.bytes));
      });
}

uint64_t RegisterBufferPoolStats(const storage::BufferPool* pool,
                                 std::string labels) {
  return Registry::Global().RegisterCollector(
      [pool, labels = std::move(labels)](SampleList* out) {
        // Independently-consistent per-field snapshot (see BufferPoolStats).
        storage::BufferPoolStatsSnapshot s = pool->stats().Snapshot();
        out->Counter("hazy_pool_hits_total", labels,
                     static_cast<double>(s.hits));
        out->Counter("hazy_pool_misses_total", labels,
                     static_cast<double>(s.misses));
        out->Counter("hazy_pool_evictions_total", labels,
                     static_cast<double>(s.evictions));
        out->Counter("hazy_pool_dirty_writebacks_total", labels,
                     static_cast<double>(s.dirty_writebacks));
        out->Gauge("hazy_pool_hit_rate", labels, s.HitRate());
      });
}

uint64_t RegisterPagerStats(const storage::Pager* pager, std::string labels) {
  return Registry::Global().RegisterCollector(
      [pager, labels = std::move(labels)](SampleList* out) {
        const storage::PagerStats& s = pager->stats();
        out->Counter("hazy_pager_reads_total", labels, Load(s.reads));
        out->Counter("hazy_pager_writes_total", labels, Load(s.writes));
        out->Counter("hazy_pager_allocs_total", labels, Load(s.allocs));
      });
}

uint64_t RegisterViewStats(
    std::function<const core::ClassificationView*()> view, std::string labels) {
  return Registry::Global().RegisterCollector(
      [view = std::move(view), labels = std::move(labels)](SampleList* out) {
        const core::ClassificationView* v = view();
        if (v == nullptr) return;
        const core::ViewStats& s = v->stats();
        out->Counter("hazy_view_updates_total", labels, s.updates.load());
        out->Counter("hazy_view_batches_total", labels, s.batches.load());
        out->Counter("hazy_view_reorgs_total", labels, s.reorgs.load());
        out->Counter("hazy_view_incremental_steps_total", labels,
                     s.incremental_steps.load());
        out->Counter("hazy_view_window_tuples_total", labels,
                     s.window_tuples.load());
        out->Counter("hazy_view_tuples_scanned_total", labels,
                     s.tuples_scanned.load());
        out->Counter("hazy_view_rows_by_bounds_total", labels,
                     s.rows_by_bounds.load());
        out->Counter("hazy_view_label_flips_total", labels,
                     s.label_flips.load());
        out->Counter("hazy_view_single_reads_total", labels,
                     s.single_reads.load());
        out->Counter("hazy_view_reads_by_bounds_total", labels,
                     s.reads_by_bounds.load());
        out->Counter("hazy_view_reads_by_buffer_total", labels,
                     s.reads_by_buffer.load());
        out->Counter("hazy_view_reads_from_store_total", labels,
                     s.reads_from_store.load());
        out->Counter("hazy_view_all_members_total", labels,
                     s.all_members_queries.load());
        out->Counter("hazy_view_update_seconds_total", labels,
                     s.total_update_seconds.load());
        out->Counter("hazy_view_reorg_seconds_total", labels,
                     s.total_reorg_seconds.load());
        out->Gauge("hazy_view_last_reorg_cost", labels,
                   s.last_reorg_cost.load());
        double low = 0, high = 0;
        if (v->WaterLines(&low, &high)) {
          out->Gauge("hazy_view_water_low", labels, low);
          out->Gauge("hazy_view_water_high", labels, high);
        }
      });
}

void UnregisterStats(uint64_t id) {
  Registry::Global().UnregisterCollector(id);
}

}  // namespace hazy::obs
