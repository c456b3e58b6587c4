// Bridges the existing per-subsystem stats structs (WalStats,
// BufferPoolStats, PagerStats, ViewStats) into the metrics registry as
// collector callbacks. The structs stay the source of truth — tests and
// benches keep reading them directly — and the registry polls them at
// snapshot time. Each Register* returns the collector handle; the owner
// unregisters it before destroying the subsystem (the registry folds the
// final counter values into retired totals, so lifetime counts survive).

#ifndef HAZY_OBS_STATS_COLLECTORS_H_
#define HAZY_OBS_STATS_COLLECTORS_H_

#include <cstdint>
#include <string>

namespace hazy::core {
struct ViewStats;
}  // namespace hazy::core
namespace hazy::storage {
class BufferPool;
class Pager;
class Wal;
}  // namespace hazy::storage

namespace hazy::obs {

// `labels` is a preformatted Prometheus label body (no braces), e.g.
// `db="spam.hz"`, attached to every sample the collector emits.

uint64_t RegisterWalStats(const storage::Wal* wal, std::string labels);
uint64_t RegisterBufferPoolStats(const storage::BufferPool* pool,
                                 std::string labels);
uint64_t RegisterPagerStats(const storage::Pager* pager, std::string labels);
/// Exports the counters the engine books for one view (engine::ManagedView
/// owns `stats` and unregisters before it goes away).
uint64_t RegisterViewStats(const core::ViewStats* stats, std::string labels);

void UnregisterStats(uint64_t id);

}  // namespace hazy::obs

#endif  // HAZY_OBS_STATS_COLLECTORS_H_
