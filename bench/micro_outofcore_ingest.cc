// Out-of-core ingest throughput: rows/s for a sustained row-update stream
// over a checkpointed table whose working set exceeds the buffer pool by
// >= 4x, under kGroupCommit — the workload the background write-back
// thread (storage/bg_writer.h) exists for.
//
// The stream patches existing rows in place (the shape of the paper's
// eager relabel maintenance and of any upsert-heavy ingest), so every data
// page was live at the last checkpoint: its first post-checkpoint eviction
// must log a before-image and make the WAL durable before the page may
// reach the file. Eviction detaches the dirty buffer to the writer's queue;
// the writer batches the before-images and coalesces the fsync (one per
// 64-page batch), off the ingest thread.
//
// Both configs bound the replayable WAL at the same byte threshold —
// unbounded replay is not an option for sustained ingest — so each
// checkpoint epoch re-arms before-imaging and the eviction cost recurs:
//
//   async write-back the WAL bound comes from explicit threshold
//                    CHECKPOINTs (the operator-script equivalent)
//   async + daemon   the background checkpointer takes over the WAL bound
//                    (wal_checkpoint_bytes), pre-flushing concurrently and
//                    pausing ingest only for the commit section
//
//   HAZY_BENCH_SCALE   row-count scale (default 0.01; 400k updates at 1.0)
//   --json[=path]      also emit machine-readable results

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "common/timer.h"
#include "engine/database.h"
#include "persist/checkpoint_daemon.h"
#include "storage/pager.h"
#include "storage/wal.h"

using namespace hazy;
using namespace hazy::bench;

namespace {

constexpr size_t kPoolPages = 192;          // 1.5 MiB of frames
constexpr size_t kValueBytes = 2048;        // ~4 rows/page: eviction-heavy
constexpr size_t kRowsPerBatch = 1024;      // one commit marker per batch
constexpr uint64_t kWalBound = 24ull << 20; // replayable-tail budget, all configs

struct RunResult {
  double rows_per_s = 0;
  uint64_t wal_syncs = 0;
  uint64_t evictions = 0;
  uint64_t peak_wal_bytes = 0;
  uint64_t checkpoints = 0;
};

RunResult RunConfig(size_t table_rows, size_t updates, bool daemon) {
  engine::DatabaseOptions opts;
  opts.buffer_pool_pages = kPoolPages;
  opts.wal.sync_mode = storage::WalOptions::SyncMode::kGroupCommit;
  opts.wal.group_commit_interval = 64;
  opts.checkpointer.enabled = daemon;
  opts.checkpointer.wal_checkpoint_bytes = kWalBound;
  opts.checkpointer.poll_seconds = 0.005;
  engine::Database db(opts);
  HAZY_CHECK_OK(db.Open());
  auto table = db.catalog()->CreateTable(
      "ingest",
      storage::Schema(
          {{"id", storage::ColumnType::kInt64}, {"v", storage::ColumnType::kText}}),
      0);
  HAZY_CHECK_OK(table.status());
  std::string value(kValueBytes, 'x');

  // Phase 1 (untimed): bulk-load the table and checkpoint, so every data
  // page is part of the durable image — post-checkpoint evictions owe the
  // WAL a before-image, exactly the out-of-core steady state.
  for (size_t i = 0; i < table_rows;) {
    db.BeginUpdateBatch();
    const size_t end = std::min(table_rows, i + kRowsPerBatch);
    for (; i < end; ++i) {
      HAZY_CHECK_OK((*table)->Insert(storage::Row{static_cast<int64_t>(i), value}));
    }
    HAZY_CHECK_OK(db.EndUpdateBatch());
  }
  HAZY_CHECK_OK(db.Checkpoint().status());
  db.buffer_pool()->ResetStats();

  // Phase 2 (timed): the update stream, sequential over the table (the
  // page-sequential churn of a relabel sweep), same-size values so rows
  // patch in place.
  RunResult r;
  const uint64_t syncs_before = db.wal()->stats().syncs;
  Timer timer;
  for (size_t i = 0; i < updates;) {
    db.BeginUpdateBatch();
    const size_t end = std::min(updates, i + kRowsPerBatch);
    for (; i < end; ++i) {
      const int64_t key = static_cast<int64_t>(i % table_rows);
      value[0] = static_cast<char>('a' + (i / table_rows) % 26);
      HAZY_CHECK_OK((*table)->UpdateByKey(key, storage::Row{key, value}));
    }
    HAZY_CHECK_OK(db.EndUpdateBatch());
    r.peak_wal_bytes = std::max(r.peak_wal_bytes, db.wal()->tail_bytes());
    if (!daemon && db.wal()->tail_bytes() >= kWalBound) {
      // Foreground threshold checkpoint: without the daemon this is the
      // only way to bound replay length, and it is part of the workload.
      HAZY_CHECK_OK(db.Checkpoint().status());
    }
  }
  const double secs = timer.ElapsedSeconds();
  r.rows_per_s = static_cast<double>(updates) / secs;
  r.wal_syncs = db.wal()->stats().syncs - syncs_before;
  r.evictions = db.buffer_pool()->stats().evictions.load();
  r.checkpoints = db.checkpoint_epoch() - 1;  // epoch 1 = the phase-1 seal
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  InitBenchReport(argc, argv);
  const double scale = BenchScale();
  // The floor keeps the >= 4x-pool invariant even at tiny CI scales.
  const size_t table_rows = 6000;
  const size_t updates =
      std::max<size_t>(table_rows, static_cast<size_t>(400000 * scale));
  const double data_mb = static_cast<double>(table_rows) *
                         static_cast<double>(kValueBytes + 32) / (1 << 20);
  const double pool_mb = static_cast<double>(kPoolPages) * 8192.0 / (1 << 20);

  std::printf("== micro_outofcore_ingest: update stream beyond the buffer pool ==\n");
  std::printf("%zu-row table x %zu B (~%.0f MiB data, %.1f MiB pool = %.1fx), "
              "%zu in-place updates,\ngroup commit 64, batches of %zu\n\n",
              table_rows, kValueBytes, data_mb, pool_mb, data_mb / pool_mb,
              updates, kRowsPerBatch);
  HAZY_CHECK(data_mb >= 4 * pool_mb) << "working set must exceed 4x pool";

  TablePrinter table({"Config", "rows/s", "wal fsyncs", "evictions",
                      "peak WAL MiB", "ckpts"});
  auto add = [&](const char* label, const RunResult& r) {
    char syncs[32], evs[32], walmb[32], ckpts[32];
    std::snprintf(syncs, sizeof(syncs), "%llu",
                  static_cast<unsigned long long>(r.wal_syncs));
    std::snprintf(evs, sizeof(evs), "%llu",
                  static_cast<unsigned long long>(r.evictions));
    std::snprintf(walmb, sizeof(walmb), "%.1f",
                  static_cast<double>(r.peak_wal_bytes) / (1 << 20));
    std::snprintf(ckpts, sizeof(ckpts), "%llu",
                  static_cast<unsigned long long>(r.checkpoints));
    table.AddRow({label, FormatRate(r.rows_per_s), syncs, evs, walmb, ckpts});
  };

  RunResult async_r = RunConfig(table_rows, updates, /*daemon=*/false);
  add("async write-back", async_r);
  ReportMetric("micro_outofcore_ingest", "async_writeback_rows_per_s",
               async_r.rows_per_s, "rows/s");

  RunResult daemon_r = RunConfig(table_rows, updates, /*daemon=*/true);
  add("async + checkpoint daemon", daemon_r);
  ReportMetric("micro_outofcore_ingest", "async_daemon_rows_per_s",
               daemon_r.rows_per_s, "rows/s");
  ReportMetric("micro_outofcore_ingest", "daemon_peak_wal_mb",
               static_cast<double>(daemon_r.peak_wal_bytes) / (1 << 20), "MiB");

  table.Print();
  std::printf("\nthe background writer batches the evicted pages' before-images\n"
              "(%zu pages per fsync) off the ingest thread, and the checkpoint\n"
              "daemon keeps the replayable WAL tail bounded while ingest runs.\n",
              storage::BgWriterOptions{}.batch_pages);
  return FlushBenchReport();
}
