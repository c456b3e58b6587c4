// Background checkpointer: bounds WAL replay length under sustained ingest.
//
// Without it, the write-ahead log grows until someone calls CHECKPOINT — a
// crash after an hour of bulk load replays an hour of log. The daemon
// watches the log's tail (Wal::tail_bytes) and the wall clock, and when a
// threshold trips it takes a checkpoint in two phases:
//
//   copy phase     concurrent with foreground ingest: the pool's dirty pages
//                  and the pending write-back queue are flushed WITHOUT the
//                  statement mutex (page-level write-back is always safe —
//                  frames re-dirtied mid-flush keep their dirty bit via the
//                  per-frame generation counter, and a torn on-disk mix is
//                  WAL-protected). This drains the bulk of the checkpoint's
//                  I/O while statements keep running.
//
//   commit section the normal Database::Checkpoint under the statement
//                  mutex (Database::statement_mutex): view-state
//                  serialization, system-table rows, the (now small)
//                  residual flush, header flip, WAL rebase. Foreground
//                  statements pause only for this part.
//
// The daemon never blocks on the statement mutex: whoever stops it (PRAGMA
// checkpoint_daemon = off, VACUUM, close) holds that mutex while joining the
// thread. After the copy phase it posts Database::RequestCheckpoint and
// try_locks; on success it runs the commit section itself. Otherwise the
// lock holder runs it at its next statement boundary — the end of a SQL
// statement, a committed row mutation, or the outermost update batch
// (Database::CheckpointIfRequested). A saturating statement stream thus
// delays a checkpoint by at most one statement.
//
// Exactness is inherited, not re-proven: the commit section IS the existing
// crash-safe checkpoint, taken at a statement boundary — so the crash-
// injection suite's bit-identical recovery guarantee holds with the daemon
// racing kills. A checkpoint that fails (injected fault, crash) is retried
// at the next trip.
//
// Knobs (DatabaseOptions::checkpointer, PRAGMA wal_checkpoint_bytes /
// wal_checkpoint_seconds): a byte threshold on the log tail, an optional
// time interval, and the poll cadence.

#ifndef HAZY_PERSIST_CHECKPOINT_DAEMON_H_
#define HAZY_PERSIST_CHECKPOINT_DAEMON_H_

#include <atomic>
#include <cstdint>
#include <thread>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace hazy::engine {
class Database;
}  // namespace hazy::engine

namespace hazy::persist {

struct CheckpointDaemonOptions {
  /// Start the daemon with Database::Open. Off by default: short-lived
  /// sessions and tests keep their deterministic single-threaded shape
  /// unless they opt in (PRAGMA checkpoint_daemon = on).
  bool enabled = false;
  /// Checkpoint when the WAL tail exceeds this many bytes (0 = no size
  /// trigger). PRAGMA wal_checkpoint_bytes.
  uint64_t wal_checkpoint_bytes = 32ull << 20;
  /// Checkpoint at least this often in seconds (0 = no time trigger).
  /// PRAGMA wal_checkpoint_seconds.
  double interval_seconds = 0.0;
  /// Trigger-poll cadence.
  double poll_seconds = 0.05;
};

/// \brief The checkpoint thread. Owned by the Database; Start after
/// recovery, Stop before teardown/compaction.
class CheckpointDaemon {
 public:
  CheckpointDaemon(engine::Database* db, CheckpointDaemonOptions options);
  ~CheckpointDaemon();

  CheckpointDaemon(const CheckpointDaemon&) = delete;
  CheckpointDaemon& operator=(const CheckpointDaemon&) = delete;

  void Start();
  void Stop() EXCLUDES(mu_);
  bool running() const { return thread_.joinable(); }

  /// Runtime knobs (PRAGMA).
  void set_wal_checkpoint_bytes(uint64_t bytes) EXCLUDES(mu_);
  void set_interval_seconds(double seconds) EXCLUDES(mu_);
  CheckpointDaemonOptions options() const EXCLUDES(mu_);

  /// Wakes the daemon to evaluate its triggers now.
  void Poke();

  /// Outcome of a checkpoint this daemon asked for, whichever thread ran it
  /// (Database::CheckpointIfRequested).
  void RecordCheckpoint(const Status& s) EXCLUDES(mu_);

  /// Checkpoints taken at this daemon's request.
  uint64_t checkpoints_taken() const {
    return checkpoints_.load(std::memory_order_relaxed);
  }
  /// Last checkpoint failure (sticky until the next success); OK if none.
  Status last_error() const EXCLUDES(mu_);

 private:
  void ThreadMain() EXCLUDES(mu_);
  bool ShouldCheckpointLocked(double since_last_seconds) const REQUIRES(mu_);

  engine::Database* db_;
  mutable Mutex mu_;
  CondVar cv_;
  CheckpointDaemonOptions options_ GUARDED_BY(mu_);
  Status last_error_ GUARDED_BY(mu_);
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> checkpoints_{0};
};

}  // namespace hazy::persist

#endif  // HAZY_PERSIST_CHECKPOINT_DAEMON_H_
