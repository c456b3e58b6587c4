#include "persist/checkpoint_daemon.h"

#include <chrono>
#include <mutex>

#include "common/logging.h"
#include "common/timer.h"
#include "engine/database.h"
#include "storage/buffer_pool.h"
#include "storage/wal.h"

namespace hazy::persist {

CheckpointDaemon::CheckpointDaemon(engine::Database* db,
                                   CheckpointDaemonOptions options)
    : db_(db), options_(options) {}

CheckpointDaemon::~CheckpointDaemon() { Stop(); }

void CheckpointDaemon::Start() {
  if (thread_.joinable()) return;
  stop_.store(false, std::memory_order_relaxed);
  thread_ = std::thread([this] { ThreadMain(); });
}

void CheckpointDaemon::Stop() {
  if (!thread_.joinable()) return;
  stop_.store(true, std::memory_order_relaxed);
  {
    // Taking the mutex before notifying closes the race with a thread that
    // checked stop_ and is about to wait (same discipline as the
    // background writer's Stop).
    MutexLock lock(mu_);
  }
  cv_.NotifyAll();
  thread_.join();
}

void CheckpointDaemon::set_wal_checkpoint_bytes(uint64_t bytes) {
  {
    MutexLock lock(mu_);
    options_.wal_checkpoint_bytes = bytes;
  }
  cv_.NotifyAll();
}

void CheckpointDaemon::set_interval_seconds(double seconds) {
  {
    MutexLock lock(mu_);
    options_.interval_seconds = seconds;
  }
  cv_.NotifyAll();
}

CheckpointDaemonOptions CheckpointDaemon::options() const {
  MutexLock lock(mu_);
  return options_;
}

void CheckpointDaemon::Poke() { cv_.NotifyAll(); }

Status CheckpointDaemon::last_error() const {
  MutexLock lock(mu_);
  return last_error_;
}

bool CheckpointDaemon::ShouldCheckpointLocked(double since_last_seconds) const {
  const storage::Wal* wal = db_->wal();
  if (wal == nullptr) return false;
  if (options_.wal_checkpoint_bytes > 0 &&
      wal->tail_bytes() >= options_.wal_checkpoint_bytes) {
    return true;
  }
  return options_.interval_seconds > 0 &&
         since_last_seconds >= options_.interval_seconds;
}

void CheckpointDaemon::ThreadMain() {
  Timer since_last;
  uint64_t last_epoch = db_->checkpoint_epoch();
  MutexLock lock(mu_);
  while (!stop_.load(std::memory_order_relaxed)) {
    const auto poll =
        std::chrono::duration<double>(options_.poll_seconds <= 0 ? 0.05
                                                                 : options_.poll_seconds);
    cv_.WaitFor(mu_, poll);
    if (stop_.load(std::memory_order_relaxed)) break;
    // A checkpoint taken by anyone — manual CHECKPOINT, the batch-boundary
    // hand-off — restarts the interval clock; the daemon must not follow
    // it with an immediate redundant one.
    const uint64_t epoch = db_->checkpoint_epoch();
    if (epoch != last_epoch) {
      last_epoch = epoch;
      since_last.Reset();
    }
    if (!ShouldCheckpointLocked(since_last.ElapsedSeconds())) continue;
    lock.Unlock();

    // Copy phase: flush the dirty pool (pending write-back queue included)
    // concurrently with foreground statements. Safe without the statement
    // mutex — pinned frames (bytes possibly mid-mutation) are skipped,
    // page-level write-back of the rest is idempotent and WAL-protected,
    // and a frame re-dirtied mid-flush keeps its dirty bit. This drains the
    // bulk of the checkpoint's I/O before anything pauses.
    Status s = db_->buffer_pool()->FlushUnpinned();

    // Commit section: the ordinary exact checkpoint under the statement
    // mutex, which is only ever try_locked here. The threads that Stop()
    // this daemon (PRAGMA checkpoint_daemon = off, VACUUM, close) join it
    // while holding the mutex, so a blocking lock() could deadlock. The
    // request is posted first: when a statement holds the mutex, it runs
    // the checkpoint at its end, a delay of at most that one statement (an
    // open update batch runs it at its outermost end). Either way
    // Database::CheckpointIfRequested reports back via RecordCheckpoint.
    if (s.ok()) {
      db_->RequestCheckpoint();
      std::unique_lock<std::recursive_mutex> stmt_lock(*db_->statement_mutex(),
                                                       std::try_to_lock);
      if (stmt_lock.owns_lock()) db_->CheckpointIfRequested();
    }

    lock.Lock();
    if (!s.ok()) {
      last_error_ = s;
      HAZY_LOG(Warning) << "background pre-flush failed: " << s.ToString();
    }
  }
}

void CheckpointDaemon::RecordCheckpoint(const Status& s) {
  MutexLock lock(mu_);
  if (s.ok()) {
    checkpoints_.fetch_add(1, std::memory_order_relaxed);
    last_error_ = Status::OK();
    return;
  }
  last_error_ = s;
  HAZY_LOG(Warning) << "background checkpoint failed: " << s.ToString();
}

}  // namespace hazy::persist
