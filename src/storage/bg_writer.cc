#include "storage/bg_writer.h"

#include <utility>
#include <vector>

#include "common/logging.h"

namespace hazy::storage {

void BackgroundWriter::Start() {
  stop_.store(false, std::memory_order_relaxed);
  thread_ = std::thread([this] { ThreadMain(); });
}

void BackgroundWriter::Stop() {
  if (!thread_.joinable()) return;
  stop_.store(true, std::memory_order_relaxed);
  {
    // Taking the mutex before notifying closes the race with a thread that
    // checked stop_ and is about to wait.
    MutexLock lock(pool_->mu_);
  }
  pool_->writer_cv_.NotifyAll();
  thread_.join();
}

void BackgroundWriter::ReplenishFreeFramesLocked() {
  const size_t target = pool_->writer_options_.free_target;
  const size_t max_queue = pool_->writer_options_.max_queue;
  while (pool_->free_frames_.size() < target && !pool_->lru_.empty()) {
    size_t f = pool_->lru_.back();
    BufferPool::Frame& frame = pool_->frames_[f];
    if (frame.dirty && pool_->write_queue_.size() >= max_queue) break;
    pool_->lru_.pop_back();
    frame.in_lru = false;
    pool_->stats_.evictions.fetch_add(1, std::memory_order_relaxed);
    if (frame.dirty) {
      pool_->DetachToWriteQueueLocked(frame);
    } else {
      pool_->page_table_.erase(frame.page_id);
      frame.page_id = kInvalidPageId;
      pool_->RecycleBufferLocked(std::move(frame.data));
    }
    pool_->free_frames_.push_back(f);
  }
}

void BackgroundWriter::ThreadMain() {
  MutexLock lock(pool_->mu_);
  std::vector<std::unique_ptr<BufferPool::PendingWrite>> batch;
  uint64_t batches = 0;
  while (true) {
    while (!stop_.load(std::memory_order_relaxed) &&
           !pool_->WriterHasWorkLocked()) {
      pool_->writer_cv_.Wait(pool_->mu_);
    }
    if (stop_.load(std::memory_order_relaxed)) break;

    ReplenishFreeFramesLocked();

    pool_->PopBatchLocked(pool_->writer_options_.batch_pages, &batch);
    if (batch.empty()) {
      // Replenishment may have freed frames a victim-seeker waits on, and a
      // canceled-only queue still counts as drained.
      pool_->writeback_cv_.NotifyAll();
      continue;
    }

    Status s = pool_->RetireBatchLocked(&batch);
    if (!s.ok()) {
      HAZY_LOG(Warning) << "background write-back stalled: " << s.ToString();
      continue;
    }
    const size_t sync_every = pool_->writer_options_.sync_interval_batches;
    if (sync_every > 0 && ++batches % sync_every == 0) {
      // Background data-file sync: amortizes the OS write-back debt the
      // page writes accumulate, so a checkpoint's commit-section fsync
      // finds little left to flush. Best-effort — durability still rests
      // on the WAL + the checkpoint's own fsyncs.
      lock.Unlock();
      (void)pool_->pager_->Sync();
      lock.Lock();
    }
  }
  // Exiting: anyone waiting for the queue must not sleep forever on a
  // thread that is gone.
  pool_->writeback_cv_.NotifyAll();
}

}  // namespace hazy::storage
