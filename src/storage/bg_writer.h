// Background write-back thread for the buffer pool's write queue.
//
// Every eviction of a dirty frame detaches the frame's buffer onto the
// pool's write queue and recycles the frame. With this thread running, the
// evicting thread returns at once and the thread retires the queue in
// batches through BufferPool::WriteBatch (the same routine a pool without a
// writer runs inline on the evicting thread):
//
//   1. before-images are logged for every first-dirty page of the batch
//      (buffered appends, no fsync),
//   2. ONE Wal::EnsureDurable coalesces the write-ahead fsync over the whole
//      batch,
//   3. the page images are LSN-stamped and written to the database file.
//
// None of the I/O holds the pool mutex, and none of it runs on the faulting
// thread: scan and update threads keep faulting and evicting while a batch
// is in flight. The thread also keeps a low-water stock of free frames
// replenished ahead of demand, recycling clean LRU-tail frames (and
// detaching dirty ones) so a foreground fault can grab a frame without ever
// waiting on the I/O of an unrelated page.
//
// Durability contract: a detached buffer is the ONLY copy of its page until
// the write lands. The pool therefore (a) serves fetches of a queued page by
// reclaiming the buffer (never by reading the stale on-disk copy), (b) makes
// fetches racing the in-flight write wait for it, and (c) drains the queue
// in FlushAll before a checkpoint declares the file consistent. A crash
// simply loses the queue — exactly like losing dirty frames — and the WAL
// replays the committed operations behind it.

#ifndef HAZY_STORAGE_BG_WRITER_H_
#define HAZY_STORAGE_BG_WRITER_H_

#include <atomic>
#include <thread>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "storage/buffer_pool.h"

namespace hazy::storage {

/// \brief The write-back thread. Owned by (and a friend of) the BufferPool;
/// all shared state lives in the pool under the pool's mutex, so this class
/// is just the thread loop plus its batch staging.
class BackgroundWriter {
 public:
  explicit BackgroundWriter(BufferPool* pool) : pool_(pool) {}
  ~BackgroundWriter() { Stop(); }

  BackgroundWriter(const BackgroundWriter&) = delete;
  BackgroundWriter& operator=(const BackgroundWriter&) = delete;

  void Start();

  /// Signals the thread and joins it. Idempotent. Entries still queued are
  /// left for the pool (reclaim, the next inline drain, FlushAll).
  void Stop() EXCLUDES(pool_->mu_);

 private:
  void ThreadMain() EXCLUDES(pool_->mu_);

  /// Recycles clean LRU-tail frames (and detaches dirty ones) until the
  /// pool's free-frame stock reaches the low-water target. Holds mu_ —
  /// pointer shuffling only, no I/O.
  void ReplenishFreeFramesLocked() REQUIRES(pool_->mu_);

  BufferPool* pool_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
};

}  // namespace hazy::storage

#endif  // HAZY_STORAGE_BG_WRITER_H_
