// LRU buffer pool over a Pager. All page access from the heap file and
// B+-tree goes through here, so "on-disk" costs are page-granular like the
// paper's PostgreSQL deployment: a scan of K tuples touches K/tuples-per-page
// pages, a reorganization rewrites the whole structure, and a point read with
// a cold cache is a real file read.
//
// When a Wal is attached (SetWal), the pool enforces the write-ahead
// protocol: the first time a page is dirtied after a checkpoint its on-disk
// (checkpoint-time) image is logged, each frame remembers the LSN of the
// record protecting it, and a dirty frame reaches the database file only
// after the log is durable past that LSN — with the LSN stamped into the
// page footer (storage/page.h) as it goes out.
//
// Every dirty page reaches the file through one path: eviction *detaches*
// the frame's buffer onto a write queue and recycles the frame, and the
// queue is retired in batches with the pool mutex released — the missing
// before-images logged, ONE Wal::EnsureDurable per batch, then the
// LSN-stamped page writes (WriteBatch, which the flushes share). Who
// retires the queue:
//
//   the writer    (StartBackgroundWriter, storage/bg_writer.h) a background
//                 thread batches it off the foreground path and keeps a
//                 low-water target of free frames stocked ahead of demand,
//                 so foreground faults never block on the I/O of unrelated
//                 pages;
//
//   the evictor   when no writer runs (recovery before the database starts
//                 its services, pools built without one, after
//                 StopBackgroundWriter), the evicting thread drains the
//                 queue inline before GetVictim returns, so the evicted page
//                 is in the file when its frame is reused.
//
// A fetch of a page whose buffer is still queued reclaims the buffer
// directly (no disk read, no lost update); a fetch racing the in-flight
// write waits for it and then reads the file.
//
// Lock discipline (checked by clang thread-safety analysis): every container
// and Frame slot is GUARDED_BY(mu_). Unlocked access to frame *bytes* is
// legal only through two protocols the analysis cannot see, each funneled
// through one annotated escape hatch:
//
//   - a pinned frame (pin_count > 0) is never victimized, detached, or
//     moved, so a PageHandle may read data()/page_id() without mu_
//     (BufferPool::FrameAt);
//   - a frame marked `flushing` (pinned by the flusher, new fetch pins wait)
//     has stable bytes for the duration of the unlocked flush write.

#ifndef HAZY_STORAGE_BUFFER_POOL_H_
#define HAZY_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "storage/pager.h"
#include "storage/wal.h"

namespace hazy::storage {

/// Plain-value snapshot of the pool counters. Each field is one relaxed
/// load taken independently: fields are internally exact but carry no
/// cross-field atomicity (hits may already include a fetch whose miss the
/// same snapshot missed). That is the documented contract for every stats
/// consumer — monitoring and benches never need a fenced multi-field view.
struct BufferPoolStatsSnapshot {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t dirty_writebacks = 0;

  double HitRate() const {
    uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) /
                            static_cast<double>(total);
  }
};

/// Hit/miss/eviction counters (reported by the experiment harnesses).
/// Atomic: the background writer completes write-backs concurrently with
/// foreground fetch accounting. Readers that look at more than one field
/// must go through Snapshot() so every field is loaded exactly once.
struct BufferPoolStats {
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> misses{0};
  std::atomic<uint64_t> evictions{0};
  std::atomic<uint64_t> dirty_writebacks{0};

  BufferPoolStatsSnapshot Snapshot() const {
    BufferPoolStatsSnapshot s;
    s.hits = hits.load(std::memory_order_relaxed);
    s.misses = misses.load(std::memory_order_relaxed);
    s.evictions = evictions.load(std::memory_order_relaxed);
    s.dirty_writebacks = dirty_writebacks.load(std::memory_order_relaxed);
    return s;
  }

  // Loads `hits` once via Snapshot: the old inline version read it twice,
  // so a concurrent bump between the reads produced a rate > 1.0.
  double HitRate() const { return Snapshot().HitRate(); }
};

/// Tuning for the write queue and its background thread
/// (storage/bg_writer.h), set by StartBackgroundWriter; a pool without a
/// writer drains its queue inline under the defaults.
struct BgWriterOptions {
  /// Max dirty pages per write-back batch; each batch costs at most one
  /// wal fsync (Wal::EnsureDurable coalesced over the batch).
  size_t batch_pages = 64;
  /// Low-water mark of free frames the writer keeps stocked ahead of
  /// demand (clamped to a quarter of the pool's capacity).
  size_t free_target = 16;
  /// Max detached dirty buffers awaiting write-back; evictions beyond this
  /// apply backpressure (wait for the writer, or retry the queue inline
  /// without one) instead of growing memory.
  size_t max_queue = 256;
  /// Every N batches the writer fdatasyncs the database file (0 = never):
  /// continuously draining the OS write-back debt in the background keeps
  /// the checkpoint commit section's own fsync — which pauses foreground
  /// statements — from paying for the whole epoch's page writes at once.
  size_t sync_interval_batches = 4;
};

class BackgroundWriter;
class BufferPool;

/// \brief RAII pin on one page frame. Unpins when destroyed.
///
/// While a PageHandle is live the underlying frame cannot be evicted; data()
/// stays valid. Call MarkDirty() after mutating the page.
class PageHandle {
 public:
  PageHandle() = default;
  PageHandle(BufferPool* pool, size_t frame);
  ~PageHandle();

  PageHandle(const PageHandle&) = delete;
  PageHandle& operator=(const PageHandle&) = delete;
  PageHandle(PageHandle&& o) noexcept;
  PageHandle& operator=(PageHandle&& o) noexcept;

  bool valid() const { return pool_ != nullptr; }
  char* data();
  const char* data() const;
  uint32_t page_id() const;
  void MarkDirty();

  /// Explicitly releases the pin (also done by the destructor).
  void Release();

 private:
  BufferPool* pool_ = nullptr;
  size_t frame_ = 0;
};

/// \brief Fixed-capacity LRU page cache.
///
/// Internally synchronized: the page table, LRU list, and pin counts are
/// guarded by one mutex, so the page-striped parallel scans of the on-disk
/// read path may Fetch/Release concurrently from pool workers. Page *bytes*
/// are not locked — concurrent access to the same page's data is safe only
/// when every accessor is a reader, or when writers own disjoint pages (the
/// striped relabel sweep mutates only pages of its own stripe). The engines
/// remain single-writer with respect to structural changes (Append, Free).
///
/// A miss drops the mutex for the duration of the pager read (the frame is
/// marked io-in-progress and pinned so it cannot be victimized), so faults
/// on distinct pages overlap their disk I/O instead of serializing —
/// out-of-core striped scans fault in parallel. Concurrent fetches of the
/// *same* missing page wait on the in-flight read. Eviction write-back and
/// its fsync leave the mutex too (see the write queue described above).
class BufferPool {
 public:
  /// `capacity` is the number of resident frames (capacity * 8 KiB bytes).
  BufferPool(Pager* pager, size_t capacity);
  ~BufferPool();

  /// Fetches a page, reading it from the pager on a miss. Pins it.
  StatusOr<PageHandle> Fetch(uint32_t page_id) EXCLUDES(mu_);

  /// Allocates a fresh zeroed page and pins it.
  StatusOr<PageHandle> New() EXCLUDES(mu_);

  /// Writes back all dirty state — the pending write-back queue first, then
  /// every dirty resident frame — with before-image logging batched and the
  /// write-ahead fsync coalesced (never issued under the pool mutex).
  /// Includes pinned frames, so it must run at a quiesced point (a
  /// checkpoint under the statement mutex): a pin means the owner
  /// may be mutating the bytes mid-write.
  Status FlushAll() EXCLUDES(mu_, flush_mu_);

  /// FlushAll minus user-pinned frames: safe to run concurrently with
  /// foreground statements (the checkpoint daemon's pre-flush). A pinned
  /// frame's bytes may be in the middle of a mutation; skipping it just
  /// leaves it for the next flush.
  Status FlushUnpinned() EXCLUDES(mu_, flush_mu_);

  /// Drops a page from the cache (if resident and unpinned) and returns it
  /// to the pager's free list. Cancels any pending write-back of the page.
  void FreePage(uint32_t page_id) EXCLUDES(mu_);

  /// Starts the background write-back thread: evictions leave their dirty
  /// buffers on the queue for it instead of draining the queue inline.
  Status StartBackgroundWriter(const BgWriterOptions& options = {})
      EXCLUDES(mu_);

  /// Stops (joins) the writer thread. Buffers still queued are NOT written
  /// here — they stay reclaimable by Fetch and go out with the next
  /// eviction's inline drain or FlushAll (the WAL protects their contents,
  /// as for any dirty frame).
  void StopBackgroundWriter() EXCLUDES(mu_);

  /// Attaches the write-ahead log (nullptr to detach). The pool logs
  /// first-dirty before-images through it and orders write-backs behind its
  /// durable horizon. Called before concurrency begins (engine open), like
  /// the constructor.
  void SetWal(Wal* wal) { wal_ = wal; }
  Wal* wal() const { return wal_; }

  const BufferPoolStats& stats() const { return stats_; }
  void ResetStats();
  size_t capacity() const { return frames_.size(); }
  Pager* pager() { return pager_; }

 private:
  friend class PageHandle;
  friend class BackgroundWriter;

  struct Frame {
    uint32_t page_id = kInvalidPageId;
    uint32_t pin_count = 0;
    bool dirty = false;
    bool io_pending = false;  // pager read in flight; bytes not valid yet
    bool flushing = false;    // flush write in flight; fetches wait (no new
                              // pin may mutate bytes mid-write)
    uint64_t dirty_gen = 0;   // bumped by MarkDirty; guards concurrent flush
    uint64_t lsn = 0;         // WAL record protecting this page (0 = none)
    std::unique_ptr<char[]> data;
    std::list<size_t>::iterator lru_it;  // valid iff pinned == 0 && resident
    bool in_lru = false;
  };

  /// One detached dirty buffer awaiting write-back (owned by write_queue_
  /// until the writer pops it into a batch).
  struct PendingWrite {
    uint32_t page_id = kInvalidPageId;
    uint64_t lsn = 0;      // protecting LSN if the before-image exists already
    bool writing = false;  // popped by the writer; I/O may be in flight
    bool canceled = false; // reclaimed/freed while queued; writer drops it
    std::unique_ptr<char[]> data;
  };

  /// The ONE annotated escape hatch for the pin protocol: a caller holding a
  /// pin (or the flushing latch) on frame `f` may touch it without mu_ —
  /// pinned frames are never victimized, detached, or moved, so the slot and
  /// its buffer are stable until the pin drops.
  Frame& FrameAt(size_t f) NO_THREAD_SAFETY_ANALYSIS { return frames_[f]; }

  void Unpin(size_t frame) EXCLUDES(mu_);
  void UnpinLocked(size_t frame) REQUIRES(mu_);
  void MarkDirtyFrame(size_t frame) EXCLUDES(mu_);

  /// Finds a frame to host a new page: a never-used frame, else LRU victim.
  /// A dirty victim is detached to the write queue, which is then drained
  /// inline when no writer thread runs; with a writer, a full queue waits
  /// for space. Either releases mu_, so callers must re-validate state. A
  /// failed inline write-back puts the frame back on the free list (the
  /// page stays queued) and returns the error.
  StatusOr<size_t> GetVictim() REQUIRES(mu_);

  /// Detaches the (unpinned, off-LRU) dirty frame's buffer onto the write
  /// queue and leaves the frame empty. Caller holds mu_ and has ensured
  /// queue space.
  void DetachToWriteQueueLocked(Frame& frame) REQUIRES(mu_);

  /// The write-ahead rule, applied to one batch of dirty pages — popped
  /// queue entries or FlushImpl's latched frames (both carry page_id, lsn
  /// and data): log the checkpoint-time image of every page first dirtied
  /// since the checkpoint, make the log durable with ONE Wal::EnsureDurable,
  /// then write each page with its protecting LSN stamped into the footer.
  /// Runs WITHOUT the pool mutex. `*written` counts the leading entries
  /// that reached the file.
  template <typename EntryPtr>
  Status WriteBatch(const std::vector<EntryPtr>& batch, size_t* written)
      EXCLUDES(mu_);

  /// Writes a popped batch with mu_ released, then re-integrates it:
  /// written entries leave the pending map and recycle their buffers, the
  /// rest go back to the queue front and the error stalls the writer. The
  /// single retire step of the writer thread and the inline drain.
  Status RetireBatchLocked(std::vector<std::unique_ptr<PendingWrite>>* batch)
      REQUIRES(mu_);

  /// True when the queue holds work or the free-frame stock is low.
  bool WriterHasWorkLocked() const REQUIRES(mu_);

  /// Pops up to `limit` queue entries into `batch` (skipping canceled
  /// ones), marking them writing. The single pop protocol shared by the
  /// writer thread and the inline drain. Caller holds mu_.
  void PopBatchLocked(size_t limit,
                      std::vector<std::unique_ptr<PendingWrite>>* batch)
      REQUIRES(mu_);

  Status FlushImpl(bool include_pinned) EXCLUDES(mu_, flush_mu_);

  /// Blocks until the queue drains; may release and re-acquire mu_ around
  /// inline batch I/O (returns with mu_ held either way).
  Status DrainWriteQueueLocked() REQUIRES(mu_);

  std::unique_ptr<char[]> TakeBufferLocked() REQUIRES(mu_);
  void RecycleBufferLocked(std::unique_ptr<char[]> buf) REQUIRES(mu_);

  Mutex flush_mu_ ACQUIRED_BEFORE(mu_);  // serializes FlushImpl bodies
  Mutex mu_;
  CondVar io_cv_;
  CondVar writer_cv_;     // wakes the writer thread
  CondVar writeback_cv_;  // wakes drain/backpressure/reclaim waiters
  Pager* pager_;
  Wal* wal_ = nullptr;  // attached before concurrency begins (SetWal)
  std::vector<Frame> frames_ GUARDED_BY(mu_);
  std::vector<size_t> free_frames_ GUARDED_BY(mu_);
  std::list<size_t> lru_ GUARDED_BY(mu_);  // front = most recent
  std::unordered_map<uint32_t, size_t> page_table_ GUARDED_BY(mu_);

  // Background write-back state (all guarded by mu_ except the thread).
  std::unique_ptr<BackgroundWriter> writer_ GUARDED_BY(mu_);
  BgWriterOptions writer_options_ GUARDED_BY(mu_);
  std::deque<std::unique_ptr<PendingWrite>> write_queue_ GUARDED_BY(mu_);
  std::unordered_map<uint32_t, PendingWrite*> pending_pages_ GUARDED_BY(mu_);
  std::vector<std::unique_ptr<char[]>> spare_buffers_ GUARDED_BY(mu_);
  size_t writing_count_ GUARDED_BY(mu_) = 0;  // popped, not yet complete
  bool writer_stalled_ GUARDED_BY(mu_) = false;  // writer hit an I/O error
  Status writer_error_ GUARDED_BY(mu_);

  BufferPoolStats stats_;
};

}  // namespace hazy::storage

#endif  // HAZY_STORAGE_BUFFER_POOL_H_
