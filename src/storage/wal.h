// Page-level write-ahead log (ARIES-lite) for the database engine.
//
// The checkpoint subsystem (persist/checkpoint.h) gives the engine a durable,
// *internally consistent* snapshot: tables and classification views as of one
// epoch. What it cannot give on its own is exactness between checkpoints — a
// dirty base-table page evicted to the database file after the last
// checkpoint survives a crash while the views never trained on its rows. The
// WAL closes that gap with two record kinds:
//
//   before-images   The first time a page is dirtied after a checkpoint, its
//                   *on-disk* content — which is by construction its content
//                   at the checkpoint — is logged. Recovery applies every
//                   before-image, rolling the database file back to exactly
//                   the checkpoint the views were saved at. Pages allocated
//                   after the checkpoint are exempt (their checkpoint-time
//                   content is irrelevant; recovery's mark-and-sweep reclaims
//                   them).
//
//   logical records Row/DDL mutations (insert, delete, update, create table,
//                   create classification view), grouped by commit markers. After the rollback, recovery
//                   replays committed groups through the normal trigger
//                   machinery, so the views re-train on the redone rows
//                   exactly as they did live — base tables AND views land on
//                   the same point: checkpoint + committed suffix.
//
// The write-ahead rule is enforced by the buffer pool: every page carries the
// LSN of the record protecting it (storage/page.h footer), and a dirty page
// may reach the database file only after the log is durable up to that LSN
// (EnsureDurable). Commit durability is configurable: fsync per commit, or
// group commit amortizing one fsync over N commits.
//
// The log is tied to the checkpoint epoch it protects (header field): a
// checkpoint commit resets the log to the new epoch, and recovery discards a
// log whose base epoch no longer matches the database header (the crash
// happened after the checkpoint flip but before the log reset — the
// checkpoint already absorbed everything the log holds).
//
// Record framing: [u32 len][u8 type][u64 checksum][payload]; the checksum
// (FNV-1a over type+payload) makes a torn log tail — the expected shape of a
// mid-commit crash — detectable: recovery stops at the first invalid record
// and truncates the tail away.
//
// Format v2: row-level logical payloads are varint-compressed (zigzag ints,
// varint string lengths — see Table::LogRowOp / Schema::EncodeRowCompact),
// cutting the log volume of bulk-load-heavy epochs and with it replay
// length. v1 logs would misparse at replay, so they are rejected by the
// version check.

#ifndef HAZY_STORAGE_WAL_H_
#define HAZY_STORAGE_WAL_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "storage/pager.h"

namespace hazy::storage {

/// Record types in the log.
enum class WalRecordType : uint8_t {
  kBeforeImage = 1,  ///< payload: u32 page_id + kPageSize page bytes
  kLogical = 2,      ///< payload: opaque logical op (WalOp-tagged, see below)
  kCommit = 3,       ///< payload: u8 batched (1 = replay group as one update batch)
  kAbort = 4,        ///< discards the open group (a crash's uncommitted tail)
};

/// First byte of a kLogical payload. The payload layouts are owned by the
/// layers that write them (storage/table.cc, engine/database.cc); the WAL
/// treats them as opaque bytes.
enum class WalOp : uint8_t {
  kRowInsert = 1,    ///< table name, encoded row
  kRowDelete = 2,    ///< table name, u64 primary key
  kRowUpdate = 3,    ///< table name, u64 primary key, encoded new row
  kCreateTable = 4,  ///< table name, schema columns, primary key
  kCreateView = 5,   ///< serialized ClassificationViewDef
};

/// Durability policy for commit markers.
struct WalOptions {
  enum class SyncMode {
    kEveryCommit,  ///< fsync on every commit marker (default, safest)
    kGroupCommit,  ///< fsync once every `group_commit_interval` commits
    kNever,        ///< only explicit Sync()/checkpoints fsync (benchmarks)
  };
  SyncMode sync_mode = SyncMode::kEveryCommit;
  uint32_t group_commit_interval = 32;
};

/// Atomic so the background writer / checkpoint daemon can report while
/// foreground commits append (same pattern as PagerStats).
struct WalStats {
  std::atomic<uint64_t> records{0};
  std::atomic<uint64_t> before_images{0};
  std::atomic<uint64_t> commits{0};
  std::atomic<uint64_t> syncs{0};
  std::atomic<uint64_t> bytes{0};
};

/// \brief Append-only page/logical log bound to one database file.
///
/// Internally synchronized: the background write-back thread appends
/// before-images and coalesces EnsureDurable while foreground statements
/// append logical records and commit, so every mutating entry point takes
/// the log's own mutex. Open()/ScanExisting() and records() remain
/// single-threaded recovery-phase API.
class Wal {
 public:
  /// One decoded record (recovery side).
  struct Record {
    uint64_t lsn = 0;
    WalRecordType type = WalRecordType::kLogical;
    std::string payload;
  };

  Wal() = default;
  ~Wal();

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Opens (creating if absent) the log file. An existing log is scanned:
  /// valid records are retained for recovery (see records()), a torn tail is
  /// truncated, and the logged-page set is rebuilt so pages already
  /// protected this epoch are not re-imaged.
  Status Open(const std::string& path, const WalOptions& options)
      EXCLUDES(mu_);

  Status Close() EXCLUDES(mu_);
  bool is_open() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }

  /// The checkpoint epoch this log's before-images roll back to.
  uint64_t base_epoch() const { return base_epoch_; }

  /// Records recovered by Open(), in log order. Cleared by Reset().
  const std::vector<Record>& records() const { return records_; }

  /// Releases the recovered-record buffer (call once recovery has consumed
  /// it — a later crash re-reads the log file, never this vector; the
  /// before-image payloads alone can be hundreds of megabytes).
  void ClearRecords() {
    records_.clear();
    records_.shrink_to_fit();
  }

  /// Logs the page's checkpoint-time image (call before the first in-pool
  /// mutation reaches the file). Returns the record's LSN; the page must not
  /// be written back until the log is durable past it.
  StatusOr<uint64_t> AppendBeforeImage(uint32_t page_id, const char* page)
      EXCLUDES(mu_);

  /// Marks a page allocated after the base checkpoint: its checkpoint-time
  /// content is irrelevant, so it never needs a before-image this epoch.
  void NotePageAllocated(uint32_t page_id) EXCLUDES(mu_) {
    MutexLock lock(mu_);
    logged_pages_.insert(page_id);
  }

  /// True when the page already has (or needs no) before-image this epoch.
  bool PageLogged(uint32_t page_id) const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return logged_pages_.count(page_id) != 0;
  }

  /// Bytes appended since the last Reset (header included) — the length a
  /// crash would have to replay. The checkpoint daemon's size trigger.
  uint64_t tail_bytes() const { return tail_bytes_.load(std::memory_order_relaxed); }

  /// Runtime knobs (PRAGMA wal_sync / group_commit_interval).
  void set_sync_mode(WalOptions::SyncMode mode) EXCLUDES(mu_) {
    MutexLock lock(mu_);
    options_.sync_mode = mode;
  }
  void set_group_commit_interval(uint32_t n) EXCLUDES(mu_) {
    MutexLock lock(mu_);
    options_.group_commit_interval = n == 0 ? 1 : n;
  }
  WalOptions options() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return options_;
  }

  /// Appends a logical record; when not inside a group, the caller commits
  /// separately via AutoCommit() once the operation (triggers included) has
  /// fully applied. No-op while logical logging is paused.
  Status AppendLogical(std::string_view payload) EXCLUDES(mu_);

  /// Commit marker + fsync per policy. `batched` records whether the group
  /// must be replayed inside BeginUpdateBatch/EndUpdateBatch, so that its
  /// views publish one epoch for the group as they did live.
  Status Commit(bool batched) EXCLUDES(mu_);

  /// Commits the current single-op group unless a batch group is open (or
  /// logical logging is paused, or nothing was logged since the last
  /// commit).
  Status AutoCommit() EXCLUDES(mu_);

  /// Batch-group bracketing, mirroring Database::Begin/EndUpdateBatch.
  void BeginGroup() EXCLUDES(mu_) {
    MutexLock lock(mu_);
    in_group_ = true;
  }
  Status EndGroup() EXCLUDES(mu_);

  /// Suspends logical logging (checkpoint-internal system-table writes and
  /// recovery replay must not re-log themselves). Before-image logging is
  /// unaffected. Nestable.
  void PauseLogical() { logical_pause_.fetch_add(1, std::memory_order_relaxed); }
  void ResumeLogical() { logical_pause_.fetch_sub(1, std::memory_order_relaxed); }
  bool logical_paused() const {
    return logical_pause_.load(std::memory_order_relaxed) > 0;
  }

  /// Makes the log durable at least up to `lsn` (no-op if already durable).
  Status EnsureDurable(uint64_t lsn) EXCLUDES(mu_);

  /// Unconditional fsync of everything appended so far.
  Status Sync() EXCLUDES(mu_);

  /// Truncates the log to empty, rebasing it on checkpoint `epoch` — the
  /// atomic hand-off at a checkpoint commit. Clears the logged-page set and
  /// any recovered records.
  Status Reset(uint64_t epoch) EXCLUDES(mu_);

  /// Fault hook for crash-injection tests (ops "wal_append", "wal_sync").
  void SetFaultHook(FaultHook hook) EXCLUDES(mu_) {
    MutexLock lock(mu_);
    fault_hook_ = std::move(hook);
  }

  const WalStats& stats() const { return stats_; }

 private:
  // Unlocked bodies; callers hold mu_.
  Status AppendRecordLocked(WalRecordType type, std::string_view payload,
                            uint64_t* lsn) REQUIRES(mu_);
  Status CommitLocked(bool batched) REQUIRES(mu_);
  Status SyncLocked() REQUIRES(mu_);
  Status FlushBufferLocked() REQUIRES(mu_);
  Status WriteRawLocked(uint64_t offset, const char* data, size_t len)
      REQUIRES(mu_);
  Status ScanExisting() REQUIRES(mu_);
  Status WriteHeaderLocked(uint64_t epoch) REQUIRES(mu_);
  Status ResetLocked(uint64_t epoch) REQUIRES(mu_);

  mutable Mutex mu_;
  // fd_/path_/base_epoch_/records_ are written only during the
  // single-threaded open/recovery phase (class contract above); fd_'s
  // post-open mutations (Close) happen under mu_ after concurrency begins.
  int fd_ = -1;
  std::string path_;
  WalOptions options_ GUARDED_BY(mu_);
  uint64_t base_epoch_ = 0;
  uint64_t next_lsn_ GUARDED_BY(mu_) = 0;     // byte offset of the next record
  uint64_t durable_lsn_ GUARDED_BY(mu_) = 0;  // below this offset is fsync'd
  std::atomic<uint64_t> tail_bytes_{0};  // mirror of next_lsn_ for lock-free polls
  /// Append buffer: records accumulate here and reach the file in one
  /// pwrite per flush (at sync points, the size cap, or close) instead of
  /// one syscall per record — a bulk-load batch logs thousands of rows per
  /// commit marker. Invariant: buffer_start_ + buffer_.size() == next_lsn_.
  std::string buffer_ GUARDED_BY(mu_);
  uint64_t buffer_start_ GUARDED_BY(mu_) = 0;  // file offset of buffer byte 0
  bool buffer_poisoned_ GUARDED_BY(mu_) = false;  // failed statement's records
  /// Buffer prefix covered by acknowledged commit markers. When a poisoned
  /// buffer must be dropped at Close, this prefix — every group a caller
  /// was told committed — is still flushable (the failed bytes all sit
  /// after it).
  size_t acked_len_ GUARDED_BY(mu_) = 0;
  uint32_t commits_since_sync_ GUARDED_BY(mu_) = 0;
  bool in_group_ GUARDED_BY(mu_) = false;
  bool group_dirty_ GUARDED_BY(mu_) = false;  // appends since last commit
  std::atomic<int> logical_pause_{0};
  std::unordered_set<uint32_t> logged_pages_ GUARDED_BY(mu_);
  std::vector<Record> records_;
  FaultHook fault_hook_ GUARDED_BY(mu_);
  WalStats stats_;
};

/// Scoped Wal::PauseLogical/ResumeLogical (checkpoint-internal writes,
/// recovery replay, compaction copies). Tolerates a null wal.
class WalLogicalPauseGuard {
 public:
  explicit WalLogicalPauseGuard(Wal* wal) : wal_(wal) {
    if (wal_ != nullptr) wal_->PauseLogical();
  }
  ~WalLogicalPauseGuard() {
    if (wal_ != nullptr) wal_->ResumeLogical();
  }
  WalLogicalPauseGuard(const WalLogicalPauseGuard&) = delete;
  WalLogicalPauseGuard& operator=(const WalLogicalPauseGuard&) = delete;

 private:
  Wal* wal_;
};

/// The log path conventionally paired with a database file.
inline std::string WalPathFor(const std::string& db_path) { return db_path + "-wal"; }

}  // namespace hazy::storage

#endif  // HAZY_STORAGE_WAL_H_
