// The RDBMS integration layer (paper Sections 2.1 and B.1): base tables in
// the storage engine, insert/delete triggers monitoring the entity and
// example tables, and a registry of managed classification views. This is
// the in-process analogue of Hazy's PostgreSQL deployment (triggers + a
// Hazy process reached over IPC).

#ifndef HAZY_ENGINE_DATABASE_H_
#define HAZY_ENGINE_DATABASE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/classifier_view.h"
#include "core/epoch.h"
#include "core/view_factory.h"
#include "features/feature_function.h"
#include "ml/loss.h"
#include "ml/model.h"
#include "ml/sgd.h"
#include "persist/checkpoint_daemon.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"
#include "storage/table.h"
#include "storage/wal.h"

namespace hazy::persist {
class ViewCheckpointer;
}  // namespace hazy::persist

namespace hazy::engine {

/// \brief Declarative description of a classification view — the SQL DDL of
/// Example 2.1 in struct form.
struct ClassificationViewDef {
  std::string view_name;

  std::string entity_table;      ///< ENTITIES FROM <table>
  std::string entity_key;        ///< ... KEY <col>
  /// Column(s) fed to the feature function. Empty = all TEXT columns.
  std::vector<std::string> entity_text_columns;

  std::string label_table;       ///< LABELS FROM <table>
  std::string label_column;      ///< ... LABEL <col>

  std::string example_table;     ///< EXAMPLES FROM <table>
  std::string example_key;       ///< ... KEY <col>
  std::string example_label;     ///< ... LABEL <col>

  std::string feature_function = "tf_bag_of_words";  ///< FEATURE FUNCTION <f>
  ml::LossKind method = ml::LossKind::kHinge;        ///< USING <method>; default SVM

  /// ARCHITECTURE and MODE are recorded (DDL, WAL, checkpoint, metric
  /// labels) but select nothing in the engine yet: every view is answered
  /// from its epochs. The paper's architectures run in core:: (ViewHarness).
  core::Architecture architecture = core::Architecture::kHazyMM;
  core::Mode mode = core::Mode::kEager;
};

class Database;

/// \brief A live classification view: the feature function, the model and
/// its SGD trainer, the label-string mapping, the example log replayed by a
/// retrain, and the epoch store builder — the view's only copy of its
/// entity set. Every read answers from a published epoch.
class ManagedView {
 public:
  /// A view of `def` with an untrained model, owned by `db`.
  ManagedView(Database* db, ClassificationViewDef def);

  const std::string& name() const { return def_.view_name; }
  const ClassificationViewDef& def() const { return def_; }

  /// The current model: every example folded so far (statement mutex
  /// held by the writer; read it from the writing thread).
  const ml::LinearModel& model() const { return model_; }

  /// The model's trainer; its step count positions the learning-rate
  /// schedule and restarts at 0 with every retrain.
  const ml::SgdTrainer& trainer() const { return trainer_; }

  /// Updates and reads booked since the view was built or recovered (a
  /// restart resets them, like the WAL, pool and pager counters).
  const core::ViewStats& stats() const { return stats_; }

  // The engine-API reads: read-your-writes under the statement mutex,
  // answered from epochs (ReadEpoch).

  /// Label string of one entity under the current model.
  StatusOr<std::string> LabelOf(int64_t id);

  /// All entity ids whose current label string is `label`.
  StatusOr<std::vector<int64_t>> MembersOf(const std::string& label);

  /// Count of entities with the given label string.
  StatusOr<uint64_t> CountOf(const std::string& label);

  /// Books one read answered from an epoch (relaxed cells, safe beside the
  /// writer): a Single Entity read, or an All Members read with its scored
  /// and bound-settled row counts.
  void RecordRead() const;
  void RecordRead(const core::ScanCounts& scan) const;

  /// The label strings, positive class first.
  const std::vector<std::string>& labels() const { return labels_; }

  /// Maps +1/-1 to the label string.
  const std::string& LabelString(int sign) const {
    return sign > 0 ? labels_[0] : labels_[1];
  }

  /// Maps a label string to +1/-1 (InvalidArgument otherwise).
  StatusOr<int> LabelSign(const std::string& label) const;

  /// Pins the latest published epoch for lock-free snapshot reads. Never
  /// empty for a view the database has adopted: AdoptView publishes the
  /// first epoch before the view can be named. The pin points into this
  /// view: hold its Database::FindView handle until the pin is released.
  core::SnapshotPin PinSnapshot() { return epochs_.Pin(); }

  /// The view's epoch machinery (tests and introspection).
  const core::EpochManager& epochs() const { return epochs_; }

 private:
  friend class Database;
  friend class persist::ViewCheckpointer;

  /// Publishes the current (model, entity set) as a new read epoch. Called
  /// by every change: an example or entity insert, or a retrain. Inside an
  /// update batch it only records the request (epoch_publish_pending_); the
  /// outermost EndUpdateBatch performs the actual publish so readers never
  /// observe a partially applied statement. No-op until Database::AdoptView
  /// has published the first epoch: before that no reader can see the view.
  void PublishEpoch();

  /// The publish itself, batch or not.
  void PublishEpochNow();

  /// The epoch an engine-API read answers from (statement mutex held).
  /// Outside a batch every change publishes at once, so that is the latest
  /// published epoch. Inside one the changes wait for EndUpdateBatch, so it
  /// is an unpublished epoch over the sealed store builder: the caller sees
  /// its own writes and SQL readers still do not.
  core::SnapshotPin ReadEpoch();

  /// Folds one arriving training example into the model and publishes.
  void Train(const ml::LabeledExample& example);

  ClassificationViewDef def_;
  Database* db_;
  std::unique_ptr<features::FeatureFunction> feature_fn_;
  ml::LinearModel model_;
  ml::SgdTrainer trainer_;
  /// Mutable: reads book themselves through const handles.
  mutable core::ViewStats stats_;
  std::vector<std::string> labels_;  // [0] = positive, [1] = negative
  /// Replay log of (entity id, label sign) training examples in commit
  /// order, kept so deletes and label changes can retrain from scratch
  /// (paper footnote 2).
  std::vector<std::pair<int64_t, int>> example_log_;
  /// Epoch publication state (write side only; readers touch epochs_ alone).
  core::EpochManager epochs_;
  core::EpochStoreBuilder store_builder_;
  /// Set when PublishEpoch is requested inside an update batch: publishing
  /// mid-batch would let snapshot readers observe a partially applied
  /// statement, so the publish defers to the outermost EndUpdateBatch.
  bool epoch_publish_pending_ = false;
};

/// \brief Configuration for a Database instance. Eviction write-back has no
/// knobs: once recovery is done the database starts the buffer pool's
/// background writer (storage/bg_writer.h) with default tuning, and every
/// evicted dirty page leaves through its write queue.
struct DatabaseOptions {
  /// Backing file; empty = a fresh temp file.
  std::string path;
  /// Buffer-pool frames (x 8 KiB).
  size_t buffer_pool_pages = 4096;
  /// Write-ahead-log durability policy (fsync per commit vs group commit).
  storage::WalOptions wal;
  /// Background checkpointer (persist/checkpoint_daemon.h); off by default,
  /// also switchable at runtime via PRAGMA checkpoint_daemon.
  persist::CheckpointDaemonOptions checkpointer;
};

/// \brief An embedded database: catalog + triggers + classification views.
class Database {
 public:
  explicit Database(DatabaseOptions options = {});
  ~Database();

  /// Opens the backing file. A fresh file (or a fresh temp file when no path
  /// is configured) is formatted with the persist header page; an existing
  /// database file is recovered to an *exact* point: the write-ahead log
  /// first rolls the file back to the last checkpoint the views were saved
  /// at, tables attach to their heap chains, every classification view is
  /// rebuilt from its checkpointed state with zero retraining (triggers
  /// rewired), and then every committed post-checkpoint operation is
  /// replayed through the trigger machinery so the views re-train on the
  /// redone rows exactly as they did live. Pages orphaned by the crash (the
  /// pre-restart view-state chains, rolled-back allocations) are swept into
  /// the free list, so the file does not grow across restart cycles. On
  /// failure the database is left closed and reusable, and a temp file it
  /// created is removed.
  Status Open();

  /// Checkpoints the full state of all tables and classification views to
  /// the backing file (see persist/checkpoint.h for the on-disk scheme) and
  /// rebases the write-ahead log on the new epoch. Returns the new epoch.
  StatusOr<uint64_t> Checkpoint();

  /// VACUUM: checkpoints, then rewrites every live page into a fresh
  /// compacted file (tables copied row-by-row, views carried over
  /// bit-identically through their serialized state) and atomically swaps it
  /// in, truncating away all fragmentation. The swap publishes an empty
  /// view list, then the recovered views; it never waits for readers. A
  /// reader holding a FindView handle finishes on the old view's epochs;
  /// Table* and raw ManagedView* pointers handed out earlier are invalid.
  /// The checkpoint epoch restarts at 1 in the compacted lineage.
  Status Compact();

  /// Epoch of the last durable checkpoint (0 = never checkpointed).
  uint64_t checkpoint_epoch() const {
    return checkpoint_epoch_.load(std::memory_order_relaxed);
  }

  /// Path of the backing file.
  const std::string& path() const { return path_; }

  /// True between a successful Open and teardown (close, or a failed VACUUM
  /// swap that could not recover). Atomic so observers off the statement
  /// mutex (the checkpoint daemon, tests) may read it.
  bool is_open() const { return open_.load(std::memory_order_acquire); }

  storage::Catalog* catalog() { return catalog_.get(); }
  storage::BufferPool* buffer_pool() { return pool_.get(); }
  storage::Wal* wal() { return wal_.get(); }
  const storage::Wal* wal() const { return wal_.get(); }

  /// The background checkpointer, when one is running (nullptr otherwise).
  persist::CheckpointDaemon* checkpoint_daemon() { return ckpt_daemon_.get(); }

  /// The one writer lock. The engine is single-writer (triggers mutate
  /// shared view state), and this mutex is how that is enforced:
  ///   - sql::Executor holds it for every statement that is not a snapshot
  ///     read (sql::IsSnapshotRead);
  ///   - every mutating engine entry point takes it itself — Table
  ///     Insert/DeleteByKey/UpdateByKey, Catalog::CreateTable,
  ///     CreateClassificationView, Begin/EndUpdateBatch, the ManagedView
  ///     reads (they see the open batch's writes), Checkpoint's commit
  ///     section and Compact — so direct API callers are serialized without
  ///     locking anything themselves;
  ///   - the checkpoint daemon only ever try_locks it (see
  ///     persist/checkpoint_daemon.h).
  /// Recursive because those entry points nest (a statement's rows fire
  /// triggers; a checkpoint writes system-table rows; VACUUM checkpoints).
  /// Clang thread-safety analysis cannot model reentrant acquisition
  /// without reentrant_capability (too new to require), so this one mutex
  /// stays outside the annotated hazy::Mutex surface.
  std::recursive_mutex* statement_mutex() { return &statement_mu_; }

  /// Starts/stops the background checkpointer at runtime (PRAGMA
  /// checkpoint_daemon = on|off). Thresholds come from (and persist in)
  /// options().checkpointer.
  Status SetCheckpointDaemonEnabled(bool enabled);

  /// Live option state (reflects runtime PRAGMA changes).
  const DatabaseOptions& options() const { return options_; }

  /// Checkpoint-daemon thresholds (PRAGMA wal_checkpoint_bytes/_seconds);
  /// applied to a running daemon immediately, remembered otherwise.
  void SetWalCheckpointBytes(uint64_t bytes);
  void SetWalCheckpointSeconds(double seconds);

  /// Slow-statement log threshold in milliseconds (PRAGMA
  /// slow_statement_ms). Statements whose traced wall clock meets the
  /// threshold dump their span tree to the log. Negative = disabled.
  int64_t slow_statement_ms() const {
    return slow_statement_ms_.load(std::memory_order_relaxed);
  }
  void set_slow_statement_ms(int64_t ms) {
    slow_statement_ms_.store(ms, std::memory_order_relaxed);
  }

  /// Creates and populates a classification view over existing tables,
  /// and wires the triggers that keep it maintained.
  StatusOr<ManagedView*> CreateClassificationView(const ClassificationViewDef& def);

  /// An immutable list of the adopted views, published the way a view
  /// publishes its epochs: readers load it with one atomic shared_ptr load
  /// and no lock; the statement-serialized writers (AdoptView,
  /// ResetHandles) replace it whole.
  using ViewList = std::vector<std::shared_ptr<ManagedView>>;
  std::shared_ptr<const ViewList> views() const { return std::atomic_load(&views_); }

  /// The view named `name` (case-insensitive) in the published list, or
  /// null. The handle keeps the view, and any epoch pinned from it, alive
  /// across a VACUUM that replaces it in the list.
  std::shared_ptr<ManagedView> FindView(const std::string& name) const;

  /// FindView as a raw pointer, valid until the next VACUUM or close.
  StatusOr<ManagedView*> GetView(const std::string& name) const;
  bool HasView(const std::string& name) const { return FindView(name) != nullptr; }
  std::vector<std::string> ViewNames() const;

  /// Enters batched-trigger mode: triggers still train each view at once,
  /// but its epochs are published only by the outermost EndUpdateBatch, so
  /// the whole batch becomes visible to readers atomically (one epoch per
  /// view). Nestable. Inside the batch, SQL reads answer from the last
  /// published epoch; the ManagedView engine-API reads (LabelOf/MembersOf/
  /// CountOf) see the batch's writes in a private, unpublished epoch. The
  /// WAL groups the batch's mutations under one commit marker, so replay
  /// brackets them in one batch again.
  void BeginUpdateBatch();

  /// Leaves batched-trigger mode, publishing every view's epoch when the
  /// outermost batch ends. A checkpoint the background checkpointer could
  /// not take mid-batch runs here, at the batch boundary; so does one the
  /// WAL byte threshold calls for.
  Status EndUpdateBatch();

  /// Background-checkpointer hand-off: asks whoever holds the statement
  /// mutex next to checkpoint at its next statement boundary (see
  /// CheckpointIfRequested). The daemon posts it, then try_locks to take
  /// the checkpoint itself.
  void RequestCheckpoint() {
    checkpoint_requested_.store(true, std::memory_order_relaxed);
  }

  /// Runs a requested checkpoint, unless an update batch is still open
  /// (the outermost EndUpdateBatch runs it then). Called with the statement
  /// mutex held at every statement boundary: the end of each serialized
  /// SQL statement, each committed table row mutation, and each outermost
  /// batch. The outcome goes to the daemon (CheckpointDaemon::
  /// RecordCheckpoint), not to the caller: the caller's own work has
  /// committed, and the daemon asks again after a failure.
  void CheckpointIfRequested();

  bool in_update_batch() const {
    return batch_depth_.load(std::memory_order_relaxed) > 0;
  }

 private:
  friend class persist::ViewCheckpointer;

  /// Open() body; Open() wraps it with failure cleanup.
  Status OpenImpl();

  /// Brings up the async write-back thread and (when enabled) the
  /// checkpoint daemon once recovery has the database consistent.
  Status StartBackgroundServices();

  /// Publishes the WAL/pool/pager stats and every live view's stats to the
  /// global metrics registry (obs/stats_collectors.h). Idempotent per open.
  void RegisterStatsCollectors();

  /// Withdraws all registry collectors before their subsystems die;
  /// lifetime counters fold into the registry's retired totals.
  void UnregisterStatsCollectors();

  /// Replays the WAL's committed logical records through the normal table /
  /// trigger entry points (recovery redo; logical logging paused).
  Status ReplayWal();
  Status ApplyWalOp(std::string_view payload);

  /// Compact() helper: copies every user table and view into `fresh` and
  /// checkpoints it (the compacted image).
  Status CopyCompactInto(Database* fresh);

  /// Closes every handle without touching any file, in order: registry
  /// collectors, the checkpoint daemon, the background writer, the view
  /// list (published empty) and catalog, then WAL, pool and pager. The
  /// one teardown: Compact() runs it before swapping files, a failed Open
  /// and the destructor before RemoveOwnedFiles.
  void ResetHandles();

  /// Unlinks the temp file this database owns (with its -wal), or else a
  /// -wal file the current Open created next to a file it then refused,
  /// and forgets the path.
  void RemoveOwnedFiles();

  void MarkOpen() {
    created_wal_file_ = false;
    open_.store(true, std::memory_order_release);
  }

  /// Registers the insert/update/delete triggers that keep `mv` maintained
  /// (shared by view creation and checkpoint recovery).
  Status ArmTriggers(ManagedView* mv);

  /// Publishes a fully built view in a new view list after wiring its
  /// epoch metric labels and publishing its first epoch — even inside an
  /// update batch, since no reader can have seen the view yet. Every view
  /// a reader can name thus has an epoch to answer from. Returns the raw
  /// pointer; on error the view is dropped, never published.
  StatusOr<ManagedView*> AdoptView(std::unique_ptr<ManagedView> mv);

  /// Concatenates the configured text columns of an entity row.
  StatusOr<std::string> EntityDocument(const ManagedView& mv,
                                       const storage::Row& row) const;

  /// Trigger bodies.
  Status OnEntityInsert(ManagedView* mv, const storage::Row& row);
  Status OnExampleInsert(ManagedView* mv, const storage::Row& row);
  Status OnExampleDelete(ManagedView* mv, const storage::Row& row);
  Status OnExampleUpdate(ManagedView* mv, const storage::Row& old_row,
                         const storage::Row& new_row);

  /// Paper footnote 2: example deletes and label changes retrain the model
  /// from scratch; so do entity updates and deletes (the entity set, and
  /// with it the features, changed). Re-featurizes a scan of the entity
  /// table into the store builder and replays the example log.
  Status RebuildFromScratch(ManagedView* mv);

  DatabaseOptions options_;
  std::string path_;
  /// See statement_mutex().
  std::recursive_mutex statement_mu_;
  bool owns_temp_file_ = false;
  /// True while an Open that created the -wal sidecar file has not yet
  /// succeeded (so a failed open can remove it instead of leaving a stray
  /// next to a foreign file). MarkOpen clears it.
  bool created_wal_file_ = false;
  /// Mutated under the statement mutex by Begin/EndUpdateBatch; atomic so
  /// the checkpoint daemon can peek without taking it.
  std::atomic<int> batch_depth_{0};
  std::atomic<bool> checkpoint_requested_{false};
  /// True inside Checkpoint's commit section (statement mutex held).
  bool checkpoint_running_ = false;
  std::atomic<int64_t> slow_statement_ms_{-1};
  /// Registry collector handles for the storage-layer stats (WAL, pool,
  /// pager) registered by Open and released by ResetHandles. View
  /// collectors live in view_collectors_.
  std::vector<uint64_t> stats_collectors_;
  std::vector<uint64_t> view_collectors_;
  /// Advanced under the statement mutex by checkpoints; atomic so observers
  /// (tests, shell banners) can read it without the mutex.
  std::atomic<uint64_t> checkpoint_epoch_{0};
  /// See is_open(): flipped true by MarkOpen, false at the top of
  /// ResetHandles — always before the handles below are touched.
  std::atomic<bool> open_{false};
  std::unique_ptr<storage::Pager> pager_;
  std::unique_ptr<storage::BufferPool> pool_;
  std::unique_ptr<storage::Wal> wal_;
  std::unique_ptr<storage::Catalog> catalog_;
  std::unique_ptr<persist::CheckpointDaemon> ckpt_daemon_;
  /// See views(). Accessed only through std::atomic_load/store, like
  /// EpochManager::latest_. A ManagedView outlives its removal from the
  /// list while a reader holds it: it owns no page handle, and its
  /// destructor touches nothing of the database.
  std::shared_ptr<const ViewList> views_ = std::make_shared<const ViewList>();
};

}  // namespace hazy::engine

#endif  // HAZY_ENGINE_DATABASE_H_
