// Durable view catalog + checkpoint/recovery (the persist subsystem's top
// layer). This is the mechanism that makes the paper's pitch literal: the
// classification views' state — models, entity sets, feature statistics,
// replay logs — *lives in the RDBMS*, in relations, and survives the process.
//
// Layout inside the database file:
//
//   page 0                  header page: magic, format version, a pointer to
//                           the current master-catalog chain, and the
//                           checkpoint epoch. Rewritten last — flipping this
//                           pointer is the atomic commit of a checkpoint.
//   master-catalog chain    a linked list of raw pages holding one serialized
//                           record: every table's name, schema, primary key
//                           and heap-chain metadata as of the checkpoint.
//                           Each checkpoint writes a *new* chain and then
//                           swaps the header pointer (write-temp-then-swap);
//                           a crash mid-checkpoint leaves the old chain — and
//                           therefore the old, complete checkpoint — intact.
//   __hazy_views            system table: one row per classification view
//                           per epoch (row_key = epoch * 4096 + view_id) with
//                           its name and architecture — the durable analogue
//                           of Hazy's view catalog relation.
//   __hazy_view_state       system table: one (possibly overflow-spilled) row
//                           per view per epoch holding the full state blob:
//                           view definition, label vocabulary, example
//                           replay log, feature-function statistics, the
//                           model, the trainer's step count, and the
//                           entities (id + features) as one flat sequence in
//                           epoch-store order.
//
// State rows are keyed by epoch, so a checkpoint never overwrites the rows
// the previous checkpoint committed. Rows of superseded epochs are
// garbage-collected only *after* the header flip makes the new epoch
// durable (deleting a row frees its overflow pages for reuse, so rows the
// durable image references must stay untouched while a newer checkpoint
// could still fail); orphans of a crashed attempt at the upcoming epoch are
// purged just before rewriting it.

#ifndef HAZY_PERSIST_CHECKPOINT_H_
#define HAZY_PERSIST_CHECKPOINT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace hazy::engine {
class Database;
class ManagedView;
struct ClassificationViewDef;
}  // namespace hazy::engine

namespace hazy::persist {

class StateReader;
class StateWriter;

/// System-table names (reserved; surfaced by the shell's \d like any table).
inline constexpr char kViewsTableName[] = "__hazy_views";
inline constexpr char kViewStateTableName[] = "__hazy_view_state";

/// Maximum number of classification views per database (bounds the
/// epoch-keyed row-id scheme of the system tables).
inline constexpr int64_t kMaxViewsPerDatabase = 4096;

/// True for '__hazy*' names (case-insensitive, like the catalog): the
/// persist subsystem's reserved namespace. User DDL/DML and classification
/// views must not touch these tables.
bool IsReservedTableName(std::string_view name);

/// True when the buffer holds a hazy database header page (magic match).
/// Lets Database::Open distinguish a crash's torn tail-page write (valid
/// header, misaligned size — truncate and recover) from a foreign file that
/// must never be touched.
bool IsHazyHeaderPage(const char* page0);

/// Serializers for a classification-view definition (shared between the
/// checkpoint state blobs and the WAL's CREATE VIEW logical records).
void PutViewDef(StateWriter* w, const engine::ClassificationViewDef& def);
Status GetViewDef(StateReader* r, engine::ClassificationViewDef* def);

/// \brief Checkpoints and recovers a Database's full classification-view
/// stack through its own storage engine.
class ViewCheckpointer {
 public:
  explicit ViewCheckpointer(engine::Database* db) : db_(db) {}

  /// Formats the header page of a freshly created database file.
  Status InitFresh();

  /// Writes a checkpoint: snapshots all view state into the system tables,
  /// persists the table catalog, and atomically swaps the header to the new
  /// epoch. Returns the new epoch.
  StatusOr<uint64_t> Checkpoint();

  /// Recovers an existing database file to an exact point. In order: the
  /// write-ahead log rolls the file back to the checkpoint its before-images
  /// protect (or is discarded when a completed checkpoint already absorbed
  /// it); the catalog, tables, and managed views are rebuilt from the
  /// durable checkpoint with zero model retraining and the maintenance
  /// triggers rewired; unreachable pages — pre-restart view-state chains,
  /// rolled-back post-checkpoint allocations — are swept into the pager free
  /// list; and the log's committed logical records are replayed through the
  /// trigger machinery so base tables AND views land on checkpoint +
  /// committed suffix, never a mixed state.
  Status Recover();

  /// Serializes one view's full durable state (definition, vocabulary,
  /// replay log, feature statistics, model, trainer step count, and the
  /// entities of its latest published epoch) — the row format of
  /// __hazy_view_state, also used by Database::Compact. Never called inside
  /// an update batch, so that epoch is the view's current state.
  Status SerializeViewState(engine::ManagedView& mv, std::string* blob);

  /// Inverse of SerializeViewState: rebuilds a managed view, registers it
  /// with the database, and arms its triggers.
  Status RestoreViewFromBlob(std::string_view blob);

 private:
  Status EnsureSystemTables();
  Status DeleteRowsWhere(const std::function<bool(uint64_t epoch)>& stale);
  Status CollectGarbageRows(uint64_t keep_epoch);
  Status WriteViewRows(uint64_t epoch);
  Status WriteMasterRecord(uint64_t epoch, uint32_t* new_head);
  Status ReadMasterRecord(uint32_t head, std::string* out,
                          std::vector<uint32_t>* chain_pages = nullptr);
  Status FreeChain(uint32_t head);
  Status RecoverViews(uint64_t epoch);

  /// Rolls the database file back to the log's base checkpoint (applies
  /// every before-image) when the log is current, or discards a stale log.
  /// Sets *replay_pending when committed logical records await replay.
  Status DisposeWal(bool* replay_pending);

  /// Mark-and-sweep over the recovered image: every page not reachable from
  /// the header, master chain, or a table heap joins the pager free list.
  /// `persisted_free` (the list saved in the master record) cross-checks
  /// reachability: a page both declared free and reachable is corruption.
  Status SweepFreePages(const std::vector<uint32_t>& chain_pages,
                        const std::vector<uint32_t>& persisted_free);

  engine::Database* db_;
};

}  // namespace hazy::persist

#endif  // HAZY_PERSIST_CHECKPOINT_H_
