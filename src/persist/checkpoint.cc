#include "persist/checkpoint.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "engine/database.h"
#include "features/feature_function.h"
#include "persist/serde.h"
#include "storage/coding.h"
#include "storage/page.h"
#include "storage/wal.h"

namespace hazy::persist {

using engine::ClassificationViewDef;
using engine::ManagedView;
using storage::ColumnType;
using storage::Row;
using storage::Schema;
using storage::Value;

namespace {

// ---------------------------------------------------------------------------
// Header page (page 0).
// ---------------------------------------------------------------------------

// The bytes "HAZYDB1\0" read as a little-endian u64.
constexpr uint64_t kHeaderMagic = 0x00314244595A4148ull;
// v2: sparse feature-vector payloads switched from interleaved (idx, val)
// pairs to parallel arrays (all indices, then all values) for the
// zero-copy scan path. v1 files would misparse, so they are rejected by
// the version check rather than read.
// v3: every page reserves a trailing LSN footer for the write-ahead log
// (storage/page.h), and the master record persists the pager free list.
// v2 page layouts would misparse, so they are rejected likewise.
// v4: a view-state blob holds the model, the trainer's step count and the
// entities themselves instead of an architecture's SaveState payload, and
// the view definition lost its method-specified flag. v3 blobs would
// misparse, so v3 files are rejected likewise.
constexpr uint32_t kFormatVersion = 4;
constexpr size_t kMagicOff = 0;
constexpr size_t kVersionOff = 8;
constexpr size_t kMasterHeadOff = 12;
constexpr size_t kEpochOff = 16;

constexpr uint32_t kMasterTag = MakeTag('H', 'Z', 'M', 'R');
constexpr uint32_t kViewStateTag = MakeTag('M', 'V', 'S', 'T');

// Chain-page layout: u32 next page, u32 used bytes, payload.
constexpr size_t kChainHeaderSize = 8;
constexpr size_t kChainCapacity = storage::kPageUsableSize - kChainHeaderSize;

int64_t RowKeyFor(uint64_t epoch, int64_t view_id) {
  return static_cast<int64_t>(epoch) * kMaxViewsPerDatabase + view_id;
}

}  // namespace

// ---------------------------------------------------------------------------
// Definition serialization.
// ---------------------------------------------------------------------------

void PutViewDef(StateWriter* w, const ClassificationViewDef& def) {
  w->PutString(def.view_name);
  w->PutString(def.entity_table);
  w->PutString(def.entity_key);
  w->PutU32(static_cast<uint32_t>(def.entity_text_columns.size()));
  for (const auto& c : def.entity_text_columns) w->PutString(c);
  w->PutString(def.label_table);
  w->PutString(def.label_column);
  w->PutString(def.example_table);
  w->PutString(def.example_key);
  w->PutString(def.example_label);
  w->PutString(def.feature_function);
  w->PutU8(static_cast<uint8_t>(def.method));
  w->PutU8(static_cast<uint8_t>(def.architecture));
  w->PutU8(static_cast<uint8_t>(def.mode));
}

Status GetViewDef(StateReader* r, ClassificationViewDef* def) {
  HAZY_RETURN_NOT_OK(r->GetString(&def->view_name));
  HAZY_RETURN_NOT_OK(r->GetString(&def->entity_table));
  HAZY_RETURN_NOT_OK(r->GetString(&def->entity_key));
  uint32_t n = 0;
  HAZY_RETURN_NOT_OK(r->GetU32(&n));
  HAZY_RETURN_NOT_OK(r->CheckCount(n));
  def->entity_text_columns.assign(n, {});
  for (auto& c : def->entity_text_columns) HAZY_RETURN_NOT_OK(r->GetString(&c));
  HAZY_RETURN_NOT_OK(r->GetString(&def->label_table));
  HAZY_RETURN_NOT_OK(r->GetString(&def->label_column));
  HAZY_RETURN_NOT_OK(r->GetString(&def->example_table));
  HAZY_RETURN_NOT_OK(r->GetString(&def->example_key));
  HAZY_RETURN_NOT_OK(r->GetString(&def->example_label));
  HAZY_RETURN_NOT_OK(r->GetString(&def->feature_function));
  uint8_t u = 0;
  HAZY_RETURN_NOT_OK(r->GetU8(&u));
  def->method = static_cast<ml::LossKind>(u);
  HAZY_RETURN_NOT_OK(r->GetU8(&u));
  def->architecture = static_cast<core::Architecture>(u);
  HAZY_RETURN_NOT_OK(r->GetU8(&u));
  def->mode = static_cast<core::Mode>(u);
  return Status::OK();
}

namespace {

Schema ViewsSchema() {
  return Schema({{"row_key", ColumnType::kInt64},
                 {"view_id", ColumnType::kInt64},
                 {"name", ColumnType::kText},
                 {"arch", ColumnType::kText},
                 {"epoch", ColumnType::kInt64}});
}

Schema ViewStateSchema() {
  return Schema({{"row_key", ColumnType::kInt64},
                 {"view_id", ColumnType::kInt64},
                 {"epoch", ColumnType::kInt64},
                 {"state", ColumnType::kText}});
}

}  // namespace

bool IsReservedTableName(std::string_view name) {
  constexpr std::string_view kPrefix = "__hazy";
  if (name.size() < kPrefix.size()) return false;
  return EqualsIgnoreCase(name.substr(0, kPrefix.size()), kPrefix);
}

bool IsHazyHeaderPage(const char* page0) {
  return storage::DecodeFixed64(page0 + kMagicOff) == kHeaderMagic;
}

Status ViewCheckpointer::InitFresh() {
  HAZY_ASSIGN_OR_RETURN(storage::PageHandle h, db_->pool_->New());
  if (h.page_id() != 0) {
    return Status::Internal("header page must be page 0 of a fresh file");
  }
  char* d = h.data();
  storage::EncodeFixed64(d + kMagicOff, kHeaderMagic);
  storage::EncodeFixed32(d + kVersionOff, kFormatVersion);
  storage::EncodeFixed32(d + kMasterHeadOff, storage::kInvalidPageId);
  storage::EncodeFixed64(d + kEpochOff, 0);
  h.MarkDirty();
  h.Release();
  db_->checkpoint_epoch_ = 0;
  // Make the header durable immediately: a reopen must identify the file as
  // a (still empty) hazy database, and a zeroed page 0 is indistinguishable
  // from a foreign file, which Recover refuses to touch.
  HAZY_RETURN_NOT_OK(db_->pool_->FlushAll());
  return db_->pager_->Sync();
}

Status ViewCheckpointer::EnsureSystemTables() {
  if (!db_->catalog_->HasTable(kViewsTableName)) {
    HAZY_RETURN_NOT_OK(
        db_->catalog_->CreateTable(kViewsTableName, ViewsSchema(), 0).status());
  }
  if (!db_->catalog_->HasTable(kViewStateTableName)) {
    HAZY_RETURN_NOT_OK(
        db_->catalog_->CreateTable(kViewStateTableName, ViewStateSchema(), 0).status());
  }
  return Status::OK();
}

Status ViewCheckpointer::DeleteRowsWhere(
    const std::function<bool(uint64_t epoch)>& stale) {
  for (const char* table_name : {kViewsTableName, kViewStateTableName}) {
    HAZY_ASSIGN_OR_RETURN(storage::Table * table, db_->catalog_->GetTable(table_name));
    const Schema& schema = table->schema();
    HAZY_ASSIGN_OR_RETURN(size_t key_idx, schema.IndexOf("row_key"));
    HAZY_ASSIGN_OR_RETURN(size_t epoch_idx, schema.IndexOf("epoch"));
    std::vector<int64_t> keys;
    HAZY_RETURN_NOT_OK(table->Scan([&](const Row& row) {
      if (std::holds_alternative<int64_t>(row[epoch_idx]) &&
          stale(static_cast<uint64_t>(std::get<int64_t>(row[epoch_idx])))) {
        keys.push_back(std::get<int64_t>(row[key_idx]));
      }
      return true;
    }));
    for (int64_t key : keys) HAZY_RETURN_NOT_OK(table->DeleteByKey(key));
  }
  return Status::OK();
}

Status ViewCheckpointer::CollectGarbageRows(uint64_t keep_epoch) {
  // Rows whose epoch is not the last durable one are either superseded or
  // orphans of a checkpoint that never committed its header flip.
  return DeleteRowsWhere([&](uint64_t e) { return e != keep_epoch; });
}

Status ViewCheckpointer::SerializeViewState(ManagedView& mv, std::string* blob) {
  // A checkpoint never runs inside an update batch, so the latest published
  // epoch holds the view's current model and entity set.
  core::SnapshotPin snap = mv.PinSnapshot();
  StateWriter w(blob);
  w.PutTag(kViewStateTag);
  PutViewDef(&w, mv.def_);
  w.PutU32(static_cast<uint32_t>(mv.labels_.size()));
  for (const auto& l : mv.labels_) w.PutString(l);
  w.PutU64(mv.example_log_.size());
  for (const auto& [id, sign] : mv.example_log_) {
    w.PutI64(id);
    w.PutI32(sign);
  }
  mv.feature_fn_->SaveState(&w);
  w.PutModel(snap->model());
  w.PutU64(mv.trainer_.steps());
  // The entities as one flat sequence, in store order.
  w.PutU64(snap->num_entities());
  for (const auto& chunk : snap->store().chunks()) {
    for (const core::Entity& e : chunk->rows) {
      w.PutI64(e.id);
      w.PutFeatureVector(e.features);
    }
  }
  return Status::OK();
}

Status ViewCheckpointer::RestoreViewFromBlob(std::string_view blob) {
  StateReader r(blob);
  HAZY_RETURN_NOT_OK(r.ExpectTag(kViewStateTag));

  ClassificationViewDef def;
  HAZY_RETURN_NOT_OK(GetViewDef(&r, &def));
  auto mv = std::make_unique<ManagedView>(db_, std::move(def));

  uint32_t num_labels = 0;
  HAZY_RETURN_NOT_OK(r.GetU32(&num_labels));
  HAZY_RETURN_NOT_OK(r.CheckCount(num_labels));
  mv->labels_.assign(num_labels, {});
  for (auto& l : mv->labels_) HAZY_RETURN_NOT_OK(r.GetString(&l));

  uint64_t log_len = 0;
  HAZY_RETURN_NOT_OK(r.GetU64(&log_len));
  HAZY_RETURN_NOT_OK(r.CheckCount(log_len, 12));  // i64 id + i32 sign
  mv->example_log_.reserve(log_len);
  for (uint64_t i = 0; i < log_len; ++i) {
    int64_t id = 0;
    int32_t sign = 0;
    HAZY_RETURN_NOT_OK(r.GetI64(&id));
    HAZY_RETURN_NOT_OK(r.GetI32(&sign));
    mv->example_log_.emplace_back(id, sign);
  }

  HAZY_ASSIGN_OR_RETURN(mv->feature_fn_,
                        features::MakeFeatureFunction(mv->def_.feature_function));
  HAZY_RETURN_NOT_OK(mv->feature_fn_->LoadState(&r));

  // Zero retraining: the model and the trainer's schedule position resume
  // exactly where the checkpoint left them.
  HAZY_RETURN_NOT_OK(r.GetModel(&mv->model_));
  uint64_t steps = 0;
  HAZY_RETURN_NOT_OK(r.GetU64(&steps));
  mv->trainer_.RestoreSteps(steps);

  uint64_t num_entities = 0;
  HAZY_RETURN_NOT_OK(r.GetU64(&num_entities));
  HAZY_RETURN_NOT_OK(r.CheckCount(num_entities, 8));  // i64 id at least
  std::vector<core::Entity> ents(num_entities);
  for (core::Entity& e : ents) {
    HAZY_RETURN_NOT_OK(r.GetI64(&e.id));
    HAZY_RETURN_NOT_OK(r.GetFeatureVector(&e.features));
  }
  mv->store_builder_.ReplaceAll(std::move(ents));

  // Adoption publishes the restored view's first read epoch — recovered
  // databases serve snapshot reads immediately, answering exactly as the
  // checkpointed state did.
  HAZY_ASSIGN_OR_RETURN(ManagedView * raw, db_->AdoptView(std::move(mv)));
  return db_->ArmTriggers(raw);
}

Status ViewCheckpointer::WriteViewRows(uint64_t epoch) {
  HAZY_ASSIGN_OR_RETURN(storage::Table * views_table,
                        db_->catalog_->GetTable(kViewsTableName));
  HAZY_ASSIGN_OR_RETURN(storage::Table * state_table,
                        db_->catalog_->GetTable(kViewStateTableName));
  const auto views = db_->views();
  for (size_t i = 0; i < views->size(); ++i) {
    ManagedView& mv = *(*views)[i];
    const int64_t view_id = static_cast<int64_t>(i);
    const int64_t row_key = RowKeyFor(epoch, view_id);

    std::string blob;
    HAZY_RETURN_NOT_OK(SerializeViewState(mv, &blob));

    HAZY_RETURN_NOT_OK(state_table->Insert(
        Row{row_key, view_id, static_cast<int64_t>(epoch), std::move(blob)}));
    HAZY_RETURN_NOT_OK(views_table->Insert(Row{row_key, view_id, mv.def_.view_name,
                                               std::string(core::ArchitectureToString(
                                                   mv.def_.architecture)),
                                               static_cast<int64_t>(epoch)}));
  }
  return Status::OK();
}

Status ViewCheckpointer::WriteMasterRecord(uint64_t epoch, uint32_t* new_head) {
  std::string rec;
  StateWriter w(&rec);
  w.PutTag(kMasterTag);
  w.PutU64(epoch);
  const auto names = db_->catalog_->TableNames();
  w.PutU32(static_cast<uint32_t>(names.size()));
  for (const auto& name : names) {
    HAZY_ASSIGN_OR_RETURN(storage::Table * table, db_->catalog_->GetTable(name));
    w.PutString(name);
    const Schema& schema = table->schema();
    w.PutU32(static_cast<uint32_t>(schema.num_columns()));
    for (const auto& col : schema.columns()) {
      w.PutString(col.name);
      w.PutU8(static_cast<uint8_t>(col.type));
    }
    w.PutBool(table->primary_key().has_value());
    w.PutU32(static_cast<uint32_t>(table->primary_key().value_or(0)));
    storage::HeapFileMeta meta = table->heap_meta();
    w.PutU32(meta.first_page);
    w.PutU32(meta.last_page);
    w.PutU64(meta.num_records);
    w.PutU64(meta.num_pages);
    w.PutU64(meta.num_overflow_pages);
  }

  // The record ends with the pager free list, so a recovered database knows
  // exactly which pages the durable image does NOT own. The chain pages are
  // allocated *before* the list is serialized — each allocation either pops
  // the free list (shrinking the record) or extends the file (leaving it
  // unchanged), so the loop converges and the persisted list is exactly the
  // post-commit free state. A trailing over-allocated page simply carries
  // zero payload bytes.
  storage::Pager* pager = db_->pager_.get();
  auto record_size = [&]() {
    return rec.size() + 4 +
           4 * (pager->free_list().size() + pager->quarantined().size());
  };
  auto pages_for = [](size_t len) {
    return std::max<size_t>(1, (len + kChainCapacity - 1) / kChainCapacity);
  };
  std::vector<storage::PageHandle> pages;
  while (pages.size() < pages_for(record_size())) {
    HAZY_ASSIGN_OR_RETURN(storage::PageHandle h, db_->pool_->New());
    pages.push_back(std::move(h));
  }
  w.PutU32(static_cast<uint32_t>(pager->free_list().size() +
                                 pager->quarantined().size()));
  // Quarantined pages are released into the free list at this checkpoint's
  // commit point, so they are free pages of the image being written.
  for (uint32_t pid : pager->free_list()) w.PutU32(pid);
  for (uint32_t pid : pager->quarantined()) w.PutU32(pid);

  size_t off = 0;
  for (size_t i = 0; i < pages.size(); ++i) {
    char* d = pages[i].data();
    uint32_t next = i + 1 < pages.size() ? pages[i + 1].page_id()
                                         : storage::kInvalidPageId;
    size_t chunk = std::min(kChainCapacity, rec.size() - off);
    storage::EncodeFixed32(d, next);
    storage::EncodeFixed32(d + 4, static_cast<uint32_t>(chunk));
    std::memcpy(d + kChainHeaderSize, rec.data() + off, chunk);
    off += chunk;
    pages[i].MarkDirty();
  }
  *new_head = pages.front().page_id();
  return Status::OK();
}

Status ViewCheckpointer::ReadMasterRecord(uint32_t head, std::string* out,
                                          std::vector<uint32_t>* chain_pages) {
  out->clear();
  uint32_t pid = head;
  // A chain can never be longer than the file; a corrupted next pointer
  // that loops back must fail with Corruption, not hang Open.
  uint64_t visited = 0;
  const uint64_t max_pages = db_->pager_->num_pages();
  while (pid != storage::kInvalidPageId) {
    if (++visited > max_pages) {
      return Status::Corruption("master-catalog chain is cyclic or overlong");
    }
    if (chain_pages != nullptr) chain_pages->push_back(pid);
    HAZY_ASSIGN_OR_RETURN(storage::PageHandle h, db_->pool_->Fetch(pid));
    const char* d = h.data();
    uint32_t next = storage::DecodeFixed32(d);
    uint32_t used = storage::DecodeFixed32(d + 4);
    if (used > kChainCapacity) {
      return Status::Corruption("master-catalog chain page with invalid length");
    }
    out->append(d + kChainHeaderSize, used);
    pid = next;
  }
  return Status::OK();
}

Status ViewCheckpointer::FreeChain(uint32_t head) {
  uint32_t pid = head;
  uint64_t visited = 0;
  const uint64_t max_pages = db_->pager_->num_pages();
  while (pid != storage::kInvalidPageId) {
    if (++visited > max_pages) {
      return Status::Corruption("master-catalog chain is cyclic or overlong");
    }
    uint32_t next;
    {
      HAZY_ASSIGN_OR_RETURN(storage::PageHandle h, db_->pool_->Fetch(pid));
      next = storage::DecodeFixed32(h.data());
    }
    db_->pool_->FreePage(pid);
    pid = next;
  }
  return Status::OK();
}

StatusOr<uint64_t> ViewCheckpointer::Checkpoint() {
  const auto views = db_->views();
  if (views->size() > static_cast<size_t>(kMaxViewsPerDatabase)) {
    return Status::ResourceExhausted("too many classification views to checkpoint");
  }
  // The checkpoint's own system-table writes must not append logical WAL
  // records (the checkpoint IS the durability point they would replay
  // against). Before-image logging stays on: a crashed checkpoint's page
  // writes roll back like any other torn work.
  storage::WalLogicalPauseGuard pause(db_->wal_.get());

  HAZY_RETURN_NOT_OK(EnsureSystemTables());

  const uint64_t durable = db_->checkpoint_epoch_;
  const uint64_t epoch = durable + 1;
  // Rows of any epoch but the durable one are garbage its image does not
  // reference: orphans of a crashed attempt at this same epoch number (their
  // keys would collide with this attempt's inserts), and superseded rows
  // whose collection after the previous commit a restart rolled back.
  // Purging them — and only them — is safe before the commit: the pages
  // they free stay quarantined until it.
  HAZY_RETURN_NOT_OK(DeleteRowsWhere([&](uint64_t e) { return e != durable; }));
  HAZY_RETURN_NOT_OK(WriteViewRows(epoch));

  // Read the old chain head before anything overwrites the header.
  uint32_t old_head = storage::kInvalidPageId;
  {
    HAZY_ASSIGN_OR_RETURN(storage::PageHandle h, db_->pool_->Fetch(0));
    old_head = storage::DecodeFixed32(h.data() + kMasterHeadOff);
  }

  // The master record snapshots heap metadata, so it must be built after
  // every row write, and be durable before the header points at it.
  uint32_t new_head = storage::kInvalidPageId;
  HAZY_RETURN_NOT_OK(WriteMasterRecord(epoch, &new_head));
  HAZY_RETURN_NOT_OK(db_->pool_->FlushAll());
  HAZY_RETURN_NOT_OK(db_->pager_->Sync());

  // The atomic commit: flip the header to the new chain + epoch.
  {
    HAZY_ASSIGN_OR_RETURN(storage::PageHandle h, db_->pool_->Fetch(0));
    char* d = h.data();
    storage::EncodeFixed64(d + kMagicOff, kHeaderMagic);
    storage::EncodeFixed32(d + kVersionOff, kFormatVersion);
    storage::EncodeFixed32(d + kMasterHeadOff, new_head);
    storage::EncodeFixed64(d + kEpochOff, epoch);
    h.MarkDirty();
  }
  HAZY_RETURN_NOT_OK(db_->pool_->FlushAll());
  HAZY_RETURN_NOT_OK(db_->pager_->Sync());

  // The new epoch is durable from here on: record it before any cleanup, so
  // a failed FreeChain cannot leave a stale in-memory epoch whose next GC
  // pass would collect the rows the on-disk header actually points to.
  db_->checkpoint_epoch_ = epoch;
  // Rebase the write-ahead log: everything it held is absorbed by the new
  // checkpoint. A crash between the header flip above and this reset leaves
  // a log whose base epoch trails the header — recovery rolls the file back
  // to the log's base and replays, landing on the same logical state.
  if (db_->wal_ != nullptr) HAZY_RETURN_NOT_OK(db_->wal_->Reset(epoch));
  // Pages freed (by any table) since the previous commit were
  // quarantined because the superseded image might still reference them;
  // that image is gone, so they can be recycled. From the first commit on,
  // future frees quarantine likewise.
  db_->pager_->ReleaseQuarantinedPages();
  db_->pager_->EnableFreeQuarantine();
  if (old_head != storage::kInvalidPageId) HAZY_RETURN_NOT_OK(FreeChain(old_head));
  // GC superseded/orphan rows only now, after the flip: deleting a row
  // frees its overflow chain for reuse, so rows referenced by the durable
  // image must never be deleted while a newer epoch could still fail —
  // otherwise a crash mid-checkpoint would leave dangling stubs over
  // reused pages. Pages freed here are reused at the earliest by the next
  // checkpoint, by which time this epoch is the durable one.
  HAZY_RETURN_NOT_OK(CollectGarbageRows(epoch));
  return epoch;
}

Status ViewCheckpointer::DisposeWal(bool* replay_pending) {
  *replay_pending = false;
  storage::Wal* wal = db_->wal_.get();
  if (wal == nullptr || !wal->is_open()) return Status::OK();

  // Raw header read, bypassing the pool: the header itself may be torn or
  // mid-flip and about to be rolled back.
  char hdr[storage::kPageSize];
  HAZY_RETURN_NOT_OK(db_->pager_->Read(0, hdr));
  const uint64_t hdr_epoch = storage::DecodeFixed64(hdr + kEpochOff);
  const bool hdr_valid = storage::DecodeFixed64(hdr + kMagicOff) == kHeaderMagic;

  // A file that does not identify as a hazy database is never written to —
  // not even by a rollback whose page-0 image looks plausible: the database
  // may have been deleted and the path re-used by a foreign file while a
  // stale sidecar log survived. (Recover's own magic check will report the
  // corruption; an empty log loses nothing by being left alone.)
  if (!hdr_valid) {
    if (wal->records().empty()) return Status::OK();
    return Status::Corruption(
        StrFormat("%s is not a hazy database file (stale write-ahead log "
                  "present at %s)",
                  db_->path_.c_str(), wal->path().c_str()));
  }

  bool wal_current = false;
  if (!wal->records().empty()) {
    if (wal->base_epoch() == hdr_epoch) {
      // Normal crash: the log is based on the durable checkpoint.
      wal_current = true;
    } else {
      // The header advanced past the log's base (a crash inside or just
      // after a checkpoint). If the log holds page 0's checkpoint image for
      // its own base epoch, it belongs to this file's previous epoch: roll
      // back to that checkpoint and replay — same logical state, exactly.
      // Otherwise the log is stale (the newer checkpoint already absorbed
      // it): discard it.
      for (const auto& r : wal->records()) {
        if (r.type != storage::WalRecordType::kBeforeImage) continue;
        if (r.payload.size() < 4 + storage::kPageSize) continue;
        if (storage::DecodeFixed32(r.payload.data()) != 0) continue;
        const char* img = r.payload.data() + 4;
        wal_current = storage::DecodeFixed64(img + kMagicOff) == kHeaderMagic &&
                      storage::DecodeFixed64(img + kEpochOff) == wal->base_epoch();
        break;
      }
    }
  }
  if (!wal_current) {
    // Nothing to roll back or replay; rebase the log on the durable epoch.
    return wal->Reset(hdr_epoch);
  }

  // Roll the file back to exactly the base checkpoint: every page dirtied
  // since then has its checkpoint-time image in the log (at most one per
  // page — later dirtyings of a logged page are not re-imaged).
  size_t rolled_back = 0;
  for (const auto& r : wal->records()) {
    if (r.type != storage::WalRecordType::kBeforeImage) continue;
    if (r.payload.size() != 4 + storage::kPageSize) {
      return Status::Corruption("wal before-image record has wrong size");
    }
    uint32_t pid = storage::DecodeFixed32(r.payload.data());
    HAZY_RETURN_NOT_OK(db_->pager_->Write(pid, r.payload.data() + 4));
    ++rolled_back;
  }
  if (rolled_back > 0) HAZY_RETURN_NOT_OK(db_->pager_->Sync());
  for (const auto& r : wal->records()) {
    if (r.type == storage::WalRecordType::kLogical) {
      *replay_pending = true;
      break;
    }
  }
  return Status::OK();
}

Status ViewCheckpointer::SweepFreePages(const std::vector<uint32_t>& chain_pages,
                                        const std::vector<uint32_t>& persisted_free) {
  const uint32_t num_pages = db_->pager_->num_pages();
  std::vector<bool> live(num_pages, false);
  if (num_pages > 0) live[0] = true;
  auto mark = [&](uint32_t pid) -> Status {
    if (pid >= num_pages) {
      return Status::Corruption(
          StrFormat("live page %u beyond end of file (%u pages)", pid, num_pages));
    }
    live[pid] = true;
    return Status::OK();
  };
  for (uint32_t pid : chain_pages) HAZY_RETURN_NOT_OK(mark(pid));
  std::vector<uint32_t> table_pages;
  for (const auto& name : db_->catalog_->TableNames()) {
    HAZY_ASSIGN_OR_RETURN(storage::Table * table, db_->catalog_->GetTable(name));
    table_pages.clear();
    HAZY_RETURN_NOT_OK(table->CollectPages(&table_pages));
    for (uint32_t pid : table_pages) HAZY_RETURN_NOT_OK(mark(pid));
  }
  // Cross-check against the free list the checkpoint persisted: a page both
  // declared free and reachable means the image is self-contradictory.
  for (uint32_t pid : persisted_free) {
    if (pid < num_pages && live[pid]) {
      return Status::Corruption(
          StrFormat("page %u is both reachable and on the persisted free list", pid));
    }
  }
  // Everything unreachable — superseded view-state chains from before the
  // restart, pages allocated after the checkpoint and rolled back — is free.
  std::vector<uint32_t> free;
  free.reserve(num_pages);
  for (uint32_t pid = 1; pid < num_pages; ++pid) {
    if (!live[pid]) free.push_back(pid);
  }
  db_->pager_->SetFreeList(std::move(free));
  return Status::OK();
}

Status ViewCheckpointer::Recover() {
  // Phase 1: settle the write-ahead log — roll the file back to the
  // checkpoint its before-images protect, or discard it if a completed
  // checkpoint already absorbed it.
  bool replay_pending = false;
  HAZY_RETURN_NOT_OK(DisposeWal(&replay_pending));

  uint32_t master_head = storage::kInvalidPageId;
  uint64_t epoch = 0;
  {
    HAZY_ASSIGN_OR_RETURN(storage::PageHandle h, db_->pool_->Fetch(0));
    const char* d = h.data();
    uint64_t magic = storage::DecodeFixed64(d + kMagicOff);
    if (magic != kHeaderMagic) {
      // This also catches an all-zero page 0. InitFresh syncs the header
      // before anything else touches the file, so a zeroed header means a
      // foreign file (e.g. a sparse image) — never reformat it; the only
      // hazy file that can look like this died inside InitFresh itself and
      // holds nothing worth keeping.
      return Status::Corruption(
          StrFormat("%s is not a hazy database file", db_->path_.c_str()));
    }
    uint32_t version = storage::DecodeFixed32(d + kVersionOff);
    if (version != kFormatVersion) {
      return Status::NotSupported(StrFormat("unsupported format version %u", version));
    }
    master_head = storage::DecodeFixed32(d + kMasterHeadOff);
    epoch = storage::DecodeFixed64(d + kEpochOff);
  }
  db_->checkpoint_epoch_ = epoch;
  // A formatted file that was never checkpointed has no catalog to restore —
  // but the log may still hold its whole committed history, replayable onto
  // the empty database.
  if (master_head == storage::kInvalidPageId) {
    HAZY_RETURN_NOT_OK(SweepFreePages({}, {}));
    if (replay_pending) return db_->ReplayWal();
    return Status::OK();
  }
  // A durable image exists: freed pages must be quarantined until the next
  // commit supersedes it (see Pager::EnableFreeQuarantine).
  db_->pager_->EnableFreeQuarantine();

  std::string rec;
  std::vector<uint32_t> chain_pages;
  HAZY_RETURN_NOT_OK(ReadMasterRecord(master_head, &rec, &chain_pages));
  StateReader r(rec);
  HAZY_RETURN_NOT_OK(r.ExpectTag(kMasterTag));
  uint64_t rec_epoch = 0;
  HAZY_RETURN_NOT_OK(r.GetU64(&rec_epoch));
  if (rec_epoch != epoch) {
    return Status::Corruption("master record epoch does not match header");
  }
  uint32_t table_count = 0;
  HAZY_RETURN_NOT_OK(r.GetU32(&table_count));
  HAZY_RETURN_NOT_OK(r.CheckCount(table_count));
  for (uint32_t i = 0; i < table_count; ++i) {
    std::string name;
    HAZY_RETURN_NOT_OK(r.GetString(&name));
    uint32_t ncols = 0;
    HAZY_RETURN_NOT_OK(r.GetU32(&ncols));
    HAZY_RETURN_NOT_OK(r.CheckCount(ncols));
    std::vector<storage::Column> cols;
    cols.reserve(ncols);
    for (uint32_t c = 0; c < ncols; ++c) {
      storage::Column col;
      HAZY_RETURN_NOT_OK(r.GetString(&col.name));
      uint8_t t = 0;
      HAZY_RETURN_NOT_OK(r.GetU8(&t));
      col.type = static_cast<ColumnType>(t);
      cols.push_back(std::move(col));
    }
    bool has_pk = false;
    uint32_t pk = 0;
    HAZY_RETURN_NOT_OK(r.GetBool(&has_pk));
    HAZY_RETURN_NOT_OK(r.GetU32(&pk));
    storage::HeapFileMeta meta;
    HAZY_RETURN_NOT_OK(r.GetU32(&meta.first_page));
    HAZY_RETURN_NOT_OK(r.GetU32(&meta.last_page));
    HAZY_RETURN_NOT_OK(r.GetU64(&meta.num_records));
    HAZY_RETURN_NOT_OK(r.GetU64(&meta.num_pages));
    HAZY_RETURN_NOT_OK(r.GetU64(&meta.num_overflow_pages));
    HAZY_RETURN_NOT_OK(db_->catalog_
                           ->AttachTable(name, Schema(std::move(cols)),
                                         has_pk ? std::optional<size_t>(pk)
                                                : std::nullopt,
                                         meta)
                           .status());
  }
  uint32_t free_count = 0;
  HAZY_RETURN_NOT_OK(r.GetU32(&free_count));
  HAZY_RETURN_NOT_OK(r.CheckCount(free_count, 4));
  std::vector<uint32_t> persisted_free;
  persisted_free.reserve(free_count);
  for (uint32_t i = 0; i < free_count; ++i) {
    uint32_t pid = 0;
    HAZY_RETURN_NOT_OK(r.GetU32(&pid));
    persisted_free.push_back(pid);
  }

  // Phase 2: reclaim everything the image does not own — the pre-restart
  // view-state chains and any rolled-back post-checkpoint allocations —
  // *before* the redo replays into fresh pages, so a checkpoint+restart
  // cycle reuses pages instead of growing the file.
  HAZY_RETURN_NOT_OK(SweepFreePages(chain_pages, persisted_free));

  // Phase 3: rebuild the views from the checkpoint (zero retraining).
  HAZY_RETURN_NOT_OK(RecoverViews(epoch));

  // Phase 4: redo — replay committed post-checkpoint operations through the
  // trigger machinery so the views re-train on them exactly as they did
  // live.
  if (replay_pending) return db_->ReplayWal();
  return Status::OK();
}

Status ViewCheckpointer::RecoverViews(uint64_t epoch) {
  if (!db_->catalog_->HasTable(kViewsTableName)) return Status::OK();
  HAZY_ASSIGN_OR_RETURN(storage::Table * views_table,
                        db_->catalog_->GetTable(kViewsTableName));
  HAZY_ASSIGN_OR_RETURN(storage::Table * state_table,
                        db_->catalog_->GetTable(kViewStateTableName));

  std::vector<int64_t> view_ids;
  HAZY_RETURN_NOT_OK(views_table->Scan([&](const Row& row) {
    if (std::holds_alternative<int64_t>(row[4]) &&
        static_cast<uint64_t>(std::get<int64_t>(row[4])) == epoch) {
      view_ids.push_back(std::get<int64_t>(row[1]));
    }
    return true;
  }));
  std::sort(view_ids.begin(), view_ids.end());

  for (int64_t view_id : view_ids) {
    HAZY_ASSIGN_OR_RETURN(Row state_row,
                          state_table->GetByKey(RowKeyFor(epoch, view_id)));
    if (!std::holds_alternative<std::string>(state_row[3])) {
      return Status::Corruption("view state row has no state blob");
    }
    HAZY_RETURN_NOT_OK(RestoreViewFromBlob(std::get<std::string>(state_row[3])));
  }
  return Status::OK();
}

}  // namespace hazy::persist
