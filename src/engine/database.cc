#include "engine/database.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "common/logging.h"
#include "common/strings.h"
#include "common/timer.h"
#include "obs/stats_collectors.h"
#include "obs/trace.h"
#include "persist/checkpoint.h"
#include "persist/serde.h"
#include "storage/coding.h"

namespace hazy::engine {

using storage::Row;
using storage::Value;

namespace {

/// Hölder exponent p of the eps columns' drift bound: with ℓ1-normalized
/// text features, p = ∞ pairs with M = max ‖f‖_1 (Section 3.2.2).
constexpr double kHolderP = ml::kInf;

ml::SgdOptions TrainerOptions(const ClassificationViewDef& def) {
  ml::SgdOptions opts;
  opts.loss = def.method;
  return opts;
}

}  // namespace

ManagedView::ManagedView(Database* db, ClassificationViewDef def)
    : def_(std::move(def)), db_(db), trainer_(TrainerOptions(def_)) {}

void ManagedView::PublishEpoch() {
  // Not adopted yet: AdoptView publishes the first epoch.
  if (!epochs_.HasPublished()) return;
  if (db_->in_update_batch()) {
    // Mid-batch: publishing here would expose a partially applied statement
    // to snapshot readers and would seal one chunk per row of a multi-row
    // insert. Defer to the outermost EndUpdateBatch — the real epoch
    // boundary.
    epoch_publish_pending_ = true;
    return;
  }
  PublishEpochNow();
}

void ManagedView::PublishEpochNow() {
  epochs_.Publish(model_, store_builder_.Seal(), kHolderP);
  epoch_publish_pending_ = false;
}

core::SnapshotPin ManagedView::ReadEpoch() {
  if (!epoch_publish_pending_) return epochs_.Pin();
  // No manager: the epoch is private to this read and never published.
  return core::SnapshotPin(nullptr, std::make_shared<const core::EpochSnapshot>(
                                        /*epoch=*/0, model_, store_builder_.Seal(),
                                        kHolderP));
}

void ManagedView::Train(const ml::LabeledExample& example) {
  const int64_t t0 = NowNanos();
  trainer_.AddExample(&model_, example);
  PublishEpoch();
  ++stats_.updates;
  stats_.total_update_seconds += static_cast<double>(NowNanos() - t0) / 1e9;
}

void ManagedView::RecordRead() const { ++stats_.single_reads; }

void ManagedView::RecordRead(const core::ScanCounts& scan) const {
  ++stats_.all_members_queries;
  // tuples_scanned counts the rows actually rescored; the rest were
  // settled from their chunk's eps column by the water lines.
  stats_.tuples_scanned += scan.scored;
  stats_.rows_by_bounds += scan.by_bounds;
}

StatusOr<std::string> ManagedView::LabelOf(int64_t id) {
  std::lock_guard<std::recursive_mutex> lock(*db_->statement_mutex());
  core::SnapshotPin snap = ReadEpoch();
  RecordRead();
  HAZY_ASSIGN_OR_RETURN(int sign, snap->SingleEntityRead(id));
  return LabelString(sign);
}

StatusOr<std::vector<int64_t>> ManagedView::MembersOf(const std::string& label) {
  std::lock_guard<std::recursive_mutex> lock(*db_->statement_mutex());
  core::SnapshotPin snap = ReadEpoch();
  HAZY_ASSIGN_OR_RETURN(int sign, LabelSign(label));
  core::ScanCounts counts;
  HAZY_ASSIGN_OR_RETURN(std::vector<int64_t> ids, snap->AllMembers(sign, &counts));
  RecordRead(counts);
  return ids;
}

StatusOr<uint64_t> ManagedView::CountOf(const std::string& label) {
  std::lock_guard<std::recursive_mutex> lock(*db_->statement_mutex());
  core::SnapshotPin snap = ReadEpoch();
  HAZY_ASSIGN_OR_RETURN(int sign, LabelSign(label));
  core::ScanCounts counts;
  HAZY_ASSIGN_OR_RETURN(uint64_t n, snap->AllMembersCount(sign, &counts));
  RecordRead(counts);
  return n;
}

StatusOr<int> ManagedView::LabelSign(const std::string& label) const {
  if (EqualsIgnoreCase(label, labels_[0])) return 1;
  if (EqualsIgnoreCase(label, labels_[1])) return -1;
  return Status::InvalidArgument(StrFormat("'%s' is not a label of view %s",
                                           label.c_str(), def_.view_name.c_str()));
}

Database::Database(DatabaseOptions options) : options_(std::move(options)) {}

Database::~Database() {
  ResetHandles();
  RemoveOwnedFiles();
}

Status Database::Open() {
  if (pager_) return Status::InvalidArgument("database already open");
  Status s = OpenImpl();
  if (s.ok()) {
    MarkOpen();
    return s;
  }
  // Leave the object closed and reusable; never leak a temp file created
  // by a failed open.
  ResetHandles();
  RemoveOwnedFiles();
  return s;
}

void Database::RemoveOwnedFiles() {
  if (owns_temp_file_) ::unlink(path_.c_str());
  // Never leave a stray -wal next to a file we refused to open.
  if (owns_temp_file_ || created_wal_file_) {
    ::unlink(storage::WalPathFor(path_).c_str());
  }
  path_.clear();
  owns_temp_file_ = false;
  created_wal_file_ = false;
}

Status Database::OpenImpl() {
  if (path_.empty()) {
    path_ = options_.path;
  }
  if (path_.empty()) {
    path_ = storage::TempFilePath("db");
    owns_temp_file_ = true;
  }
  // An existing non-empty file must look like a database before we touch
  // it. A size that is not a whole number of pages is either a foreign file
  // (reject — formatting would clobber it) or a crash's torn write at the
  // tail of a real database (valid header page: truncate the partial page
  // away and recover; its content, if it mattered, is protected by the WAL).
  struct stat st;
  const bool misaligned = ::stat(path_.c_str(), &st) == 0 && st.st_size > 0 &&
                          static_cast<uint64_t>(st.st_size) % storage::kPageSize != 0;
  if (misaligned && static_cast<uint64_t>(st.st_size) < storage::kPageSize) {
    return Status::Corruption(
        StrFormat("%s is not a hazy database file (size %lld is not "
                  "page-aligned)",
                  path_.c_str(), static_cast<long long>(st.st_size)));
  }
  pager_ = std::make_unique<storage::Pager>();
  // Never truncate: an existing file is an existing database to recover.
  HAZY_RETURN_NOT_OK(pager_->Open(path_, /*preserve_existing=*/true));
  if (misaligned) {
    char hdr[storage::kPageSize];
    HAZY_RETURN_NOT_OK(pager_->Read(0, hdr));
    if (!persist::IsHazyHeaderPage(hdr)) {
      return Status::Corruption(
          StrFormat("%s is not a hazy database file (size %lld is not "
                    "page-aligned)",
                    path_.c_str(), static_cast<long long>(st.st_size)));
    }
    HAZY_RETURN_NOT_OK(pager_->TruncateTo(pager_->num_pages()));
  }
  pool_ = std::make_unique<storage::BufferPool>(pager_.get(), options_.buffer_pool_pages);
  wal_ = std::make_unique<storage::Wal>();
  const std::string wal_path = storage::WalPathFor(path_);
  struct stat wal_st;
  created_wal_file_ = ::stat(wal_path.c_str(), &wal_st) != 0;
  HAZY_RETURN_NOT_OK(wal_->Open(wal_path, options_.wal));
  // Arm the write-ahead protocol before any page can be dirtied.
  pool_->SetWal(wal_.get());
  catalog_ = std::make_unique<storage::Catalog>(pool_.get());
  catalog_->SetWal(wal_.get());
  // Every committed row mutation is a statement boundary for the
  // checkpoint hand-off, so direct API writers honor it too.
  catalog_->SetStatementMutex(&statement_mu_, [this] { CheckpointIfRequested(); });
  persist::ViewCheckpointer ckpt(this);
  if (pager_->num_pages() == 0) {
    HAZY_RETURN_NOT_OK(ckpt.InitFresh());
    // A freshly formatted file starts an epoch-0 log: committed work is
    // durable (replayable onto the empty database) even before the first
    // checkpoint.
    HAZY_RETURN_NOT_OK(wal_->Reset(0));
    return StartBackgroundServices();
  }
  HAZY_RETURN_NOT_OK(ckpt.Recover());
  // Recovery has consumed the decoded log; drop the in-memory copy (the
  // file itself stays authoritative for any later crash).
  wal_->ClearRecords();
  // Recovery stayed single-threaded; the async machinery comes up only for
  // live traffic.
  return StartBackgroundServices();
}

Status Database::StartBackgroundServices() {
  HAZY_RETURN_NOT_OK(pool_->StartBackgroundWriter());
  if (options_.checkpointer.enabled) {
    ckpt_daemon_ = std::make_unique<persist::CheckpointDaemon>(this, options_.checkpointer);
    ckpt_daemon_->Start();
  }
  RegisterStatsCollectors();
  return Status::OK();
}

namespace {

/// Label body identifying this database: the backing file's basename.
std::string DbLabel(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  return StrFormat("db=\"%s\"", base.c_str());
}

std::string ViewLabel(const ClassificationViewDef& def) {
  return StrFormat("view=\"%s\",arch=\"%s\"", def.view_name.c_str(),
                   core::ArchitectureToString(def.architecture));
}

}  // namespace

void Database::RegisterStatsCollectors() {
  if (!stats_collectors_.empty()) return;  // idempotent per open
  const std::string labels = DbLabel(path_);
  stats_collectors_.push_back(obs::RegisterWalStats(wal_.get(), labels));
  stats_collectors_.push_back(obs::RegisterBufferPoolStats(pool_.get(), labels));
  stats_collectors_.push_back(obs::RegisterPagerStats(pager_.get(), labels));
  const std::shared_ptr<const ViewList> list = views();
  for (const auto& mv : *list) {
    view_collectors_.push_back(obs::RegisterViewStats(&mv->stats(), ViewLabel(mv->def())));
  }
}

void Database::UnregisterStatsCollectors() {
  for (uint64_t id : view_collectors_) obs::UnregisterStats(id);
  view_collectors_.clear();
  for (uint64_t id : stats_collectors_) obs::UnregisterStats(id);
  stats_collectors_.clear();
}

Status Database::SetCheckpointDaemonEnabled(bool enabled) {
  if (!pager_) return Status::InvalidArgument("database not open");
  options_.checkpointer.enabled = enabled;
  if (enabled) {
    if (ckpt_daemon_) return Status::OK();
    ckpt_daemon_ = std::make_unique<persist::CheckpointDaemon>(this, options_.checkpointer);
    ckpt_daemon_->Start();
    return Status::OK();
  }
  if (ckpt_daemon_) {
    ckpt_daemon_->Stop();
    ckpt_daemon_.reset();
  }
  return Status::OK();
}

void Database::SetWalCheckpointBytes(uint64_t bytes) {
  options_.checkpointer.wal_checkpoint_bytes = bytes;
  if (ckpt_daemon_) ckpt_daemon_->set_wal_checkpoint_bytes(bytes);
}

void Database::SetWalCheckpointSeconds(double seconds) {
  options_.checkpointer.interval_seconds = seconds;
  if (ckpt_daemon_) ckpt_daemon_->set_interval_seconds(seconds);
}

StatusOr<uint64_t> Database::Checkpoint() {
  if (!pager_) return Status::InvalidArgument("database not open");
  obs::TraceScope ckpt_span(obs::SpanKind::kCheckpoint);
  // Snapshot-then-serialize, phase 1: write the bulk of the dirty page set
  // out (off the statement mutex when the caller does not hold it), so the
  // commit section below only has to flush the residue dirtied since. The
  // serialization itself must stay under the mutex — before-image WAL
  // rollback could not distinguish a checkpoint's own system-table writes
  // from a statement's.
  HAZY_RETURN_NOT_OK(pool_->FlushUnpinned());
  // The commit section excludes every other writer (the background
  // checkpointer's "short pause"); its own system-table writes re-enter the
  // recursive mutex.
  const int64_t commit_t0 = NowNanos();
  std::lock_guard<std::recursive_mutex> lock(statement_mu_);
  if (in_update_batch()) {
    return Status::InvalidArgument("cannot checkpoint inside an update batch");
  }
  // This checkpoint satisfies any hand-off the daemon posted. Its own
  // system-table writes pass statement boundaries; checkpoint_running_
  // keeps a hand-off posted meanwhile from nesting a second checkpoint.
  checkpoint_requested_.store(false, std::memory_order_relaxed);
  obs::TraceScope commit_span(obs::SpanKind::kCheckpointCommit);
  checkpoint_running_ = true;
  StatusOr<uint64_t> epoch = persist::ViewCheckpointer(this).Checkpoint();
  checkpoint_running_ = false;
  // Always-on pause accounting (the daemon thread carries no trace): how
  // long foreground statements were excluded, lock wait included.
  static obs::Histogram* commit_hist =
      obs::Registry::Global().GetHistogram("hazy_checkpoint_commit_us");
  commit_hist->Observe(static_cast<double>(NowNanos() - commit_t0) / 1000.0);
  return epoch;
}

StatusOr<std::string> Database::EntityDocument(const ManagedView& mv,
                                               const Row& row) const {
  HAZY_ASSIGN_OR_RETURN(storage::Table * table,
                        catalog_->GetTable(mv.def_.entity_table));
  const storage::Schema& schema = table->schema();
  std::string doc;
  auto append_col = [&](size_t idx) {
    const Value& v = row[idx];
    if (std::holds_alternative<std::string>(v)) {
      if (!doc.empty()) doc.push_back(' ');
      doc += std::get<std::string>(v);
    } else if (std::holds_alternative<double>(v)) {
      if (!doc.empty()) doc.push_back(' ');
      doc += StrFormat("%.17g", std::get<double>(v));
    } else if (std::holds_alternative<int64_t>(v)) {
      if (!doc.empty()) doc.push_back(' ');
      doc += StrFormat("%lld", static_cast<long long>(std::get<int64_t>(v)));
    }
  };
  if (mv.def_.entity_text_columns.empty()) {
    for (size_t i = 0; i < schema.num_columns(); ++i) {
      if (schema.column(i).type == storage::ColumnType::kText) append_col(i);
    }
  } else {
    for (const auto& name : mv.def_.entity_text_columns) {
      HAZY_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(name));
      append_col(idx);
    }
  }
  return doc;
}

StatusOr<ManagedView*> Database::CreateClassificationView(
    const ClassificationViewDef& def) {
  std::lock_guard<std::recursive_mutex> lock(statement_mu_);
  // The checkpoint system tables must never host a classification view —
  // its triggers would fire inside Checkpoint's own row writes.
  for (const std::string& name : {def.view_name, def.entity_table, def.label_table,
                                  def.example_table}) {
    if (persist::IsReservedTableName(name)) {
      return Status::InvalidArgument(StrFormat(
          "'%s' is in the reserved '__hazy' system-table namespace", name.c_str()));
    }
  }
  if (HasView(def.view_name) || catalog_->HasTable(def.view_name)) {
    return Status::AlreadyExists(
        StrFormat("'%s' already exists", def.view_name.c_str()));
  }
  HAZY_ASSIGN_OR_RETURN(storage::Table * entities,
                        catalog_->GetTable(def.entity_table));
  HAZY_ASSIGN_OR_RETURN(storage::Table * label_table,
                        catalog_->GetTable(def.label_table));
  HAZY_ASSIGN_OR_RETURN(storage::Table * examples,
                        catalog_->GetTable(def.example_table));
  HAZY_ASSIGN_OR_RETURN(size_t entity_key_idx,
                        entities->schema().IndexOf(def.entity_key));
  HAZY_ASSIGN_OR_RETURN(size_t label_col_idx,
                        label_table->schema().IndexOf(def.label_column));
  // Validate the example schema up front (the trigger bodies re-resolve).
  HAZY_RETURN_NOT_OK(examples->schema().IndexOf(def.example_key).status());
  HAZY_RETURN_NOT_OK(examples->schema().IndexOf(def.example_label).status());

  auto mv = std::make_unique<ManagedView>(this, def);

  // Enumerate the label vocabulary (binary views: exactly two labels).
  HAZY_RETURN_NOT_OK(label_table->Scan([&](const Row& row) {
    const Value& v = row[label_col_idx];
    if (std::holds_alternative<std::string>(v)) {
      mv->labels_.push_back(std::get<std::string>(v));
    }
    return true;
  }));
  if (mv->labels_.size() != 2) {
    return Status::InvalidArgument(
        StrFormat("view %s: binary classification views need exactly 2 labels, "
                  "found %zu (use core::MulticlassView for more)",
                  def.view_name.c_str(), mv->labels_.size()));
  }

  HAZY_ASSIGN_OR_RETURN(mv->feature_fn_, features::MakeFeatureFunction(def.feature_function));

  // Pass 1 (computeStats): corpus statistics over all entities.
  std::vector<std::string> corpus;
  std::vector<int64_t> ids;
  Status inner;
  HAZY_RETURN_NOT_OK(entities->Scan([&](const Row& row) {
    const Value& kv = row[entity_key_idx];
    if (!std::holds_alternative<int64_t>(kv)) {
      inner = Status::InvalidArgument("entity key must be INT");
      return false;
    }
    auto doc = EntityDocument(*mv, row);
    if (!doc.ok()) {
      inner = doc.status();
      return false;
    }
    ids.push_back(std::get<int64_t>(kv));
    corpus.push_back(std::move(*doc));
    return true;
  }));
  HAZY_RETURN_NOT_OK(inner);
  HAZY_RETURN_NOT_OK(mv->feature_fn_->ComputeStats(corpus));

  // Pass 2 (computeFeature): build the entity set.
  std::vector<core::Entity> ents;
  ents.reserve(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    HAZY_ASSIGN_OR_RETURN(ml::FeatureVector f, mv->feature_fn_->ComputeFeature(corpus[i]));
    ents.push_back(core::Entity{ids[i], std::move(f)});
  }
  mv->store_builder_.ReplaceAll(std::move(ents));

  // Replay any pre-existing training examples, then arm the triggers.
  ManagedView* raw = mv.get();
  HAZY_RETURN_NOT_OK(examples->Scan([&](const Row& row) {
    inner = OnExampleInsert(raw, row);
    return inner.ok();
  }));
  HAZY_RETURN_NOT_OK(inner);

  // Adopted (first epoch published) before the triggers are armed: a
  // failed adoption drops the view with nothing pointing at it.
  HAZY_RETURN_NOT_OK(AdoptView(std::move(mv)).status());
  HAZY_RETURN_NOT_OK(ArmTriggers(raw));
  // During recovery replay the collectors are not yet registered;
  // RegisterStatsCollectors picks the view up once the database is live.
  if (!stats_collectors_.empty()) {
    view_collectors_.push_back(obs::RegisterViewStats(&raw->stats(), ViewLabel(def)));
  }

  if (wal_) {
    // The view is derived state, but its creation is DDL that must replay
    // in order: a post-checkpoint CREATE VIEW re-trains deterministically
    // from the (already replayed) tables during redo.
    std::string payload;
    payload.push_back(static_cast<char>(storage::WalOp::kCreateView));
    persist::StateWriter w(&payload);
    persist::PutViewDef(&w, def);
    HAZY_RETURN_NOT_OK(wal_->AppendLogical(payload));
    HAZY_RETURN_NOT_OK(wal_->AutoCommit());
  }
  return raw;
}

StatusOr<ManagedView*> Database::AdoptView(std::unique_ptr<ManagedView> mv) {
  ManagedView* raw = mv.get();
  raw->epochs_.SetMetricLabels(ViewLabel(raw->def()));
  raw->PublishEpochNow();
  auto next = std::make_shared<ViewList>(*views());
  next->push_back(std::move(mv));
  std::atomic_store(&views_, std::shared_ptr<const ViewList>(std::move(next)));
  return raw;
}

Status Database::ArmTriggers(ManagedView* raw) {
  HAZY_ASSIGN_OR_RETURN(storage::Table * entities,
                        catalog_->GetTable(raw->def_.entity_table));
  HAZY_ASSIGN_OR_RETURN(storage::Table * examples,
                        catalog_->GetTable(raw->def_.example_table));
  entities->AddInsertTrigger([this, raw](const Row& row) {
    return OnEntityInsert(raw, row);
  });
  // An entity tuple that changes or leaves changes the entity set, and
  // with it the features: retrain (paper footnote 2).
  entities->AddUpdateTrigger(
      [this, raw](const Row&, const Row&) { return RebuildFromScratch(raw); });
  entities->AddDeleteTrigger([this, raw](const Row&) { return RebuildFromScratch(raw); });
  examples->AddInsertTrigger([this, raw](const Row& row) {
    return OnExampleInsert(raw, row);
  });
  examples->AddDeleteTrigger([this, raw](const Row& row) {
    return OnExampleDelete(raw, row);
  });
  examples->AddUpdateTrigger([this, raw](const Row& old_row, const Row& new_row) {
    return OnExampleUpdate(raw, old_row, new_row);
  });
  return Status::OK();
}

void Database::BeginUpdateBatch() {
  std::lock_guard<std::recursive_mutex> lock(statement_mu_);
  if (batch_depth_++ == 0 && wal_) wal_->BeginGroup();
}

Status Database::EndUpdateBatch() {
  std::lock_guard<std::recursive_mutex> lock(statement_mu_);
  if (batch_depth_ == 0) {
    return Status::InvalidArgument("EndUpdateBatch without BeginUpdateBatch");
  }
  if (--batch_depth_ > 0) return Status::OK();
  // batch_depth_ is back to 0, so the publishes below are real: exactly
  // one epoch per view the batch changed.
  const std::shared_ptr<const ViewList> list = views();
  for (const auto& v : *list) {
    if (v->epoch_publish_pending_) v->PublishEpochNow();
  }
  // One commit marker covers the whole batch; replay re-brackets it in
  // BeginUpdateBatch/EndUpdateBatch, so it publishes one epoch again.
  const Status committed = wal_ ? wal_->EndGroup() : Status::OK();
  // The boundary consults the daemon's byte threshold directly, so the WAL
  // bound holds deterministically for batched ingest even when a batch
  // outpaces the daemon's poll.
  if (ckpt_daemon_ != nullptr && wal_) {
    const uint64_t threshold = ckpt_daemon_->options().wal_checkpoint_bytes;
    if (threshold > 0 && wal_->tail_bytes() >= threshold) RequestCheckpoint();
  }
  CheckpointIfRequested();
  return committed;
}

void Database::CheckpointIfRequested() {
  if (!checkpoint_requested_.load(std::memory_order_relaxed) || in_update_batch() ||
      checkpoint_running_ || !is_open()) {
    return;
  }
  Status s = Checkpoint().status();
  if (ckpt_daemon_ != nullptr) {
    ckpt_daemon_->RecordCheckpoint(s);
  } else if (!s.ok()) {
    HAZY_LOG(Warning) << "requested checkpoint failed: " << s.ToString();
  }
}

Status Database::OnEntityInsert(ManagedView* mv, const Row& row) {
  HAZY_ASSIGN_OR_RETURN(storage::Table * entities,
                        catalog_->GetTable(mv->def_.entity_table));
  HAZY_ASSIGN_OR_RETURN(size_t key_idx, entities->schema().IndexOf(mv->def_.entity_key));
  const Value& kv = row[key_idx];
  if (!std::holds_alternative<int64_t>(kv)) {
    return Status::InvalidArgument("entity key must be INT");
  }
  HAZY_ASSIGN_OR_RETURN(std::string doc, EntityDocument(*mv, row));
  HAZY_RETURN_NOT_OK(mv->feature_fn_->ComputeStatsInc(doc));
  HAZY_ASSIGN_OR_RETURN(ml::FeatureVector f, mv->feature_fn_->ComputeFeature(doc));
  // Sealed into a chunk at the next publish.
  mv->store_builder_.Append(core::Entity{std::get<int64_t>(kv), std::move(f)});
  mv->PublishEpoch();
  return Status::OK();
}

Status Database::OnExampleInsert(ManagedView* mv, const Row& row) {
  HAZY_ASSIGN_OR_RETURN(storage::Table * examples,
                        catalog_->GetTable(mv->def_.example_table));
  HAZY_ASSIGN_OR_RETURN(size_t key_idx, examples->schema().IndexOf(mv->def_.example_key));
  HAZY_ASSIGN_OR_RETURN(size_t label_idx,
                        examples->schema().IndexOf(mv->def_.example_label));
  const Value& kv = row[key_idx];
  const Value& lv = row[label_idx];
  if (!std::holds_alternative<int64_t>(kv) || !std::holds_alternative<std::string>(lv)) {
    return Status::InvalidArgument("example rows must be (INT id, TEXT label)");
  }
  int64_t id = std::get<int64_t>(kv);
  HAZY_ASSIGN_OR_RETURN(int sign, mv->LabelSign(std::get<std::string>(lv)));

  // The example references an entity: featurize its current tuple.
  HAZY_ASSIGN_OR_RETURN(storage::Table * entities,
                        catalog_->GetTable(mv->def_.entity_table));
  HAZY_ASSIGN_OR_RETURN(Row entity_row, entities->GetByKey(id));
  HAZY_ASSIGN_OR_RETURN(std::string doc, EntityDocument(*mv, entity_row));
  HAZY_ASSIGN_OR_RETURN(ml::FeatureVector f, mv->feature_fn_->ComputeFeature(doc));

  mv->example_log_.emplace_back(id, sign);
  mv->Train(ml::LabeledExample{id, std::move(f), sign});
  return Status::OK();
}

Status Database::OnExampleDelete(ManagedView* mv, const Row& row) {
  HAZY_ASSIGN_OR_RETURN(storage::Table * examples,
                        catalog_->GetTable(mv->def_.example_table));
  HAZY_ASSIGN_OR_RETURN(size_t key_idx, examples->schema().IndexOf(mv->def_.example_key));
  const Value& kv = row[key_idx];
  if (!std::holds_alternative<int64_t>(kv)) {
    return Status::InvalidArgument("example key must be INT");
  }
  int64_t id = std::get<int64_t>(kv);
  auto it = std::find_if(mv->example_log_.begin(), mv->example_log_.end(),
                         [&](const auto& p) { return p.first == id; });
  if (it != mv->example_log_.end()) mv->example_log_.erase(it);
  // Paper footnote 2: deletions retrain the model from scratch.
  return RebuildFromScratch(mv);
}

Status Database::OnExampleUpdate(ManagedView* mv, const Row& old_row,
                                 const Row& new_row) {
  HAZY_ASSIGN_OR_RETURN(storage::Table * examples,
                        catalog_->GetTable(mv->def_.example_table));
  HAZY_ASSIGN_OR_RETURN(size_t key_idx, examples->schema().IndexOf(mv->def_.example_key));
  HAZY_ASSIGN_OR_RETURN(size_t label_idx,
                        examples->schema().IndexOf(mv->def_.example_label));
  const Value& kv = new_row[key_idx];
  const Value& lv = new_row[label_idx];
  if (!std::holds_alternative<int64_t>(kv) || !std::holds_alternative<std::string>(lv)) {
    return Status::InvalidArgument("example rows must be (INT id, TEXT label)");
  }
  const Value& old_lv = old_row[label_idx];
  if (std::holds_alternative<std::string>(old_lv) &&
      EqualsIgnoreCase(std::get<std::string>(old_lv), std::get<std::string>(lv))) {
    return Status::OK();  // label unchanged: nothing to retrain
  }
  int64_t id = std::get<int64_t>(kv);
  HAZY_ASSIGN_OR_RETURN(int sign, mv->LabelSign(std::get<std::string>(lv)));
  for (auto& entry : mv->example_log_) {
    if (entry.first == id) entry.second = sign;
  }
  // Footnote 2: "Hazy supports deletion and change of labels by retraining
  // the model from scratch, i.e., not incrementally."
  return RebuildFromScratch(mv);
}

Status Database::RebuildFromScratch(ManagedView* mv) {
  HAZY_ASSIGN_OR_RETURN(storage::Table * entities,
                        catalog_->GetTable(mv->def_.entity_table));
  HAZY_ASSIGN_OR_RETURN(size_t key_idx, entities->schema().IndexOf(mv->def_.entity_key));

  std::vector<core::Entity> ents;
  Status inner;
  HAZY_RETURN_NOT_OK(entities->Scan([&](const Row& row) {
    auto doc = EntityDocument(*mv, row);
    if (!doc.ok()) {
      inner = doc.status();
      return false;
    }
    auto f = mv->feature_fn_->ComputeFeature(*doc);
    if (!f.ok()) {
      inner = f.status();
      return false;
    }
    ents.push_back(core::Entity{std::get<int64_t>(row[key_idx]), std::move(*f)});
    return true;
  }));
  HAZY_RETURN_NOT_OK(inner);

  // A fresh model, trained on the remaining examples in commit order.
  mv->model_ = ml::LinearModel{};
  mv->trainer_ = ml::SgdTrainer(mv->trainer_.options());
  std::unordered_map<int64_t, const ml::FeatureVector*> by_id;
  for (const auto& e : ents) by_id[e.id] = &e.features;
  for (const auto& [id, sign] : mv->example_log_) {
    auto fit = by_id.find(id);
    if (fit == by_id.end()) continue;  // entity itself was deleted
    mv->trainer_.AddExample(&mv->model_, ml::LabeledExample{id, *fit->second, sign});
  }
  mv->store_builder_.ReplaceAll(std::move(ents));
  mv->PublishEpoch();
  return Status::OK();
}

Status Database::ApplyWalOp(std::string_view payload) {
  if (payload.empty()) return Status::Corruption("empty logical wal record");
  const auto op = static_cast<storage::WalOp>(payload[0]);
  std::string_view cur = payload.substr(1);
  auto get_string = [&cur](std::string* out) -> Status {
    std::string_view s;
    if (!storage::GetLengthPrefixed(&cur, &s)) {
      return Status::Corruption("truncated logical wal record");
    }
    out->assign(s);
    return Status::OK();
  };
  switch (op) {
    case storage::WalOp::kRowInsert:
    case storage::WalOp::kRowDelete:
    case storage::WalOp::kRowUpdate: {
      // Compact varint layout (WAL v2) — see Table::LogRowOp.
      std::string_view name;
      if (!storage::GetVarintLengthPrefixed(&cur, &name)) {
        return Status::Corruption("truncated logical wal record");
      }
      HAZY_ASSIGN_OR_RETURN(storage::Table * table,
                            catalog_->GetTable(std::string(name)));
      int64_t key = 0;
      if (op != storage::WalOp::kRowInsert &&
          !storage::GetVarint64Signed(&cur, &key)) {
        return Status::Corruption("truncated logical wal record");
      }
      if (op == storage::WalOp::kRowDelete) {
        return table->DeleteByKey(key);
      }
      Row row;
      HAZY_RETURN_NOT_OK(table->schema().DecodeRowCompact(cur, &row));
      if (op == storage::WalOp::kRowInsert) return table->Insert(row);
      return table->UpdateByKey(key, row);
    }
    case storage::WalOp::kCreateTable: {
      std::string name;
      HAZY_RETURN_NOT_OK(get_string(&name));
      uint32_t ncols = 0;
      if (!storage::GetFixed32(&cur, &ncols) || ncols > cur.size()) {
        return Status::Corruption("truncated logical wal record");
      }
      std::vector<storage::Column> cols;
      cols.reserve(ncols);
      for (uint32_t i = 0; i < ncols; ++i) {
        storage::Column col;
        HAZY_RETURN_NOT_OK(get_string(&col.name));
        if (cur.empty()) return Status::Corruption("truncated logical wal record");
        col.type = static_cast<storage::ColumnType>(cur[0]);
        cur.remove_prefix(1);
        cols.push_back(std::move(col));
      }
      if (cur.size() < 5) return Status::Corruption("truncated logical wal record");
      bool has_pk = cur[0] != 0;
      cur.remove_prefix(1);
      uint32_t pk = 0;
      storage::GetFixed32(&cur, &pk);
      return catalog_
          ->CreateTable(name, storage::Schema(std::move(cols)),
                        has_pk ? std::optional<size_t>(pk) : std::nullopt)
          .status();
    }
    case storage::WalOp::kCreateView: {
      persist::StateReader r(cur);
      ClassificationViewDef def;
      HAZY_RETURN_NOT_OK(persist::GetViewDef(&r, &def));
      return CreateClassificationView(def).status();
    }
  }
  return Status::Corruption("unknown logical wal op");
}

Status Database::ReplayWal() {
  // Redo must not re-log itself (the records already exist); before-image
  // logging stays on, so a crash during redo rolls back and redoes again —
  // replay is idempotent from the checkpoint baseline.
  storage::WalLogicalPauseGuard pause(wal_.get());

  const auto& records = wal_->records();
  std::vector<std::string_view> group;
  size_t replayed = 0;
  for (const auto& rec : records) {
    if (rec.type == storage::WalRecordType::kLogical) {
      group.push_back(rec.payload);
      continue;
    }
    if (rec.type == storage::WalRecordType::kAbort) {
      // A crash's uncommitted tail, closed off by a previous recovery: the
      // operation never acknowledged, so it is rolled back, not replayed.
      group.clear();
      continue;
    }
    if (rec.type != storage::WalRecordType::kCommit) continue;
    const bool batched = !rec.payload.empty() && rec.payload[0] != 0;
    if (batched) BeginUpdateBatch();
    Status hard_error;
    for (std::string_view payload : group) {
      Status op_status = ApplyWalOp(payload);
      if (op_status.ok()) {
        ++replayed;
        continue;
      }
      // A tolerated class of failure is the deterministic re-run of a
      // trigger/constraint error the live system already saw and moved past
      // — later operations in the group DID commit and must still replay.
      // Anything else is real corruption and must stop recovery.
      if (!op_status.IsInvalidArgument() && !op_status.IsAlreadyExists() &&
          !op_status.IsNotFound()) {
        hard_error = op_status;
        break;
      }
      HAZY_LOG(Warning) << "wal redo: tolerated deterministic failure: "
                        << op_status.ToString();
    }
    if (batched) {
      Status flushed = EndUpdateBatch();
      if (hard_error.ok() && !flushed.ok()) hard_error = flushed;
    }
    group.clear();
    if (!hard_error.ok()) return hard_error;
  }
  // Records after the last commit marker stay un-replayed: the operation
  // never committed, so it is rolled back — never a half-applied statement.
  if (replayed > 0) {
    HAZY_LOG(Info) << "wal redo: replayed " << replayed
                   << " committed operations onto checkpoint epoch "
                   << checkpoint_epoch();
  }
  return Status::OK();
}

Status Database::CopyCompactInto(Database* fresh) {
  HAZY_RETURN_NOT_OK(fresh->Open());
  // The bulk copy needs no logical log: the final checkpoint below seals
  // the compacted image, and the log is rebased on it.
  storage::WalLogicalPauseGuard pause(fresh->wal_.get());

  for (const auto& name : catalog_->TableNames()) {
    if (persist::IsReservedTableName(name)) continue;  // rebuilt by checkpoint
    HAZY_ASSIGN_OR_RETURN(storage::Table * src, catalog_->GetTable(name));
    HAZY_ASSIGN_OR_RETURN(
        storage::Table * dst,
        fresh->catalog_->CreateTable(name, src->schema(), src->primary_key()));
    Status inner;
    HAZY_RETURN_NOT_OK(src->Scan([&](const Row& row) {
      inner = dst->Insert(row);
      return inner.ok();
    }));
    HAZY_RETURN_NOT_OK(inner);
  }
  // Views carry over bit-identically through their serialized state — the
  // same blobs a checkpoint writes and recovery reads.
  persist::ViewCheckpointer src_ckpt(this);
  persist::ViewCheckpointer dst_ckpt(fresh);
  const std::shared_ptr<const ViewList> list = views();
  for (const auto& mv : *list) {
    std::string blob;
    HAZY_RETURN_NOT_OK(src_ckpt.SerializeViewState(*mv, &blob));
    HAZY_RETURN_NOT_OK(dst_ckpt.RestoreViewFromBlob(blob));
  }
  return fresh->Checkpoint().status();
}

void Database::ResetHandles() {
  // Flip closed before touching any handle.
  open_.store(false, std::memory_order_release);
  // Collectors first: the registry must stop polling handles about to die.
  UnregisterStatsCollectors();
  // Background threads next: the daemon would checkpoint into (and the
  // writer flush into) the file handles being torn down.
  if (ckpt_daemon_) ckpt_daemon_->Stop();
  ckpt_daemon_.reset();
  if (pool_) pool_->StopBackgroundWriter();
  // Readers that resolved a view before this keep it alive and finish on
  // its epochs; new lookups miss and serialize behind the caller.
  std::atomic_store(&views_, std::make_shared<const ViewList>());
  catalog_.reset();
  if (wal_ && wal_->is_open()) wal_->Close().ok();
  wal_.reset();
  pool_.reset();
  if (pager_ && pager_->is_open()) pager_->Close().ok();
  pager_.reset();
  checkpoint_epoch_ = 0;
}

Status Database::Compact() {
  // The swap below replaces every handle, and a statement whose view or
  // table name misses during the swap waits it out on the statement mutex
  // — so the whole compaction runs under it. Acquired here rather than
  // assumed of the caller: SQL VACUUM already holds it (recursive
  // re-entry), and a direct API caller gets the same exclusion instead of
  // racing concurrent statements.
  std::lock_guard<std::recursive_mutex> stmt_lock(statement_mu_);
  if (!pager_) return Status::InvalidArgument("database not open");
  if (in_update_batch()) {
    return Status::InvalidArgument("cannot VACUUM inside an update batch");
  }
  // The checkpoint daemon must not run during the compaction: its copy
  // phase flushes the buffer pool off the statement mutex, and the swap
  // below destroys that pool. It restarts with the reopened file
  // (options_.checkpointer is unchanged). Stop() joins the thread while
  // this mutex is held, which is safe only because the daemon never blocks
  // on it (try_lock; see persist/checkpoint_daemon.h).
  if (ckpt_daemon_) {
    ckpt_daemon_->Stop();
    ckpt_daemon_.reset();
  }
  // Baseline: everything pending becomes durable before the rewrite.
  HAZY_RETURN_NOT_OK(Checkpoint().status());

  const std::string tmp_path = path_ + ".compact";
  const std::string tmp_wal = storage::WalPathFor(tmp_path);
  ::unlink(tmp_path.c_str());
  ::unlink(tmp_wal.c_str());
  {
    DatabaseOptions opts;
    opts.path = tmp_path;
    opts.buffer_pool_pages = options_.buffer_pool_pages;
    opts.wal = options_.wal;
    Database fresh(opts);
    Status s = CopyCompactInto(&fresh);
    if (!s.ok()) {
      ::unlink(tmp_path.c_str());
      ::unlink(tmp_wal.c_str());
      return s;
    }
  }  // fresh's destructor closes the compacted file

  // Swap the compacted file in and recover from it in place. The rename is
  // atomic (same directory), so a crash — or a failure below — leaves either
  // the old complete database or the new complete one at path_; worst case
  // we come back up on whichever it is.
  const bool owns_temp = owns_temp_file_;
  // Readers hold their views by handle, so the teardown need not wait for
  // them: the old views outlive the empty list ResetHandles publishes.
  ResetHandles();
  Status s;
  if (::rename(tmp_path.c_str(), path_.c_str()) != 0) {
    s = Status::IOError(StrFormat("rename %s over %s failed", tmp_path.c_str(),
                                  path_.c_str()));
    ::unlink(tmp_path.c_str());
    ::unlink(tmp_wal.c_str());
  } else {
    ::unlink(storage::WalPathFor(path_).c_str());
    ::rename(tmp_wal.c_str(), storage::WalPathFor(path_).c_str());
  }
  if (s.ok()) s = OpenImpl();
  if (s.ok()) {
    MarkOpen();
  } else {
    // Never leave a half-torn-down handle behind a returned error: recover
    // onto whatever complete database sits at path_, or close out cleanly
    // so every later call reports "database not open" instead of crashing.
    ResetHandles();
    if (OpenImpl().ok()) {
      MarkOpen();
    } else {
      ResetHandles();
    }
  }
  owns_temp_file_ = owns_temp;
  return s;
}

std::shared_ptr<ManagedView> Database::FindView(const std::string& name) const {
  const std::shared_ptr<const ViewList> list = views();
  for (const auto& v : *list) {
    if (EqualsIgnoreCase(v->name(), name)) return v;
  }
  return nullptr;
}

StatusOr<ManagedView*> Database::GetView(const std::string& name) const {
  std::shared_ptr<ManagedView> v = FindView(name);
  if (v == nullptr) {
    return Status::NotFound(
        StrFormat("no classification view named '%s'", name.c_str()));
  }
  return v.get();
}

std::vector<std::string> Database::ViewNames() const {
  const std::shared_ptr<const ViewList> list = views();
  std::vector<std::string> out;
  out.reserve(list->size());
  for (const auto& v : *list) out.push_back(v->name());
  return out;
}

}  // namespace hazy::engine
