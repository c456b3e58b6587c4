#include "storage/table.h"

#include <cstring>

#include "common/strings.h"
#include "storage/coding.h"

namespace hazy::storage {

namespace {

/// Holds the engine's statement mutex for one mutation; a no-op lock for
/// tables used without an engine.
std::unique_lock<std::recursive_mutex> LockStatement(std::recursive_mutex* mu) {
  if (mu == nullptr) return {};
  return std::unique_lock<std::recursive_mutex>(*mu);
}

}  // namespace

Table::Table(std::string name, Schema schema, BufferPool* pool,
             std::optional<size_t> primary_key)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      heap_(std::make_unique<HeapFile>(pool)),
      primary_key_(primary_key) {}

Status Table::Create() { return heap_->Create(); }

Status Table::Attach(const HeapFileMeta& meta) {
  HAZY_RETURN_NOT_OK(heap_->Attach(meta));
  if (!primary_key_.has_value()) return Status::OK();
  // The hash index is memory-only (like a hot PostgreSQL index); rebuild it
  // from the heap — cheap relative to re-featurizing or retraining.
  pk_index_.Clear();
  pk_index_.Reserve(heap_->num_records());
  Status inner;
  std::vector<Rid> long_tail;  // spilled records whose key is past the head
  HAZY_RETURN_NOT_OK(heap_->ScanHeads([&](Rid rid, std::string_view head, bool partial) {
    int64_t key = 0;
    Status s = schema_.DecodeInt64Column(head, *primary_key_, &key);
    if (s.ok()) {
      pk_index_.Put(key, rid);
      return true;
    }
    // A truncated prefix of a spilled record: decode it in full below. Any
    // other failure is real corruption.
    if (partial && s.IsCorruption()) {
      long_tail.push_back(rid);
      return true;
    }
    inner = s;
    return false;
  }));
  HAZY_RETURN_NOT_OK(inner);
  for (Rid rid : long_tail) {
    std::string rec;
    HAZY_RETURN_NOT_OK(heap_->Get(rid, &rec));
    int64_t key = 0;
    HAZY_RETURN_NOT_OK(schema_.DecodeInt64Column(rec, *primary_key_, &key));
    pk_index_.Put(key, rid);
  }
  return Status::OK();
}

Status Table::LogRowOp(WalOp op, int64_t key, const Row* row) {
  if (wal_ == nullptr) return Status::OK();
  // Row-op payloads are the bulk of a load-heavy log, so they use the
  // compact varint layout (WAL format v2): varint name, zigzag key, and the
  // row re-encoded through the compact codec instead of the fixed-width
  // heap encoding.
  std::string payload;
  payload.reserve(2 + name_.size() + 10);
  payload.push_back(static_cast<char>(op));
  PutVarintLengthPrefixed(&payload, name_);
  if (op == WalOp::kRowDelete || op == WalOp::kRowUpdate) {
    PutVarint64Signed(&payload, key);
  }
  if (op == WalOp::kRowInsert || op == WalOp::kRowUpdate) {
    HAZY_RETURN_NOT_OK(schema_.EncodeRowCompact(*row, &payload));
  }
  return wal_->AppendLogical(payload);
}

Status Table::FireAndCommit(const std::vector<Trigger>& triggers, const Row& row) {
  Status trigger_status;
  for (const Trigger& t : triggers) {
    trigger_status = t(row);
    if (!trigger_status.ok()) break;
  }
  if (wal_ != nullptr) HAZY_RETURN_NOT_OK(wal_->AutoCommit());
  if (after_commit_) after_commit_();
  return trigger_status;
}

Status Table::FireAndCommit(const std::vector<UpdateTrigger>& triggers,
                            const Row& old_row, const Row& new_row) {
  Status trigger_status;
  for (const UpdateTrigger& t : triggers) {
    trigger_status = t(old_row, new_row);
    if (!trigger_status.ok()) break;
  }
  if (wal_ != nullptr) HAZY_RETURN_NOT_OK(wal_->AutoCommit());
  if (after_commit_) after_commit_();
  return trigger_status;
}

Status Table::Insert(const Row& row) {
  auto lock = LockStatement(statement_mu_);
  std::string rec;
  HAZY_RETURN_NOT_OK(schema_.EncodeRow(row, &rec));
  int64_t key = 0;
  if (primary_key_.has_value()) {
    const Value& kv = row[*primary_key_];
    if (!std::holds_alternative<int64_t>(kv)) {
      return Status::InvalidArgument(
          StrFormat("table %s: primary key must be a non-null INT", name_.c_str()));
    }
    key = std::get<int64_t>(kv);
    if (pk_index_.Contains(key)) {
      return Status::AlreadyExists(
          StrFormat("table %s: duplicate key %lld", name_.c_str(), static_cast<long long>(key)));
    }
  }
  HAZY_ASSIGN_OR_RETURN(Rid rid, heap_->Append(rec));
  if (primary_key_.has_value()) pk_index_.Put(key, rid);
  // Logged before the triggers: replay re-runs the triggers itself, in the
  // same position, by re-inserting through this entry point.
  HAZY_RETURN_NOT_OK(LogRowOp(WalOp::kRowInsert, key, &row));
  return FireAndCommit(insert_triggers_, row);
}

StatusOr<Row> Table::GetByKey(int64_t key) const {
  if (!primary_key_.has_value()) {
    return Status::InvalidArgument(StrFormat("table %s has no primary key", name_.c_str()));
  }
  HAZY_ASSIGN_OR_RETURN(Rid rid, pk_index_.Get(key));
  std::string rec;
  HAZY_RETURN_NOT_OK(heap_->Get(rid, &rec));
  Row row;
  HAZY_RETURN_NOT_OK(schema_.DecodeRow(rec, &row));
  return row;
}

Status Table::DeleteByKey(int64_t key) {
  auto lock = LockStatement(statement_mu_);
  if (!primary_key_.has_value()) {
    return Status::InvalidArgument(StrFormat("table %s has no primary key", name_.c_str()));
  }
  HAZY_ASSIGN_OR_RETURN(Rid rid, pk_index_.Get(key));
  std::string rec;
  HAZY_RETURN_NOT_OK(heap_->Get(rid, &rec));
  Row row;
  HAZY_RETURN_NOT_OK(schema_.DecodeRow(rec, &row));
  HAZY_RETURN_NOT_OK(heap_->Delete(rid));
  pk_index_.Erase(key);
  HAZY_RETURN_NOT_OK(LogRowOp(WalOp::kRowDelete, key, nullptr));
  return FireAndCommit(delete_triggers_, row);
}

Status Table::UpdateByKey(int64_t key, const Row& new_row) {
  auto lock = LockStatement(statement_mu_);
  if (!primary_key_.has_value()) {
    return Status::InvalidArgument(StrFormat("table %s has no primary key", name_.c_str()));
  }
  const Value& kv = new_row[*primary_key_];
  if (!std::holds_alternative<int64_t>(kv) || std::get<int64_t>(kv) != key) {
    return Status::InvalidArgument("UPDATE must not change the primary key");
  }
  HAZY_ASSIGN_OR_RETURN(Rid rid, pk_index_.Get(key));
  std::string old_rec;
  HAZY_RETURN_NOT_OK(heap_->Get(rid, &old_rec));
  Row old_row;
  HAZY_RETURN_NOT_OK(schema_.DecodeRow(old_rec, &old_row));

  std::string new_rec;
  HAZY_RETURN_NOT_OK(schema_.EncodeRow(new_row, &new_rec));
  // Replace in place when sizes match; otherwise delete + append (the
  // PostgreSQL-MVCC-copy analogue, minus the copy bloat).
  if (new_rec.size() == old_rec.size()) {
    // An overflow record exposes only its stub head to Patch (patchable
    // size < the full record): detected right in the callback, so the
    // inline fast path needs no verification re-read afterwards.
    bool patched = false;
    HAZY_RETURN_NOT_OK(heap_->Patch(rid, [&](char* data, size_t size) {
      if (size >= new_rec.size()) {
        std::memcpy(data, new_rec.data(), new_rec.size());
        patched = true;
      }
    }));
    if (!patched) {
      HAZY_RETURN_NOT_OK(heap_->Delete(rid));
      HAZY_ASSIGN_OR_RETURN(Rid fresh, heap_->Append(new_rec));
      pk_index_.Put(key, fresh);
    }
  } else {
    HAZY_RETURN_NOT_OK(heap_->Delete(rid));
    HAZY_ASSIGN_OR_RETURN(Rid fresh, heap_->Append(new_rec));
    pk_index_.Put(key, fresh);
  }
  HAZY_RETURN_NOT_OK(LogRowOp(WalOp::kRowUpdate, key, &new_row));
  return FireAndCommit(update_triggers_, old_row, new_row);
}

Status Table::Scan(const std::function<bool(const Row&)>& fn) const {
  Status decode_status;
  Status s = heap_->Scan([&](Rid, std::string_view rec) {
    Row row;
    decode_status = schema_.DecodeRow(rec, &row);
    if (!decode_status.ok()) return false;
    return fn(row);
  });
  HAZY_RETURN_NOT_OK(decode_status);
  return s;
}

void Catalog::SetWal(Wal* wal) {
  wal_ = wal;
  for (const auto& t : tables_) t->SetWal(wal);
}

void Catalog::SetStatementMutex(std::recursive_mutex* mu,
                                std::function<void()> after_commit) {
  statement_mu_ = mu;
  after_commit_ = std::move(after_commit);
  for (const auto& t : tables_) t->SetStatementMutex(mu, after_commit_);
}

StatusOr<Table*> Catalog::CreateTable(const std::string& name, Schema schema,
                                      std::optional<size_t> primary_key) {
  auto lock = LockStatement(statement_mu_);
  if (HasTable(name)) {
    return Status::AlreadyExists(StrFormat("table '%s' already exists", name.c_str()));
  }
  auto table = std::make_unique<Table>(name, std::move(schema), pool_, primary_key);
  HAZY_RETURN_NOT_OK(table->Create());
  table->SetStatementMutex(statement_mu_, after_commit_);
  if (wal_ != nullptr) {
    // DDL after a checkpoint must replay before the rows that reference it.
    std::string payload;
    payload.push_back(static_cast<char>(WalOp::kCreateTable));
    PutLengthPrefixed(&payload, name);
    const Schema& s = table->schema();
    PutFixed32(&payload, static_cast<uint32_t>(s.num_columns()));
    for (const auto& col : s.columns()) {
      PutLengthPrefixed(&payload, col.name);
      payload.push_back(static_cast<char>(col.type));
    }
    payload.push_back(primary_key.has_value() ? '\1' : '\0');
    PutFixed32(&payload, static_cast<uint32_t>(primary_key.value_or(0)));
    HAZY_RETURN_NOT_OK(wal_->AppendLogical(payload));
    HAZY_RETURN_NOT_OK(wal_->AutoCommit());
    table->SetWal(wal_);
  }
  tables_.push_back(std::move(table));
  return tables_.back().get();
}

StatusOr<Table*> Catalog::AttachTable(const std::string& name, Schema schema,
                                      std::optional<size_t> primary_key,
                                      const HeapFileMeta& meta) {
  if (HasTable(name)) {
    return Status::AlreadyExists(StrFormat("table '%s' already exists", name.c_str()));
  }
  auto table = std::make_unique<Table>(name, std::move(schema), pool_, primary_key);
  HAZY_RETURN_NOT_OK(table->Attach(meta));
  table->SetWal(wal_);
  table->SetStatementMutex(statement_mu_, after_commit_);
  tables_.push_back(std::move(table));
  return tables_.back().get();
}

StatusOr<Table*> Catalog::GetTable(const std::string& name) const {
  for (const auto& t : tables_) {
    if (EqualsIgnoreCase(t->name(), name)) return t.get();
  }
  return Status::NotFound(StrFormat("no table named '%s'", name.c_str()));
}

bool Catalog::HasTable(const std::string& name) const {
  for (const auto& t : tables_) {
    if (EqualsIgnoreCase(t->name(), name)) return true;
  }
  return false;
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const auto& t : tables_) out.push_back(t->name());
  return out;
}

}  // namespace hazy::storage
