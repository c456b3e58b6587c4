#include "sql/executor.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <sstream>

#include "common/logging.h"
#include "common/strings.h"
#include "obs/metrics.h"
#include "persist/checkpoint.h"
#include "sql/metrics_result.h"
#include "sql/parser.h"

namespace hazy::sql {

using storage::Row;
using storage::Value;

StatusOr<bool> MatchesPredicate(const storage::Schema& schema, const Row& row,
                                const Predicate& pred) {
  HAZY_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(pred.column));
  storage::CompareResult cmp = storage::ValueCompare(row[idx], pred.value);
  if (!cmp.ok) return false;  // NULL or type mismatch never matches
  switch (pred.op) {
    case CompareOp::kEq:
      return cmp.cmp == 0;
    case CompareOp::kNe:
      return cmp.cmp != 0;
    case CompareOp::kLt:
      return cmp.cmp < 0;
    case CompareOp::kLe:
      return cmp.cmp <= 0;
    case CompareOp::kGt:
      return cmp.cmp > 0;
    case CompareOp::kGe:
      return cmp.cmp >= 0;
  }
  return false;
}

namespace {

/// The view a snapshot read of `stmt` answers from: a SELECT whose table
/// names a published view. Null sends the statement down the serialized
/// path.
std::shared_ptr<engine::ManagedView> SnapshotView(engine::Database* db,
                                                  const Statement& stmt) {
  const auto* sel = std::get_if<SelectStmt>(&stmt);
  return sel == nullptr ? nullptr : db->FindView(sel->table);
}

}  // namespace

bool IsSnapshotRead(engine::Database* db, const Statement& stmt) {
  return SnapshotView(db, stmt) != nullptr;
}

StatusOr<ResultSet> Executor::Execute(const std::string& sql) {
  const auto parse_start = static_cast<uint64_t>(NowNanos());
  StatusOr<Statement> stmt = Parse(sql);
  const auto parse_end = static_cast<uint64_t>(NowNanos());
  if (stmt.ok()) {
    // Resolved once; the handle outlives the read's epoch pin.
    if (std::shared_ptr<engine::ManagedView> view = SnapshotView(db_, *stmt)) {
      return ExecSelectView(std::get<SelectStmt>(*stmt), view.get());
    }
  }

  // The serialized path is traced. Whether a statement is serialized is
  // known only once it is parsed, so the root and parse spans are
  // back-dated to the parse.
  trace_.Clear();
  obs::ScopedTraceInstall install(&trace_);
  const int root = trace_.OpenSpanAt(obs::SpanKind::kStatement, parse_start);
  trace_.CloseSpanAt(trace_.OpenSpanAt(obs::SpanKind::kParse, parse_start),
                     parse_end);
  StatusOr<ResultSet> result =
      stmt.ok() ? ExecuteSerialized(*stmt) : StatusOr<ResultSet>(stmt.status());
  trace_.CloseSpan(root);
  // SHOW TRACE must keep returning the *previous* statement's spans, and
  // EXPLAIN TRACE already stored its inner trace.
  const bool save = stmt.ok() &&
                    std::get_if<ShowTraceStmt>(&*stmt) == nullptr &&
                    std::get_if<ExplainTraceStmt>(&*stmt) == nullptr;
  FinishStatementTrace(sql, save);
  return result;
}

void Executor::FinishStatementTrace(const std::string& sql, bool save_last_trace) {
  if (save_last_trace) last_trace_rows_ = trace_.Flatten();
  const double total_ms = static_cast<double>(trace_.root_duration_ns()) / 1e6;
  // Registered lazily on first statement, so the family only exists once
  // it has observations (dead-metric lint invariant).
  static obs::Histogram* stmt_hist =
      obs::Registry::Global().GetHistogram("hazy_statement_us");
  stmt_hist->Observe(static_cast<double>(trace_.root_duration_ns()) / 1000.0);
  const int64_t threshold_ms = db_->slow_statement_ms();
  if (threshold_ms >= 0 && total_ms >= static_cast<double>(threshold_ms)) {
    obs::Registry::Global().GetCounter("hazy_slow_statements_total")->Increment();
    HAZY_LOG(Warning) << "slow statement (" << total_ms << " ms): " << sql
                      << "\n" << trace_.ToTreeString();
  }
}

StatusOr<ResultSet> Executor::Execute(const PreparedStatement& prepared,
                                      const std::vector<storage::Value>& params) {
  HAZY_ASSIGN_OR_RETURN(Statement stmt, BindParams(prepared, params));
  return Execute(stmt);
}

StatusOr<ResultSet> Executor::Execute(const Statement& stmt) {
  if (std::shared_ptr<engine::ManagedView> view = SnapshotView(db_, stmt)) {
    return ExecSelectView(std::get<SelectStmt>(stmt), view.get());
  }
  return ExecuteSerialized(stmt);
}

StatusOr<ResultSet> Executor::ExecuteSerialized(const Statement& stmt) {
  std::unique_lock<std::recursive_mutex> lock(*db_->statement_mutex(), std::defer_lock);
  {
    obs::TraceScope wait_span(obs::SpanKind::kGateWait);
    lock.lock();
  }
  // Checked under the mutex: a VACUUM swap that has the database closed
  // mid-rebuild holds it, so only a failed swap or failed Open is seen here.
  if (!db_->is_open()) return Status::InvalidArgument("database is not open");
  StatusOr<ResultSet> result = Status::InvalidArgument("not executed");
  {
    obs::TraceScope exec_span(obs::SpanKind::kExecute);
    result = Dispatch(stmt);
  }
  db_->CheckpointIfRequested();
  return result;
}

StatusOr<ResultSet> Executor::Dispatch(const Statement& stmt) {
  if (const auto* s = std::get_if<CreateTableStmt>(&stmt)) return ExecCreateTable(*s);
  if (const auto* s = std::get_if<CreateViewStmt>(&stmt)) return ExecCreateView(*s);
  if (const auto* s = std::get_if<InsertStmt>(&stmt)) return ExecInsert(*s);
  if (const auto* s = std::get_if<SelectStmt>(&stmt)) return ExecSelect(*s);
  if (const auto* s = std::get_if<DeleteStmt>(&stmt)) return ExecDelete(*s);
  if (const auto* s = std::get_if<UpdateStmt>(&stmt)) return ExecUpdate(*s);
  if (std::get_if<CheckpointStmt>(&stmt) != nullptr) return ExecCheckpoint();
  if (std::get_if<VacuumStmt>(&stmt) != nullptr) return ExecVacuum();
  if (const auto* s = std::get_if<PragmaStmt>(&stmt)) return ExecPragma(*s);
  if (const auto* s = std::get_if<ShowMetricsStmt>(&stmt)) return ExecShowMetrics(*s);
  if (std::get_if<ShowTraceStmt>(&stmt) != nullptr) return ExecShowTrace();
  if (const auto* s = std::get_if<ExplainTraceStmt>(&stmt)) return ExecExplainTrace(*s);
  return Status::Internal("unhandled statement kind");
}

StatusOr<ResultSet> Executor::ExecShowMetrics(const ShowMetricsStmt& stmt) {
  return MetricsResultSet(stmt.like);
}

StatusOr<ResultSet> Executor::ExecShowTrace() {
  return TraceResultSet(last_trace_rows_);
}

StatusOr<ResultSet> Executor::ExecExplainTrace(const ExplainTraceStmt& stmt) {
  // The inner statement runs under its own fresh context (replacing any
  // outer trace for the scope) so the reported tree measures it alone.
  obs::TraceContext trace;
  StatusOr<ResultSet> result = Status::InvalidArgument("not executed");
  {
    obs::ScopedTraceInstall install(&trace);
    const int root = trace.OpenSpan(obs::SpanKind::kStatement);
    StatusOr<Statement> inner = Status::InvalidArgument("not parsed");
    {
      obs::TraceScope parse_span(obs::SpanKind::kParse);
      inner = Parse(stmt.sql);
    }
    if (inner.ok()) {
      // EXPLAIN TRACE itself is serialized, so the inner statement already
      // runs under the statement mutex.
      obs::TraceScope exec_span(obs::SpanKind::kExecute);
      result = Dispatch(*inner);
    } else {
      result = inner.status();
    }
    trace.CloseSpan(root);
  }
  HAZY_RETURN_NOT_OK(result.status());
  last_trace_rows_ = trace.Flatten();
  return TraceResultSet(last_trace_rows_);
}

namespace {

StatusOr<int64_t> PragmaInt(const PragmaStmt& stmt) {
  if (!stmt.value.has_value() || !std::holds_alternative<int64_t>(*stmt.value)) {
    return Status::InvalidArgument(
        StrFormat("PRAGMA %s expects an integer value", stmt.name.c_str()));
  }
  return std::get<int64_t>(*stmt.value);
}

StatusOr<double> PragmaDouble(const PragmaStmt& stmt) {
  if (stmt.value.has_value() && std::holds_alternative<double>(*stmt.value)) {
    return std::get<double>(*stmt.value);
  }
  if (stmt.value.has_value() && std::holds_alternative<int64_t>(*stmt.value)) {
    return static_cast<double>(std::get<int64_t>(*stmt.value));
  }
  return Status::InvalidArgument(
      StrFormat("PRAGMA %s expects a numeric value", stmt.name.c_str()));
}

StatusOr<std::string> PragmaWord(const PragmaStmt& stmt) {
  if (!stmt.value.has_value() || !std::holds_alternative<std::string>(*stmt.value)) {
    return Status::InvalidArgument(
        StrFormat("PRAGMA %s expects an identifier value", stmt.name.c_str()));
  }
  return std::get<std::string>(*stmt.value);
}

StatusOr<bool> PragmaOnOff(const PragmaStmt& stmt) {
  HAZY_ASSIGN_OR_RETURN(std::string word, PragmaWord(stmt));
  if (EqualsIgnoreCase(word, "on")) return true;
  if (EqualsIgnoreCase(word, "off")) return false;
  return Status::InvalidArgument(
      StrFormat("PRAGMA %s expects on or off", stmt.name.c_str()));
}

const char* SyncModeName(storage::WalOptions::SyncMode mode) {
  switch (mode) {
    case storage::WalOptions::SyncMode::kEveryCommit:
      return "every_commit";
    case storage::WalOptions::SyncMode::kGroupCommit:
      return "group_commit";
    case storage::WalOptions::SyncMode::kNever:
      return "never";
  }
  return "?";
}

ResultSet PragmaRow(const std::string& name, storage::Value value) {
  ResultSet rs;
  storage::ColumnType value_type = storage::ColumnType::kText;
  if (std::holds_alternative<int64_t>(value)) value_type = storage::ColumnType::kInt64;
  if (std::holds_alternative<double>(value)) value_type = storage::ColumnType::kDouble;
  rs.columns = {{"pragma", storage::ColumnType::kText}, {"value", value_type}};
  rs.rows.push_back(storage::Row{name, std::move(value)});
  return rs;
}

}  // namespace

StatusOr<ResultSet> Executor::ExecPragma(const PragmaStmt& stmt) {
  const std::string& name = stmt.name;
  const bool has_value = stmt.value.has_value();

  if (EqualsIgnoreCase(name, "wal_sync")) {
    if (has_value) {
      HAZY_ASSIGN_OR_RETURN(std::string word, PragmaWord(stmt));
      storage::WalOptions::SyncMode mode;
      if (EqualsIgnoreCase(word, "every_commit")) {
        mode = storage::WalOptions::SyncMode::kEveryCommit;
      } else if (EqualsIgnoreCase(word, "group_commit")) {
        mode = storage::WalOptions::SyncMode::kGroupCommit;
      } else if (EqualsIgnoreCase(word, "never")) {
        mode = storage::WalOptions::SyncMode::kNever;
      } else {
        return Status::InvalidArgument(
            "PRAGMA wal_sync expects every_commit, group_commit or never");
      }
      db_->wal()->set_sync_mode(mode);
    }
    return PragmaRow(name, std::string(SyncModeName(db_->wal()->options().sync_mode)));
  }
  if (EqualsIgnoreCase(name, "group_commit_interval")) {
    if (has_value) {
      HAZY_ASSIGN_OR_RETURN(int64_t n, PragmaInt(stmt));
      if (n <= 0) return Status::InvalidArgument("interval must be positive");
      db_->wal()->set_group_commit_interval(static_cast<uint32_t>(n));
    }
    return PragmaRow(name, static_cast<int64_t>(db_->wal()->options().group_commit_interval));
  }
  if (EqualsIgnoreCase(name, "wal_checkpoint_bytes")) {
    if (has_value) {
      HAZY_ASSIGN_OR_RETURN(int64_t n, PragmaInt(stmt));
      if (n < 0) return Status::InvalidArgument("threshold must be non-negative");
      db_->SetWalCheckpointBytes(static_cast<uint64_t>(n));
    }
    return PragmaRow(name, static_cast<int64_t>(
                               db_->options().checkpointer.wal_checkpoint_bytes));
  }
  if (EqualsIgnoreCase(name, "wal_checkpoint_seconds")) {
    if (has_value) {
      HAZY_ASSIGN_OR_RETURN(double secs, PragmaDouble(stmt));
      if (secs < 0) return Status::InvalidArgument("interval must be non-negative");
      db_->SetWalCheckpointSeconds(secs);
    }
    return PragmaRow(name, db_->options().checkpointer.interval_seconds);
  }
  if (EqualsIgnoreCase(name, "checkpoint_daemon")) {
    if (has_value) {
      HAZY_ASSIGN_OR_RETURN(bool on, PragmaOnOff(stmt));
      HAZY_RETURN_NOT_OK(db_->SetCheckpointDaemonEnabled(on));
    }
    return PragmaRow(name, std::string(db_->checkpoint_daemon() != nullptr ? "on" : "off"));
  }
  if (EqualsIgnoreCase(name, "slow_statement_ms")) {
    if (has_value) {
      HAZY_ASSIGN_OR_RETURN(int64_t n, PragmaInt(stmt));
      db_->set_slow_statement_ms(n);
    }
    return PragmaRow(name, db_->slow_statement_ms());
  }
  return Status::InvalidArgument(StrFormat("unknown pragma '%s'", name.c_str()));
}

StatusOr<ResultSet> Executor::ExecCheckpoint() {
  HAZY_ASSIGN_OR_RETURN(uint64_t epoch, db_->Checkpoint());
  ResultSet rs;
  rs.message = StrFormat("checkpoint complete (epoch %llu)",
                         static_cast<unsigned long long>(epoch));
  return rs;
}

StatusOr<ResultSet> Executor::ExecVacuum() {
  const uint64_t before =
      static_cast<uint64_t>(db_->buffer_pool()->pager()->num_pages()) *
      storage::kPageSize;
  HAZY_RETURN_NOT_OK(db_->Compact());
  const uint64_t after =
      static_cast<uint64_t>(db_->buffer_pool()->pager()->num_pages()) *
      storage::kPageSize;
  ResultSet rs;
  rs.message = StrFormat(
      "vacuum complete (%llu -> %llu KiB, reclaimed %llu KiB)",
      static_cast<unsigned long long>(before / 1024),
      static_cast<unsigned long long>(after / 1024),
      static_cast<unsigned long long>(before > after ? (before - after) / 1024 : 0));
  return rs;
}

namespace {

Status RejectReservedWrite(const std::string& name) {
  if (persist::IsReservedTableName(name)) {
    return Status::InvalidArgument(
        "'__hazy' tables are system tables maintained by CHECKPOINT; "
        "they are read-only through SQL");
  }
  return Status::OK();
}

/// The LIMIT as a cap on result rows (no LIMIT caps nothing).
size_t RowLimit(const SelectStmt& stmt) {
  return stmt.limit.has_value() ? static_cast<size_t>(*stmt.limit)
                                : std::numeric_limits<size_t>::max();
}

}  // namespace

StatusOr<ResultSet> Executor::ExecCreateTable(const CreateTableStmt& stmt) {
  if (persist::IsReservedTableName(stmt.name)) {
    return Status::InvalidArgument(
        "the '__hazy' table-name prefix is reserved for system tables");
  }
  std::vector<storage::Column> cols;
  std::optional<size_t> pk;
  for (size_t i = 0; i < stmt.columns.size(); ++i) {
    const auto& c = stmt.columns[i];
    cols.push_back(storage::Column{c.name, c.type});
    if (c.primary_key) {
      if (pk.has_value()) {
        return Status::InvalidArgument("multiple PRIMARY KEY columns");
      }
      if (c.type != storage::ColumnType::kInt64) {
        return Status::InvalidArgument("PRIMARY KEY must be an INT column");
      }
      pk = i;
    }
  }
  HAZY_RETURN_NOT_OK(
      db_->catalog()->CreateTable(stmt.name, storage::Schema(std::move(cols)), pk).status());
  ResultSet rs;
  rs.message = StrFormat("table %s created", stmt.name.c_str());
  return rs;
}

StatusOr<ResultSet> Executor::ExecCreateView(const CreateViewStmt& stmt) {
  HAZY_RETURN_NOT_OK(db_->CreateClassificationView(stmt.def).status());
  ResultSet rs;
  rs.message =
      StrFormat("classification view %s created", stmt.def.view_name.c_str());
  return rs;
}

StatusOr<ResultSet> Executor::ExecInsert(const InsertStmt& stmt) {
  HAZY_RETURN_NOT_OK(RejectReservedWrite(stmt.table));
  HAZY_ASSIGN_OR_RETURN(storage::Table * table, db_->catalog()->GetTable(stmt.table));
  // Multi-row INSERTs run in one update batch: every classification view
  // monitoring this table publishes one epoch for the whole statement
  // instead of one per row.
  const bool batch = stmt.rows.size() > 1;
  if (batch) db_->BeginUpdateBatch();
  Status insert_status;
  for (const auto& row : stmt.rows) {
    insert_status = table->Insert(row);
    if (!insert_status.ok()) break;
  }
  if (batch) {
    Status flushed = db_->EndUpdateBatch();
    if (insert_status.ok()) insert_status = flushed;
  }
  HAZY_RETURN_NOT_OK(insert_status);
  // Only claim batched maintenance when a view actually monitors this table.
  const std::shared_ptr<const engine::Database::ViewList> views = db_->views();
  const bool monitored =
      std::any_of(views->begin(), views->end(), [&](const auto& v) {
        return EqualsIgnoreCase(v->def().example_table, stmt.table) ||
               EqualsIgnoreCase(v->def().entity_table, stmt.table);
      });
  ResultSet rs;
  rs.affected_rows = static_cast<int64_t>(stmt.rows.size());
  rs.message = StrFormat("%zu row%s inserted%s", stmt.rows.size(),
                         stmt.rows.size() == 1 ? "" : "s",
                         batch && monitored ? " (batched view maintenance)" : "");
  return rs;
}

StatusOr<ResultSet> Executor::ExecSelectView(const SelectStmt& stmt,
                                             engine::ManagedView* view) {
  const std::string& key_col = view->def().entity_key;
  // The view's schema is (entity key INT, class TEXT): resolve each
  // projected column to one of the two once, not per emitted row.
  ResultSet rs;
  std::vector<bool> proj_is_key;
  if (stmt.count_star) {
    rs.columns = {{"count", storage::ColumnType::kInt64}};
  } else {
    const std::vector<std::string> proj =
        stmt.columns.empty() ? std::vector<std::string>{key_col, "class"}
                             : stmt.columns;
    for (const auto& col : proj) {
      const bool is_key = EqualsIgnoreCase(col, key_col);
      if (!is_key && !EqualsIgnoreCase(col, "class")) {
        return Status::InvalidArgument(StrFormat(
            "view %s has columns (%s, class); no column '%s'",
            view->name().c_str(), key_col.c_str(), col.c_str()));
      }
      proj_is_key.push_back(is_key);
      rs.columns.push_back(
          {col, is_key ? storage::ColumnType::kInt64 : storage::ColumnType::kText});
    }
  }

  // Single Entity (`<key> = n`), All Members (`class = 'label'`), or a
  // full scan when there is no predicate.
  const Predicate* where = stmt.where.has_value() ? &*stmt.where : nullptr;
  const bool eq = where != nullptr && where->op == CompareOp::kEq;
  const bool by_key = eq && EqualsIgnoreCase(where->column, key_col);
  const bool by_class = eq && !by_key && EqualsIgnoreCase(where->column, "class");
  if (where != nullptr && !by_key && !by_class) {
    return Status::NotSupported(
        "view predicates must be '<key> = n' or \"class = 'label'\"");
  }
  if (by_key && !std::holds_alternative<int64_t>(where->value)) {
    return Status::InvalidArgument("key predicate must compare to an integer");
  }
  if (by_class && !std::holds_alternative<std::string>(where->value)) {
    return Status::InvalidArgument("class predicate must compare to a string label");
  }
  int member_sign = 0;
  if (by_class) {
    HAZY_ASSIGN_OR_RETURN(member_sign,
                          view->LabelSign(std::get<std::string>(where->value)));
  }

  // The read's only synchronization is the pin: a lock-free shared_ptr
  // load, booked in the mode="read" wait histogram.
  static obs::Histogram* read_wait = obs::Registry::Global().GetHistogram(
      "hazy_gate_wait_us", "mode=\"read\"");
  const int64_t t0 = NowNanos();
  core::SnapshotPin snap = view->PinSnapshot();
  read_wait->Observe(static_cast<double>(NowNanos() - t0) / 1000.0);
  if (!snap) {
    return Status::Internal(
        StrFormat("view %s has no published epoch", view->name().c_str()));
  }

  // The shared tail: COUNT(*) of `n` answer rows, or the first LIMIT of
  // them projected, where row(i) is row i's (id, label). LIMIT caps the
  // result rows, so it caps COUNT(*)'s one row too.
  const size_t limit = RowLimit(stmt);
  auto finish = [&](size_t n, auto row) -> ResultSet {
    if (stmt.count_star) {
      if (limit > 0) rs.rows.push_back(Row{static_cast<int64_t>(n)});
      return std::move(rs);
    }
    n = std::min(n, limit);
    rs.rows.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      const auto [id, label] = row(i);
      Row out;
      out.reserve(proj_is_key.size());
      for (bool is_key : proj_is_key) {
        if (is_key) {
          out.emplace_back(id);
        } else {
          out.emplace_back(label);
        }
      }
      rs.rows.push_back(std::move(out));
    }
    return std::move(rs);
  };
  using LabeledRow = std::pair<int64_t, const std::string&>;

  // The answers come from the pinned epoch, but the work is still this
  // view's read traffic: RecordRead books it in the view's stats.
  if (by_key) {
    const int64_t id = std::get<int64_t>(where->value);
    view->RecordRead();
    StatusOr<int> sign = snap->SingleEntityRead(id);
    // A missing entity is an empty result, not an error.
    if (!sign.ok() && !sign.status().IsNotFound()) return sign.status();
    return finish(sign.ok() ? 1 : 0, [&](size_t) {
      return LabeledRow(id, view->LabelString(*sign));
    });
  }

  obs::TraceScope scan_span(obs::SpanKind::kSnapshotScan);
  core::ScanCounts counts;
  if (by_class) {
    const std::string& label = std::get<std::string>(where->value);
    std::vector<int64_t> ids;
    uint64_t n = 0;
    if (stmt.count_star) {
      HAZY_ASSIGN_OR_RETURN(n, snap->AllMembersCount(member_sign, &counts));
    } else {
      HAZY_ASSIGN_OR_RETURN(ids, snap->AllMembers(member_sign, &counts));
      n = ids.size();
    }
    view->RecordRead(counts);
    return finish(n, [&](size_t i) { return LabeledRow(ids[i], label); });
  }
  // Full view scan: both classes from one labeling pass.
  std::vector<std::pair<int64_t, int8_t>> all = snap->LabeledEntities(&counts);
  view->RecordRead(counts);
  if (!stmt.count_star) std::sort(all.begin(), all.end());
  return finish(all.size(), [&](size_t i) {
    return LabeledRow(all[i].first, view->LabelString(all[i].second));
  });
}

StatusOr<ResultSet> Executor::ExecSelect(const SelectStmt& stmt) {
  // A view created (or recovered by VACUUM) since Execute missed the name
  // answers from its epoch here too.
  if (std::shared_ptr<engine::ManagedView> view = db_->FindView(stmt.table)) {
    return ExecSelectView(stmt, view.get());
  }
  return ExecSelectTable(stmt);
}

StatusOr<ResultSet> Executor::ExecSelectTable(const SelectStmt& stmt) {
  HAZY_ASSIGN_OR_RETURN(storage::Table * table, db_->catalog()->GetTable(stmt.table));
  const storage::Schema& schema = table->schema();

  std::vector<size_t> proj_idx;
  ResultSet rs;
  if (!stmt.count_star) {
    if (stmt.columns.empty()) {
      for (size_t i = 0; i < schema.num_columns(); ++i) {
        proj_idx.push_back(i);
        rs.columns.push_back({schema.column(i).name, schema.column(i).type});
      }
    } else {
      for (const auto& col : stmt.columns) {
        HAZY_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(col));
        proj_idx.push_back(idx);
        rs.columns.push_back({schema.column(idx).name, schema.column(idx).type});
      }
    }
  }

  const size_t limit = RowLimit(stmt);
  uint64_t count = 0;
  Status inner;
  HAZY_RETURN_NOT_OK(table->Scan([&](const Row& row) {
    if (!stmt.count_star && rs.rows.size() >= limit) return false;  // LIMIT 0
    if (stmt.where.has_value()) {
      auto match = MatchesPredicate(schema, row, *stmt.where);
      if (!match.ok()) {
        inner = match.status();
        return false;
      }
      if (!*match) return true;
    }
    if (stmt.count_star) {
      ++count;
      return true;
    }
    Row out;
    out.reserve(proj_idx.size());
    for (size_t idx : proj_idx) out.push_back(row[idx]);
    rs.rows.push_back(std::move(out));
    return rs.rows.size() < limit;
  }));
  HAZY_RETURN_NOT_OK(inner);

  if (stmt.count_star) {
    rs.columns = {{"count", storage::ColumnType::kInt64}};
    // LIMIT caps the result rows, COUNT(*)'s one row included.
    if (limit > 0) rs.rows.push_back(Row{static_cast<int64_t>(count)});
  }
  return rs;
}

StatusOr<ResultSet> Executor::ExecUpdate(const UpdateStmt& stmt) {
  HAZY_RETURN_NOT_OK(RejectReservedWrite(stmt.table));
  HAZY_ASSIGN_OR_RETURN(storage::Table * table, db_->catalog()->GetTable(stmt.table));
  const storage::Schema& schema = table->schema();
  if (!table->primary_key().has_value()) {
    return Status::NotSupported("UPDATE requires a table with a PRIMARY KEY");
  }
  std::vector<std::pair<size_t, storage::Value>> sets;
  for (const auto& [col, value] : stmt.assignments) {
    HAZY_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(col));
    sets.emplace_back(idx, value);
  }
  size_t pk = *table->primary_key();
  std::vector<int64_t> keys;
  Status inner;
  HAZY_RETURN_NOT_OK(table->Scan([&](const Row& row) {
    auto match = MatchesPredicate(schema, row, stmt.where);
    if (!match.ok()) {
      inner = match.status();
      return false;
    }
    if (*match) keys.push_back(std::get<int64_t>(row[pk]));
    return true;
  }));
  HAZY_RETURN_NOT_OK(inner);
  for (int64_t key : keys) {
    HAZY_ASSIGN_OR_RETURN(Row row, table->GetByKey(key));
    for (const auto& [idx, value] : sets) row[idx] = value;
    HAZY_RETURN_NOT_OK(table->UpdateByKey(key, row));
  }
  ResultSet rs;
  rs.affected_rows = static_cast<int64_t>(keys.size());
  rs.message = StrFormat("%zu row%s updated", keys.size(), keys.size() == 1 ? "" : "s");
  return rs;
}

StatusOr<ResultSet> Executor::ExecDelete(const DeleteStmt& stmt) {
  HAZY_RETURN_NOT_OK(RejectReservedWrite(stmt.table));
  HAZY_ASSIGN_OR_RETURN(storage::Table * table, db_->catalog()->GetTable(stmt.table));
  const storage::Schema& schema = table->schema();

  // Collect matching primary keys first, then delete (triggers fire).
  if (!table->primary_key().has_value()) {
    return Status::NotSupported("DELETE requires a table with a PRIMARY KEY");
  }
  size_t pk = *table->primary_key();
  std::vector<int64_t> keys;
  Status inner;
  HAZY_RETURN_NOT_OK(table->Scan([&](const Row& row) {
    auto match = MatchesPredicate(schema, row, stmt.where);
    if (!match.ok()) {
      inner = match.status();
      return false;
    }
    if (*match) keys.push_back(std::get<int64_t>(row[pk]));
    return true;
  }));
  HAZY_RETURN_NOT_OK(inner);
  for (int64_t key : keys) {
    HAZY_RETURN_NOT_OK(table->DeleteByKey(key));
  }
  ResultSet rs;
  rs.affected_rows = static_cast<int64_t>(keys.size());
  rs.message = StrFormat("%zu row%s deleted", keys.size(), keys.size() == 1 ? "" : "s");
  return rs;
}

}  // namespace hazy::sql
