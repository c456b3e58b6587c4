// Executes parsed statements against a Database. SELECTs over a
// classification view are answered from the view's pinned read epoch,
// rerouted the way the paper's UDF/trigger plumbing reroutes PostgreSQL
// queries to the Hazy process (B.1):
//   WHERE <key> = k       -> Single Entity read
//   WHERE class = 'label' -> All Members
//   COUNT(*) variants     -> All Members count

#ifndef HAZY_SQL_EXECUTOR_H_
#define HAZY_SQL_EXECUTOR_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "engine/database.h"
#include "obs/trace.h"
#include "sql/ast.h"
#include "sql/parser.h"
#include "sql/result_set.h"

namespace hazy::sql {

/// \brief Statement executor bound to one Database.
///
/// Parsing and execution are split: Parse/ParseTemplate (sql/parser.h) turn
/// text into a Statement once, Execute(const Statement&) runs it — so a
/// prepared statement parses once and executes many times with BindParams.
/// The string overload is the convenience composition of the two.
///
/// The executor owns statement serialization. A SELECT over a view
/// (IsSnapshotRead) runs lock-free against the view's pinned epoch, so it
/// sees the last published batch boundary, never a half-applied batch.
/// It resolves the view once, from the database's published view list,
/// and holds that handle until the read's epoch pin is released, so a
/// VACUUM that republishes the list never waits for it. Every other
/// statement, a SELECT whose name did not resolve to a view included,
/// runs under Database::statement_mutex(), and on its way out runs any
/// checkpoint the background checkpointer handed off
/// (Database::CheckpointIfRequested). Callers never lock anything.
class Executor {
 public:
  explicit Executor(engine::Database* db) : db_(db) {}

  /// Parses (exactly once) and executes one statement. A serialized
  /// statement runs under the executor's own TraceContext — a `statement`
  /// root with `parse`, `gate.wait` (the statement-mutex wait) and
  /// `execute` children, subsystem events, the statement latency
  /// histogram, and the slow-statement log — and its span rows are kept
  /// for SHOW TRACE. A snapshot read is not traced.
  StatusOr<ResultSet> Execute(const std::string& sql);

  /// Executes an already-parsed statement (serialized unless it is a
  /// snapshot read; no trace root).
  StatusOr<ResultSet> Execute(const Statement& stmt);

  /// Executes a prepared template with `params` bound to its '?' slots
  /// (BindParams + Execute).
  StatusOr<ResultSet> Execute(const PreparedStatement& prepared,
                              const std::vector<storage::Value>& params);

  /// Span rows of the last traced statement (what SHOW TRACE returns).
  const std::vector<obs::TraceRow>& last_trace() const {
    return last_trace_rows_;
  }

 private:
  /// Runs `stmt` under the statement mutex (booking the wait as a
  /// `gate.wait` span), then runs any handed-off checkpoint.
  StatusOr<ResultSet> ExecuteSerialized(const Statement& stmt);
  /// Routes `stmt` to its Exec* body (caller holds the statement mutex).
  StatusOr<ResultSet> Dispatch(const Statement& stmt);

  StatusOr<ResultSet> ExecCreateTable(const CreateTableStmt& stmt);
  StatusOr<ResultSet> ExecCreateView(const CreateViewStmt& stmt);
  StatusOr<ResultSet> ExecInsert(const InsertStmt& stmt);
  /// Serialized SELECT (statement mutex held): resolves the name again, so
  /// a view published since Execute missed it answers from its epoch, and
  /// anything else scans a base table.
  StatusOr<ResultSet> ExecSelect(const SelectStmt& stmt);
  /// Scans a base table (statement mutex held).
  StatusOr<ResultSet> ExecSelectTable(const SelectStmt& stmt);
  /// Answers every SELECT over a view from its pinned epoch: Single Entity,
  /// All Members, COUNT(*) or a full scan, then LIMIT and the projection.
  /// Takes no lock and folds no queued trigger work, so it never waits on
  /// ingest (MVCC semantics). The caller holds the view's FindView handle
  /// for the whole call: the pin taken here points into the view.
  StatusOr<ResultSet> ExecSelectView(const SelectStmt& stmt, engine::ManagedView* view);
  StatusOr<ResultSet> ExecDelete(const DeleteStmt& stmt);
  StatusOr<ResultSet> ExecUpdate(const UpdateStmt& stmt);
  StatusOr<ResultSet> ExecCheckpoint();
  StatusOr<ResultSet> ExecVacuum();
  StatusOr<ResultSet> ExecPragma(const PragmaStmt& stmt);
  StatusOr<ResultSet> ExecShowMetrics(const ShowMetricsStmt& stmt);
  StatusOr<ResultSet> ExecShowTrace();
  StatusOr<ResultSet> ExecExplainTrace(const ExplainTraceStmt& stmt);

  /// Statement-latency histogram, SHOW TRACE bookkeeping, and the slow log
  /// for one completed trace (`sql` only for the log line).
  void FinishStatementTrace(const std::string& sql, bool save_last_trace);

  engine::Database* db_;
  /// Reused across statements (Clear keeps allocations).
  obs::TraceContext trace_;
  std::vector<obs::TraceRow> last_trace_rows_;
};

/// True if `row` satisfies `pred` under `schema`.
StatusOr<bool> MatchesPredicate(const storage::Schema& schema, const storage::Row& row,
                                const Predicate& pred);

/// True when `stmt` is a SELECT whose table names a classification view.
/// Every view the database can name has a published epoch, so such a
/// statement reads immutable state and runs without the statement mutex
/// (Executor::Execute makes the same test while resolving the view, so
/// reads bypass a saturating update stream). The answer may be stale by
/// the time the caller acts on it: a VACUUM can republish the view list.
bool IsSnapshotRead(engine::Database* db, const Statement& stmt);

}  // namespace hazy::sql

#endif  // HAZY_SQL_EXECUTOR_H_
