// AST for the mini SQL dialect.

#ifndef HAZY_SQL_AST_H_
#define HAZY_SQL_AST_H_

#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "engine/database.h"
#include "storage/schema.h"

namespace hazy::sql {

/// CREATE TABLE name (col TYPE [PRIMARY KEY], ...)
struct CreateTableStmt {
  struct ColumnDef {
    std::string name;
    storage::ColumnType type;
    bool primary_key = false;
  };
  std::string name;
  std::vector<ColumnDef> columns;
};

/// CREATE CLASSIFICATION VIEW ... (Example 2.1). Reuses the engine's
/// definition struct directly.
struct CreateViewStmt {
  engine::ClassificationViewDef def;
};

/// INSERT INTO t VALUES (...), (...)
struct InsertStmt {
  std::string table;
  std::vector<storage::Row> rows;
};

/// Comparison operators in WHERE clauses.
enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

struct Predicate {
  std::string column;
  CompareOp op = CompareOp::kEq;
  storage::Value value;
};

/// SELECT cols|*|COUNT(*) FROM t [WHERE pred] [LIMIT n]
struct SelectStmt {
  bool count_star = false;
  std::vector<std::string> columns;  // empty + !count_star means '*'
  std::string table;
  std::optional<Predicate> where;
  std::optional<int64_t> limit;      // >= 0: the parser rejects a negative LIMIT
};

/// DELETE FROM t WHERE pred
struct DeleteStmt {
  std::string table;
  Predicate where;
};

/// UPDATE t SET col = val [, col = val ...] WHERE pred
struct UpdateStmt {
  std::string table;
  std::vector<std::pair<std::string, storage::Value>> assignments;
  Predicate where;
};

/// CHECKPOINT — persists the table catalog and every classification view's
/// state to the backing file (persist/checkpoint.h).
struct CheckpointStmt {};

/// VACUUM — checkpoints, then rewrites every live page into a compacted
/// database file and truncates away all fragmentation (Database::Compact).
struct VacuumStmt {};

/// PRAGMA name [= value] — engine knobs. With a value, sets the knob; bare,
/// reports the current setting. Knobs: wal_sync (every_commit | group_commit
/// | never), group_commit_interval, wal_checkpoint_bytes,
/// wal_checkpoint_seconds, checkpoint_daemon (on | off),
/// slow_statement_ms.
struct PragmaStmt {
  std::string name;
  /// Integers arrive as int64, identifiers/strings as std::string; absent
  /// for the read form.
  std::optional<storage::Value> value;
};

/// SHOW METRICS [LIKE 'substring'] — snapshot of the process-wide metrics
/// registry as (name, labels, kind, value) rows.
struct ShowMetricsStmt {
  std::string like;  ///< empty = everything; else substring filter on name
};

/// SHOW TRACE — the span breakdown of the previous traced statement on this
/// executor (what remote \timing fetches after the statement itself).
struct ShowTraceStmt {};

/// EXPLAIN TRACE <stmt> — runs the inner statement under a fresh trace and
/// returns its span tree instead of its result. The inner statement is kept
/// as raw SQL (not a nested Statement) so the variant stays copyable.
struct ExplainTraceStmt {
  std::string sql;
};

using Statement = std::variant<CreateTableStmt, CreateViewStmt, InsertStmt,
                               SelectStmt, DeleteStmt, UpdateStmt, CheckpointStmt,
                               VacuumStmt, PragmaStmt, ShowMetricsStmt,
                               ShowTraceStmt, ExplainTraceStmt>;

/// Where a '?' placeholder sits inside a parsed statement. Slots are recorded
/// in left-to-right SQL order, so parameter i of an EXEC binds to slot i.
struct ParamSlot {
  enum class Kind : uint8_t {
    kInsertValue,  ///< INSERT row `a`, column `b`
    kWhereValue,   ///< the WHERE predicate's comparison value
    kSetValue,     ///< UPDATE assignment `a`'s value
  };
  Kind kind = Kind::kWhereValue;
  uint32_t a = 0;
  uint32_t b = 0;
};

/// \brief A parsed statement template: the AST with '?' placeholders left as
/// NULL values plus the slot list needed to bind real parameters later.
/// This is what PREPARE stores and EXEC_PREPARED binds against.
struct PreparedStatement {
  Statement stmt;
  std::vector<ParamSlot> params;

  size_t num_params() const { return params.size(); }
};

}  // namespace hazy::sql

#endif  // HAZY_SQL_AST_H_
