#include "sql/parser.h"

#include <cstdlib>

#include "common/strings.h"
#include "sql/lexer.h"

namespace hazy::sql {

namespace {

/// Token-stream cursor with keyword helpers.
class Cursor {
 public:
  explicit Cursor(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Advance() { return tokens_[pos_ == tokens_.size() - 1 ? pos_ : pos_++]; }
  bool AtEnd() const { return Peek().type == TokenType::kEnd; }

  bool PeekKeyword(const char* kw) const {
    return Peek().type == TokenType::kIdentifier && EqualsIgnoreCase(Peek().text, kw);
  }
  bool AcceptKeyword(const char* kw) {
    if (PeekKeyword(kw)) {
      Advance();
      return true;
    }
    return false;
  }
  Status ExpectKeyword(const char* kw) {
    if (AcceptKeyword(kw)) return Status::OK();
    return Status::InvalidArgument(
        StrFormat("expected %s near '%s' (offset %zu)", kw, Peek().text.c_str(),
                  Peek().offset));
  }
  bool AcceptSymbol(const char* s) {
    if (Peek().type == TokenType::kSymbol && Peek().text == s) {
      Advance();
      return true;
    }
    return false;
  }
  Status ExpectSymbol(const char* s) {
    if (AcceptSymbol(s)) return Status::OK();
    return Status::InvalidArgument(
        StrFormat("expected '%s' near '%s' (offset %zu)", s, Peek().text.c_str(),
                  Peek().offset));
  }
  StatusOr<std::string> ExpectIdentifier(const char* what) {
    if (Peek().type != TokenType::kIdentifier) {
      return Status::InvalidArgument(
          StrFormat("expected %s near '%s' (offset %zu)", what, Peek().text.c_str(),
                    Peek().offset));
    }
    return Advance().text;
  }

  // Parameter ('?') support: ParseTemplate enables collection, and each value
  // position arms the slot descriptor recorded when a '?' is consumed there.
  void EnableParams(std::vector<ParamSlot>* slots) { slots_ = slots; }
  void ArmParamSlot(ParamSlot slot) {
    next_slot_ = slot;
    slot_armed_ = true;
  }
  std::vector<ParamSlot>* slots() { return slots_; }
  bool TakeArmedSlot(ParamSlot* slot) {
    if (!slot_armed_) return false;
    slot_armed_ = false;
    *slot = next_slot_;
    return true;
  }

 private:
  std::vector<Token> tokens_;
  size_t pos_ = 0;
  std::vector<ParamSlot>* slots_ = nullptr;
  ParamSlot next_slot_;
  bool slot_armed_ = false;
};

StatusOr<storage::Value> ParseValue(Cursor* c) {
  // Consume any armed slot up front so it cannot leak past a literal into a
  // later, unarmed value position.
  ParamSlot slot;
  const bool armed = c->TakeArmedSlot(&slot);
  const Token& t = c->Peek();
  if (t.type == TokenType::kSymbol && t.text == "?") {
    if (c->slots() == nullptr) {
      return Status::InvalidArgument(
          StrFormat("'?' parameters are only allowed in prepared statements "
                    "(offset %zu)",
                    t.offset));
    }
    if (!armed) {
      return Status::InvalidArgument(
          StrFormat("'?' is not allowed in this position (offset %zu)", t.offset));
    }
    c->slots()->push_back(slot);
    c->Advance();
    // Placeholder: NULL until BindParams substitutes the real value.
    return storage::Value(std::monostate{});
  }
  switch (t.type) {
    case TokenType::kString: {
      std::string s = t.text;
      c->Advance();
      return storage::Value(std::move(s));
    }
    case TokenType::kInteger: {
      int64_t v = std::strtoll(t.text.c_str(), nullptr, 10);
      c->Advance();
      return storage::Value(v);
    }
    case TokenType::kFloat: {
      double v = std::strtod(t.text.c_str(), nullptr);
      c->Advance();
      return storage::Value(v);
    }
    case TokenType::kIdentifier:
      if (EqualsIgnoreCase(t.text, "NULL")) {
        c->Advance();
        return storage::Value(std::monostate{});
      }
      break;
    default:
      break;
  }
  return Status::InvalidArgument(
      StrFormat("expected a literal near '%s' (offset %zu)", t.text.c_str(), t.offset));
}

StatusOr<Predicate> ParsePredicate(Cursor* c) {
  Predicate pred;
  HAZY_ASSIGN_OR_RETURN(pred.column, c->ExpectIdentifier("column name"));
  const Token& op = c->Peek();
  if (op.type != TokenType::kSymbol) {
    return Status::InvalidArgument(
        StrFormat("expected comparison near '%s'", op.text.c_str()));
  }
  if (op.text == "=") {
    pred.op = CompareOp::kEq;
  } else if (op.text == "!=") {
    pred.op = CompareOp::kNe;
  } else if (op.text == "<") {
    pred.op = CompareOp::kLt;
  } else if (op.text == "<=") {
    pred.op = CompareOp::kLe;
  } else if (op.text == ">") {
    pred.op = CompareOp::kGt;
  } else if (op.text == ">=") {
    pred.op = CompareOp::kGe;
  } else {
    return Status::InvalidArgument(
        StrFormat("unsupported comparison '%s'", op.text.c_str()));
  }
  c->Advance();
  c->ArmParamSlot({ParamSlot::Kind::kWhereValue, 0, 0});
  HAZY_ASSIGN_OR_RETURN(pred.value, ParseValue(c));
  return pred;
}

StatusOr<Statement> ParseCreateTable(Cursor* c) {
  CreateTableStmt stmt;
  HAZY_ASSIGN_OR_RETURN(stmt.name, c->ExpectIdentifier("table name"));
  HAZY_RETURN_NOT_OK(c->ExpectSymbol("("));
  for (;;) {
    CreateTableStmt::ColumnDef col;
    HAZY_ASSIGN_OR_RETURN(col.name, c->ExpectIdentifier("column name"));
    HAZY_ASSIGN_OR_RETURN(std::string type, c->ExpectIdentifier("column type"));
    if (EqualsIgnoreCase(type, "INT") || EqualsIgnoreCase(type, "INTEGER") ||
        EqualsIgnoreCase(type, "BIGINT")) {
      col.type = storage::ColumnType::kInt64;
    } else if (EqualsIgnoreCase(type, "REAL") || EqualsIgnoreCase(type, "DOUBLE") ||
               EqualsIgnoreCase(type, "FLOAT")) {
      col.type = storage::ColumnType::kDouble;
    } else if (EqualsIgnoreCase(type, "TEXT") || EqualsIgnoreCase(type, "VARCHAR")) {
      col.type = storage::ColumnType::kText;
      // Tolerate VARCHAR(n).
      if (c->AcceptSymbol("(")) {
        c->Advance();
        HAZY_RETURN_NOT_OK(c->ExpectSymbol(")"));
      }
    } else {
      return Status::InvalidArgument(StrFormat("unknown type '%s'", type.c_str()));
    }
    if (c->AcceptKeyword("PRIMARY")) {
      HAZY_RETURN_NOT_OK(c->ExpectKeyword("KEY"));
      col.primary_key = true;
    }
    stmt.columns.push_back(std::move(col));
    if (c->AcceptSymbol(",")) continue;
    HAZY_RETURN_NOT_OK(c->ExpectSymbol(")"));
    break;
  }
  return Statement(std::move(stmt));
}

// CREATE CLASSIFICATION VIEW v KEY id
//   ENTITIES FROM t KEY id [TEXT col [, col...]]
//   LABELS FROM t2 LABEL l
//   EXAMPLES FROM t3 KEY id LABEL l
//   FEATURE FUNCTION f
//   [USING SVM|LOGISTIC|RIDGE]
//   [ARCHITECTURE NAIVE_MM|HAZY_MM|NAIVE_OD|HAZY_OD|HYBRID]
//   [MODE EAGER|LAZY]
StatusOr<Statement> ParseCreateView(Cursor* c) {
  CreateViewStmt stmt;
  auto& def = stmt.def;
  HAZY_ASSIGN_OR_RETURN(def.view_name, c->ExpectIdentifier("view name"));
  HAZY_RETURN_NOT_OK(c->ExpectKeyword("KEY"));
  HAZY_RETURN_NOT_OK(c->ExpectIdentifier("view key").status());

  HAZY_RETURN_NOT_OK(c->ExpectKeyword("ENTITIES"));
  HAZY_RETURN_NOT_OK(c->ExpectKeyword("FROM"));
  HAZY_ASSIGN_OR_RETURN(def.entity_table, c->ExpectIdentifier("entity table"));
  HAZY_RETURN_NOT_OK(c->ExpectKeyword("KEY"));
  HAZY_ASSIGN_OR_RETURN(def.entity_key, c->ExpectIdentifier("entity key"));
  if (c->AcceptKeyword("TEXT")) {
    for (;;) {
      HAZY_ASSIGN_OR_RETURN(std::string col, c->ExpectIdentifier("text column"));
      def.entity_text_columns.push_back(std::move(col));
      if (!c->AcceptSymbol(",")) break;
    }
  }

  HAZY_RETURN_NOT_OK(c->ExpectKeyword("LABELS"));
  HAZY_RETURN_NOT_OK(c->ExpectKeyword("FROM"));
  HAZY_ASSIGN_OR_RETURN(def.label_table, c->ExpectIdentifier("label table"));
  HAZY_RETURN_NOT_OK(c->ExpectKeyword("LABEL"));
  HAZY_ASSIGN_OR_RETURN(def.label_column, c->ExpectIdentifier("label column"));

  HAZY_RETURN_NOT_OK(c->ExpectKeyword("EXAMPLES"));
  HAZY_RETURN_NOT_OK(c->ExpectKeyword("FROM"));
  HAZY_ASSIGN_OR_RETURN(def.example_table, c->ExpectIdentifier("example table"));
  HAZY_RETURN_NOT_OK(c->ExpectKeyword("KEY"));
  HAZY_ASSIGN_OR_RETURN(def.example_key, c->ExpectIdentifier("example key"));
  HAZY_RETURN_NOT_OK(c->ExpectKeyword("LABEL"));
  HAZY_ASSIGN_OR_RETURN(def.example_label, c->ExpectIdentifier("example label"));

  HAZY_RETURN_NOT_OK(c->ExpectKeyword("FEATURE"));
  HAZY_RETURN_NOT_OK(c->ExpectKeyword("FUNCTION"));
  HAZY_ASSIGN_OR_RETURN(def.feature_function, c->ExpectIdentifier("feature function"));

  if (c->AcceptKeyword("USING")) {
    HAZY_ASSIGN_OR_RETURN(std::string method, c->ExpectIdentifier("method"));
    HAZY_ASSIGN_OR_RETURN(def.method, ml::LossKindFromString(method));
  }
  if (c->AcceptKeyword("ARCHITECTURE")) {
    HAZY_ASSIGN_OR_RETURN(std::string arch, c->ExpectIdentifier("architecture"));
    if (EqualsIgnoreCase(arch, "NAIVE_MM")) {
      def.architecture = core::Architecture::kNaiveMM;
    } else if (EqualsIgnoreCase(arch, "HAZY_MM")) {
      def.architecture = core::Architecture::kHazyMM;
    } else if (EqualsIgnoreCase(arch, "NAIVE_OD")) {
      def.architecture = core::Architecture::kNaiveOD;
    } else if (EqualsIgnoreCase(arch, "HAZY_OD")) {
      def.architecture = core::Architecture::kHazyOD;
    } else if (EqualsIgnoreCase(arch, "HYBRID")) {
      def.architecture = core::Architecture::kHybrid;
    } else {
      return Status::InvalidArgument(StrFormat("unknown architecture '%s'", arch.c_str()));
    }
  }
  if (c->AcceptKeyword("MODE")) {
    HAZY_ASSIGN_OR_RETURN(std::string mode, c->ExpectIdentifier("mode"));
    if (EqualsIgnoreCase(mode, "EAGER")) {
      def.mode = core::Mode::kEager;
    } else if (EqualsIgnoreCase(mode, "LAZY")) {
      def.mode = core::Mode::kLazy;
    } else {
      return Status::InvalidArgument(StrFormat("unknown mode '%s'", mode.c_str()));
    }
  }
  return Statement(std::move(stmt));
}

StatusOr<Statement> ParseInsert(Cursor* c) {
  InsertStmt stmt;
  HAZY_RETURN_NOT_OK(c->ExpectKeyword("INTO"));
  HAZY_ASSIGN_OR_RETURN(stmt.table, c->ExpectIdentifier("table name"));
  HAZY_RETURN_NOT_OK(c->ExpectKeyword("VALUES"));
  for (;;) {
    HAZY_RETURN_NOT_OK(c->ExpectSymbol("("));
    storage::Row row;
    for (;;) {
      c->ArmParamSlot({ParamSlot::Kind::kInsertValue,
                       static_cast<uint32_t>(stmt.rows.size()),
                       static_cast<uint32_t>(row.size())});
      HAZY_ASSIGN_OR_RETURN(storage::Value v, ParseValue(c));
      row.push_back(std::move(v));
      if (c->AcceptSymbol(",")) continue;
      HAZY_RETURN_NOT_OK(c->ExpectSymbol(")"));
      break;
    }
    stmt.rows.push_back(std::move(row));
    if (!c->AcceptSymbol(",")) break;
  }
  return Statement(std::move(stmt));
}

StatusOr<Statement> ParseSelect(Cursor* c) {
  SelectStmt stmt;
  if (c->PeekKeyword("COUNT")) {
    c->Advance();
    HAZY_RETURN_NOT_OK(c->ExpectSymbol("("));
    HAZY_RETURN_NOT_OK(c->ExpectSymbol("*"));
    HAZY_RETURN_NOT_OK(c->ExpectSymbol(")"));
    stmt.count_star = true;
  } else if (c->AcceptSymbol("*")) {
    // all columns
  } else {
    for (;;) {
      HAZY_ASSIGN_OR_RETURN(std::string col, c->ExpectIdentifier("column"));
      stmt.columns.push_back(std::move(col));
      if (!c->AcceptSymbol(",")) break;
    }
  }
  HAZY_RETURN_NOT_OK(c->ExpectKeyword("FROM"));
  HAZY_ASSIGN_OR_RETURN(stmt.table, c->ExpectIdentifier("table name"));
  if (c->AcceptKeyword("WHERE")) {
    HAZY_ASSIGN_OR_RETURN(stmt.where, ParsePredicate(c));
  }
  if (c->AcceptKeyword("LIMIT")) {
    const Token& t = c->Peek();
    if (t.type != TokenType::kInteger) {
      return Status::InvalidArgument("LIMIT expects an integer");
    }
    stmt.limit = std::strtoll(t.text.c_str(), nullptr, 10);
    if (*stmt.limit < 0) return Status::InvalidArgument("LIMIT must not be negative");
    c->Advance();
  }
  return Statement(std::move(stmt));
}

// PRAGMA name [= literal | identifier]. Identifier values (on, off,
// group_commit, ...) come through as strings.
StatusOr<Statement> ParsePragma(Cursor* c) {
  PragmaStmt stmt;
  HAZY_ASSIGN_OR_RETURN(stmt.name, c->ExpectIdentifier("pragma name"));
  if (c->AcceptSymbol("=")) {
    if (c->Peek().type == TokenType::kIdentifier) {
      stmt.value = storage::Value(c->Advance().text);
    } else {
      HAZY_ASSIGN_OR_RETURN(storage::Value v, ParseValue(c));
      stmt.value = std::move(v);
    }
  }
  return Statement(std::move(stmt));
}

StatusOr<Statement> ParseDelete(Cursor* c) {
  DeleteStmt stmt;
  HAZY_RETURN_NOT_OK(c->ExpectKeyword("FROM"));
  HAZY_ASSIGN_OR_RETURN(stmt.table, c->ExpectIdentifier("table name"));
  HAZY_RETURN_NOT_OK(c->ExpectKeyword("WHERE"));
  HAZY_ASSIGN_OR_RETURN(stmt.where, ParsePredicate(c));
  return Statement(std::move(stmt));
}

StatusOr<Statement> ParseUpdate(Cursor* c) {
  UpdateStmt stmt;
  HAZY_ASSIGN_OR_RETURN(stmt.table, c->ExpectIdentifier("table name"));
  HAZY_RETURN_NOT_OK(c->ExpectKeyword("SET"));
  for (;;) {
    std::pair<std::string, storage::Value> assign;
    HAZY_ASSIGN_OR_RETURN(assign.first, c->ExpectIdentifier("column name"));
    HAZY_RETURN_NOT_OK(c->ExpectSymbol("="));
    c->ArmParamSlot({ParamSlot::Kind::kSetValue,
                     static_cast<uint32_t>(stmt.assignments.size()), 0});
    HAZY_ASSIGN_OR_RETURN(assign.second, ParseValue(c));
    stmt.assignments.push_back(std::move(assign));
    if (!c->AcceptSymbol(",")) break;
  }
  HAZY_RETURN_NOT_OK(c->ExpectKeyword("WHERE"));
  HAZY_ASSIGN_OR_RETURN(stmt.where, ParsePredicate(c));
  return Statement(std::move(stmt));
}

// SHOW METRICS [LIKE 'substring'] | SHOW TRACE
StatusOr<Statement> ParseShow(Cursor* c) {
  if (c->AcceptKeyword("METRICS")) {
    ShowMetricsStmt stmt;
    if (c->AcceptKeyword("LIKE")) {
      const Token& t = c->Peek();
      if (t.type != TokenType::kString) {
        return Status::InvalidArgument("LIKE expects a quoted string");
      }
      stmt.like = t.text;
      c->Advance();
    }
    return Statement(std::move(stmt));
  }
  if (c->AcceptKeyword("TRACE")) return Statement(ShowTraceStmt{});
  return Status::InvalidArgument("expected METRICS or TRACE after SHOW");
}

StatusOr<Statement> ParseImpl(const std::string& sql, std::vector<ParamSlot>* slots) {
  HAZY_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(sql));
  // EXPLAIN TRACE wraps a whole statement: keep the inner text verbatim (by
  // byte offset of the third token) instead of re-assembling it from tokens.
  if (tokens.size() >= 2 && tokens[0].type == TokenType::kIdentifier &&
      EqualsIgnoreCase(tokens[0].text, "EXPLAIN")) {
    if (tokens[1].type != TokenType::kIdentifier ||
        !EqualsIgnoreCase(tokens[1].text, "TRACE")) {
      return Status::InvalidArgument("expected TRACE after EXPLAIN");
    }
    if (tokens.size() < 3 || tokens[2].type == TokenType::kEnd) {
      return Status::InvalidArgument("EXPLAIN TRACE expects a statement");
    }
    return Statement(ExplainTraceStmt{sql.substr(tokens[2].offset)});
  }
  Cursor c(std::move(tokens));
  if (slots != nullptr) c.EnableParams(slots);

  StatusOr<Statement> result = Status::InvalidArgument("empty statement");
  if (c.AcceptKeyword("CREATE")) {
    if (c.AcceptKeyword("TABLE")) {
      result = ParseCreateTable(&c);
    } else if (c.AcceptKeyword("CLASSIFICATION")) {
      HAZY_RETURN_NOT_OK(c.ExpectKeyword("VIEW"));
      result = ParseCreateView(&c);
    } else {
      return Status::InvalidArgument("expected TABLE or CLASSIFICATION VIEW after CREATE");
    }
  } else if (c.AcceptKeyword("INSERT")) {
    result = ParseInsert(&c);
  } else if (c.AcceptKeyword("SELECT")) {
    result = ParseSelect(&c);
  } else if (c.AcceptKeyword("DELETE")) {
    result = ParseDelete(&c);
  } else if (c.AcceptKeyword("UPDATE")) {
    result = ParseUpdate(&c);
  } else if (c.AcceptKeyword("CHECKPOINT")) {
    result = Statement(CheckpointStmt{});
  } else if (c.AcceptKeyword("VACUUM")) {
    result = Statement(VacuumStmt{});
  } else if (c.AcceptKeyword("PRAGMA")) {
    result = ParsePragma(&c);
  } else if (c.AcceptKeyword("SHOW")) {
    result = ParseShow(&c);
  } else {
    return Status::InvalidArgument(
        StrFormat("unknown statement '%s'", c.Peek().text.c_str()));
  }
  HAZY_RETURN_NOT_OK(result.status());
  c.AcceptSymbol(";");
  if (!c.AtEnd()) {
    return Status::InvalidArgument(
        StrFormat("trailing input near '%s'", c.Peek().text.c_str()));
  }
  return result;
}

}  // namespace

StatusOr<Statement> Parse(const std::string& sql) { return ParseImpl(sql, nullptr); }

StatusOr<PreparedStatement> ParseTemplate(const std::string& sql) {
  PreparedStatement prepared;
  HAZY_ASSIGN_OR_RETURN(prepared.stmt, ParseImpl(sql, &prepared.params));
  return prepared;
}

namespace {

/// Resolves a slot to the value cell it names inside `stmt`, or nullptr when
/// the slot does not match the statement's shape (corrupt template).
storage::Value* LocateSlot(Statement* stmt, const ParamSlot& slot) {
  switch (slot.kind) {
    case ParamSlot::Kind::kInsertValue: {
      auto* ins = std::get_if<InsertStmt>(stmt);
      if (ins == nullptr || slot.a >= ins->rows.size() ||
          slot.b >= ins->rows[slot.a].size()) {
        return nullptr;
      }
      return &ins->rows[slot.a][slot.b];
    }
    case ParamSlot::Kind::kWhereValue: {
      if (auto* sel = std::get_if<SelectStmt>(stmt)) {
        return sel->where.has_value() ? &sel->where->value : nullptr;
      }
      if (auto* del = std::get_if<DeleteStmt>(stmt)) return &del->where.value;
      if (auto* upd = std::get_if<UpdateStmt>(stmt)) return &upd->where.value;
      return nullptr;
    }
    case ParamSlot::Kind::kSetValue: {
      auto* upd = std::get_if<UpdateStmt>(stmt);
      if (upd == nullptr || slot.a >= upd->assignments.size()) return nullptr;
      return &upd->assignments[slot.a].second;
    }
  }
  return nullptr;
}

}  // namespace

StatusOr<Statement> BindParams(const PreparedStatement& prepared,
                               const std::vector<storage::Value>& params) {
  if (params.size() != prepared.params.size()) {
    return Status::InvalidArgument(
        StrFormat("statement expects %zu parameter%s, got %zu",
                  prepared.params.size(), prepared.params.size() == 1 ? "" : "s",
                  params.size()));
  }
  Statement stmt = prepared.stmt;
  for (size_t i = 0; i < params.size(); ++i) {
    storage::Value* dst = LocateSlot(&stmt, prepared.params[i]);
    if (dst == nullptr) {
      return Status::Internal("parameter slot does not match statement shape");
    }
    *dst = params[i];
  }
  return stmt;
}

}  // namespace hazy::sql
