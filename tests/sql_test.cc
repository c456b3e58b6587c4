// Tests for the SQL front end: lexer, parser, and end-to-end execution of
// the paper's Example 2.1 workflow.

#include <gtest/gtest.h>

#include "sql/executor.h"
#include "sql/lexer.h"
#include "sql/parser.h"

namespace hazy::sql {
namespace {

TEST(LexerTest, BasicTokens) {
  auto toks = Lex("SELECT * FROM t WHERE id = 42;");
  ASSERT_TRUE(toks.ok());
  ASSERT_EQ(toks->size(), 10u);  // incl. kEnd
  EXPECT_EQ((*toks)[0].type, TokenType::kIdentifier);
  EXPECT_EQ((*toks)[1].text, "*");
  EXPECT_EQ((*toks)[7].type, TokenType::kInteger);
  EXPECT_EQ((*toks)[7].text, "42");
}

TEST(LexerTest, StringsAndEscapes) {
  auto toks = Lex("'it''s a title'");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ((*toks)[0].type, TokenType::kString);
  EXPECT_EQ((*toks)[0].text, "it's a title");
}

TEST(LexerTest, UnterminatedStringFails) {
  EXPECT_TRUE(Lex("'oops").status().IsInvalidArgument());
}

TEST(LexerTest, CommentsSkipped) {
  auto toks = Lex("SELECT 1 -- a comment\n, 2");
  ASSERT_TRUE(toks.ok());
  // SELECT 1 , 2 END
  EXPECT_EQ(toks->size(), 5u);
}

TEST(LexerTest, FloatsAndNegatives) {
  auto toks = Lex("-1.5 3e2 7");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ((*toks)[0].type, TokenType::kFloat);
  EXPECT_EQ((*toks)[1].type, TokenType::kFloat);
  EXPECT_EQ((*toks)[2].type, TokenType::kInteger);
}

TEST(LexerTest, ComparisonOperators) {
  auto toks = Lex("a <= b >= c != d < e > f");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ((*toks)[1].text, "<=");
  EXPECT_EQ((*toks)[3].text, ">=");
  EXPECT_EQ((*toks)[5].text, "!=");
}

TEST(ParserTest, CreateTable) {
  auto stmt = Parse("CREATE TABLE Papers (id INT PRIMARY KEY, title TEXT, score REAL)");
  ASSERT_TRUE(stmt.ok());
  const auto* ct = std::get_if<CreateTableStmt>(&*stmt);
  ASSERT_NE(ct, nullptr);
  EXPECT_EQ(ct->name, "Papers");
  ASSERT_EQ(ct->columns.size(), 3u);
  EXPECT_TRUE(ct->columns[0].primary_key);
  EXPECT_EQ(ct->columns[1].type, storage::ColumnType::kText);
  EXPECT_EQ(ct->columns[2].type, storage::ColumnType::kDouble);
}

TEST(ParserTest, Example21ViewDDL) {
  // The exact DDL shape from the paper's Example 2.1.
  auto stmt = Parse(
      "CREATE CLASSIFICATION VIEW Labeled_Papers KEY id "
      "ENTITIES FROM Papers KEY id "
      "LABELS FROM Paper_Area LABEL l "
      "EXAMPLES FROM Example_Papers KEY id LABEL l "
      "FEATURE FUNCTION tf_bag_of_words");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const auto* cv = std::get_if<CreateViewStmt>(&*stmt);
  ASSERT_NE(cv, nullptr);
  EXPECT_EQ(cv->def.view_name, "Labeled_Papers");
  EXPECT_EQ(cv->def.entity_table, "Papers");
  EXPECT_EQ(cv->def.label_table, "Paper_Area");
  EXPECT_EQ(cv->def.example_table, "Example_Papers");
  EXPECT_EQ(cv->def.feature_function, "tf_bag_of_words");
  EXPECT_FALSE(cv->def.method_specified);
}

TEST(ParserTest, ViewWithUsingAndArchitecture) {
  auto stmt = Parse(
      "CREATE CLASSIFICATION VIEW V KEY id "
      "ENTITIES FROM E KEY id TEXT title, abstract "
      "LABELS FROM L LABEL l "
      "EXAMPLES FROM X KEY id LABEL l "
      "FEATURE FUNCTION tf_idf_bag_of_words "
      "USING SVM ARCHITECTURE HYBRID MODE LAZY");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const auto* cv = std::get_if<CreateViewStmt>(&*stmt);
  ASSERT_NE(cv, nullptr);
  EXPECT_TRUE(cv->def.method_specified);
  EXPECT_EQ(cv->def.method, ml::LossKind::kHinge);
  EXPECT_EQ(cv->def.architecture, core::Architecture::kHybrid);
  EXPECT_EQ(cv->def.mode, core::Mode::kLazy);
  ASSERT_EQ(cv->def.entity_text_columns.size(), 2u);
  EXPECT_EQ(cv->def.entity_text_columns[1], "abstract");
}

TEST(ParserTest, InsertMultiRow) {
  auto stmt = Parse("INSERT INTO t VALUES (1, 'a', 0.5), (2, 'b', NULL)");
  ASSERT_TRUE(stmt.ok());
  const auto* ins = std::get_if<InsertStmt>(&*stmt);
  ASSERT_NE(ins, nullptr);
  ASSERT_EQ(ins->rows.size(), 2u);
  EXPECT_EQ(std::get<int64_t>(ins->rows[0][0]), 1);
  EXPECT_TRUE(std::holds_alternative<std::monostate>(ins->rows[1][2]));
}

TEST(ParserTest, SelectVariants) {
  auto s1 = Parse("SELECT COUNT(*) FROM t WHERE class = 'DB'");
  ASSERT_TRUE(s1.ok());
  EXPECT_TRUE(std::get<SelectStmt>(*s1).count_star);
  auto s2 = Parse("SELECT id, class FROM t LIMIT 5");
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(std::get<SelectStmt>(*s2).columns.size(), 2u);
  ASSERT_TRUE(std::get<SelectStmt>(*s2).limit.has_value());
  auto s3 = Parse("SELECT * FROM t WHERE score >= 0.5");
  ASSERT_TRUE(s3.ok());
  EXPECT_EQ(std::get<SelectStmt>(*s3).where->op, CompareOp::kGe);
  auto s4 = Parse("SELECT * FROM t LIMIT 0");
  ASSERT_TRUE(s4.ok());
  ASSERT_TRUE(std::get<SelectStmt>(*s4).limit.has_value());
  EXPECT_EQ(*std::get<SelectStmt>(*s4).limit, 0);
  EXPECT_TRUE(Parse("SELECT * FROM t LIMIT -1").status().IsInvalidArgument());
}

TEST(ParserTest, Delete) {
  auto stmt = Parse("DELETE FROM Example_Papers WHERE id = 45");
  ASSERT_TRUE(stmt.ok());
  const auto* del = std::get_if<DeleteStmt>(&*stmt);
  ASSERT_NE(del, nullptr);
  EXPECT_EQ(del->table, "Example_Papers");
}

TEST(ParserTest, Update) {
  auto stmt = Parse("UPDATE Example_Papers SET label = 'DB', score = 2 WHERE id = 3");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const auto* up = std::get_if<UpdateStmt>(&*stmt);
  ASSERT_NE(up, nullptr);
  EXPECT_EQ(up->table, "Example_Papers");
  ASSERT_EQ(up->assignments.size(), 2u);
  EXPECT_EQ(up->assignments[0].first, "label");
  EXPECT_EQ(std::get<std::string>(up->assignments[0].second), "DB");
  EXPECT_FALSE(Parse("UPDATE t SET WHERE id = 1").ok());
  EXPECT_FALSE(Parse("UPDATE t SET a = 1").ok());  // WHERE is required
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(Parse("").ok());
  EXPECT_FALSE(Parse("FROB x").ok());
  EXPECT_FALSE(Parse("SELECT FROM").ok());
  EXPECT_FALSE(Parse("CREATE TABLE t (x BLOB)").ok());
  EXPECT_FALSE(Parse("SELECT * FROM t WHERE a = 1 extra").ok());
}

// --- End-to-end execution -------------------------------------------------

class SqlEndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<engine::Database>();
    ASSERT_TRUE(db_->Open().ok());
    exec_ = std::make_unique<Executor>(db_.get());
  }

  ResultSet MustExec(const std::string& sql) {
    auto rs = exec_->Execute(sql);
    EXPECT_TRUE(rs.ok()) << sql << " -> " << rs.status().ToString();
    return rs.ok() ? *rs : ResultSet{};
  }

  std::unique_ptr<engine::Database> db_;
  std::unique_ptr<Executor> exec_;
};

TEST_F(SqlEndToEndTest, TableDml) {
  MustExec("CREATE TABLE t (id INT PRIMARY KEY, name TEXT, score REAL)");
  MustExec("INSERT INTO t VALUES (1, 'one', 1.5), (2, 'two', 2.5), (3, 'three', 3.5)");
  auto rs = MustExec("SELECT name FROM t WHERE score > 2.0");
  EXPECT_EQ(rs.rows.size(), 2u);
  rs = MustExec("SELECT COUNT(*) FROM t");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(std::get<int64_t>(rs.rows[0][0]), 3);
  MustExec("DELETE FROM t WHERE id = 2");
  rs = MustExec("SELECT COUNT(*) FROM t");
  EXPECT_EQ(std::get<int64_t>(rs.rows[0][0]), 2);
  rs = MustExec("SELECT * FROM t LIMIT 1");
  EXPECT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.columns.size(), 3u);
}

// LIMIT n caps the result rows before any is emitted: LIMIT 0 returns none
// (COUNT(*)'s one row included), and a negative LIMIT does not parse.
TEST_F(SqlEndToEndTest, LimitCapsTableRows) {
  MustExec("CREATE TABLE t (id INT PRIMARY KEY, name TEXT)");
  MustExec("INSERT INTO t VALUES (1, 'one'), (2, 'two'), (3, 'three')");
  for (const char* where : {"", " WHERE id > 1"}) {
    const std::string from = std::string(" FROM t") + where;
    auto none = MustExec("SELECT *" + from + " LIMIT 0");
    EXPECT_TRUE(none.rows.empty()) << from;
    EXPECT_EQ(none.columns.size(), 2u) << from;
    EXPECT_EQ(MustExec("SELECT name" + from + " LIMIT 1").rows.size(), 1u) << from;
    EXPECT_TRUE(MustExec("SELECT COUNT(*)" + from + " LIMIT 0").rows.empty()) << from;
    EXPECT_EQ(MustExec("SELECT COUNT(*)" + from + " LIMIT 1").rows.size(), 1u) << from;
    EXPECT_TRUE(exec_->Execute("SELECT *" + from + " LIMIT -1").status().IsInvalidArgument())
        << from;
  }
  EXPECT_EQ(MustExec("SELECT * FROM t LIMIT 10").rows.size(), 3u);
}

TEST_F(SqlEndToEndTest, DuplicateKeyReported) {
  MustExec("CREATE TABLE t (id INT PRIMARY KEY)");
  MustExec("INSERT INTO t VALUES (1)");
  auto rs = exec_->Execute("INSERT INTO t VALUES (1)");
  EXPECT_TRUE(rs.status().IsAlreadyExists());
}

TEST_F(SqlEndToEndTest, Example21EndToEnd) {
  // The full workflow of the paper's Section 2.1, in SQL.
  MustExec("CREATE TABLE Papers (id INT PRIMARY KEY, title TEXT)");
  MustExec("CREATE TABLE Paper_Area (label TEXT)");
  MustExec("INSERT INTO Paper_Area VALUES ('DB'), ('OTHER')");
  MustExec("CREATE TABLE Example_Papers (id INT PRIMARY KEY, label TEXT)");
  MustExec(
      "INSERT INTO Papers VALUES "
      "(0, 'query optimization in database systems'), "
      "(1, 'transaction processing in databases'), "
      "(2, 'database views and query rewriting'), "
      "(3, 'sql storage engines and databases'), "
      "(4, 'database index structures for queries'), "
      "(5, 'protein folding in molecular biology'), "
      "(6, 'genome sequencing of protein structures'), "
      "(7, 'cell biology and protein pathways'), "
      "(8, 'protein interactions in molecular cells'), "
      "(9, 'evolution of protein families in biology')");
  MustExec(
      "CREATE CLASSIFICATION VIEW Labeled_Papers KEY id "
      "ENTITIES FROM Papers KEY id "
      "LABELS FROM Paper_Area LABEL label "
      "EXAMPLES FROM Example_Papers KEY id LABEL label "
      "FEATURE FUNCTION tf_bag_of_words USING SVM");

  // Train through plain SQL inserts (the paper's user-feedback path).
  MustExec(
      "INSERT INTO Example_Papers VALUES "
      "(0, 'DB'), (1, 'DB'), (2, 'DB'), (3, 'DB'), (4, 'DB'), "
      "(5, 'OTHER'), (6, 'OTHER'), (7, 'OTHER'), (8, 'OTHER'), (9, 'OTHER')");

  // Single Entity read.
  auto rs = MustExec("SELECT class FROM Labeled_Papers WHERE id = 0");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(std::get<std::string>(rs.rows[0][0]), "DB");

  // All Members.
  rs = MustExec("SELECT id FROM Labeled_Papers WHERE class = 'DB'");
  EXPECT_EQ(rs.rows.size(), 5u);

  // Count query (the Fig 4(B) experiment's query).
  rs = MustExec("SELECT COUNT(*) FROM Labeled_Papers WHERE class = 'OTHER'");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(std::get<int64_t>(rs.rows[0][0]), 5);

  // Full view scan.
  rs = MustExec("SELECT * FROM Labeled_Papers");
  EXPECT_EQ(rs.rows.size(), 10u);
  EXPECT_EQ(rs.columns[1].name, "class");
  EXPECT_EQ(rs.columns[1].type, storage::ColumnType::kText);

  // Withdrawing an example retrains (footnote 2) and the view still works.
  MustExec("DELETE FROM Example_Papers WHERE id = 3");
  rs = MustExec("SELECT COUNT(*) FROM Labeled_Papers");
  EXPECT_EQ(std::get<int64_t>(rs.rows[0][0]), 10);
}

TEST_F(SqlEndToEndTest, UpdateStatement) {
  MustExec("CREATE TABLE t (id INT PRIMARY KEY, name TEXT, score REAL)");
  MustExec("INSERT INTO t VALUES (1, 'a', 1.0), (2, 'b', 2.0), (3, 'c', 3.0)");
  auto rs = MustExec("UPDATE t SET score = 9.5 WHERE score >= 2.0");
  EXPECT_NE(rs.message.find("2 rows updated"), std::string::npos);
  rs = MustExec("SELECT COUNT(*) FROM t WHERE score = 9.5");
  EXPECT_EQ(std::get<int64_t>(rs.rows[0][0]), 2);
  // Values survive a rename too.
  MustExec("UPDATE t SET name = 'renamed' WHERE id = 1");
  rs = MustExec("SELECT name FROM t WHERE id = 1");
  EXPECT_EQ(std::get<std::string>(rs.rows[0][0]), "renamed");
}

TEST_F(SqlEndToEndTest, UpdatingExampleLabelRetrains) {
  // Footnote 2: changing a label retrains from scratch — through SQL.
  MustExec("CREATE TABLE E (id INT PRIMARY KEY, t TEXT)");
  MustExec("CREATE TABLE L (label TEXT)");
  MustExec("INSERT INTO L VALUES ('DB'), ('OTHER')");
  MustExec("CREATE TABLE X (id INT PRIMARY KEY, label TEXT)");
  MustExec(
      "INSERT INTO E VALUES "
      "(0, 'database systems query'), (1, 'database index btree'), "
      "(2, 'database transactions sql'), (3, 'protein biology cell'), "
      "(4, 'protein genome molecular'), (5, 'protein folding pathways')");
  MustExec(
      "CREATE CLASSIFICATION VIEW V KEY id ENTITIES FROM E KEY id "
      "LABELS FROM L LABEL label EXAMPLES FROM X KEY id LABEL label "
      "FEATURE FUNCTION tf_bag_of_words");
  MustExec(
      "INSERT INTO X VALUES (0, 'DB'), (1, 'DB'), (2, 'DB'), "
      "(3, 'OTHER'), (4, 'OTHER'), (5, 'OTHER')");
  auto rs = MustExec("SELECT class FROM V WHERE id = 0");
  EXPECT_EQ(std::get<std::string>(rs.rows[0][0]), "DB");

  // The crowd changes its mind about every example: flip all labels.
  MustExec("UPDATE X SET label = 'OTHER' WHERE id <= 2");
  MustExec("UPDATE X SET label = 'DB' WHERE id >= 3");
  rs = MustExec("SELECT class FROM V WHERE id = 0");
  EXPECT_EQ(std::get<std::string>(rs.rows[0][0]), "OTHER");
  rs = MustExec("SELECT class FROM V WHERE id = 5");
  EXPECT_EQ(std::get<std::string>(rs.rows[0][0]), "DB");
}

TEST_F(SqlEndToEndTest, ViewQueryErrors) {
  MustExec("CREATE TABLE E (id INT PRIMARY KEY, t TEXT)");
  MustExec("CREATE TABLE L (label TEXT)");
  MustExec("INSERT INTO L VALUES ('A'), ('B')");
  MustExec("CREATE TABLE X (id INT PRIMARY KEY, label TEXT)");
  MustExec("INSERT INTO E VALUES (1, 'hello world')");
  MustExec(
      "CREATE CLASSIFICATION VIEW V KEY id ENTITIES FROM E KEY id "
      "LABELS FROM L LABEL label EXAMPLES FROM X KEY id LABEL label "
      "FEATURE FUNCTION tf_bag_of_words");
  EXPECT_FALSE(exec_->Execute("SELECT bogus FROM V").ok());
  EXPECT_FALSE(exec_->Execute("SELECT * FROM V WHERE class = 'NOPE'").ok());
  EXPECT_FALSE(exec_->Execute("SELECT * FROM V WHERE id > 3").ok());
  // Missing entity: empty result, not an error.
  auto rs = MustExec("SELECT * FROM V WHERE id = 99");
  EXPECT_TRUE(rs.rows.empty());
}

// The same LIMIT rules over every view predicate shape: Single Entity, All
// Members and the full scan.
TEST_F(SqlEndToEndTest, LimitCapsViewRows) {
  MustExec("CREATE TABLE E (id INT PRIMARY KEY, t TEXT)");
  MustExec("CREATE TABLE L (label TEXT)");
  MustExec("INSERT INTO L VALUES ('A'), ('B')");
  MustExec("CREATE TABLE X (id INT PRIMARY KEY, label TEXT)");
  MustExec(
      "INSERT INTO E VALUES (1, 'alpha beta'), (2, 'alpha gamma'), "
      "(3, 'delta epsilon'), (4, 'delta zeta')");
  MustExec(
      "CREATE CLASSIFICATION VIEW V KEY id ENTITIES FROM E KEY id "
      "LABELS FROM L LABEL label EXAMPLES FROM X KEY id LABEL label "
      "FEATURE FUNCTION tf_bag_of_words");
  MustExec("INSERT INTO X VALUES (1, 'A'), (2, 'A'), (3, 'B'), (4, 'B')");

  for (const char* where : {" WHERE id = 1", " WHERE class = 'A'", ""}) {
    const std::string from = std::string(" FROM V") + where;
    auto none = MustExec("SELECT id" + from + " LIMIT 0");
    EXPECT_TRUE(none.rows.empty()) << from;
    EXPECT_EQ(none.columns.size(), 1u) << from;
    auto one = MustExec("SELECT *" + from + " LIMIT 1");
    EXPECT_EQ(one.rows.size(), 1u) << from;
    EXPECT_EQ(one.columns.size(), 2u) << from;
    EXPECT_TRUE(MustExec("SELECT COUNT(*)" + from + " LIMIT 0").rows.empty()) << from;
    EXPECT_EQ(MustExec("SELECT COUNT(*)" + from + " LIMIT 1").rows.size(), 1u) << from;
    EXPECT_TRUE(exec_->Execute("SELECT id" + from + " LIMIT -1").status().IsInvalidArgument())
        << from;
  }
  EXPECT_EQ(MustExec("SELECT * FROM V WHERE class = 'A' LIMIT 10").rows.size(), 2u);
  EXPECT_EQ(MustExec("SELECT * FROM V LIMIT 10").rows.size(), 4u);
}

TEST_F(SqlEndToEndTest, MultiRowInsertBatchesViewMaintenance) {
  MustExec("CREATE TABLE E (id INT PRIMARY KEY, t TEXT)");
  MustExec("CREATE TABLE L (label TEXT)");
  MustExec("INSERT INTO L VALUES ('A'), ('B')");
  MustExec("CREATE TABLE X (id INT PRIMARY KEY, label TEXT)");
  MustExec(
      "INSERT INTO E VALUES (1, 'alpha beta'), (2, 'alpha gamma'), "
      "(3, 'delta epsilon'), (4, 'delta zeta')");
  MustExec(
      "CREATE CLASSIFICATION VIEW V KEY id ENTITIES FROM E KEY id "
      "LABELS FROM L LABEL label EXAMPLES FROM X KEY id LABEL label "
      "FEATURE FUNCTION tf_bag_of_words");
  auto view = db_->GetView("V");
  ASSERT_TRUE(view.ok());

  // One multi-row INSERT = one UpdateBatch through the trigger queue.
  auto rs = MustExec(
      "INSERT INTO X VALUES (1, 'A'), (2, 'A'), (3, 'B'), (4, 'B')");
  EXPECT_NE(rs.message.find("batched"), std::string::npos);
  EXPECT_EQ((*view)->view()->stats().updates, 4u);
  EXPECT_EQ((*view)->view()->stats().batches, 1u);

  // The batch trained the view exactly like per-row inserts would have.
  rs = MustExec("SELECT class FROM V WHERE id = 1");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(std::get<std::string>(rs.rows[0][0]), "A");
  rs = MustExec("SELECT COUNT(*) FROM V WHERE class = 'B'");
  EXPECT_EQ(std::get<int64_t>(rs.rows[0][0]), 2);

  // Single-row INSERTs stay on the per-example path.
  MustExec("INSERT INTO E VALUES (5, 'alpha epsilon')");
  rs = MustExec("INSERT INTO X VALUES (5, 'A')");
  EXPECT_EQ(rs.message.find("batched"), std::string::npos);
  EXPECT_EQ((*view)->view()->stats().batches, 1u);
  EXPECT_TRUE(exec_->Execute("SELECT * FROM V WHERE id = 5").ok());
}

TEST(ParserTest, Checkpoint) {
  auto stmt = Parse("CHECKPOINT;");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_NE(std::get_if<CheckpointStmt>(&*stmt), nullptr);
  EXPECT_TRUE(Parse("CHECKPOINT extra").status().IsInvalidArgument());
}

TEST_F(SqlEndToEndTest, CheckpointStatement) {
  MustExec("CREATE TABLE t (id INT PRIMARY KEY, name TEXT)");
  MustExec("INSERT INTO t VALUES (1, 'one')");
  auto rs = MustExec("CHECKPOINT;");
  EXPECT_NE(rs.message.find("epoch 1"), std::string::npos) << rs.message;
  EXPECT_EQ(db_->checkpoint_epoch(), 1u);
  rs = MustExec("CHECKPOINT");
  EXPECT_NE(rs.message.find("epoch 2"), std::string::npos) << rs.message;
  // The system tables surface through ordinary SQL — read-only.
  auto views = MustExec("SELECT COUNT(*) FROM __hazy_views");
  ASSERT_EQ(views.rows.size(), 1u);
  EXPECT_TRUE(exec_->Execute("DELETE FROM __hazy_views WHERE view_id = 0")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(exec_->Execute("INSERT INTO __hazy_view_state VALUES (1, 1, 1, 'x')")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(exec_->Execute("UPDATE __hazy_views SET name = 'x' WHERE view_id = 0")
                  .status()
                  .IsInvalidArgument());
  // The reserved prefix is enforced case-insensitively, like the catalog.
  EXPECT_TRUE(exec_->Execute("CREATE TABLE __HAZY_VIEWS (x INT PRIMARY KEY)")
                  .status()
                  .IsInvalidArgument());
  // Nor can a classification view be declared over the system tables —
  // its triggers would fire inside CHECKPOINT's own row writes.
  EXPECT_TRUE(exec_->Execute(
                       "CREATE CLASSIFICATION VIEW v KEY row_key "
                       "ENTITIES FROM __hazy_views KEY row_key "
                       "LABELS FROM t LABEL name "
                       "EXAMPLES FROM t KEY id LABEL name "
                       "FEATURE FUNCTION tf_bag_of_words")
                  .status()
                  .IsInvalidArgument());
}

TEST_F(SqlEndToEndTest, ResultSetPrinting) {
  MustExec("CREATE TABLE t (id INT PRIMARY KEY, name TEXT)");
  MustExec("INSERT INTO t VALUES (7, 'seven')");
  auto rs = MustExec("SELECT * FROM t");
  std::string printed = rs.ToString();
  EXPECT_NE(printed.find("id | name"), std::string::npos);
  EXPECT_NE(printed.find("7 | seven"), std::string::npos);
  EXPECT_NE(printed.find("(1 row)"), std::string::npos);
}

}  // namespace
}  // namespace hazy::sql
