// What one SQL statement costs a classification view:
//   - LIMIT goes into All Members: `SELECT id FROM V WHERE class = 'A'
//     LIMIT k` returns the first k ids of the unlimited answer, in store
//     order, and stops labeling chunks once it holds them;
//   - a multi-row UPDATE or DELETE runs in one update batch, so a view it
//     must retrain from scratch (paper footnote 2) retrains once and
//     publishes one epoch, and answers as the naive oracle does.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "engine/database.h"
#include "naive_oracle.h"
#include "sql/executor.h"
#include "test_corpus.h"

namespace hazy::engine {
namespace {

constexpr const char* kViewDdl =
    "CREATE CLASSIFICATION VIEW V KEY id ENTITIES FROM Papers KEY id "
    "LABELS FROM Paper_Area LABEL label EXAMPLES FROM Example_Papers KEY id "
    "LABEL label FEATURE FUNCTION tf_bag_of_words USING SVM";

class EngineStatementTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>();
    ASSERT_TRUE(db_->Open().ok());
    BuildTestCorpus(db_.get());
    exec_ = std::make_unique<sql::Executor>(db_.get());
    oracle_ = std::make_unique<NaiveOracle>("tf_bag_of_words", ml::LossKind::kHinge);
    for (int64_t id = 0; id < kTestCorpusSize; ++id) {
      oracle_->LoadPaper(id, kTestCorpusTitles[id]);
    }
  }

  sql::ResultSet MustExec(const std::string& sql) {
    auto rs = exec_->Execute(sql);
    EXPECT_TRUE(rs.ok()) << sql << " -> " << rs.status().ToString();
    return rs.ok() ? *rs : sql::ResultSet{};
  }

  /// Papers kTestCorpusSize .. n-1, titled like the corpus papers, and
  /// loaded into the oracle, before the view exists.
  void LoadMorePapers(int64_t n) {
    for (int64_t id = kTestCorpusSize; id < n; ++id) {
      const char* title = kTestCorpusTitles[id % kTestCorpusSize];
      MustExec("INSERT INTO Papers VALUES (" + std::to_string(id) + ", '" + title + "')");
      oracle_->LoadPaper(id, title);
    }
  }

  /// Examples for the given ids with their corpus labels, then the view.
  std::shared_ptr<ManagedView> CreateView(const std::vector<int64_t>& examples) {
    for (int64_t id : examples) {
      const char* label = TestCorpusLabel(id % kTestCorpusSize);
      MustExec("INSERT INTO Example_Papers VALUES (" + std::to_string(id) + ", '" + label +
               "')");
      oracle_->LoadExample(id, std::string(label) == "DB" ? 1 : -1);
    }
    MustExec(kViewDdl);
    oracle_->CreateView();
    return db_->FindView("V");
  }

  std::vector<int64_t> Ids(const std::string& sql) {
    sql::ResultSet rs = MustExec(sql);
    std::vector<int64_t> ids;
    for (size_t i = 0; i < rs.rows.size(); ++i) {
      ids.push_back(rs.Int64At(i, 0).ValueOrDie());
    }
    return ids;
  }

  /// SQL member lists and point reads against the oracle.
  void ExpectOracleAnswers() {
    for (int sign : {1, -1}) {
      const std::string label = sign > 0 ? "DB" : "OTHER";
      const std::vector<int64_t> ids =
          Ids("SELECT id FROM V WHERE class = '" + label + "'");
      EXPECT_EQ(std::set<int64_t>(ids.begin(), ids.end()), oracle_->Members(sign)) << label;
    }
    for (const auto& [id, sign] : oracle_->Labels()) {
      sql::ResultSet rs = MustExec("SELECT class FROM V WHERE id = " + std::to_string(id));
      ASSERT_EQ(rs.rows.size(), 1u) << "id " << id;
      EXPECT_EQ(rs.TextAt(0, 0).ValueOrDie(), sign > 0 ? "DB" : "OTHER") << "id " << id;
    }
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<sql::Executor> exec_;
  std::unique_ptr<NaiveOracle> oracle_;
};

uint64_t ScanRows(const ManagedView& view) {
  return view.stats().tuples_scanned + view.stats().rows_by_bounds;
}

TEST_F(EngineStatementTest, LimitReturnsTheFirstMembersInStoreOrder) {
  std::shared_ptr<ManagedView> view = CreateView({0, 1, 5, 6});
  ASSERT_NE(view, nullptr);
  // Papers that arrive one statement at a time seal chunks of their own.
  for (int64_t id = kTestCorpusSize; id < 40; ++id) {
    MustExec("INSERT INTO Papers VALUES (" + std::to_string(id) + ", '" +
             kTestCorpusTitles[id % kTestCorpusSize] + "')");
  }
  {
    core::SnapshotPin snap = view->PinSnapshot();
    ASSERT_GE(snap->store().chunks().size(), 2u);
    ASSERT_EQ(snap->num_entities(), 40u);
  }

  for (const char* label : {"DB", "OTHER"}) {
    const std::string where = std::string(" FROM V WHERE class = '") + label + "'";
    const std::vector<int64_t> all = Ids("SELECT id" + where);
    ASSERT_GT(all.size(), 1u) << label;
    for (size_t k : {size_t{0}, size_t{1}, all.size() / 2, all.size(), all.size() + 5}) {
      const std::string limit = " LIMIT " + std::to_string(k);
      const std::vector<int64_t> want(all.begin(), all.begin() + std::min(k, all.size()));
      EXPECT_EQ(Ids("SELECT id" + where + limit), want) << label << limit;
      // Both projected columns are cut to the same rows.
      sql::ResultSet both = MustExec("SELECT *" + where + limit);
      ASSERT_EQ(both.rows.size(), want.size()) << label << limit;
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(both.Int64At(i, 0).ValueOrDie(), want[i]);
        EXPECT_EQ(both.TextAt(i, 1).ValueOrDie(), label);
      }
    }
  }
}

TEST_F(EngineStatementTest, SmallLimitLabelsFewerChunks) {
  std::shared_ptr<ManagedView> view = CreateView({0, 1, 5, 6});
  ASSERT_NE(view, nullptr);
  for (int64_t id = kTestCorpusSize; id < 40; ++id) {
    MustExec("INSERT INTO Papers VALUES (" + std::to_string(id) + ", '" +
             kTestCorpusTitles[id % kTestCorpusSize] + "')");
  }
  size_t first_chunk = 0;
  {
    core::SnapshotPin snap = view->PinSnapshot();
    ASSERT_GE(snap->store().chunks().size(), 2u);
    first_chunk = snap->store().chunks().front()->rows.size();
  }
  const uint64_t n = 40;
  const std::vector<int64_t> all = Ids("SELECT id FROM V WHERE class = 'DB'");
  ASSERT_FALSE(all.empty());
  // The first member sits in the first chunk, so LIMIT 1 labels that chunk
  // alone.
  ASSERT_LT(all.front(), static_cast<int64_t>(first_chunk));

  uint64_t before = ScanRows(*view);
  Ids("SELECT id FROM V WHERE class = 'DB'");
  EXPECT_EQ(ScanRows(*view) - before, n);

  before = ScanRows(*view);
  EXPECT_EQ(Ids("SELECT id FROM V WHERE class = 'DB' LIMIT 1").size(), 1u);
  const uint64_t booked = ScanRows(*view) - before;
  EXPECT_GT(booked, 0u);
  EXPECT_LT(booked, n);
  EXPECT_EQ(booked, first_chunk);

  before = ScanRows(*view);
  EXPECT_TRUE(Ids("SELECT id FROM V WHERE class = 'DB' LIMIT 0").empty());
  EXPECT_EQ(ScanRows(*view) - before, 0u);
}

TEST_F(EngineStatementTest, MultiRowEntityDeleteRetrainsOnce) {
  LoadMorePapers(20);
  std::shared_ptr<ManagedView> view = CreateView({0, 1, 5, 6, 12, 17});
  ASSERT_NE(view, nullptr);
  ExpectOracleAnswers();

  const uint64_t epoch = view->epochs().latest_epoch();
  sql::ResultSet rs = MustExec("DELETE FROM Papers WHERE id > 10");
  EXPECT_EQ(rs.affected_rows, 9);
  EXPECT_EQ(view->epochs().latest_epoch(), epoch + 1);
  for (int64_t id = 11; id < 20; ++id) oracle_->DeletePaper(id);
  ExpectOracleAnswers();

  // A single-row DELETE still retrains and publishes at once.
  MustExec("DELETE FROM Papers WHERE id = 10");
  oracle_->DeletePaper(10);
  EXPECT_EQ(view->epochs().latest_epoch(), epoch + 2);
  ExpectOracleAnswers();
}

TEST_F(EngineStatementTest, MultiRowEntityUpdateRetrainsOnce) {
  LoadMorePapers(20);
  std::shared_ptr<ManagedView> view = CreateView({0, 1, 5, 6, 12, 17});
  ASSERT_NE(view, nullptr);
  const uint64_t epoch = view->epochs().latest_epoch();
  // Every word of the new title is already in the vocabulary.
  const std::string title = kTestCorpusTitles[6];
  sql::ResultSet rs = MustExec("UPDATE Papers SET title = '" + title + "' WHERE id > 13");
  EXPECT_EQ(rs.affected_rows, 6);
  EXPECT_EQ(view->epochs().latest_epoch(), epoch + 1);
  for (int64_t id = 14; id < 20; ++id) oracle_->UpdatePaper(id, title);
  ExpectOracleAnswers();
}

TEST_F(EngineStatementTest, MultiRowExampleDeleteAndLabelUpdateRetrainOnce) {
  LoadMorePapers(20);
  std::shared_ptr<ManagedView> view = CreateView({0, 1, 2, 5, 6, 7, 12, 17});
  ASSERT_NE(view, nullptr);
  uint64_t epoch = view->epochs().latest_epoch();
  MustExec("DELETE FROM Example_Papers WHERE id > 5");
  EXPECT_EQ(view->epochs().latest_epoch(), epoch + 1);
  for (int64_t id : {6, 7, 12, 17}) oracle_->DeleteExample(id);
  ExpectOracleAnswers();

  epoch = view->epochs().latest_epoch();
  MustExec("UPDATE Example_Papers SET label = 'OTHER' WHERE id < 2");
  EXPECT_EQ(view->epochs().latest_epoch(), epoch + 1);
  for (int64_t id : {0, 1}) oracle_->UpdateExample(id, -1);
  ExpectOracleAnswers();
}

TEST_F(EngineStatementTest, ReadInsideABatchSeesTheDeferredRetrain) {
  std::shared_ptr<ManagedView> view = CreateView({0, 1, 2, 5, 6, 7});
  ASSERT_NE(view, nullptr);
  const std::vector<int64_t> db_before = Ids("SELECT id FROM V WHERE class = 'DB'");
  const uint64_t epoch = view->epochs().latest_epoch();

  db_->BeginUpdateBatch();
  MustExec("DELETE FROM Example_Papers WHERE id = 0");
  MustExec("DELETE FROM Example_Papers WHERE id = 5");
  oracle_->DeleteExample(0);
  oracle_->DeleteExample(5);
  // The engine-API read retrains now and sees the batch's writes; SQL
  // readers stay on the last published epoch.
  auto members = view->MembersOf("DB");
  ASSERT_TRUE(members.ok()) << members.status().ToString();
  EXPECT_EQ(std::set<int64_t>(members->begin(), members->end()), oracle_->Members(1));
  EXPECT_EQ(Ids("SELECT id FROM V WHERE class = 'DB'"), db_before);
  EXPECT_EQ(view->epochs().latest_epoch(), epoch);
  ASSERT_TRUE(db_->EndUpdateBatch().ok());

  EXPECT_EQ(view->epochs().latest_epoch(), epoch + 1);
  ExpectOracleAnswers();
}

}  // namespace
}  // namespace hazy::engine
