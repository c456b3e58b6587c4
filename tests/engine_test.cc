// Tests for the engine layer: base tables + triggers + managed
// classification views — the paper's Example 2.1 workflow through the C++
// API (the SQL surface is covered in sql_test.cc).

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "sql/executor.h"
#include "storage/pager.h"
#include "storage/wal.h"
#include "test_corpus.h"

namespace hazy::engine {
namespace {

using storage::ColumnType;
using storage::Row;
using storage::Schema;

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>();
    ASSERT_TRUE(db_->Open().ok());
    // Papers(id, title), Paper_Area(label), Example_Papers(id, label) — a
    // tiny separable corpus: database papers talk about transactions, the
    // others about proteins.
    BuildTestCorpus(db_.get());
    auto papers = db_->catalog()->GetTable("Papers");
    ASSERT_TRUE(papers.ok());
    papers_ = *papers;
    auto examples = db_->catalog()->GetTable("Example_Papers");
    ASSERT_TRUE(examples.ok());
    examples_ = *examples;
  }

  ClassificationViewDef Def() {
    ClassificationViewDef def;
    def.view_name = "Labeled_Papers";
    def.entity_table = "Papers";
    def.entity_key = "id";
    def.label_table = "Paper_Area";
    def.label_column = "label";
    def.example_table = "Example_Papers";
    def.example_key = "id";
    def.example_label = "label";
    def.feature_function = "tf_bag_of_words";
    return def;
  }

  std::unique_ptr<Database> db_;
  storage::Table* papers_ = nullptr;
  storage::Table* examples_ = nullptr;
};

TEST_F(EngineTest, CreateViewPopulatesAllEntities) {
  auto view = db_->CreateClassificationView(Def());
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  auto pos = (*view)->CountOf("DB");
  auto neg = (*view)->CountOf("OTHER");
  ASSERT_TRUE(pos.ok() && neg.ok());
  EXPECT_EQ(*pos + *neg, 10u);
  EXPECT_EQ((*view)->labels().size(), 2u);
  EXPECT_EQ((*view)->labels()[0], "DB");
}

TEST_F(EngineTest, ExampleInsertTriggersModelUpdate) {
  auto view = db_->CreateClassificationView(Def());
  ASSERT_TRUE(view.ok());
  EXPECT_EQ((*view)->stats().updates, 0u);
  EXPECT_EQ((*view)->trainer().steps(), 0u);
  // Feed labeled examples through the examples table (the SQL-update path).
  ASSERT_TRUE(examples_->Insert(Row{int64_t{0}, std::string("DB")}).ok());
  ASSERT_TRUE(examples_->Insert(Row{int64_t{5}, std::string("OTHER")}).ok());
  EXPECT_EQ((*view)->stats().updates, 2u);
  EXPECT_EQ((*view)->trainer().steps(), 2u);
  EXPECT_FALSE((*view)->model().w.empty());
}

TEST_F(EngineTest, ConcurrentDirectInsertsAreSerialized) {
  // Two threads feed an eager view through its examples table with no
  // locking of their own: Table::Insert takes the statement mutex, so the
  // trigger bodies never race on view state (the TSan build checks), and
  // the view trains on every example exactly once.
  constexpr int64_t kPerThread = 100;
  for (int64_t id = kTestCorpusSize; id < kTestCorpusSize + 2 * kPerThread; ++id) {
    ASSERT_TRUE(
        papers_->Insert(Row{id, std::string(kTestCorpusTitles[id % kTestCorpusSize])}).ok());
  }
  ClassificationViewDef def = Def();
  def.mode = core::Mode::kEager;
  auto view = db_->CreateClassificationView(def);
  ASSERT_TRUE(view.ok());
  std::vector<std::thread> writers;
  for (int64_t t = 0; t < 2; ++t) {
    writers.emplace_back([this, t] {
      for (int64_t id = kTestCorpusSize + t; id < kTestCorpusSize + 2 * kPerThread;
           id += 2) {
        Row example{id, std::string(TestCorpusLabel(id % kTestCorpusSize))};
        EXPECT_TRUE(examples_->Insert(example).ok()) << id;
      }
    });
  }
  for (auto& w : writers) w.join();
  EXPECT_EQ(examples_->num_rows(), static_cast<uint64_t>(2 * kPerThread));
  EXPECT_EQ((*view)->stats().updates, static_cast<uint64_t>(2 * kPerThread));
  auto db_count = (*view)->CountOf("DB");
  auto other_count = (*view)->CountOf("OTHER");
  ASSERT_TRUE(db_count.ok() && other_count.ok());
  EXPECT_EQ(*db_count + *other_count,
            static_cast<uint64_t>(kTestCorpusSize + 2 * kPerThread));
}

TEST_F(EngineTest, LearnedViewSeparatesClasses) {
  auto view = db_->CreateClassificationView(Def());
  ASSERT_TRUE(view.ok());
  for (int64_t id = 0; id < 10; ++id) {
    const char* label = id < 5 ? "DB" : "OTHER";
    ASSERT_TRUE(examples_->Insert(Row{id, std::string(label)}).ok());
  }
  // The corpus is trivially separable: after training on all 10, labels
  // must be exactly right.
  for (int64_t id = 0; id < 10; ++id) {
    auto label = (*view)->LabelOf(id);
    ASSERT_TRUE(label.ok());
    EXPECT_EQ(*label, id < 5 ? "DB" : "OTHER") << "paper " << id;
  }
  auto members = (*view)->MembersOf("DB");
  ASSERT_TRUE(members.ok());
  EXPECT_EQ(members->size(), 5u);
  auto count = (*view)->CountOf("OTHER");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 5u);
}

TEST_F(EngineTest, EntityInsertTriggersAddEntity) {
  auto view = db_->CreateClassificationView(Def());
  ASSERT_TRUE(view.ok());
  ASSERT_TRUE(papers_
                  ->Insert(Row{int64_t{42},
                               std::string("database query transactions and views")})
                  .ok());
  auto label = (*view)->LabelOf(42);
  EXPECT_TRUE(label.ok());  // classified and stored by the trigger
}

TEST_F(EngineTest, ExampleForMissingEntityFails) {
  auto view = db_->CreateClassificationView(Def());
  ASSERT_TRUE(view.ok());
  Status s = examples_->Insert(Row{int64_t{777}, std::string("DB")});
  EXPECT_FALSE(s.ok());  // trigger propagates the failure
}

TEST_F(EngineTest, UnknownLabelFails) {
  auto view = db_->CreateClassificationView(Def());
  ASSERT_TRUE(view.ok());
  Status s = examples_->Insert(Row{int64_t{1}, std::string("PHYSICS")});
  EXPECT_TRUE(s.IsInvalidArgument());
}

TEST_F(EngineTest, DeleteExampleRetrainsFromScratch) {
  auto view = db_->CreateClassificationView(Def());
  ASSERT_TRUE(view.ok());
  for (int64_t id = 0; id < 10; ++id) {
    ASSERT_TRUE(examples_->Insert(Row{id, std::string(id < 5 ? "DB" : "OTHER")}).ok());
  }
  // Mislabel one paper, then withdraw the example (crowdsourced fix).
  ASSERT_EQ((*view)->trainer().steps(), 10u);
  ASSERT_TRUE(examples_->DeleteByKey(3).ok());
  // Footnote 2: a fresh trainer replayed the 9 remaining examples (an
  // incremental patch would have stepped on from 10).
  EXPECT_EQ((*view)->trainer().steps(), 9u);
  // Still answers queries over all 10 entities.
  auto pos = (*view)->CountOf("DB");
  auto neg = (*view)->CountOf("OTHER");
  ASSERT_TRUE(pos.ok() && neg.ok());
  EXPECT_EQ(*pos + *neg, 10u);
}

TEST_F(EngineTest, ViewLookupAndDuplicates) {
  ASSERT_TRUE(db_->CreateClassificationView(Def()).ok());
  EXPECT_TRUE(db_->HasView("labeled_papers"));  // case-insensitive
  EXPECT_TRUE(db_->GetView("Labeled_Papers").ok());
  EXPECT_TRUE(db_->GetView("nope").status().IsNotFound());
  EXPECT_TRUE(db_->CreateClassificationView(Def()).status().IsAlreadyExists());
  EXPECT_EQ(db_->ViewNames().size(), 1u);
}

TEST_F(EngineTest, NonBinaryLabelSetRejected) {
  auto areas = db_->catalog()->GetTable("Paper_Area");
  ASSERT_TRUE(areas.ok());
  ASSERT_TRUE((*areas)->Insert(Row{std::string("THIRD")}).ok());
  EXPECT_TRUE(db_->CreateClassificationView(Def()).status().IsInvalidArgument());
}

TEST_F(EngineTest, ViewOverMissingTablesFails) {
  auto def = Def();
  def.entity_table = "NoSuchTable";
  EXPECT_TRUE(db_->CreateClassificationView(def).status().IsNotFound());
}

// Builds a fresh database over the standard corpus, creates a view in the
// given mode, feeds `examples`, and returns the labels of all 10 papers.
std::vector<std::string> ReferenceLabels(
    core::Mode mode, const std::vector<std::pair<int64_t, std::string>>& examples,
    const ClassificationViewDef& base_def) {
  Database db;
  EXPECT_TRUE(db.Open().ok());
  BuildTestCorpus(&db);
  ClassificationViewDef def = base_def;
  def.mode = mode;
  auto view = db.CreateClassificationView(def);
  EXPECT_TRUE(view.ok());
  auto table = db.catalog()->GetTable("Example_Papers");
  EXPECT_TRUE(table.ok());
  for (const auto& [id, label] : examples) {
    EXPECT_TRUE((*table)->Insert(Row{id, label}).ok());
  }
  std::vector<std::string> labels;
  for (int64_t id = 0; id < 10; ++id) {
    auto l = (*view)->LabelOf(id);
    EXPECT_TRUE(l.ok());
    labels.push_back(l.ok() ? *l : "<err>");
  }
  return labels;
}

// Paper footnote 2: deleting an example retrains from scratch. The rebuilt
// view must answer exactly like a database that never saw the example — in
// eager and lazy mode.
TEST_F(EngineTest, ExampleDeleteMatchesFreshRetrain) {
  for (core::Mode mode : {core::Mode::kEager, core::Mode::kLazy}) {
    SCOPED_TRACE(mode == core::Mode::kEager ? "eager" : "lazy");
    Database db;
    ASSERT_TRUE(db.Open().ok());
    BuildTestCorpus(&db);
    auto def = Def();
    def.mode = mode;
    auto view = db.CreateClassificationView(def);
    ASSERT_TRUE(view.ok());
    auto examples = db.catalog()->GetTable("Example_Papers");
    ASSERT_TRUE(examples.ok());
    std::vector<std::pair<int64_t, std::string>> stream;
    for (int64_t id = 0; id < 10; ++id) {
      stream.emplace_back(id, id < 5 ? "DB" : "OTHER");
      ASSERT_TRUE((*examples)->Insert(Row{id, stream.back().second}).ok());
    }
    ASSERT_TRUE((*examples)->DeleteByKey(3).ok());

    std::vector<std::pair<int64_t, std::string>> without_3;
    for (const auto& e : stream) {
      if (e.first != 3) without_3.push_back(e);
    }
    std::vector<std::string> expected = ReferenceLabels(mode, without_3, Def());
    for (int64_t id = 0; id < 10; ++id) {
      auto l = (*view)->LabelOf(id);
      ASSERT_TRUE(l.ok());
      EXPECT_EQ(*l, expected[static_cast<size_t>(id)]) << "paper " << id;
    }
  }
}

// Footnote 2 again: changing an example's label retrains from scratch with
// the edited log, equivalent to having trained on the edited labels all
// along.
TEST_F(EngineTest, ExampleUpdateMatchesFreshRetrain) {
  for (core::Mode mode : {core::Mode::kEager, core::Mode::kLazy}) {
    SCOPED_TRACE(mode == core::Mode::kEager ? "eager" : "lazy");
    Database db;
    ASSERT_TRUE(db.Open().ok());
    BuildTestCorpus(&db);
    auto def = Def();
    def.mode = mode;
    auto view = db.CreateClassificationView(def);
    ASSERT_TRUE(view.ok());
    auto examples = db.catalog()->GetTable("Example_Papers");
    ASSERT_TRUE(examples.ok());
    std::vector<std::pair<int64_t, std::string>> stream;
    for (int64_t id = 0; id < 10; ++id) {
      stream.emplace_back(id, id < 5 ? "DB" : "OTHER");
      ASSERT_TRUE((*examples)->Insert(Row{id, stream.back().second}).ok());
    }
    uint64_t epoch_before = (*view)->epochs().latest_epoch();
    ASSERT_TRUE((*examples)->UpdateByKey(7, Row{int64_t{7}, std::string("DB")}).ok());
    // Rebuilt, not patched: a fresh trainer replayed the 10 logged examples
    // (a patch would have taken an 11th step), and the result published.
    EXPECT_EQ((*view)->trainer().steps(), 10u);
    EXPECT_EQ((*view)->epochs().latest_epoch(), epoch_before + 1);

    stream[7].second = "DB";
    std::vector<std::string> expected = ReferenceLabels(mode, stream, Def());
    for (int64_t id = 0; id < 10; ++id) {
      auto l = (*view)->LabelOf(id);
      ASSERT_TRUE(l.ok());
      EXPECT_EQ(*l, expected[static_cast<size_t>(id)]) << "paper " << id;
    }
    // An update that leaves the label unchanged must NOT rebuild.
    epoch_before = (*view)->epochs().latest_epoch();
    ASSERT_TRUE((*examples)->UpdateByKey(7, Row{int64_t{7}, std::string("DB")}).ok());
    EXPECT_EQ((*view)->epochs().latest_epoch(), epoch_before);
  }
}

// Entity tuple changes re-featurize and rebuild (the conservative
// non-incremental path): the updated entity is classified by its new text.
TEST_F(EngineTest, EntityUpdateRebuildsAndReclassifies) {
  for (core::Mode mode : {core::Mode::kEager, core::Mode::kLazy}) {
    SCOPED_TRACE(mode == core::Mode::kEager ? "eager" : "lazy");
    Database db;
    ASSERT_TRUE(db.Open().ok());
    BuildTestCorpus(&db);
    auto def = Def();
    def.mode = mode;
    auto view = db.CreateClassificationView(def);
    ASSERT_TRUE(view.ok());
    auto examples = db.catalog()->GetTable("Example_Papers");
    auto papers = db.catalog()->GetTable("Papers");
    ASSERT_TRUE(examples.ok() && papers.ok());
    for (int64_t id = 0; id < 10; ++id) {
      ASSERT_TRUE((*examples)->Insert(Row{id, std::string(id < 5 ? "DB" : "OTHER")}).ok());
    }
    const uint64_t epoch_before = (*view)->epochs().latest_epoch();
    ASSERT_TRUE(
        (*papers)
            ->UpdateByKey(4, Row{int64_t{4},
                                 std::string("database engine query planner transactions")})
            .ok());
    // Rebuilt: a fresh trainer replayed the 10 logged examples, published.
    EXPECT_EQ((*view)->trainer().steps(), 10u);
    EXPECT_EQ((*view)->epochs().latest_epoch(), epoch_before + 1);
    auto label = (*view)->LabelOf(4);
    ASSERT_TRUE(label.ok());
    EXPECT_EQ(*label, "DB");
    // All entities still present and queryable after the rebuild.
    auto pos = (*view)->CountOf("DB");
    auto neg = (*view)->CountOf("OTHER");
    ASSERT_TRUE(pos.ok() && neg.ok());
    EXPECT_EQ(*pos + *neg, 10u);
  }
}

// An entity DELETE takes the entity out of the view: the delete trigger
// retrains (paper footnote 2), the point read returns no row, and the two
// classes together count the table's rows. Both hold live, after CHECKPOINT
// and a reopen, and after a crash right after the DELETE (WAL replay).
TEST(EntityDeleteTest, DeletedEntityLeavesTheView) {
  for (const char* arch : {"NAIVE_MM", "HAZY_MM", "NAIVE_OD", "HAZY_OD", "HYBRID"}) {
    for (const char* mode : {"EAGER", "LAZY"}) {
      for (bool checkpoint_after_delete : {true, false}) {
        SCOPED_TRACE(std::string(arch) + " " + mode +
                     (checkpoint_after_delete ? " checkpoint" : " crash"));
        DatabaseOptions opts;
        opts.path = storage::TempFilePath("entity_delete");
        auto count = [](sql::Executor* exec, const std::string& sql) {
          auto rs = exec->Execute(sql);
          EXPECT_TRUE(rs.ok()) << sql << " -> " << rs.status().ToString();
          return rs.ok() && rs->rows.size() == 1 ? rs->Int64At(0, 0).ValueOrDie() : -1;
        };
        // Returns the labels of the remaining papers.
        auto check = [&](Database* db) {
          sql::Executor exec(db);
          auto point = exec.Execute("SELECT class FROM Labeled_Papers WHERE id = 3");
          EXPECT_TRUE(point.ok() && point->rows.empty()) << "paper 3 still answers";
          const int64_t rows = count(&exec, "SELECT COUNT(*) FROM Papers");
          EXPECT_EQ(rows, kTestCorpusSize - 1);
          EXPECT_EQ(count(&exec, "SELECT COUNT(*) FROM Labeled_Papers WHERE class = 'DB'") +
                        count(&exec, "SELECT COUNT(*) FROM Labeled_Papers WHERE class = 'OTHER'"),
                    rows);
          ManagedView* view = db->GetView("Labeled_Papers").ValueOrDie();
          EXPECT_TRUE(view->LabelOf(3).status().IsNotFound());
          std::vector<std::string> labels;
          for (int64_t id = 0; id < kTestCorpusSize; ++id) {
            if (id != 3) labels.push_back(view->LabelOf(id).ValueOrDie());
          }
          return labels;
        };
        std::vector<std::string> live;
        {
          Database db(opts);
          ASSERT_TRUE(db.Open().ok());
          BuildTestCorpus(&db);
          sql::Executor exec(&db);
          ASSERT_TRUE(exec.Execute(std::string("CREATE CLASSIFICATION VIEW Labeled_Papers KEY id "
                                               "ENTITIES FROM Papers KEY id LABELS FROM "
                                               "Paper_Area LABEL label EXAMPLES FROM "
                                               "Example_Papers KEY id LABEL label FEATURE "
                                               "FUNCTION tf_bag_of_words ARCHITECTURE ") +
                                   arch + " MODE " + mode)
                          .ok());
          for (int64_t id = 0; id < kTestCorpusSize; ++id) {
            ASSERT_TRUE(exec.Execute("INSERT INTO Example_Papers VALUES (" +
                                     std::to_string(id) + ", '" + TestCorpusLabel(id) + "')")
                            .ok());
          }
          ASSERT_TRUE(exec.Execute("CHECKPOINT").ok());
          ASSERT_TRUE(exec.Execute("DELETE FROM Papers WHERE id = 3").ok());
          live = check(&db);
          if (checkpoint_after_delete) {
            ASSERT_TRUE(exec.Execute("CHECKPOINT").ok());
          }
          // Otherwise the destructor is the crash: no checkpoint, no flush.
        }
        {
          Database db(opts);
          ASSERT_TRUE(db.Open().ok());
          EXPECT_EQ(check(&db), live);
        }
        ::unlink(opts.path.c_str());
        ::unlink(storage::WalPathFor(opts.path).c_str());
      }
    }
  }
}

// Satellite regression: a named DatabaseOptions::path must survive the
// Database's destruction (only unnamed temp files are cleaned up).
TEST(DatabaseLifecycleTest, NamedPathSurvivesDestruction) {
  std::string path = storage::TempFilePath("named");
  {
    DatabaseOptions opts;
    opts.path = path;
    Database db(opts);
    ASSERT_TRUE(db.Open().ok());
  }
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << "named database file was deleted on destruction";
  f.close();
  ::unlink(path.c_str());
}

// Satellite regression: a failed Open() must clean up fully — no leaked
// temp file, and the object stays closed and reusable.
TEST(DatabaseLifecycleTest, FailedOpenCleansUpAndStaysReusable) {
  // Point TMPDIR at a directory that does not exist so the temp-file open
  // fails inside OpenImpl.
  const char* old_tmpdir = std::getenv("TMPDIR");
  ASSERT_EQ(::setenv("TMPDIR", "/nonexistent_hazy_tmp_dir", 1), 0);
  Database db;
  Status s = db.Open();
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(db.path().empty());  // state was reset, nothing leaked
  // A second Open must report the real error again, not "already open".
  s = db.Open();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.ToString().find("already open"), std::string::npos);
  if (old_tmpdir != nullptr) {
    ::setenv("TMPDIR", old_tmpdir, 1);
  } else {
    ::unsetenv("TMPDIR");
  }
  // With the environment repaired the same object opens cleanly.
  EXPECT_TRUE(db.Open().ok());
}

TEST_F(EngineTest, OnDiskArchitectureWorksThroughEngine) {
  auto def = Def();
  def.view_name = "Labeled_OD";
  def.architecture = core::Architecture::kHazyOD;
  auto view = db_->CreateClassificationView(def);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  for (int64_t id = 0; id < 10; ++id) {
    ASSERT_TRUE(examples_->Insert(Row{id, std::string(id < 5 ? "DB" : "OTHER")}).ok());
  }
  auto label = (*view)->LabelOf(0);
  ASSERT_TRUE(label.ok());
  EXPECT_EQ(*label, "DB");
}

}  // namespace
}  // namespace hazy::engine
