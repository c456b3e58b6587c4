// A seeded random workload over Papers/Areas/Examples and one
// classification view, checked after every statement against the naive
// oracle of naive_oracle.h.
//
// SQL reads must equal the oracle at the last batch boundary (inside an
// open update batch, the state before it); engine-API reads see the open
// batch's own writes. The workload crosses update batches, multi-row
// INSERTs, CHECKPOINT, close-and-reopen (WAL replay) and VACUUM, for all
// five architectures in both modes and a few seeds.

#include <gtest/gtest.h>
#include <unistd.h>

#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "engine/database.h"
#include "naive_oracle.h"
#include "sql/executor.h"
#include "storage/pager.h"
#include "storage/wal.h"

namespace hazy::engine {
namespace {

constexpr const char* kTopicWords[2][6] = {
    {"query", "index", "transaction", "database", "join", "schema"},
    {"protein", "cell", "genome", "membrane", "enzyme", "molecule"}};
constexpr const char* kLabels[2] = {"A", "B"};  // +1, -1
constexpr int kInitialPapers = 12;
constexpr int kStatementsPerSeed = 120;
constexpr int kMaxBatchStatements = 5;

/// The DDL's ARCHITECTURE and MODE clauses, and a test-name suffix.
struct ArchMode {
  const char* ddl;
  const char* name;
};

constexpr ArchMode kArchModes[] = {
    {"ARCHITECTURE NAIVE_MM MODE EAGER", "NaiveMMEager"},
    {"ARCHITECTURE NAIVE_MM MODE LAZY", "NaiveMMLazy"},
    {"ARCHITECTURE HAZY_MM MODE EAGER", "HazyMMEager"},
    {"ARCHITECTURE HAZY_MM MODE LAZY", "HazyMMLazy"},
    {"ARCHITECTURE NAIVE_OD MODE EAGER", "NaiveODEager"},
    {"ARCHITECTURE NAIVE_OD MODE LAZY", "NaiveODLazy"},
    {"ARCHITECTURE HAZY_OD MODE EAGER", "HazyODEager"},
    {"ARCHITECTURE HAZY_OD MODE LAZY", "HazyODLazy"},
    {"ARCHITECTURE HYBRID MODE EAGER", "HybridEager"},
    {"ARCHITECTURE HYBRID MODE LAZY", "HybridLazy"},
};

class EngineOracleTest : public ::testing::TestWithParam<ArchMode> {
 protected:
  void TearDown() override {
    exec_.reset();
    db_.reset();
    if (!path_.empty()) {
      ::unlink(path_.c_str());
      ::unlink(storage::WalPathFor(path_).c_str());
    }
  }

  void Open() {
    exec_.reset();
    db_.reset();
    DatabaseOptions opts;
    opts.path = path_;
    db_ = std::make_unique<Database>(opts);
    ASSERT_TRUE(db_->Open().ok());
    exec_ = std::make_unique<sql::Executor>(db_.get());
  }

  /// Runs one statement that must succeed, recording it for failure output.
  void Exec(const std::string& sql) {
    history_ += "  " + sql + "\n";
    auto rs = exec_->Execute(sql);
    ASSERT_TRUE(rs.ok()) << sql << " -> " << rs.status().ToString() << "\n" << history_;
  }

  sql::ResultSet Query(const std::string& sql) {
    auto rs = exec_->Execute(sql);
    EXPECT_TRUE(rs.ok()) << sql << " -> " << rs.status().ToString();
    return rs.ok() ? *rs : sql::ResultSet{};
  }

  static std::set<int64_t> Members(const std::map<int64_t, int>& labels, int sign) {
    std::set<int64_t> out;
    for (const auto& [id, s] : labels) {
      if (s == sign) out.insert(id);
    }
    return out;
  }

  /// Compares the view's answers with the oracle: SQL reads against
  /// `published` (the last batch boundary), engine-API reads against
  /// `current`. Every id ever used is probed, so a deleted entity that
  /// still answers is caught.
  void Check(const std::map<int64_t, int>& published,
             const std::map<int64_t, int>& current) {
    auto table_count = Query("SELECT COUNT(*) FROM Papers");
    ASSERT_EQ(table_count.rows.size(), 1u);
    EXPECT_EQ(table_count.Int64At(0, 0).ValueOrDie(),
              static_cast<int64_t>(oracle_->papers().size()))
        << history_;
    for (int64_t id = 0; id < next_id_; ++id) {
      auto rs = Query("SELECT class FROM V WHERE id = " + std::to_string(id));
      auto want = published.find(id);
      if (want == published.end()) {
        EXPECT_EQ(rs.rows.size(), 0u) << "id " << id << " answers\n" << history_;
      } else {
        ASSERT_EQ(rs.rows.size(), 1u) << "id " << id << " is missing\n" << history_;
        EXPECT_EQ(rs.TextAt(0, 0).ValueOrDie(), kLabels[want->second > 0 ? 0 : 1])
            << "id " << id << "\n" << history_;
      }
    }
    for (int sign : {1, -1}) {
      const std::string label = kLabels[sign > 0 ? 0 : 1];
      const std::string where = " FROM V WHERE class = '" + label + "'";
      std::set<int64_t> ids;
      auto rs = Query("SELECT id" + where);
      for (size_t i = 0; i < rs.rows.size(); ++i) ids.insert(rs.Int64At(i, 0).ValueOrDie());
      EXPECT_EQ(ids, Members(published, sign)) << label << "\n" << history_;
      auto count = Query("SELECT COUNT(*)" + where);
      ASSERT_EQ(count.rows.size(), 1u);
      EXPECT_EQ(count.Int64At(0, 0).ValueOrDie(),
                static_cast<int64_t>(Members(published, sign).size()))
          << label << "\n" << history_;
    }

    std::shared_ptr<ManagedView> view = db_->FindView("V");
    ASSERT_NE(view, nullptr);
    for (int64_t id = 0; id < next_id_; ++id) {
      auto label = view->LabelOf(id);
      auto want = current.find(id);
      if (want == current.end()) {
        EXPECT_TRUE(label.status().IsNotFound()) << "id " << id << "\n" << history_;
      } else {
        ASSERT_TRUE(label.ok()) << "id " << id << ": " << label.status().ToString()
                                << "\n" << history_;
        EXPECT_EQ(*label, kLabels[want->second > 0 ? 0 : 1]) << "id " << id << "\n"
                                                            << history_;
      }
    }
    for (int sign : {1, -1}) {
      const std::string label = kLabels[sign > 0 ? 0 : 1];
      auto members = view->MembersOf(label);
      ASSERT_TRUE(members.ok()) << members.status().ToString();
      EXPECT_EQ(std::set<int64_t>(members->begin(), members->end()), Members(current, sign))
          << label << "\n" << history_;
      auto count = view->CountOf(label);
      ASSERT_TRUE(count.ok()) << count.status().ToString();
      EXPECT_EQ(*count, Members(current, sign).size()) << label << "\n" << history_;
    }
  }

  /// A title of 3-5 words, mostly from `topic`. New words ("w<n>") only
  /// when `allow_new`: an entity UPDATE never passes its text through
  /// ComputeStatsInc, so a word first seen there would grow the
  /// vocabulary in table-scan order at the retrain, which the oracle does
  /// not model.
  std::string Title(int topic, bool allow_new) {
    std::string title;
    const int words = 3 + static_cast<int>(rng_() % 3);
    for (int w = 0; w < words; ++w) {
      if (!title.empty()) title += ' ';
      const uint64_t r = rng_() % 10;
      if (allow_new && r == 0) {
        title += "w" + std::to_string(next_word_++);
        known_.push_back(title.substr(title.rfind(' ') + 1));
      } else if (r < 7) {
        title += kTopicWords[topic][rng_() % 6];
      } else if (r < 9) {
        title += kTopicWords[1 - topic][rng_() % 6];
      } else {
        title += known_[rng_() % known_.size()];
      }
    }
    return title;
  }

  /// The label a labeler would give paper `id`: its topic, 80% of the time.
  int LabelFor(int64_t id) {
    const int topic = topic_.at(id);
    const int sign = topic == 0 ? 1 : -1;
    return rng_() % 5 == 0 ? -sign : sign;
  }

  template <typename Pred>
  bool PickPaper(Pred pred, int64_t* out) {
    std::vector<int64_t> ids;
    for (const auto& [id, title] : oracle_->papers()) {
      if (pred(id)) ids.push_back(id);
    }
    if (ids.empty()) return false;
    *out = ids[rng_() % ids.size()];
    return true;
  }

  bool PickExample(int64_t* out) {
    const auto& ex = oracle_->examples();
    if (ex.empty()) return false;
    *out = ex[rng_() % ex.size()].first;
    return true;
  }

  std::string InsertPaperSql(int64_t id, int topic, std::string* title) {
    *title = Title(topic, /*allow_new=*/true);
    topic_[id] = topic;
    return "(" + std::to_string(id) + ", '" + *title + "')";
  }

  /// One random statement (or batch boundary), applied to the database
  /// and the oracle.
  void Step(bool in_batch, bool* toggle_batch) {
    *toggle_batch = false;
    const uint64_t r = rng_() % 100;
    int64_t id = 0;
    if (r < 12) {  // entity INSERT
      std::string title;
      const int64_t fresh = next_id_++;
      Exec("INSERT INTO Papers VALUES " +
           InsertPaperSql(fresh, static_cast<int>(rng_() % 2), &title));
      oracle_->InsertPaper(fresh, title);
    } else if (r < 17) {  // multi-row entity INSERT (one batch)
      std::string sql = "INSERT INTO Papers VALUES ";
      std::vector<std::pair<int64_t, std::string>> rows;
      const int n = 2 + static_cast<int>(rng_() % 2);
      for (int i = 0; i < n; ++i) {
        std::string title;
        const int64_t fresh = next_id_++;
        sql += (i > 0 ? ", " : "") + InsertPaperSql(fresh, static_cast<int>(rng_() % 2), &title);
        rows.emplace_back(fresh, title);
      }
      Exec(sql);
      for (const auto& [fresh, title] : rows) oracle_->InsertPaper(fresh, title);
    } else if (r < 23) {  // entity UPDATE (retrain)
      if (!PickPaper([](int64_t) { return true; }, &id)) return;
      const int topic = static_cast<int>(rng_() % 2);
      topic_[id] = topic;
      const std::string title = Title(topic, /*allow_new=*/false);
      Exec("UPDATE Papers SET title = '" + title + "' WHERE id = " + std::to_string(id));
      oracle_->UpdatePaper(id, title);
    } else if (r < 29) {  // entity DELETE (retrain)
      if (oracle_->papers().size() <= 4) return;
      if (!PickPaper([](int64_t) { return true; }, &id)) return;
      Exec("DELETE FROM Papers WHERE id = " + std::to_string(id));
      oracle_->DeletePaper(id);
    } else if (r < 53) {  // example INSERT
      if (!PickPaper([&](int64_t p) { return !oracle_->HasExample(p); }, &id)) return;
      const int sign = LabelFor(id);
      Exec("INSERT INTO Examples VALUES (" + std::to_string(id) + ", '" +
           kLabels[sign > 0 ? 0 : 1] + "')");
      oracle_->InsertExample(id, sign);
    } else if (r < 63) {  // multi-row example INSERT (one batch)
      std::vector<std::pair<int64_t, int>> rows;
      std::set<int64_t> used;
      for (int i = 0; i < 3; ++i) {
        if (!PickPaper([&](int64_t p) { return !oracle_->HasExample(p) && !used.count(p); },
                       &id)) {
          break;
        }
        used.insert(id);
        rows.emplace_back(id, LabelFor(id));
      }
      if (rows.empty()) return;
      std::string sql = "INSERT INTO Examples VALUES ";
      for (size_t i = 0; i < rows.size(); ++i) {
        sql += (i > 0 ? ", (" : "(") + std::to_string(rows[i].first) + ", '" +
               kLabels[rows[i].second > 0 ? 0 : 1] + "')";
      }
      Exec(sql);
      for (const auto& [ex_id, sign] : rows) oracle_->InsertExample(ex_id, sign);
    } else if (r < 70) {  // example label UPDATE (retrain unless unchanged)
      if (!PickExample(&id)) return;
      const int sign = rng_() % 2 == 0 ? 1 : -1;
      Exec(std::string("UPDATE Examples SET label = '") + kLabels[sign > 0 ? 0 : 1] +
           "' WHERE id = " + std::to_string(id));
      oracle_->UpdateExample(id, sign);
    } else if (r < 76) {  // example DELETE (retrain)
      if (!PickExample(&id)) return;
      Exec("DELETE FROM Examples WHERE id = " + std::to_string(id));
      oracle_->DeleteExample(id);
    } else if (r < 86) {  // batch boundary
      *toggle_batch = true;
    } else if (in_batch) {
      return;  // CHECKPOINT, reopen and VACUUM refuse or need no open batch
    } else if (r < 92) {
      Exec("CHECKPOINT");
    } else if (r < 97) {
      history_ += "  -- close and reopen\n";
      Open();
    } else {
      Exec("VACUUM");
    }
  }

  void RunSeed(uint64_t seed) {
    rng_.seed(seed);
    history_ = "seed " + std::to_string(seed) + ":\n";
    next_id_ = 0;
    next_word_ = 0;
    topic_.clear();
    known_.clear();
    for (const auto& topic : kTopicWords) known_.insert(known_.end(), topic, topic + 6);
    path_ = storage::TempFilePath("oracle");
    Open();

    const char* feature_function = seed % 2 == 0 ? "tf_bag_of_words" : "tf_idf_bag_of_words";
    const char* method[] = {"SVM", "LOGISTIC", "RIDGE"};
    oracle_ = std::make_unique<NaiveOracle>(
        feature_function, ml::LossKindFromString(method[seed % 3]).ValueOrDie());

    Exec("CREATE TABLE Papers (id INT PRIMARY KEY, title TEXT)");
    Exec("CREATE TABLE Areas (label TEXT)");
    Exec("CREATE TABLE Examples (id INT PRIMARY KEY, label TEXT)");
    Exec("INSERT INTO Areas VALUES ('A'), ('B')");
    // Every topic word appears in the initial corpus, so ComputeStats
    // puts it in the vocabulary.
    for (int i = 0; i < kInitialPapers; ++i) {
      const int topic = i % 2;
      const int k = i / 2;
      const std::string title = std::string(kTopicWords[topic][k]) + " " +
                                kTopicWords[topic][(k + 1) % 6] + " " +
                                kTopicWords[topic][(k + 3) % 6];
      const int64_t fresh = next_id_++;
      topic_[fresh] = topic;
      Exec("INSERT INTO Papers VALUES (" + std::to_string(fresh) + ", '" + title + "')");
      oracle_->LoadPaper(fresh, title);
    }
    for (int64_t ex : {0, 1, 4}) {
      const int sign = LabelFor(ex);
      Exec("INSERT INTO Examples VALUES (" + std::to_string(ex) + ", '" +
           kLabels[sign > 0 ? 0 : 1] + "')");
      oracle_->LoadExample(ex, sign);
    }
    Exec(std::string("CREATE CLASSIFICATION VIEW V KEY id ENTITIES FROM Papers KEY id "
                     "LABELS FROM Areas LABEL label EXAMPLES FROM Examples KEY id "
                     "LABEL label FEATURE FUNCTION ") +
         feature_function + " USING " + method[seed % 3] + " " + GetParam().ddl);
    oracle_->CreateView();
    if (HasFailure()) return;

    std::map<int64_t, int> published = oracle_->Labels();
    Check(published, published);
    bool in_batch = false;
    int batch_statements = 0;
    for (int i = 0; i < kStatementsPerSeed && !HasFailure(); ++i) {
      bool toggle = false;
      Step(in_batch, &toggle);
      if (in_batch && ++batch_statements >= kMaxBatchStatements) toggle = true;
      if (toggle && !in_batch) {
        history_ += "  -- BeginUpdateBatch\n";
        db_->BeginUpdateBatch();
        in_batch = true;
        batch_statements = 0;
      } else if (toggle) {
        history_ += "  -- EndUpdateBatch\n";
        ASSERT_TRUE(db_->EndUpdateBatch().ok());
        in_batch = false;
      }
      if (HasFailure()) return;
      const std::map<int64_t, int> current = oracle_->Labels();
      if (!in_batch) published = current;
      Check(published, current);
    }
    if (in_batch) {
      ASSERT_TRUE(db_->EndUpdateBatch().ok());
      Check(oracle_->Labels(), oracle_->Labels());
    }
    TearDown();
    path_.clear();
  }

  std::string path_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<sql::Executor> exec_;
  std::unique_ptr<NaiveOracle> oracle_;
  std::mt19937_64 rng_;
  std::string history_;
  int64_t next_id_ = 0;
  int next_word_ = 0;
  std::map<int64_t, int> topic_;
  std::vector<std::string> known_;  // words already in the vocabulary
};

TEST_P(EngineOracleTest, AnswersMatchNaiveOracle) {
  for (uint64_t seed : {1, 2, 3, 4}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunSeed(seed);
    if (HasFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Architectures, EngineOracleTest, ::testing::ValuesIn(kArchModes),
                         [](const ::testing::TestParamInfo<ArchMode>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace hazy::engine
