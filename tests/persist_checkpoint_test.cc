// Round-trip tests for the checkpoint/recovery subsystem: for every
// architecture x mode combination, Checkpoint() -> close -> Open() must
// serve labels, members, and counts identical to the live database with
// zero model retraining, and a recovered database must keep learning
// exactly as if the process had never restarted.

#include <gtest/gtest.h>
#include <unistd.h>

#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "engine/database.h"
#include "persist/checkpoint.h"
#include "storage/pager.h"
#include "storage/wal.h"
#include "test_corpus.h"

namespace hazy::engine {
namespace {

using storage::ColumnType;
using storage::Row;
using storage::Schema;

struct ArchMode {
  core::Architecture arch;
  core::Mode mode;
};

std::vector<ArchMode> AllArchModes() {
  std::vector<ArchMode> out;
  for (core::Architecture arch : core::kAllArchitectures) {
    out.push_back({arch, core::Mode::kEager});
    out.push_back({arch, core::Mode::kLazy});
  }
  return out;
}

std::string ComboName(const ArchMode& am) {
  return std::string(core::ArchitectureToString(am.arch)) +
         (am.mode == core::Mode::kEager ? "/eager" : "/lazy");
}

ClassificationViewDef DefFor(const ArchMode& am) {
  ClassificationViewDef def;
  def.view_name = "Labeled_Papers";
  def.entity_table = "Papers";
  def.entity_key = "id";
  def.label_table = "Paper_Area";
  def.label_column = "label";
  def.example_table = "Example_Papers";
  def.example_key = "id";
  def.example_label = "label";
  def.feature_function = "tf_idf_bag_of_words";
  def.architecture = am.arch;
  def.mode = am.mode;
  return def;
}

Status FeedExample(Database* db, int64_t id) {
  auto examples = db->catalog()->GetTable("Example_Papers");
  HAZY_RETURN_NOT_OK(examples.status());
  return (*examples)->Insert(Row{id, std::string(TestCorpusLabel(id))});
}

struct Snapshot {
  std::vector<std::string> labels;
  std::vector<int64_t> db_members;
  std::vector<int64_t> other_members;
  uint64_t db_count = 0;
  uint64_t other_count = 0;
  std::vector<double> model_w;
  double model_b = 0.0;
  uint64_t train_steps = 0;
};

Snapshot Capture(ManagedView* mv) {
  Snapshot s;
  for (int64_t id = 0; id < kTestCorpusSize; ++id) {
    auto label = mv->LabelOf(id);
    EXPECT_TRUE(label.ok()) << label.status().ToString();
    s.labels.push_back(label.ok() ? *label : "<err>");
  }
  auto dbm = mv->MembersOf("DB");
  auto otm = mv->MembersOf("OTHER");
  EXPECT_TRUE(dbm.ok() && otm.ok());
  if (dbm.ok()) s.db_members = *dbm;
  if (otm.ok()) s.other_members = *otm;
  std::sort(s.db_members.begin(), s.db_members.end());
  std::sort(s.other_members.begin(), s.other_members.end());
  auto dbc = mv->CountOf("DB");
  auto otc = mv->CountOf("OTHER");
  EXPECT_TRUE(dbc.ok() && otc.ok());
  s.db_count = dbc.ok() ? *dbc : 0;
  s.other_count = otc.ok() ? *otc : 0;
  s.model_w = mv->model().w;
  s.model_b = mv->model().b;
  s.train_steps = mv->trainer().steps();
  return s;
}

class CheckpointRoundTripTest : public ::testing::Test {
 protected:
  void TearDown() override {
    if (!path_.empty()) {
      ::unlink(path_.c_str());
      ::unlink(storage::WalPathFor(path_).c_str());
    }
  }
  std::string path_;
};

TEST_F(CheckpointRoundTripTest, AllArchitecturesAndModes) {
  for (const ArchMode& am : AllArchModes()) {
    SCOPED_TRACE(ComboName(am));
    path_ = storage::TempFilePath("ckpt");

    Snapshot live;
    uint64_t epoch = 0;
    {
      DatabaseOptions opts;
      opts.path = path_;
      Database db(opts);
      ASSERT_TRUE(db.Open().ok());
      BuildTestCorpus(&db);
      auto view = db.CreateClassificationView(DefFor(am));
      ASSERT_TRUE(view.ok()) << view.status().ToString();
      for (int64_t id = 0; id < kTestCorpusSize; ++id) {
        ASSERT_TRUE(FeedExample(&db, id).ok());
      }
      auto ck = db.Checkpoint();
      ASSERT_TRUE(ck.ok()) << ck.status().ToString();
      epoch = *ck;
      EXPECT_EQ(epoch, 1u);
      // Queries after the checkpoint may reorganize internal state but do
      // not touch the model, so the captured answers are exactly what the
      // recovered database must serve.
      live = Capture(*view);
    }

    DatabaseOptions opts;
    opts.path = path_;
    Database db(opts);
    ASSERT_TRUE(db.Open().ok());
    EXPECT_EQ(db.checkpoint_epoch(), epoch);
    ASSERT_TRUE(db.HasView("Labeled_Papers"));
    auto view = db.GetView("Labeled_Papers");
    ASSERT_TRUE(view.ok());
    EXPECT_EQ((*view)->def().architecture, am.arch);
    EXPECT_EQ((*view)->def().mode, am.mode);

    Snapshot recovered = Capture(*view);
    EXPECT_EQ(recovered.labels, live.labels);
    EXPECT_EQ(recovered.db_members, live.db_members);
    EXPECT_EQ(recovered.other_members, live.other_members);
    EXPECT_EQ(recovered.db_count, live.db_count);
    EXPECT_EQ(recovered.other_count, live.other_count);
    // Zero retraining: the model comes back bit-identical and the trainer
    // resumes its schedule where it stopped, with no step replayed.
    EXPECT_EQ(recovered.model_w, live.model_w);
    EXPECT_EQ(recovered.model_b, live.model_b);
    EXPECT_EQ(recovered.train_steps, live.train_steps);

    // Triggers are rewired: the recovered view classifies new entities and
    // keeps learning from new examples.
    auto papers = db.catalog()->GetTable("Papers");
    ASSERT_TRUE(papers.ok());
    ASSERT_TRUE(
        (*papers)
            ->Insert(Row{int64_t{99}, std::string("database transactions and indexing")})
            .ok());
    auto label = (*view)->LabelOf(99);
    ASSERT_TRUE(label.ok()) << label.status().ToString();
    EXPECT_EQ(*label, "DB");
    auto examples = db.catalog()->GetTable("Example_Papers");
    ASSERT_TRUE(examples.ok());
    ASSERT_TRUE((*examples)->Insert(Row{int64_t{99}, std::string("DB")}).ok());
    EXPECT_EQ((*view)->trainer().steps(), live.train_steps + 1);
    // The counters restarted with the process.
    EXPECT_EQ((*view)->stats().updates, 1u);

    ::unlink(path_.c_str());
    ::unlink(storage::WalPathFor(path_).c_str());
    path_.clear();
  }
}

TEST_F(CheckpointRoundTripTest, RecoveredDatabaseLearnsIdenticallyToUninterrupted) {
  for (const ArchMode& am : AllArchModes()) {
    SCOPED_TRACE(ComboName(am));
    path_ = storage::TempFilePath("ckpt");

    // Interrupted run: 6 examples, checkpoint, restart, 4 more.
    {
      DatabaseOptions opts;
      opts.path = path_;
      Database db(opts);
      ASSERT_TRUE(db.Open().ok());
      BuildTestCorpus(&db);
      ASSERT_TRUE(db.CreateClassificationView(DefFor(am)).ok());
      for (int64_t id = 0; id < 6; ++id) ASSERT_TRUE(FeedExample(&db, id).ok());
      ASSERT_TRUE(db.Checkpoint().ok());
    }
    DatabaseOptions opts;
    opts.path = path_;
    Database resumed(opts);
    ASSERT_TRUE(resumed.Open().ok());
    for (int64_t id = 6; id < kTestCorpusSize; ++id) {
      ASSERT_TRUE(FeedExample(&resumed, id).ok());
    }

    // Uninterrupted reference run over the same stream.
    Database reference;
    ASSERT_TRUE(reference.Open().ok());
    BuildTestCorpus(&reference);
    ASSERT_TRUE(reference.CreateClassificationView(DefFor(am)).ok());
    for (int64_t id = 0; id < kTestCorpusSize; ++id) {
      ASSERT_TRUE(FeedExample(&reference, id).ok());
    }

    auto rv = resumed.GetView("Labeled_Papers");
    auto fv = reference.GetView("Labeled_Papers");
    ASSERT_TRUE(rv.ok() && fv.ok());
    EXPECT_EQ((*rv)->model().w, (*fv)->model().w);
    EXPECT_EQ((*rv)->model().b, (*fv)->model().b);
    for (int64_t id = 0; id < kTestCorpusSize; ++id) {
      auto a = (*rv)->LabelOf(id);
      auto b = (*fv)->LabelOf(id);
      ASSERT_TRUE(a.ok() && b.ok());
      EXPECT_EQ(*a, *b) << "paper " << id;
    }

    ::unlink(path_.c_str());
    ::unlink(storage::WalPathFor(path_).c_str());
    path_.clear();
  }
}

TEST_F(CheckpointRoundTripTest, SecondCheckpointSupersedesFirst) {
  path_ = storage::TempFilePath("ckpt");
  ArchMode am{core::Architecture::kHazyMM, core::Mode::kEager};
  {
    DatabaseOptions opts;
    opts.path = path_;
    Database db(opts);
    ASSERT_TRUE(db.Open().ok());
    BuildTestCorpus(&db);
    ASSERT_TRUE(db.CreateClassificationView(DefFor(am)).ok());
    for (int64_t id = 0; id < 4; ++id) ASSERT_TRUE(FeedExample(&db, id).ok());
    auto ck1 = db.Checkpoint();
    ASSERT_TRUE(ck1.ok());
    EXPECT_EQ(*ck1, 1u);
    for (int64_t id = 4; id < kTestCorpusSize; ++id) ASSERT_TRUE(FeedExample(&db, id).ok());
    auto ck2 = db.Checkpoint();
    ASSERT_TRUE(ck2.ok());
    EXPECT_EQ(*ck2, 2u);
  }
  DatabaseOptions opts;
  opts.path = path_;
  Database db(opts);
  ASSERT_TRUE(db.Open().ok());
  EXPECT_EQ(db.checkpoint_epoch(), 2u);
  auto view = db.GetView("Labeled_Papers");
  ASSERT_TRUE(view.ok());
  EXPECT_EQ((*view)->trainer().steps(), static_cast<uint64_t>(kTestCorpusSize));
  // Only the latest epoch's rows survive in the system tables after GC at
  // the next checkpoint; recovery must serve the latest state regardless.
  for (int64_t id = 0; id < kTestCorpusSize; ++id) {
    auto label = (*view)->LabelOf(id);
    ASSERT_TRUE(label.ok());
    EXPECT_EQ(*label, id < 5 ? "DB" : "OTHER");
  }
}

TEST_F(CheckpointRoundTripTest, ReopenWithoutCheckpointReplaysWal) {
  // Since the write-ahead log, committed work is durable even before the
  // first checkpoint: reopening replays the logical history onto the empty
  // database.
  path_ = storage::TempFilePath("ckpt");
  {
    DatabaseOptions opts;
    opts.path = path_;
    Database db(opts);
    ASSERT_TRUE(db.Open().ok());
    BuildTestCorpus(&db);
  }
  {
    DatabaseOptions opts;
    opts.path = path_;
    Database db(opts);
    ASSERT_TRUE(db.Open().ok());
    EXPECT_EQ(db.checkpoint_epoch(), 0u);
    EXPECT_EQ(db.catalog()->TableNames().size(), 3u);
    auto papers = db.catalog()->GetTable("Papers");
    ASSERT_TRUE(papers.ok());
    EXPECT_EQ((*papers)->num_rows(), static_cast<uint64_t>(kTestCorpusSize));
  }
  // Without the log, nothing is durable beyond the formatted header.
  ::unlink(storage::WalPathFor(path_).c_str());
  DatabaseOptions opts;
  opts.path = path_;
  Database db(opts);
  ASSERT_TRUE(db.Open().ok());
  EXPECT_EQ(db.checkpoint_epoch(), 0u);
  EXPECT_TRUE(db.catalog()->TableNames().empty());
  EXPECT_TRUE(db.ViewNames().empty());
}

TEST_F(CheckpointRoundTripTest, NonHazyFileIsRejected) {
  path_ = storage::TempFilePath("ckpt");
  {
    std::ofstream f(path_, std::ios::binary);
    std::string junk(16384, 'x');
    f.write(junk.data(), static_cast<std::streamsize>(junk.size()));
  }
  DatabaseOptions opts;
  opts.path = path_;
  Database db(opts);
  Status s = db.Open();
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  // The named file must survive the failed open untouched, and no stray
  // -wal sidecar may be left next to it.
  std::ifstream f(path_, std::ios::binary);
  EXPECT_TRUE(f.good());
  std::ifstream wal(storage::WalPathFor(path_), std::ios::binary);
  EXPECT_FALSE(wal.good());
}

TEST_F(CheckpointRoundTripTest, SmallNonHazyFileIsRejectedNotClobbered) {
  // A file smaller than one page would read as num_pages == 0 and, without
  // the size check, be silently formatted over.
  path_ = storage::TempFilePath("ckpt");
  const std::string content = "precious user notes, not a database\n";
  {
    std::ofstream f(path_, std::ios::binary);
    f.write(content.data(), static_cast<std::streamsize>(content.size()));
  }
  DatabaseOptions opts;
  opts.path = path_;
  Database db(opts);
  Status s = db.Open();
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  std::ifstream f(path_, std::ios::binary);
  std::string back((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
  EXPECT_EQ(back, content) << "failed open must not modify the file";
}

// Superseded view-state rows are collected after each commit, but a restart
// rolls that collection back with the rest of the post-checkpoint work. The
// next checkpoint purges them before it writes, so the state table holds at
// most the durable epoch's row and the one before it, however many
// checkpoint+reopen cycles run.
TEST_F(CheckpointRoundTripTest, ReopenCyclesDoNotAccumulateStateRows) {
  path_ = storage::TempFilePath("ckpt");
  DatabaseOptions opts;
  opts.path = path_;
  {
    Database db(opts);
    ASSERT_TRUE(db.Open().ok());
    BuildTestCorpus(&db);
    ASSERT_TRUE(db.CreateClassificationView(
                      DefFor({core::Architecture::kHazyMM, core::Mode::kEager}))
                    .ok());
    ASSERT_TRUE(db.Checkpoint().ok());
  }
  for (int cycle = 0; cycle < 6; ++cycle) {
    Database db(opts);
    ASSERT_TRUE(db.Open().ok());
    auto state = db.catalog()->GetTable(persist::kViewStateTableName);
    ASSERT_TRUE(state.ok());
    EXPECT_LE((*state)->num_rows(), 2u) << "cycle " << cycle;
    ASSERT_TRUE(db.Checkpoint().ok());
  }
}

// Format v4 changed the view-state blob; a v3 file is refused, not misread.
TEST_F(CheckpointRoundTripTest, Version3FileIsRefused) {
  path_ = storage::TempFilePath("ckpt");
  {
    DatabaseOptions opts;
    opts.path = path_;
    Database db(opts);
    ASSERT_TRUE(db.Open().ok());
    BuildTestCorpus(&db);
    ASSERT_TRUE(db.CreateClassificationView(
                      DefFor({core::Architecture::kHazyMM, core::Mode::kEager}))
                    .ok());
    ASSERT_TRUE(db.Checkpoint().ok());
  }
  {
    // The header's u32 format version sits at byte 8 of page 0.
    std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
    const char v3[4] = {3, 0, 0, 0};
    f.seekp(8);
    f.write(v3, sizeof(v3));
  }
  DatabaseOptions opts;
  opts.path = path_;
  Database db(opts);
  Status s = db.Open();
  EXPECT_EQ(s.code(), StatusCode::kNotSupported) << s.ToString();
}

TEST_F(CheckpointRoundTripTest, MulticheckpointWithMultipleViews) {
  path_ = storage::TempFilePath("ckpt");
  {
    DatabaseOptions opts;
    opts.path = path_;
    Database db(opts);
    ASSERT_TRUE(db.Open().ok());
    BuildTestCorpus(&db);
    auto def1 = DefFor({core::Architecture::kHazyMM, core::Mode::kEager});
    auto def2 = DefFor({core::Architecture::kHybrid, core::Mode::kLazy});
    def2.view_name = "Labeled_Hybrid";
    ASSERT_TRUE(db.CreateClassificationView(def1).ok());
    ASSERT_TRUE(db.CreateClassificationView(def2).ok());
    for (int64_t id = 0; id < kTestCorpusSize; ++id) ASSERT_TRUE(FeedExample(&db, id).ok());
    ASSERT_TRUE(db.Checkpoint().ok());
  }
  DatabaseOptions opts;
  opts.path = path_;
  Database db(opts);
  ASSERT_TRUE(db.Open().ok());
  EXPECT_EQ(db.ViewNames().size(), 2u);
  for (const char* name : {"Labeled_Papers", "Labeled_Hybrid"}) {
    auto view = db.GetView(name);
    ASSERT_TRUE(view.ok());
    auto count = (*view)->CountOf("DB");
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(*count, 5u) << name;
  }
}

}  // namespace
}  // namespace hazy::engine
