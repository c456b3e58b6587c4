// Snapshot-read semantics through the engine, for every architecture in
// both maintenance modes: at a batch boundary a snapshot SQL read answers
// bit-identically to the live core view; mid-batch readers stay on the
// pre-batch epoch (MVCC-lite — reads never see a half-applied batch);
// pinned epochs reclaim only after the last reader unpins; a checkpoint
// racing concurrent snapshot readers recovers to bit-identical view state;
// and a reader's view handle outlives a VACUUM swap.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "persist/checkpoint.h"
#include "sql/executor.h"
#include "storage/table.h"
#include "test_corpus.h"

namespace hazy::engine {
namespace {

struct ArchMode {
  core::Architecture arch;
  core::Mode mode;
  const char* name;
};

constexpr ArchMode kArchModes[] = {
    {core::Architecture::kNaiveMM, core::Mode::kEager, "NaiveMMEager"},
    {core::Architecture::kNaiveMM, core::Mode::kLazy, "NaiveMMLazy"},
    {core::Architecture::kHazyMM, core::Mode::kEager, "HazyMMEager"},
    {core::Architecture::kHazyMM, core::Mode::kLazy, "HazyMMLazy"},
    {core::Architecture::kNaiveOD, core::Mode::kEager, "NaiveODEager"},
    {core::Architecture::kNaiveOD, core::Mode::kLazy, "NaiveODLazy"},
    {core::Architecture::kHazyOD, core::Mode::kEager, "HazyODEager"},
    {core::Architecture::kHazyOD, core::Mode::kLazy, "HazyODLazy"},
    {core::Architecture::kHybrid, core::Mode::kEager, "HybridEager"},
    {core::Architecture::kHybrid, core::Mode::kLazy, "HybridLazy"},
};

/// The Example 2.1 view over the shared test corpus.
ClassificationViewDef PapersViewDef(const std::string& name) {
  ClassificationViewDef def;
  def.view_name = name;
  def.entity_table = "Papers";
  def.entity_key = "id";
  def.label_table = "Paper_Area";
  def.label_column = "label";
  def.example_table = "Example_Papers";
  def.example_key = "id";
  def.example_label = "label";
  return def;
}

/// Inserts every corpus paper with its true label as a training example.
void InsertAllExamples(Database* db) {
  auto examples = db->catalog()->GetTable("Example_Papers");
  ASSERT_TRUE(examples.ok());
  for (int64_t id = 0; id < kTestCorpusSize; ++id) {
    ASSERT_TRUE(
        (*examples)->Insert(storage::Row{id, std::string(TestCorpusLabel(id))}).ok());
  }
}

class EngineSnapshotTest : public ::testing::TestWithParam<ArchMode> {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>();
    ASSERT_TRUE(db_->Open().ok());
    BuildTestCorpus(db_.get());
    auto examples = db_->catalog()->GetTable("Example_Papers");
    ASSERT_TRUE(examples.ok());
    examples_ = *examples;
    exec_ = std::make_unique<sql::Executor>(db_.get());
  }

  ClassificationViewDef Def() {
    ClassificationViewDef def = PapersViewDef("Labeled_Papers");
    def.architecture = GetParam().arch;
    def.mode = GetParam().mode;
    return def;
  }

  ManagedView* MustCreateView() {
    auto view = db_->CreateClassificationView(Def());
    EXPECT_TRUE(view.ok()) << view.status().ToString();
    return view.ok() ? *view : nullptr;
  }

  void TrainAll() {
    for (int64_t id = 0; id < 10; ++id) {
      const char* label = id < 5 ? "DB" : "OTHER";
      ASSERT_TRUE(examples_->Insert(
                      storage::Row{id, std::string(label)}).ok());
    }
  }

  sql::ResultSet MustExec(const std::string& sql) {
    auto rs = exec_->Execute(sql);
    EXPECT_TRUE(rs.ok()) << sql << " -> " << rs.status().ToString();
    return rs.ok() ? *rs : sql::ResultSet{};
  }

  std::string Encoded(const sql::ResultSet& rs) {
    std::string payload;
    EXPECT_TRUE(rs.Encode(&payload).ok());
    return payload;
  }

  // The oracle: the live core view's own read path. The engine-API reads
  // answer from the same epochs as SQL, so they cannot be the oracle.
  std::string LiveLabel(ManagedView* view, int64_t id) {
    auto sign = view->view()->SingleEntityRead(id);
    EXPECT_TRUE(sign.ok()) << sign.status().ToString();
    return sign.ok() ? view->LabelString(*sign) : std::string();
  }
  std::set<int64_t> LiveMembers(ManagedView* view, const std::string& label) {
    auto ids = view->view()->AllMembers(view->LabelSign(label).ValueOrDie());
    EXPECT_TRUE(ids.ok()) << ids.status().ToString();
    return ids.ok() ? std::set<int64_t>(ids->begin(), ids->end())
                    : std::set<int64_t>();
  }
  uint64_t LiveCount(ManagedView* view, const std::string& label) {
    auto n = view->view()->AllMembersCount(view->LabelSign(label).ValueOrDie());
    EXPECT_TRUE(n.ok()) << n.status().ToString();
    return n.ok() ? *n : ~uint64_t{0};
  }

  std::unique_ptr<Database> db_;
  storage::Table* examples_ = nullptr;
  std::unique_ptr<sql::Executor> exec_;
};

// At a batch boundary every snapshot SQL read shape (single-entity, members,
// count) answers bit-identically to the live core view — the core
// invariant that makes reading without the statement mutex sound.
TEST_P(EngineSnapshotTest, SnapshotAnswersMatchLiveViewAtBatchBoundary) {
  ManagedView* view = MustCreateView();
  ASSERT_NE(view, nullptr);
  TrainAll();
  ASSERT_TRUE(view->PinSnapshot()) << "no epoch published";

  for (int64_t id = 0; id < 10; ++id) {
    auto rs = MustExec("SELECT class FROM Labeled_Papers WHERE id = " +
                       std::to_string(id));
    ASSERT_EQ(rs.rows.size(), 1u);
    auto sql_label = rs.TextAt(0, 0);
    ASSERT_TRUE(sql_label.ok());
    EXPECT_EQ(*sql_label, LiveLabel(view, id)) << "paper " << id;
  }

  for (const char* label : {"DB", "OTHER"}) {
    auto rs = MustExec(std::string("SELECT * FROM Labeled_Papers WHERE class = '") +
                       label + "'");
    std::set<int64_t> sql_ids;
    for (size_t i = 0; i < rs.rows.size(); ++i) {
      auto id = rs.Int64At(i, 0);
      ASSERT_TRUE(id.ok());
      sql_ids.insert(*id);
    }
    EXPECT_EQ(sql_ids, LiveMembers(view, label)) << label;

    auto count = MustExec(
        std::string("SELECT COUNT(*) FROM Labeled_Papers WHERE class = '") +
        label + "'");
    ASSERT_EQ(count.rows.size(), 1u);
    auto sql_count = count.Int64At(0, 0);
    ASSERT_TRUE(sql_count.ok());
    EXPECT_EQ(static_cast<uint64_t>(*sql_count), LiveCount(view, label)) << label;
  }
}

// Members and counts of a snapshot SQL read, compared with the live core
// view after each of a run of interleaved batches. The batches add
// entities (new store chunks, tail merges) and examples (model drift), so the
// reads label rows from eps columns built under earlier epochs' models,
// rebuild them, and build columns for fresh chunks.
TEST_P(EngineSnapshotTest, SnapshotMatchesLiveViewAcrossInterleavedBatches) {
  ManagedView* view = MustCreateView();
  ASSERT_NE(view, nullptr);
  auto papers = db_->catalog()->GetTable("Papers");
  ASSERT_TRUE(papers.ok());
  ASSERT_TRUE(examples_->Insert(storage::Row{int64_t{0}, std::string("DB")}).ok());
  ASSERT_TRUE(view->PinSnapshot());

  auto ids_of = [&](const sql::ResultSet& rs) {
    std::set<int64_t> ids;
    for (size_t i = 0; i < rs.rows.size(); ++i) {
      auto id = rs.Int64At(i, 0);
      EXPECT_TRUE(id.ok());
      if (id.ok()) ids.insert(*id);
    }
    return ids;
  };
  auto check_boundary = [&](int round) {
    std::set<int64_t> all_ids;
    for (const char* label : {"DB", "OTHER"}) {
      // Twice: the second read finds a column built under this epoch.
      for (int pass = 0; pass < 2; ++pass) {
        const std::string where =
            std::string(" FROM Labeled_Papers WHERE class = '") + label + "'";
        const std::set<int64_t> sql_ids = ids_of(MustExec("SELECT id" + where));
        auto count = MustExec("SELECT COUNT(*)" + where);
        EXPECT_EQ(sql_ids, LiveMembers(view, label)) << label << " round " << round;
        ASSERT_EQ(count.rows.size(), 1u);
        auto n = count.Int64At(0, 0);
        ASSERT_TRUE(n.ok());
        EXPECT_EQ(static_cast<uint64_t>(*n), LiveCount(view, label))
            << label << " round " << round;
        if (pass == 0) all_ids.insert(sql_ids.begin(), sql_ids.end());
      }
    }
    // The full scan labels both classes in one pass.
    auto full = MustExec("SELECT * FROM Labeled_Papers");
    EXPECT_EQ(ids_of(full), all_ids) << "round " << round;
    for (size_t i = 0; i < full.rows.size(); ++i) {
      auto id = full.Int64At(i, 0);
      auto label = full.TextAt(i, 1);
      ASSERT_TRUE(id.ok() && label.ok());
      EXPECT_EQ(*label, LiveLabel(view, *id)) << "paper " << *id << " round " << round;
    }
  };

  check_boundary(0);
  int64_t next_paper = kTestCorpusSize;
  for (int round = 1; round <= 6; ++round) {
    db_->BeginUpdateBatch();
    for (int k = 0; k < 3; ++k, ++next_paper) {
      const bool db_paper = (next_paper + round) % 2 == 0;
      ASSERT_TRUE((*papers)
                      ->Insert(storage::Row{
                          next_paper,
                          std::string(db_paper
                                          ? "sql query transactions database"
                                          : "protein membranes molecular biology")})
                      .ok());
      if (k == 0) {
        ASSERT_TRUE(examples_
                        ->Insert(storage::Row{
                            next_paper, std::string(db_paper ? "DB" : "OTHER")})
                        .ok());
      }
    }
    if (round < kTestCorpusSize) {
      ASSERT_TRUE(examples_
                      ->Insert(storage::Row{int64_t{round},
                                            std::string(TestCorpusLabel(round))})
                      .ok());
    }
    ASSERT_TRUE(db_->EndUpdateBatch().ok());
    check_boundary(round);
  }
}

// MVCC semantics: while an update batch is open, SQL readers keep answering
// from the last published epoch — the batch's queued model updates are
// invisible until EndUpdateBatch publishes, and the whole batch becomes
// visible atomically. The engine-API reads are different: they flush the
// view's queue first and answer from a private, unpublished epoch over the
// batch so far, so they see the queued examples mid-batch.
TEST_P(EngineSnapshotTest, MidBatchReaderSeesPreBatchEpoch) {
  ManagedView* view = MustCreateView();
  ASSERT_NE(view, nullptr);
  // Partial training so the mid-batch examples move the model (one DB
  // example labels every paper DB; the batch brings the count to 5).
  ASSERT_TRUE(examples_->Insert(storage::Row{int64_t{0}, std::string("DB")}).ok());
  ASSERT_TRUE(view->PinSnapshot());

  const uint64_t epoch_before = view->epochs().latest_epoch();
  const std::string rows_before = Encoded(MustExec("SELECT * FROM Labeled_Papers"));
  auto count_db = [&] {
    auto rs = MustExec("SELECT COUNT(*) FROM Labeled_Papers WHERE class = 'DB'");
    auto n = rs.Int64At(0, 0);
    EXPECT_TRUE(n.ok());
    return n.ok() ? static_cast<uint64_t>(*n) : ~uint64_t{0};
  };
  const uint64_t count_before = count_db();

  db_->BeginUpdateBatch();
  for (int64_t id = 1; id < 5; ++id) {
    ASSERT_TRUE(examples_->Insert(storage::Row{id, std::string("DB")}).ok());
  }
  for (int64_t id = 5; id < 10; ++id) {
    ASSERT_TRUE(examples_->Insert(storage::Row{id, std::string("OTHER")}).ok());
  }
  EXPECT_GT(view->pending_updates(), 0u) << "batch did not queue the triggers";
  // A reader inside the batch: same epoch, byte-identical answers.
  EXPECT_EQ(view->epochs().latest_epoch(), epoch_before);
  EXPECT_EQ(Encoded(MustExec("SELECT * FROM Labeled_Papers")), rows_before);
  // The engine API folds the queue into the live view and answers from a
  // private epoch over it; SQL still answers from the pre-batch epoch.
  auto api_count = view->CountOf("DB");
  ASSERT_TRUE(api_count.ok()) << api_count.status().ToString();
  EXPECT_EQ(view->pending_updates(), 0u) << "CountOf did not flush the queue";
  EXPECT_EQ(*api_count, 5u);
  EXPECT_NE(*api_count, count_before) << "the batch must move the count";
  EXPECT_EQ(view->epochs().latest_epoch(), epoch_before);
  EXPECT_EQ(count_db(), count_before);
  EXPECT_EQ(Encoded(MustExec("SELECT * FROM Labeled_Papers")), rows_before);
  ASSERT_TRUE(db_->EndUpdateBatch().ok());

  // The batch boundary published exactly one new epoch with the batch fully
  // applied.
  EXPECT_EQ(view->epochs().latest_epoch(), epoch_before + 1);
  auto rs = MustExec("SELECT * FROM Labeled_Papers");
  std::set<std::pair<int64_t, std::string>> labeled;
  for (size_t i = 0; i < rs.rows.size(); ++i) {
    auto id = rs.Int64At(i, 0);
    auto label = rs.TextAt(i, 1);
    ASSERT_TRUE(id.ok() && label.ok());
    labeled.insert({*id, *label});
  }
  // Fully trained on the separable corpus: post-batch answers are exact.
  for (int64_t id = 0; id < 10; ++id) {
    EXPECT_TRUE(labeled.count({id, id < 5 ? "DB" : "OTHER"})) << "paper " << id;
  }
  // What the engine API answered mid-batch is what SQL answers now.
  EXPECT_EQ(count_db(), *api_count);
}

// Regression: a multi-row INSERT into the entity table publishes exactly
// one epoch, at the batch boundary. Per-row publication would let snapshot
// readers observe a partially applied statement and would seal one store
// chunk per row. An engine-API read inside the batch sees the appended
// papers without publishing them.
TEST_P(EngineSnapshotTest, EntityBatchPublishesOneEpochAtBoundary) {
  ManagedView* view = MustCreateView();
  ASSERT_NE(view, nullptr);
  TrainAll();
  ASSERT_TRUE(view->PinSnapshot());
  auto papers = db_->catalog()->GetTable("Papers");
  ASSERT_TRUE(papers.ok());

  const uint64_t epoch_before = view->epochs().latest_epoch();
  const std::string count_before =
      Encoded(MustExec("SELECT COUNT(*) FROM Labeled_Papers"));

  db_->BeginUpdateBatch();
  for (int64_t id = 10; id < 18; ++id) {
    ASSERT_TRUE(
        (*papers)
            ->Insert(storage::Row{
                id, std::string("database transactions and query processing")})
            .ok());
    EXPECT_EQ(view->epochs().latest_epoch(), epoch_before)
        << "entity insert published mid-batch at id " << id;
  }
  // The engine API reads the batch so far: the last appended paper answers
  // and both classes together count every appended one.
  auto label = view->LabelOf(17);
  ASSERT_TRUE(label.ok()) << label.status().ToString();
  auto db_count = view->CountOf("DB");
  auto other_count = view->CountOf("OTHER");
  ASSERT_TRUE(db_count.ok() && other_count.ok());
  EXPECT_EQ(*db_count + *other_count, static_cast<uint64_t>(kTestCorpusSize + 8));
  auto members = view->MembersOf(*label);
  ASSERT_TRUE(members.ok());
  EXPECT_NE(std::find(members->begin(), members->end(), 17), members->end());
  EXPECT_EQ(view->epochs().latest_epoch(), epoch_before)
      << "a mid-batch engine-API read published an epoch";
  // A SQL reader inside the batch stays on the pre-batch epoch: none of the
  // new entities are visible yet.
  EXPECT_EQ(Encoded(MustExec("SELECT COUNT(*) FROM Labeled_Papers")),
            count_before);
  ASSERT_TRUE(db_->EndUpdateBatch().ok());

  EXPECT_EQ(view->epochs().latest_epoch(), epoch_before + 1)
      << "an entity-only batch must publish exactly one epoch at its boundary";
  auto rs = MustExec("SELECT COUNT(*) FROM Labeled_Papers");
  ASSERT_EQ(rs.rows.size(), 1u);
  auto n = rs.Int64At(0, 0);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, kTestCorpusSize + 8);
}

// A pinned epoch stays live across later publications and reclaims only
// when the last pin releases — through the trigger/publish machinery, not
// just the core manager.
TEST_P(EngineSnapshotTest, RetiredEpochReclaimsAfterLastUnpin) {
  ManagedView* view = MustCreateView();
  ASSERT_NE(view, nullptr);
  ASSERT_TRUE(examples_->Insert(storage::Row{int64_t{0}, std::string("DB")}).ok());
  ASSERT_TRUE(view->PinSnapshot());

  core::SnapshotPin pin = view->PinSnapshot();
  ASSERT_TRUE(pin);
  const uint64_t pinned_epoch = pin->epoch();
  const uint64_t reclaimed_before = view->epochs().reclaimed_total();

  // Each unbatched example insert publishes a new epoch, retiring the
  // pinned one.
  ASSERT_TRUE(
      examples_->Insert(storage::Row{int64_t{5}, std::string("OTHER")}).ok());
  ASSERT_TRUE(examples_->Insert(storage::Row{int64_t{1}, std::string("DB")}).ok());
  ASSERT_GT(view->epochs().latest_epoch(), pinned_epoch);
  EXPECT_TRUE(view->epochs().IsLive(pinned_epoch));

  // The pinned snapshot still answers from its own epoch's model/entity set.
  auto count = pin->AllMembersCount(+1);
  ASSERT_TRUE(count.ok());

  pin.Release();
  EXPECT_FALSE(view->epochs().IsLive(pinned_epoch));
  EXPECT_GT(view->epochs().reclaimed_total(), reclaimed_before);
}

// A checkpoint racing concurrent snapshot readers must neither block on
// them nor corrupt durable state: after the race, recovery rebuilds the
// view bit-identically (same serialized state blob).
TEST_P(EngineSnapshotTest, CheckpointRacingReadersRecoversBitIdentical) {
  const std::string path = ::testing::TempDir() + "hazy_snapshot_race_" +
                           GetParam().name + ".db";
  ::unlink(path.c_str());
  ::unlink((path + "-wal").c_str());

  DatabaseOptions opts;
  opts.path = path;
  db_ = std::make_unique<Database>(opts);
  ASSERT_TRUE(db_->Open().ok());
  BuildTestCorpus(db_.get());
  auto examples = db_->catalog()->GetTable("Example_Papers");
  ASSERT_TRUE(examples.ok());
  examples_ = *examples;
  exec_ = std::make_unique<sql::Executor>(db_.get());

  ManagedView* view = MustCreateView();
  ASSERT_NE(view, nullptr);
  TrainAll();
  ASSERT_TRUE(view->PinSnapshot());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      // Snapshot reads hold no statement lock — each thread gets its own
      // executor and scans freely while the checkpoint commits.
      sql::Executor exec(db_.get());
      while (!stop.load(std::memory_order_relaxed)) {
        auto rs = exec.Execute("SELECT * FROM Labeled_Papers");
        EXPECT_TRUE(rs.ok()) << rs.status().ToString();
        if (rs.ok()) {
          EXPECT_EQ(rs->rows.size(), 10u);
        }
        ++reads;
      }
    });
  }
  while (reads.load() < 20) std::this_thread::yield();
  for (int i = 0; i < 3; ++i) {
    auto epoch = db_->Checkpoint();
    ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  }
  stop.store(true);
  for (auto& t : readers) t.join();

  // Persist the final state, capture its serialized form, and recover.
  ASSERT_TRUE(db_->Checkpoint().ok());
  std::string blob_live;
  ASSERT_TRUE(persist::ViewCheckpointer(db_.get())
                  .SerializeViewState(*view, &blob_live)
                  .ok());
  db_.reset();

  DatabaseOptions reopen;
  reopen.path = path;
  auto db2 = std::make_unique<Database>(reopen);
  ASSERT_TRUE(db2->Open().ok());
  auto recovered = db2->GetView("Labeled_Papers");
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE((*recovered)->PinSnapshot())
      << "recovery must republish a read epoch";
  std::string blob_recovered;
  ASSERT_TRUE(persist::ViewCheckpointer(db2.get())
                  .SerializeViewState(**recovered, &blob_recovered)
                  .ok());
  EXPECT_EQ(blob_live, blob_recovered);

  db2.reset();
  ::unlink(path.c_str());
  ::unlink((path + "-wal").c_str());
}

// Readers running the server session's exact sequence — parse, then
// Executor::Execute, which resolves the view from the published list —
// while VACUUM repeatedly swaps the backing file and republishes the view
// list. A reader that resolved an old view finishes on it (its handle
// keeps the view and its epochs alive); one that misses the name during
// the swap serializes behind the VACUUM. Either way it answers. ASan/TSan
// runs of this test catch a view freed under a reader.
TEST(SnapshotVacuumRaceTest, ReadersRacingVacuumNeverCrash) {
  const std::string path =
      ::testing::TempDir() + "hazy_snapshot_vacuum_race.db";
  ::unlink(path.c_str());
  ::unlink((path + "-wal").c_str());

  DatabaseOptions opts;
  opts.path = path;
  Database db(opts);
  ASSERT_TRUE(db.Open().ok());
  BuildTestCorpus(&db);
  ClassificationViewDef def = PapersViewDef("Labeled_Papers");
  def.architecture = core::Architecture::kHazyMM;
  def.mode = core::Mode::kLazy;
  ASSERT_TRUE(db.CreateClassificationView(def).ok());
  InsertAllExamples(&db);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      sql::Executor exec(&db);
      while (!stop.load(std::memory_order_relaxed)) {
        auto stmt = sql::Parse("SELECT class FROM Labeled_Papers WHERE id = 3");
        ASSERT_TRUE(stmt.ok());
        auto rs = exec.Execute(*stmt);
        EXPECT_TRUE(rs.ok()) << rs.status().ToString();
        if (rs.ok()) {
          EXPECT_EQ(rs->rows.size(), 1u);
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (int i = 0; i < 4; ++i) {
    // Let the readers re-resolve fresh handles between swaps so every cycle
    // races name resolution against the swap, not just the first.
    const uint64_t before = reads.load(std::memory_order_relaxed);
    while (reads.load(std::memory_order_relaxed) < before + 20) {
      std::this_thread::yield();
    }
    ASSERT_TRUE(db.Compact().ok());
  }
  stop.store(true);
  for (auto& t : readers) t.join();

  // The last swap recovered a live, snapshot-capable view.
  auto view = db.GetView("Labeled_Papers");
  ASSERT_TRUE(view.ok());
  EXPECT_TRUE((*view)->PinSnapshot());

  ::unlink(path.c_str());
  ::unlink((path + "-wal").c_str());
}

// Every view SQL can name has a published epoch: AdoptView publishes the
// first one before the view enters the database's list. A reader polling a
// view while another thread creates it therefore only ever sees "not found"
// (the name does not resolve yet) or the right count — never an empty pin
// or an Internal error. The poller's misses run serialized behind the
// CREATE; the watcher spins on the name alone and reads lock-free the
// moment the view can be named, while the CREATE may still hold the
// statement mutex. TSan runs of this test check the publication.
TEST(SnapshotCreateRaceTest, ReadersRacingCreateViewSeeNotFoundOrAnswer) {
  Database db;
  ASSERT_TRUE(db.Open().ok());
  BuildTestCorpus(&db);
  InsertAllExamples(&db);

  sql::Executor writer(&db);
  for (int round = 0; round < 16; ++round) {
    const std::string name = "V" + std::to_string(round + 2);
    const std::string query = "SELECT COUNT(*) FROM " + name + " WHERE class = 'DB'";
    auto expect_count = [&](const StatusOr<sql::ResultSet>& rs) {
      ASSERT_TRUE(rs.ok()) << rs.status().ToString();
      ASSERT_EQ(rs->rows.size(), 1u);
      EXPECT_EQ(rs->Int64At(0, 0).ValueOrDie(), 5) << name;
    };
    std::atomic<bool> created{false};
    std::atomic<uint64_t> misses{0};
    std::thread poller([&] {
      sql::Executor exec(&db);
      for (;;) {
        const bool after_create = created.load();
        auto rs = exec.Execute(query);
        if (rs.ok() || after_create || !rs.status().IsNotFound()) {
          expect_count(rs);
          return;
        }
        misses.fetch_add(1);
      }
    });
    std::thread watcher([&] {
      sql::Executor exec(&db);
      while (!db.HasView(name) && !created.load()) std::this_thread::yield();
      expect_count(exec.Execute(query));
    });
    // Let the poller miss at least once, so creation races live readers.
    while (misses.load() < 1) std::this_thread::yield();
    auto rs = writer.Execute(
        "CREATE CLASSIFICATION VIEW " + name +
        " KEY id ENTITIES FROM Papers KEY id LABELS FROM Paper_Area LABEL label "
        "EXAMPLES FROM Example_Papers KEY id LABEL label "
        "FEATURE FUNCTION tf_bag_of_words");
    created.store(true);
    poller.join();
    watcher.join();
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  }
}

// A reader's view handle outlives VACUUM. Compact publishes an empty view
// list, then the recovered views, and never waits for readers, so it
// returns even while this thread holds a handle and a pin on the old view.
// The old view keeps answering the pre-VACUUM labels, which equal the
// recovered view's. ASan runs check the old view's late teardown.
TEST_P(EngineSnapshotTest, ViewHandleOutlivesVacuum) {
  ASSERT_NE(MustCreateView(), nullptr);
  TrainAll();
  std::shared_ptr<ManagedView> handle = db_->FindView("Labeled_Papers");
  ASSERT_NE(handle, nullptr);
  core::SnapshotPin held = handle->PinSnapshot();
  ASSERT_TRUE(held);
  std::vector<int> before;
  for (int64_t id = 0; id < kTestCorpusSize; ++id) {
    before.push_back(held->SingleEntityRead(id).ValueOrDie());
  }

  ASSERT_TRUE(db_->Compact().ok());

  std::shared_ptr<ManagedView> recovered = db_->FindView("Labeled_Papers");
  ASSERT_NE(recovered, nullptr);
  EXPECT_NE(recovered, handle) << "VACUUM must publish the recovered view";
  core::SnapshotPin old_latest = handle->PinSnapshot();
  core::SnapshotPin fresh = recovered->PinSnapshot();
  ASSERT_TRUE(old_latest && fresh);
  for (int64_t id = 0; id < kTestCorpusSize; ++id) {
    const int expected = before[static_cast<size_t>(id)];
    EXPECT_EQ(held->SingleEntityRead(id).ValueOrDie(), expected) << "paper " << id;
    EXPECT_EQ(old_latest->SingleEntityRead(id).ValueOrDie(), expected) << "paper " << id;
    EXPECT_EQ(fresh->SingleEntityRead(id).ValueOrDie(), expected) << "paper " << id;
    auto rs = MustExec("SELECT class FROM Labeled_Papers WHERE id = " +
                       std::to_string(id));
    ASSERT_EQ(rs.rows.size(), 1u);
    EXPECT_EQ(rs.TextAt(0, 0).ValueOrDie(), handle->LabelString(expected));
  }
  // Same members; store order may differ (recovery re-exports entities).
  auto members_of = [](const core::SnapshotPin& pin, int sign) {
    std::vector<int64_t> ids = pin->AllMembers(sign).ValueOrDie();
    return std::set<int64_t>(ids.begin(), ids.end());
  };
  for (int sign : {1, -1}) {
    EXPECT_EQ(members_of(held, sign), members_of(fresh, sign)) << "sign " << sign;
  }
}

// A SELECT on a database that was never opened resolves no view (the
// published list is empty), so it takes the serialized path, which
// reports the closed database instead of touching absent handles.
TEST(SnapshotClosedDatabaseTest, SelectOnUnopenedDatabaseIsNotOpen) {
  Database db;
  sql::Executor exec(&db);
  auto rs = exec.Execute("SELECT * FROM Labeled_Papers");
  ASSERT_FALSE(rs.ok());
  EXPECT_TRUE(rs.status().IsInvalidArgument()) << rs.status().ToString();
  EXPECT_NE(rs.status().ToString().find("database is not open"), std::string::npos)
      << rs.status().ToString();
}

// A view created inside an open update batch is adopted with its first
// epoch already published, so SQL reads answer before EndUpdateBatch.
TEST(SnapshotCreateInBatchTest, ViewCreatedMidBatchAnswersSqlReads) {
  Database db;
  ASSERT_TRUE(db.Open().ok());
  BuildTestCorpus(&db);
  InsertAllExamples(&db);
  sql::Executor exec(&db);

  db.BeginUpdateBatch();
  auto view = db.CreateClassificationView(PapersViewDef("Labeled_Papers"));
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_TRUE((*view)->PinSnapshot());
  auto all = exec.Execute("SELECT COUNT(*) FROM Labeled_Papers");
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  ASSERT_EQ(all->rows.size(), 1u);
  EXPECT_EQ(all->Int64At(0, 0).ValueOrDie(), kTestCorpusSize);
  auto point = exec.Execute("SELECT class FROM Labeled_Papers WHERE id = 3");
  ASSERT_TRUE(point.ok()) << point.status().ToString();
  EXPECT_EQ(point->rows.size(), 1u);
  ASSERT_TRUE(db.EndUpdateBatch().ok());

  // The batch boundary folds the replayed examples: exact labels.
  auto members = exec.Execute("SELECT id FROM Labeled_Papers WHERE class = 'DB'");
  ASSERT_TRUE(members.ok()) << members.status().ToString();
  std::set<int64_t> ids;
  for (size_t i = 0; i < members->rows.size(); ++i) {
    ids.insert(members->Int64At(i, 0).ValueOrDie());
  }
  EXPECT_EQ(ids, (std::set<int64_t>{0, 1, 2, 3, 4}));
}

INSTANTIATE_TEST_SUITE_P(Architectures, EngineSnapshotTest,
                         ::testing::ValuesIn(kArchModes),
                         [](const ::testing::TestParamInfo<ArchMode>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace hazy::engine
