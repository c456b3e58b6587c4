// Tests for the background checkpointer (persist/checkpoint_daemon.h): WAL
// length stays bounded under sustained ingest, recovered view state is
// bit-identical with the daemon racing kills (clean drops and torn writes
// inside a daemon-initiated checkpoint), batch-boundary hand-off, the
// statement-lock hand-off under saturating SQL writers, stopping the daemon
// under load without deadlock, and the PRAGMA knob surface.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "persist/checkpoint.h"
#include "persist/checkpoint_daemon.h"
#include "sql/executor.h"
#include "storage/pager.h"
#include "storage/wal.h"
#include "test_corpus.h"

namespace hazy::engine {
namespace {

using storage::ColumnType;
using storage::Row;
using storage::Schema;

// Deterministic cost model (see persist_wal_test.cc) + aggressive daemon:
// tiny byte threshold, fast polls — it checkpoints constantly, racing the
// workload statements for the statement mutex.
DatabaseOptions DaemonOptions(const std::string& path, bool daemon) {
  DatabaseOptions opts;
  opts.path = path;
  opts.view_defaults.cost_model = core::CostModel::kTupleCount;
  opts.checkpointer.enabled = daemon;
  opts.checkpointer.wal_checkpoint_bytes = 2000;
  opts.checkpointer.poll_seconds = 0.001;
  return opts;
}

ClassificationViewDef TestViewDef(core::Architecture arch, core::Mode mode) {
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
  def.architecture = arch;
  def.mode = mode;
  return def;
}

Status FeedExample(Database* db, int64_t id) {
  auto examples = db->catalog()->GetTable("Example_Papers");
  HAZY_RETURN_NOT_OK(examples.status());
  return (*examples)->Insert(Row{id, std::string(TestCorpusLabel(id))});
}

Status AddPaper(Database* db, int64_t id, const std::string& text) {
  auto papers = db->catalog()->GetTable("Papers");
  HAZY_RETURN_NOT_OK(papers.status());
  return (*papers)->Insert(Row{id, text});
}

// The scripted statement stream (a superset of the persist_wal_test shape:
// corpus + view + examples + new entities + a batched insert). `upto` cuts
// it short for crash-prefix sweeps.
Status RunWorkload(Database* db, core::Architecture arch, core::Mode mode,
                   int upto = 1000) {
  int step = 0;
  auto live = [&]() { return step++ < upto; };
  if (live()) BuildTestCorpus(db);
  if (live()) {
    HAZY_RETURN_NOT_OK(db->CreateClassificationView(TestViewDef(arch, mode)).status());
  }
  for (int64_t id = 0; id < kTestCorpusSize; ++id) {
    if (live()) HAZY_RETURN_NOT_OK(FeedExample(db, id));
  }
  if (live()) {
    HAZY_RETURN_NOT_OK(AddPaper(db, 100, "sql query optimizer with btree index"));
  }
  if (live()) {
    db->BeginUpdateBatch();
    HAZY_RETURN_NOT_OK(FeedExample(db, 100));
    HAZY_RETURN_NOT_OK(AddPaper(db, 101, "cell membrane protein folding pathway"));
    HAZY_RETURN_NOT_OK(FeedExample(db, 101));
    HAZY_RETURN_NOT_OK(db->EndUpdateBatch());
  }
  return Status::OK();
}

std::string StateBlobOf(Database* db) {
  auto view = db->GetView("Labeled_Papers");
  EXPECT_TRUE(view.ok());
  if (!view.ok()) return {};
  EXPECT_TRUE((*view)->Flush().ok());
  *(*view)->view()->mutable_stats() = core::ViewStats{};
  std::string blob;
  persist::ViewCheckpointer ckpt(db);
  EXPECT_TRUE(ckpt.SerializeViewState(**view, &blob).ok());
  return blob;
}

class CheckpointDaemonTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const auto& p : cleanup_) {
      ::unlink(p.c_str());
      ::unlink(storage::WalPathFor(p).c_str());
    }
  }
  std::string NewPath(const char* hint) {
    cleanup_.push_back(storage::TempFilePath(hint));
    return cleanup_.back();
  }
  std::vector<std::string> cleanup_;
};

// Reference state for a workload prefix: no daemon, no crash.
std::string ReferenceBlob(core::Architecture arch, core::Mode mode, int upto) {
  Database db(DaemonOptions("", /*daemon=*/false));
  EXPECT_TRUE(db.Open().ok());
  EXPECT_TRUE(RunWorkload(&db, arch, mode, upto).ok());
  return StateBlobOf(&db);
}

TEST_F(CheckpointDaemonTest, DaemonRacingKillsRecoverBitIdentical) {
  // Kill (drop without flush) after every workload prefix while the daemon
  // checkpoints aggressively underneath: the recovered view state must be
  // bit-identical to a never-crashed, never-daemoned run of the same
  // prefix — whatever epoch the daemon managed to seal before the kill.
  const core::Architecture arch = core::Architecture::kHazyMM;
  const core::Mode mode = core::Mode::kEager;
  const int total_steps = 16;
  for (int k = 2; k <= total_steps; ++k) {
    SCOPED_TRACE("prefix " + std::to_string(k));
    const std::string path = NewPath("daemonkill");
    {
      Database db(DaemonOptions(path, /*daemon=*/true));
      ASSERT_TRUE(db.Open().ok());
      ASSERT_TRUE(RunWorkload(&db, arch, mode, k).ok());
      // Give the daemon a beat to race a checkpoint against the tail of the
      // workload, then "crash" (destructor stops the daemon mid-flight
      // state and never flushes the pool).
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    Database db(DaemonOptions(path, /*daemon=*/false));
    ASSERT_TRUE(db.Open().ok());
    EXPECT_EQ(StateBlobOf(&db), ReferenceBlob(arch, mode, k));
  }
}

TEST_F(CheckpointDaemonTest, TornWriteInsideDaemonCheckpointRollsBack) {
  // Arm a torn page write that trips while the daemon is checkpointing in
  // the background; the crash leaves a half-written checkpoint, and
  // recovery must land on the full workload state (all statements
  // committed) — bit-identical, for every architecture.
  const std::string ref =
      ReferenceBlob(core::Architecture::kHazyOD, core::Mode::kLazy, 1000);
  for (int fail_at : {3, 9, 27}) {
    SCOPED_TRACE("tear at write " + std::to_string(fail_at));
    const std::string path = NewPath("daemontorn");
    {
      Database db(DaemonOptions(path, /*daemon=*/true));
      ASSERT_TRUE(db.Open().ok());
      ASSERT_TRUE(
          RunWorkload(&db, core::Architecture::kHazyOD, core::Mode::kLazy).ok());
      // From here, tear the fail_at-th physical page write and fail all
      // later ones — whichever daemon checkpoint is in flight dies
      // mid-image. (Daemon failures are retried, not surfaced.)
      std::atomic<int> writes{0};
      std::atomic<bool> tripped{false};
      db.buffer_pool()->pager()->SetFaultHook(
          [&](const char* op, uint32_t) -> int {
            if (std::string_view(op) != "page_write") return storage::kFaultNone;
            if (tripped.load()) return storage::kFaultFail;
            if (++writes == fail_at) {
              tripped.store(true);
              return static_cast<int>(storage::kPageSize / 2);
            }
            return storage::kFaultNone;
          });
      db.checkpoint_daemon()->Poke();
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      // Crash with the hook still armed.
    }
    Database db(DaemonOptions(path, /*daemon=*/false));
    ASSERT_TRUE(db.Open().ok());
    EXPECT_EQ(StateBlobOf(&db), ref);
  }
}

TEST_F(CheckpointDaemonTest, WalStaysBoundedUnderSustainedIngest) {
  DatabaseOptions opts;
  opts.path = NewPath("daemonbound");
  opts.wal.sync_mode = storage::WalOptions::SyncMode::kGroupCommit;
  opts.checkpointer.enabled = true;
  opts.checkpointer.wal_checkpoint_bytes = 256 * 1024;
  opts.checkpointer.poll_seconds = 0.001;
  Database db(opts);
  ASSERT_TRUE(db.Open().ok());
  auto t = db.catalog()->CreateTable(
      "kv", Schema({{"id", ColumnType::kInt64}, {"v", ColumnType::kText}}), 0);
  ASSERT_TRUE(t.ok());
  const std::string value(512, 'v');
  uint64_t peak = 0;
  for (int64_t i = 0; i < 4000; ++i) {
    ASSERT_TRUE((*t)->Insert(Row{i, value}).ok());
    peak = std::max(peak, db.wal()->tail_bytes());
  }
  // The tail transiently overshoots the threshold (poll latency, statements
  // in flight) but must stay within a small multiple of it — never grow
  // with the ingested volume (~2.3 MiB of rows here).
  EXPECT_LT(peak, 4 * opts.checkpointer.wal_checkpoint_bytes)
      << "WAL tail grew unbounded under ingest";
  ASSERT_NE(db.checkpoint_daemon(), nullptr);
  EXPECT_GE(db.checkpoint_daemon()->checkpoints_taken(), 2u);
  EXPECT_GE(db.checkpoint_epoch(), 2u);
  EXPECT_TRUE(db.checkpoint_daemon()->last_error().ok());
}

TEST_F(CheckpointDaemonTest, BatchBoundaryHandoffBoundsWalInsideBatches) {
  // Inside an update batch the daemon may not checkpoint; it requests one
  // at the batch boundary instead. Sustained batched ingest must therefore
  // checkpoint once per batch-ish, not never.
  DatabaseOptions opts;
  opts.path = NewPath("daemonbatch");
  opts.wal.sync_mode = storage::WalOptions::SyncMode::kGroupCommit;
  opts.checkpointer.enabled = true;
  opts.checkpointer.wal_checkpoint_bytes = 64 * 1024;
  opts.checkpointer.poll_seconds = 0.001;
  Database db(opts);
  ASSERT_TRUE(db.Open().ok());
  auto t = db.catalog()->CreateTable(
      "kv", Schema({{"id", ColumnType::kInt64}, {"v", ColumnType::kText}}), 0);
  ASSERT_TRUE(t.ok());
  const std::string value(512, 'v');
  int64_t id = 0;
  for (int batch = 0; batch < 8; ++batch) {
    db.BeginUpdateBatch();
    for (int i = 0; i < 400; ++i) {
      ASSERT_TRUE((*t)->Insert(Row{id++, value}).ok());
    }
    ASSERT_TRUE(db.EndUpdateBatch().ok());
  }
  // Each batch writes ~230 KiB of log against a 64 KiB threshold: the
  // boundary hand-off must have checkpointed several times.
  EXPECT_GE(db.checkpoint_epoch(), 3u);
  EXPECT_LT(db.wal()->tail_bytes(), 1024u * 1024u);
}

// Runs `fn` on its own thread and returns its status. Ends the test binary
// when `fn` does not return within `limit`: a deadlocked thread cannot be
// joined, so waiting for it would hang the suite instead of failing it.
Status ReturnsWithin(std::chrono::seconds limit, const std::function<Status()>& fn) {
  auto done = std::async(std::launch::async, fn);
  if (done.wait_for(limit) != std::future_status::ready) {
    std::fprintf(stderr, "statement did not return within %llds: deadlock\n",
                 static_cast<long long>(limit.count()));
    std::_Exit(1);
  }
  return done.get();
}

std::string InsertKv(int64_t id, const std::string& value) {
  return "INSERT INTO kv VALUES (" + std::to_string(id) + ", '" + value + "')";
}

TEST_F(CheckpointDaemonTest, SaturatingSqlWritersDoNotStarveCheckpoints) {
  // Four SQL sessions keep the statement mutex almost always held, so the
  // daemon's try_lock mostly fails. The hand-off must still land
  // checkpoints — each one delayed by at most the statement holding the
  // mutex — and keep the WAL tail bounded.
  DatabaseOptions opts;
  opts.path = NewPath("daemonsat");
  opts.wal.sync_mode = storage::WalOptions::SyncMode::kGroupCommit;
  opts.checkpointer.enabled = true;
  opts.checkpointer.wal_checkpoint_bytes = 256 * 1024;
  opts.checkpointer.poll_seconds = 0.001;
  Database db(opts);
  ASSERT_TRUE(db.Open().ok());
  ASSERT_TRUE(sql::Executor(&db).Execute("CREATE TABLE kv (id INT PRIMARY KEY, v TEXT)").ok());
  const uint64_t epoch0 = db.checkpoint_epoch();
  const std::string value(512, 'v');
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> peak{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&, t] {
      sql::Executor exec(&db);
      for (int64_t id = t; !stop.load(); id += 4) {
        Status s = exec.Execute(InsertKv(id, value)).status();
        if (!s.ok()) {
          ADD_FAILURE() << s.ToString();
          return;
        }
        const uint64_t tail = db.wal()->tail_bytes();
        uint64_t seen = peak.load();
        while (tail > seen && !peak.compare_exchange_weak(seen, tail)) {
        }
      }
    });
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (db.checkpoint_epoch() < epoch0 + 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  for (auto& w : writers) w.join();
  EXPECT_GE(db.checkpoint_epoch(), epoch0 + 3) << "checkpoints starved by writers";
  ASSERT_NE(db.checkpoint_daemon(), nullptr);
  EXPECT_GE(db.checkpoint_daemon()->checkpoints_taken(), 3u);
  EXPECT_TRUE(db.checkpoint_daemon()->last_error().ok());
  EXPECT_LT(peak.load(), 4 * opts.checkpointer.wal_checkpoint_bytes)
      << "WAL tail grew unbounded under ingest";
}

TEST_F(CheckpointDaemonTest, StoppingTheDaemonUnderIngestDoesNotDeadlock) {
  // VACUUM and PRAGMA checkpoint_daemon = off join the daemon thread while
  // holding the statement mutex. Both must return while the daemon keeps
  // triggering (tiny threshold) and another session ingests: a daemon that
  // blocked on the mutex would deadlock them.
  Database db(DaemonOptions(NewPath("daemonstop"), /*daemon=*/true));
  ASSERT_TRUE(db.Open().ok());
  sql::Executor admin(&db);
  ASSERT_TRUE(admin.Execute("CREATE TABLE kv (id INT PRIMARY KEY, v TEXT)").ok());
  std::atomic<bool> stop{false};
  std::atomic<int64_t> inserted{0};
  std::thread ingest([&] {
    sql::Executor exec(&db);
    for (int64_t id = 0; !stop.load(); ++id) {
      Status s = exec.Execute(InsertKv(id, "row")).status();
      if (!s.ok()) {
        ADD_FAILURE() << s.ToString();
        return;
      }
      inserted.fetch_add(1);
    }
  });
  auto ingest_for = [&](int64_t rows) {
    const int64_t target = inserted.load() + rows;
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (inserted.load() < target && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  };

  ingest_for(200);
  EXPECT_TRUE(ReturnsWithin(std::chrono::seconds(10), [&] {
                return admin.Execute("VACUUM;").status();
              }).ok());
  // The daemon restarts with the compacted file.
  EXPECT_NE(db.checkpoint_daemon(), nullptr);
  ingest_for(200);
  EXPECT_TRUE(ReturnsWithin(std::chrono::seconds(10), [&] {
                return admin.Execute("PRAGMA checkpoint_daemon = off;").status();
              }).ok());
  EXPECT_EQ(db.checkpoint_daemon(), nullptr);
  stop.store(true);
  ingest.join();
  auto count = admin.Execute("SELECT COUNT(*) FROM kv");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(std::get<int64_t>(count->rows[0][0]), inserted.load());
}

TEST_F(CheckpointDaemonTest, PragmaControlsDaemonAndWriter) {
  Database db(DaemonOptions(NewPath("daemonpragma"), /*daemon=*/false));
  ASSERT_TRUE(db.Open().ok());
  sql::Executor exec(&db);

  auto value_of = [&](const char* stmt) {
    auto rs = exec.Execute(stmt);
    EXPECT_TRUE(rs.ok()) << stmt;
    EXPECT_EQ(rs->rows.size(), 1u);
    return rs->rows[0][1];
  };

  // Daemon off by default here; PRAGMA turns it on, configures, and stops it.
  EXPECT_EQ(std::get<std::string>(value_of("PRAGMA checkpoint_daemon;")), "off");
  EXPECT_TRUE(exec.Execute("PRAGMA wal_checkpoint_bytes = 123456;").ok());
  EXPECT_TRUE(exec.Execute("PRAGMA checkpoint_daemon = on;").ok());
  ASSERT_NE(db.checkpoint_daemon(), nullptr);
  EXPECT_EQ(db.checkpoint_daemon()->options().wal_checkpoint_bytes, 123456u);
  EXPECT_EQ(std::get<std::string>(value_of("PRAGMA checkpoint_daemon;")), "on");
  EXPECT_TRUE(exec.Execute("PRAGMA checkpoint_daemon = off;").ok());
  EXPECT_EQ(db.checkpoint_daemon(), nullptr);

  // The background writer has no knobs: every eviction goes through its
  // write queue, so the old switch and batch size are unknown pragmas
  // (pragma names match case-insensitively).
  for (const char* stmt : {"PRAGMA BG_WRITER;", "PRAGMA BG_WRITER = off;",
                           "PRAGMA WRITER_BATCH_PAGES;",
                           "PRAGMA WRITER_BATCH_PAGES = 16;"}) {
    auto rs = exec.Execute(stmt);
    ASSERT_FALSE(rs.ok()) << stmt;
    EXPECT_NE(rs.status().message().find("unknown pragma"), std::string::npos)
        << stmt << ": " << rs.status().ToString();
  }

  // WAL durability knobs.
  EXPECT_EQ(std::get<std::string>(value_of("PRAGMA wal_sync;")), "every_commit");
  EXPECT_TRUE(exec.Execute("PRAGMA wal_sync = group_commit;").ok());
  EXPECT_TRUE(exec.Execute("PRAGMA group_commit_interval = 8;").ok());
  EXPECT_EQ(std::get<std::string>(value_of("PRAGMA wal_sync;")), "group_commit");
  EXPECT_EQ(std::get<int64_t>(value_of("PRAGMA group_commit_interval;")), 8);
  EXPECT_FALSE(exec.Execute("PRAGMA wal_sync = sometimes;").ok());
  EXPECT_FALSE(exec.Execute("PRAGMA no_such_knob = 1;").ok());
}

}  // namespace
}  // namespace hazy::engine
