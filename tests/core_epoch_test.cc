// Unit tests for the epoch subsystem behind snapshot reads: the chunked
// immutable entity store, the writer-side builder (seal / reuse / compaction),
// the per-chunk eps columns that let All Members skip rescoring, and the
// manager's publish / pin / reclaim lifecycle.

#include "core/epoch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include "core/classifier_view.h"
#include "ml/model.h"
#include "ml/vector.h"

namespace hazy::core {
namespace {

Entity Ent(int64_t id, double x) {
  Entity e;
  e.id = id;
  e.features = ml::FeatureVector::Dense({x});
  return e;
}

// 1-d model: label(x) = sign(x - 5), sign(0) = +1.
ml::LinearModel Threshold5() {
  ml::LinearModel m;
  m.w = {1.0};
  m.b = 5.0;
  return m;
}

TEST(EpochEntityStoreTest, FindConsultsNewestChunkFirst) {
  auto old_chunk = MakeEpochChunk({Ent(1, 1.0), Ent(2, 2.0)});
  // Newer chunk re-defines id 2 (entity replaced in a later batch).
  auto new_chunk = MakeEpochChunk({Ent(2, 9.0), Ent(3, 3.0)});
  EpochEntityStore store({old_chunk, new_chunk});
  const Entity* e = store.Find(2);
  ASSERT_NE(e, nullptr);
  EXPECT_DOUBLE_EQ(e->features.Dot({1.0}), 9.0);
  EXPECT_NE(store.Find(1), nullptr);
  EXPECT_NE(store.Find(3), nullptr);
  EXPECT_EQ(store.Find(42), nullptr);
}

TEST(EpochSnapshotTest, AnswersMatchHandModel) {
  auto chunk = MakeEpochChunk(
      {Ent(1, 2.0), Ent(2, 5.0), Ent(3, 7.0), Ent(4, 4.0), Ent(5, 8.0)});
  auto store = std::make_shared<const EpochEntityStore>(
      std::vector<std::shared_ptr<const EpochChunk>>{chunk});
  EpochSnapshot snap(/*epoch=*/1, Threshold5(), store, ml::kInf);

  EXPECT_EQ(snap.num_entities(), 5u);
  // sign(2-5) = -1; sign(5-5) = sign(0) = +1 (paper convention); sign(7-5)=+1.
  auto l1 = snap.SingleEntityRead(1);
  auto l2 = snap.SingleEntityRead(2);
  auto l3 = snap.SingleEntityRead(3);
  ASSERT_TRUE(l1.ok() && l2.ok() && l3.ok());
  EXPECT_EQ(*l1, -1);
  EXPECT_EQ(*l2, +1);
  EXPECT_EQ(*l3, +1);
  EXPECT_FALSE(snap.SingleEntityRead(99).ok());

  auto pos = snap.AllMembers(+1);
  auto neg = snap.AllMembers(-1);
  ASSERT_TRUE(pos.ok() && neg.ok());
  EXPECT_EQ(*pos, (std::vector<int64_t>{2, 3, 5}));
  EXPECT_EQ(*neg, (std::vector<int64_t>{1, 4}));

  auto npos = snap.AllMembersCount(+1);
  auto nneg = snap.AllMembersCount(-1);
  ASSERT_TRUE(npos.ok() && nneg.ok());
  EXPECT_EQ(*npos, 3u);
  EXPECT_EQ(*nneg, 2u);
}

std::shared_ptr<const EpochEntityStore> StoreOf(std::vector<Entity> rows) {
  return std::make_shared<const EpochEntityStore>(
      std::vector<std::shared_ptr<const EpochChunk>>{
          MakeEpochChunk(std::move(rows))});
}

std::shared_ptr<const EpsColumn> ColumnOf(const EpochChunk& chunk) {
  return std::atomic_load(&chunk.eps_column);
}

// Answers by rescoring every entity, the reference the column must match.
std::vector<std::pair<int64_t, int8_t>> Rescored(const EpochSnapshot& snap) {
  std::vector<std::pair<int64_t, int8_t>> out;
  for (const auto& chunk : snap.store().chunks()) {
    for (const Entity& e : chunk->rows) {
      out.emplace_back(e.id,
                       static_cast<int8_t>(snap.model().Classify(e.features)));
    }
  }
  return out;
}

// Every read shape of `snap` against full rescoring.
void ExpectMatchesRescoring(const EpochSnapshot& snap) {
  const auto want = Rescored(snap);
  EXPECT_EQ(snap.LabeledEntities(), want);
  for (int label : {+1, -1}) {
    std::vector<int64_t> ids;
    for (const auto& [id, l] : want) {
      if (l == label) ids.push_back(id);
    }
    auto members = snap.AllMembers(label);
    auto count = snap.AllMembersCount(label);
    ASSERT_TRUE(members.ok() && count.ok());
    EXPECT_EQ(*members, ids) << "label " << label;
    EXPECT_EQ(*count, ids.size()) << "label " << label;
  }
}

// Random dense/sparse rows with small dyadic values, so dot products are
// exact and a model can put chosen rows at eps == 0.
std::vector<Entity> DyadicRows(std::mt19937_64* rng, size_t n, uint32_t d) {
  std::uniform_int_distribution<int> val(-16, 16);
  std::bernoulli_distribution sparse(0.3), keep(0.5);
  std::vector<Entity> rows;
  for (size_t i = 0; i < n; ++i) {
    Entity e;
    e.id = static_cast<int64_t>(i);
    if (sparse(*rng)) {
      std::vector<uint32_t> idx;
      std::vector<double> vals;
      for (uint32_t j = 0; j < d; ++j) {
        if (keep(*rng)) {
          idx.push_back(j);
          vals.push_back(val(*rng) / 4.0);
        }
      }
      e.features = ml::FeatureVector::Sparse(std::move(idx), std::move(vals), d);
    } else {
      std::vector<double> vals(d);
      for (double& v : vals) v = val(*rng) / 4.0;
      e.features = ml::FeatureVector::Dense(std::move(vals));
    }
    rows.push_back(std::move(e));
  }
  return rows;
}

class EpsColumnDriftTest : public ::testing::TestWithParam<double> {};

// Random model drift across a chain of epochs over one shared store: each
// read labels from the column built by an earlier epoch (or rebuilds it),
// and must agree with full rescoring on every row, including rows pinned
// at eps == 0 (sign(0) = +1) and epochs that republish an identical model
// (δ = 0, a different model object).
TEST_P(EpsColumnDriftTest, ColumnAnswersEqualFullRescoring) {
  const double holder_p = GetParam();
  std::mt19937_64 rng(7);
  constexpr uint32_t kDim = 8;
  const std::vector<Entity> rows = DyadicRows(&rng, 600, kDim);
  auto store = StoreOf(rows);
  std::uniform_int_distribution<int> step(-3, 3);
  std::uniform_int_distribution<size_t> pick(0, rows.size() - 1);
  std::uniform_int_distribution<int> kind(0, 3);

  ml::LinearModel model;
  model.w.assign(kDim, 0.5);
  model.b = 0.25;
  for (uint64_t epoch = 1; epoch <= 60; ++epoch) {
    switch (kind(rng)) {
      case 0:  // δ = 0: the same model values in a new epoch
        break;
      case 1:  // put one row exactly on the hyperplane
        model.b = model.Eps(rows[pick(rng)].features) + model.b;
        break;
      default:  // small drift of w and b
        for (double& w : model.w) w += step(rng) / 64.0;
        model.b += step(rng) / 32.0;
        break;
    }
    EpochSnapshot snap(epoch, model, store, holder_p);
    ExpectMatchesRescoring(snap);
    // A second read of the same epoch answers from the stored eps alone
    // when the first one left a column under this very model.
    ScanCounts counts;
    ASSERT_TRUE(snap.AllMembersCount(+1, &counts).ok());
    EXPECT_EQ(counts.scored + counts.by_bounds, rows.size());
  }
}

// Real-valued (non-dyadic) sparse rows in a weight space far wider than any
// row, so every dot product and every ‖δw‖_p rounds, and drift steps down
// to the scale of that rounding.
TEST_P(EpsColumnDriftTest, SparseRealRowsInWideSpace) {
  const double holder_p = GetParam();
  std::mt19937_64 rng(13);
  constexpr uint32_t kDim = 4096;
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  std::uniform_int_distribution<uint32_t> dim(0, kDim - 1);
  std::uniform_int_distribution<int> nnz(1, 4);
  std::vector<Entity> rows;
  for (int64_t id = 0; id < 800; ++id) {
    std::vector<uint32_t> idx;
    for (int k = nnz(rng); k > 0; --k) idx.push_back(dim(rng));
    std::sort(idx.begin(), idx.end());
    idx.erase(std::unique(idx.begin(), idx.end()), idx.end());
    std::vector<double> vals;
    for (size_t k = 0; k < idx.size(); ++k) vals.push_back(unit(rng));
    Entity e;
    e.id = id;
    e.features = ml::FeatureVector::Sparse(std::move(idx), std::move(vals), kDim);
    rows.push_back(std::move(e));
  }
  auto store = StoreOf(rows);
  std::uniform_int_distribution<size_t> pick(0, rows.size() - 1);
  std::uniform_int_distribution<int> kind(0, 4);
  const double kScales[] = {1e-3, 1e-9, 1e-14};

  ml::LinearModel model;
  for (uint32_t j = 0; j < kDim; ++j) model.w.push_back(unit(rng));
  model.b = unit(rng) / 3.0;
  for (uint64_t epoch = 1; epoch <= 40; ++epoch) {
    const int k = kind(rng);
    if (k == 0) {
      // δ = 0: the same model values in a new epoch
    } else if (k == 1) {
      model.b = rows[pick(rng)].features.Dot(model.w);  // one row at eps 0
    } else {
      const double scale = kScales[k - 2];
      for (double& w : model.w) w += scale * unit(rng);
      model.b += scale * unit(rng);
    }
    EpochSnapshot snap(epoch, model, store, holder_p);
    ExpectMatchesRescoring(snap);
  }
}

INSTANTIATE_TEST_SUITE_P(HolderNorms, EpsColumnDriftTest,
                         ::testing::Values(ml::kInf, 2.0, 1.0));

TEST(EpsColumnTest, ZeroEpsRowsKeepPositiveLabelUnderZeroDrift) {
  // Rows at eps == 0 and one ulp above and below it.
  auto store = StoreOf({Ent(1, 5.0), Ent(2, std::nextafter(5.0, 10.0)),
                        Ent(3, std::nextafter(5.0, 0.0)), Ent(4, 9.0),
                        Ent(5, 1.0)});
  EpochSnapshot first(1, Threshold5(), store, ml::kInf);
  ExpectMatchesRescoring(first);
  EpochSnapshot same(2, Threshold5(), store, ml::kInf);  // δ = 0, db = 0
  ScanCounts counts;
  auto pos = same.AllMembers(+1, &counts);
  ASSERT_TRUE(pos.ok());
  EXPECT_EQ(*pos, (std::vector<int64_t>{1, 2, 4}));
  // Only the rows within the rounding slack of 0 were rescored.
  EXPECT_EQ(counts.scored, 3u);
  EXPECT_EQ(counts.by_bounds, 2u);
}

TEST(EpsColumnTest, RebuildsExactlyWhenWindowsReachChunkRows) {
  // x = 0..99 under w = 1, b = 50: eps = x − 50. Moving to w = 1.05,
  // b = 50.5 gives M·‖δw‖ = 99 · 0.05 = 4.95 and db = 0.5, so the window
  // is eps ∈ [−4.45, 5.45): 10 rows.
  std::vector<Entity> rows;
  for (int i = 0; i < 100; ++i) rows.push_back(Ent(i, i));
  auto store = StoreOf(rows);
  const EpochChunk& chunk = *store->chunks()[0];
  ml::LinearModel m0;
  m0.w = {1.0};
  m0.b = 50.0;
  ml::LinearModel m1;
  m1.w = {1.05};
  m1.b = 50.5;

  EpochSnapshot s0(1, m0, store, ml::kInf);
  ScanCounts c0;
  ASSERT_TRUE(s0.AllMembersCount(+1, &c0).ok());
  EXPECT_EQ(c0.scored, 100u);  // the first read builds the column
  auto built = ColumnOf(chunk);
  ASSERT_NE(built, nullptr);
  EXPECT_EQ(built->model.get(), &s0.model());

  EpochSnapshot s1(2, m1, store, ml::kInf);
  for (int read = 1; read <= 9; ++read) {
    ScanCounts c;
    ASSERT_TRUE(s1.AllMembersCount(+1, &c).ok());
    EXPECT_EQ(c.scored, 10u) << "read " << read;
    EXPECT_EQ(c.by_bounds, 90u) << "read " << read;
    EXPECT_EQ(ColumnOf(chunk), built) << "rebuilt early at read " << read;
  }
  // 9 · 10 = 90 < 100 rows; the 10th window brings the sum to exactly a
  // rebuild's cost.
  ScanCounts c10;
  ASSERT_TRUE(s1.AllMembersCount(+1, &c10).ok());
  EXPECT_EQ(c10.scored, 100u);
  auto rebuilt = ColumnOf(chunk);
  ASSERT_NE(rebuilt, built);
  EXPECT_EQ(rebuilt->model.get(), &s1.model());
  EXPECT_EQ(rebuilt->max_norm_q, built->max_norm_q);

  ScanCounts c11;
  ASSERT_TRUE(s1.AllMembersCount(+1, &c11).ok());
  EXPECT_EQ(c11.scored, 0u);
  EXPECT_EQ(c11.by_bounds, 100u);
  ExpectMatchesRescoring(s1);
  ExpectMatchesRescoring(s0);
}

TEST(EpsColumnTest, UpdateOnlyEpochsReuseColumnNewChunksBuildTheirOwn) {
  EpochStoreBuilder builder;
  std::vector<Entity> bulk;
  for (int i = 0; i < 1000; ++i) bulk.push_back(Ent(i, i / 100.0));
  builder.ReplaceAll(std::move(bulk));
  ml::LinearModel m = Threshold5();

  auto s1 = std::make_shared<EpochSnapshot>(1, m, builder.Seal(), ml::kInf);
  ExpectMatchesRescoring(*s1);
  const auto head = s1->store().chunks()[0];
  const auto head_col = ColumnOf(*head);
  ASSERT_NE(head_col, nullptr);

  // An update-only batch: new model, same store and chunk.
  m.b = 5.001;
  auto s2 = std::make_shared<EpochSnapshot>(2, m, builder.Seal(), ml::kInf);
  ASSERT_EQ(&s2->store(), &s1->store());
  ScanCounts c2;
  ASSERT_TRUE(s2->AllMembersCount(+1, &c2).ok());
  EXPECT_EQ(ColumnOf(*head), head_col) << "update-only epoch rebuilt the column";
  EXPECT_LT(c2.scored, 10u);
  ExpectMatchesRescoring(*s2);

  // An appended batch seals a chunk of its own; the head keeps its column.
  for (int i = 1000; i < 1010; ++i) builder.Append(Ent(i, 4.0 + (i % 3)));
  auto s3 = std::make_shared<EpochSnapshot>(3, m, builder.Seal(), ml::kInf);
  ASSERT_EQ(s3->store().chunks().size(), 2u);
  const auto tail = s3->store().chunks()[1];
  EXPECT_EQ(s3->store().chunks()[0], head);
  EXPECT_EQ(ColumnOf(*tail), nullptr);
  ScanCounts c3;
  ASSERT_TRUE(s3->AllMembersCount(-1, &c3).ok());
  EXPECT_EQ(ColumnOf(*head), head_col);
  ASSERT_NE(ColumnOf(*tail), nullptr);
  EXPECT_EQ(ColumnOf(*tail)->model.get(), &s3->model());
  EXPECT_EQ(c3.scored, c2.scored + tail->rows.size());
  ExpectMatchesRescoring(*s3);

  // A second equal-sized append merges the tail into a fresh chunk, which
  // starts without a column and builds its own on the next read.
  for (int i = 1010; i < 1020; ++i) builder.Append(Ent(i, 6.0));
  auto s4 = std::make_shared<EpochSnapshot>(4, m, builder.Seal(), ml::kInf);
  ASSERT_EQ(s4->store().chunks().size(), 2u);
  const auto merged = s4->store().chunks()[1];
  EXPECT_NE(merged, tail);
  EXPECT_EQ(merged->rows.size(), 20u);
  EXPECT_EQ(ColumnOf(*merged), nullptr);
  ExpectMatchesRescoring(*s4);
  ASSERT_NE(ColumnOf(*merged), nullptr);
  EXPECT_EQ(ColumnOf(*merged)->model.get(), &s4->model());
  EXPECT_EQ(ColumnOf(*head), head_col);
}

TEST(EpsColumnTest, ConcurrentReadersRaceRebuilds) {
  std::mt19937_64 rng(11);
  auto store = StoreOf(DyadicRows(&rng, 4000, 6));
  // Epochs whose models drift far enough apart that every reader keeps
  // crossing the Skiing line and rebuilding columns the others read.
  std::vector<std::shared_ptr<const EpochSnapshot>> snaps;
  ml::LinearModel m;
  m.w.assign(6, 0.25);
  std::uniform_int_distribution<int> step(-4, 4);
  for (uint64_t e = 1; e <= 8; ++e) {
    for (double& w : m.w) w += step(rng) / 16.0;
    m.b = step(rng) / 8.0;
    snaps.push_back(std::make_shared<const EpochSnapshot>(e, m, store, ml::kInf));
  }
  std::vector<std::vector<std::pair<int64_t, int8_t>>> want;
  for (const auto& s : snaps) want.push_back(Rescored(*s));

  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      for (int i = 0; i < 40; ++i) {
        const size_t k = static_cast<size_t>(t + i) % snaps.size();
        if (snaps[k]->LabeledEntities() != want[k]) ++mismatches;
      }
    });
  }
  for (auto& r : readers) r.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(EpochStoreBuilderTest, SealReusesStoreWhenClean) {
  EpochStoreBuilder builder;
  // Seed a chunk big enough that the tiered-merge policy leaves it alone
  // when a small append follows (3 > kMergeFactor x 1).
  builder.Append(Ent(1, 1.0));
  builder.Append(Ent(2, 2.0));
  builder.Append(Ent(3, 3.0));
  EXPECT_TRUE(builder.dirty());
  auto s1 = builder.Seal();
  EXPECT_FALSE(builder.dirty());
  // An update-only batch (no entity changes) republishes the same store.
  auto s2 = builder.Seal();
  EXPECT_EQ(s1.get(), s2.get());
  // A new append produces a new store sharing the earlier chunk.
  builder.Append(Ent(4, 4.0));
  EXPECT_TRUE(builder.dirty());
  auto s3 = builder.Seal();
  EXPECT_NE(s3.get(), s1.get());
  EXPECT_EQ(s3->size(), 4u);
  ASSERT_GE(s3->chunks().size(), 2u);
  EXPECT_EQ(s3->chunks()[0].get(), s1->chunks()[0].get())
      << "append batches must share earlier sealed chunks, not copy them";
}

TEST(EpochStoreBuilderTest, ReplaceAllDropsHistory) {
  EpochStoreBuilder builder;
  builder.Append(Ent(1, 1.0));
  builder.Seal();
  builder.ReplaceAll({Ent(10, 1.0), Ent(11, 2.0)});
  auto s = builder.Seal();
  EXPECT_EQ(s->size(), 2u);
  EXPECT_EQ(s->Find(1), nullptr);
  EXPECT_NE(s->Find(10), nullptr);
}

TEST(EpochStoreBuilderTest, LongAppendStreamCompactsChunks) {
  EpochStoreBuilder builder;
  // 64 one-entity batches: without merging the store would accumulate 64
  // chunks and per-lookup cost would degrade linearly in batch count.
  for (int i = 0; i < 64; ++i) {
    builder.Append(Ent(i, static_cast<double>(i)));
    builder.Seal();
  }
  auto s = builder.Seal();
  EXPECT_EQ(s->size(), 64u);
  EXPECT_LE(s->chunks().size(), 16u);
  for (int i = 0; i < 64; ++i) {
    ASSERT_NE(s->Find(i), nullptr) << "lost entity " << i << " in compaction";
  }
}

TEST(EpochStoreBuilderTest, SingleRowStreamNeverRecopiesLargeHeadChunk) {
  // Regression for the O(N^2) full-compaction policy: a big sealed run must
  // stay shared while a stream of single-row publishes merges only among
  // the small tail chunks (geometric size invariant).
  EpochStoreBuilder builder;
  std::vector<Entity> bulk;
  for (int i = 0; i < 4096; ++i) bulk.push_back(Ent(i, static_cast<double>(i)));
  builder.ReplaceAll(std::move(bulk));
  auto base = builder.Seal();
  auto head = base->chunks()[0];
  for (int i = 4096; i < 4096 + 512; ++i) {
    builder.Append(Ent(i, static_cast<double>(i)));
    auto s = builder.Seal();
    ASSERT_EQ(s->chunks()[0].get(), head.get())
        << "publish " << i - 4096 << " recopied the 4096-row head chunk";
    // Chunk count stays logarithmic in the appended rows, not linear.
    ASSERT_LE(s->chunks().size(), 16u);
  }
  auto s = builder.Seal();
  EXPECT_EQ(s->size(), 4096u + 512u);
  EXPECT_NE(s->Find(4096 + 511), nullptr);
  EXPECT_NE(s->Find(0), nullptr);
}

TEST(EpochManagerTest, PinBeforePublishIsEmpty) {
  EpochManager mgr;
  EXPECT_FALSE(mgr.HasPublished());
  SnapshotPin pin = mgr.Pin();
  EXPECT_FALSE(pin);
}

TEST(EpochManagerTest, PinnedEpochSurvivesUntilLastUnpin) {
  EpochManager mgr;
  EpochStoreBuilder builder;
  builder.Append(Ent(1, 1.0));
  mgr.Publish(Threshold5(), builder.Seal(), ml::kInf);
  ASSERT_TRUE(mgr.HasPublished());
  EXPECT_EQ(mgr.latest_epoch(), 1u);

  SnapshotPin a = mgr.Pin();
  SnapshotPin b = mgr.Pin();
  ASSERT_TRUE(a);
  ASSERT_TRUE(b);
  EXPECT_EQ(a->epoch(), 1u);

  // Retire epoch 1 twice over; both pins still hold it live.
  builder.Append(Ent(2, 6.0));
  mgr.Publish(Threshold5(), builder.Seal(), ml::kInf);
  mgr.Publish(Threshold5(), builder.Seal(), ml::kInf);
  EXPECT_EQ(mgr.latest_epoch(), 3u);
  EXPECT_TRUE(mgr.IsLive(1));
  // Epoch 2 had no pins: retired-and-unpinned epochs reclaim eagerly.
  EXPECT_FALSE(mgr.IsLive(2));
  EXPECT_EQ(mgr.reclaimed_total(), 1u);

  // Pinned readers keep answering from their epoch, not the latest.
  EXPECT_EQ(a->num_entities(), 1u);

  a.Release();
  EXPECT_TRUE(mgr.IsLive(1)) << "reclaimed while a pin was still held";
  b.Release();
  EXPECT_FALSE(mgr.IsLive(1));
  EXPECT_EQ(mgr.reclaimed_total(), 2u);
  EXPECT_EQ(mgr.live_epochs(), 1u);  // only the latest remains
  EXPECT_TRUE(mgr.IsLive(3));
}

TEST(EpochManagerTest, MovedFromPinDoesNotDoubleUnpin) {
  EpochManager mgr;
  EpochStoreBuilder builder;
  builder.Append(Ent(1, 1.0));
  mgr.Publish(Threshold5(), builder.Seal(), ml::kInf);

  SnapshotPin a = mgr.Pin();
  SnapshotPin b = std::move(a);
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): moved-from is empty
  ASSERT_TRUE(b);
  mgr.Publish(Threshold5(), builder.Seal(), ml::kInf);
  a.Release();  // releasing the hollow pin must be a no-op
  EXPECT_TRUE(mgr.IsLive(1));
  b.Release();
  EXPECT_FALSE(mgr.IsLive(1));
}

}  // namespace
}  // namespace hazy::core
