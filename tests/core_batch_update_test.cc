// UpdateBatch equivalence: for every architecture (naive/hazy × MM/OD,
// hybrid) in both eager and lazy modes, applying a training stream in
// batches must leave the view answering every query exactly like a twin
// view that applied the same stream one example at a time — and the model
// itself must be bit-identical (same TrainStep order). Also covers the
// amortization the batch path exists for (fewer incremental steps) and the
// engine/trigger-queue batching in engine::Database.

#include <gtest/gtest.h>

#include <unistd.h>

#include <memory>
#include <set>
#include <vector>

#include "common/random.h"
#include "core/view_factory.h"
#include "data/synthetic.h"
#include "engine/database.h"
#include "features/feature_function.h"
#include "storage/pager.h"

namespace hazy::core {
namespace {

struct TestData {
  std::vector<Entity> entities;
  std::vector<ml::LabeledExample> stream;
};

TestData MakeDense(size_t n, uint64_t seed) {
  TestData out;
  data::DenseCorpusOptions opts;
  opts.num_entities = n;
  opts.dim = 12;
  opts.separation = 1.5;
  opts.seed = seed;
  auto pts = data::GenerateDenseCorpus(opts);
  auto examples = data::ToBinary(pts, 0);
  for (const auto& ex : examples) out.entities.push_back({ex.id, ex.features});
  out.stream = data::ShuffledStream(examples, seed + 1);
  return out;
}

class BatchUpdateTest : public ::testing::TestWithParam<std::tuple<Architecture, Mode>> {
 protected:
  void SetUp() override {
    path_ = storage::TempFilePath("batch_test");
    ASSERT_TRUE(pager_.Open(path_).ok());
    pool_ = std::make_unique<storage::BufferPool>(&pager_, 512);
  }
  void TearDown() override {
    pager_.Close().ok();
    ::unlink(path_.c_str());
  }

  ViewOptions Opts(Mode mode) {
    ViewOptions o;
    o.mode = mode;
    o.holder_p = 2.0;
    o.cost_model = CostModel::kTupleCount;
    o.hybrid_buffer_capacity = 64;
    return o;
  }

  std::unique_ptr<ClassificationView> Build(Architecture arch, Mode mode,
                                            const TestData& data) {
    auto v = MakeView(arch, Opts(mode), pool_.get());
    EXPECT_TRUE(v.ok()) << ArchitectureToString(arch);
    EXPECT_TRUE((*v)->BulkLoad(data.entities).ok());
    return std::move(*v);
  }

  // Every observable of `got` matches `want`.
  void ExpectAgreement(ClassificationView* got, ClassificationView* want,
                       const TestData& data, uint64_t seed) {
    auto want_members = want->AllMembers(1);
    auto got_members = got->AllMembers(1);
    ASSERT_TRUE(want_members.ok() && got_members.ok()) << got->name();
    EXPECT_EQ(std::set<int64_t>(got_members->begin(), got_members->end()),
              std::set<int64_t>(want_members->begin(), want_members->end()))
        << got->name();
    for (int label : {1, -1}) {
      auto want_n = want->AllMembersCount(label);
      auto got_n = got->AllMembersCount(label);
      ASSERT_TRUE(want_n.ok() && got_n.ok()) << got->name();
      EXPECT_EQ(*got_n, *want_n) << got->name();
    }
    Rng rng(seed);
    for (int i = 0; i < 25; ++i) {
      int64_t id = data.entities[rng.Uniform(data.entities.size())].id;
      auto want_label = want->SingleEntityRead(id);
      auto got_label = got->SingleEntityRead(id);
      ASSERT_TRUE(want_label.ok() && got_label.ok()) << got->name();
      EXPECT_EQ(*got_label, *want_label) << got->name() << " id " << id;
    }
    // Same TrainStep order => bit-identical models.
    ASSERT_EQ(got->model().w.size(), want->model().w.size());
    for (size_t i = 0; i < want->model().w.size(); ++i) {
      EXPECT_DOUBLE_EQ(got->model().w[i], want->model().w[i]) << got->name();
    }
    EXPECT_DOUBLE_EQ(got->model().b, want->model().b) << got->name();
  }

  std::string path_;
  storage::Pager pager_;
  std::unique_ptr<storage::BufferPool> pool_;
};

TEST_P(BatchUpdateTest, BatchedMatchesSequential) {
  const auto [arch, mode] = GetParam();
  TestData data = MakeDense(250, 17);
  auto sequential = Build(arch, mode, data);
  auto batched = Build(arch, mode, data);

  // Mixed batch sizes, including 1, crossing several reorganizations.
  const size_t sizes[] = {1, 7, 16, 3, 32, 64, 5};
  size_t offset = 0, size_idx = 0, rounds = 0;
  while (offset < data.stream.size() && rounds < 6) {
    size_t n = sizes[size_idx++ % (sizeof(sizes) / sizeof(sizes[0]))];
    if (offset + n > data.stream.size()) n = data.stream.size() - offset;
    Span<const ml::LabeledExample> batch(data.stream.data() + offset, n);
    for (const auto& ex : batch) {
      ASSERT_TRUE(sequential->Update(ex).ok()) << sequential->name();
    }
    ASSERT_TRUE(batched->UpdateBatch(batch).ok()) << batched->name();
    offset += n;
    ++rounds;
    ExpectAgreement(batched.get(), sequential.get(), data, 100 + rounds);
  }
  EXPECT_EQ(batched->stats().updates, sequential->stats().updates);
  EXPECT_EQ(batched->stats().batches, rounds);
}

TEST_P(BatchUpdateTest, EmptyBatchIsANoop) {
  const auto [arch, mode] = GetParam();
  TestData data = MakeDense(40, 5);
  auto v = Build(arch, mode, data);
  ViewStats before = v->stats();
  ASSERT_TRUE(v->UpdateBatch(Span<const ml::LabeledExample>()).ok());
  EXPECT_EQ(v->stats().updates, before.updates);
  EXPECT_EQ(v->stats().batches, before.batches);
}

TEST_P(BatchUpdateTest, BatchedThenEntityArrivalStaysConsistent) {
  const auto [arch, mode] = GetParam();
  TestData data = MakeDense(120, 23);
  std::vector<Entity> later(data.entities.end() - 20, data.entities.end());
  data.entities.resize(data.entities.size() - 20);
  auto sequential = Build(arch, mode, data);
  auto batched = Build(arch, mode, data);

  size_t offset = 0;
  for (const Entity& e : later) {
    size_t n = std::min<size_t>(11, data.stream.size() - offset);
    Span<const ml::LabeledExample> batch(data.stream.data() + offset, n);
    for (const auto& ex : batch) ASSERT_TRUE(sequential->Update(ex).ok());
    ASSERT_TRUE(batched->UpdateBatch(batch).ok());
    offset += n;
    ASSERT_TRUE(sequential->AddEntity(e).ok());
    ASSERT_TRUE(batched->AddEntity(e).ok());
    data.entities.push_back(e);
  }
  ExpectAgreement(batched.get(), sequential.get(), data, 77);
}

INSTANTIATE_TEST_SUITE_P(
    AllArchitecturesAndModes, BatchUpdateTest,
    ::testing::Combine(::testing::ValuesIn(kAllArchitectures),
                       ::testing::Values(Mode::kEager, Mode::kLazy)),
    [](const ::testing::TestParamInfo<BatchUpdateTest::ParamType>& info) {
      std::string name = ArchitectureToString(std::get<0>(info.param));
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name + (std::get<1>(info.param) == Mode::kEager ? "_eager" : "_lazy");
    });

// The point of batching: per-batch (not per-example) maintenance work.
TEST(BatchAmortizationTest, HazyMMDoesOneWindowPassPerBatch) {
  TestData data = MakeDense(600, 31);
  ViewOptions o;
  o.mode = Mode::kEager;
  o.holder_p = 2.0;
  o.cost_model = CostModel::kTupleCount;
  auto per_example = MakeView(Architecture::kHazyMM, o, nullptr);
  auto batched = MakeView(Architecture::kHazyMM, o, nullptr);
  ASSERT_TRUE(per_example.ok() && batched.ok());
  ASSERT_TRUE((*per_example)->BulkLoad(data.entities).ok());
  ASSERT_TRUE((*batched)->BulkLoad(data.entities).ok());

  const size_t kBatch = 32, kBatches = 8;
  for (size_t b = 0; b < kBatches; ++b) {
    Span<const ml::LabeledExample> batch(data.stream.data() + b * kBatch, kBatch);
    for (const auto& ex : batch) ASSERT_TRUE((*per_example)->Update(ex).ok());
    ASSERT_TRUE((*batched)->UpdateBatch(batch).ok());
  }
  // One incremental step (or reorg) per batch vs one per example.
  const ViewStats& ps = (*per_example)->stats();
  const ViewStats& bs = (*batched)->stats();
  EXPECT_EQ(ps.updates, bs.updates);
  EXPECT_LE(bs.incremental_steps + bs.reorgs, kBatches);
  EXPECT_EQ(ps.incremental_steps + ps.reorgs, kBatch * kBatches);
  EXPECT_LT(bs.window_tuples, ps.window_tuples);
}

TEST(BatchAmortizationTest, NaiveMMDoesOneRelabelPerBatch) {
  TestData data = MakeDense(300, 37);
  ViewOptions o;
  o.mode = Mode::kEager;
  o.holder_p = 2.0;
  auto v = MakeView(Architecture::kNaiveMM, o, nullptr);
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE((*v)->BulkLoad(data.entities).ok());
  Span<const ml::LabeledExample> batch(data.stream.data(), 50);
  ASSERT_TRUE((*v)->UpdateBatch(batch).ok());
  // One full-corpus relabel for the whole batch.
  EXPECT_EQ((*v)->stats().tuples_scanned, data.entities.size());
  EXPECT_EQ((*v)->stats().updates, 50u);
}

}  // namespace
}  // namespace hazy::core

// ---------------------------------------------------------------------------
// Engine-level update batches (one published epoch per batch and mid-batch
// read-your-writes are checked in engine_snapshot_test.cc).
// ---------------------------------------------------------------------------

namespace hazy::engine {
namespace {

using storage::ColumnType;
using storage::Row;
using storage::Schema;

class EngineBatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>();
    ASSERT_TRUE(db_->Open().ok());
    auto papers = db_->catalog()->CreateTable(
        "Papers", Schema({{"id", ColumnType::kInt64}, {"title", ColumnType::kText}}), 0);
    ASSERT_TRUE(papers.ok());
    papers_ = *papers;
    auto areas = db_->catalog()->CreateTable(
        "Paper_Area", Schema({{"label", ColumnType::kText}}), std::nullopt);
    ASSERT_TRUE(areas.ok());
    ASSERT_TRUE((*areas)->Insert(Row{std::string("DB")}).ok());
    ASSERT_TRUE((*areas)->Insert(Row{std::string("OTHER")}).ok());
    auto examples = db_->catalog()->CreateTable(
        "Example_Papers",
        Schema({{"id", ColumnType::kInt64}, {"label", ColumnType::kText}}), 0);
    ASSERT_TRUE(examples.ok());
    examples_ = *examples;
    const char* db_titles[] = {
        "query optimization in relational database systems",
        "transaction processing and concurrency control in databases",
        "materialized views maintenance in sql databases",
        "indexing btree storage engines database transactions"};
    const char* other_titles[] = {
        "protein folding pathways in molecular biology",
        "genome sequencing and protein structure biology",
        "cellular biology of protein interactions",
        "molecular dynamics of protein membranes"};
    int64_t id = 0;
    for (const char* t : db_titles) {
      ASSERT_TRUE(papers_->Insert(Row{id++, std::string(t)}).ok());
    }
    for (const char* t : other_titles) {
      ASSERT_TRUE(papers_->Insert(Row{id++, std::string(t)}).ok());
    }
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
    auto view = db_->CreateClassificationView(def);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    view_ = *view;
  }

  std::unique_ptr<Database> db_;
  storage::Table* papers_ = nullptr;
  storage::Table* examples_ = nullptr;
  ManagedView* view_ = nullptr;
};

TEST_F(EngineBatchTest, BatchedAndUnbatchedAgree) {
  // Feed the same stream batched here and unbatched into a twin database.
  auto twin = std::make_unique<Database>();
  ASSERT_TRUE(twin->Open().ok());
  auto papers = twin->catalog()->CreateTable(
      "Papers", Schema({{"id", ColumnType::kInt64}, {"title", ColumnType::kText}}), 0);
  auto areas = twin->catalog()->CreateTable(
      "Paper_Area", Schema({{"label", ColumnType::kText}}), std::nullopt);
  auto examples = twin->catalog()->CreateTable(
      "Example_Papers",
      Schema({{"id", ColumnType::kInt64}, {"label", ColumnType::kText}}), 0);
  ASSERT_TRUE(papers.ok() && areas.ok() && examples.ok());
  ASSERT_TRUE((*areas)->Insert(Row{std::string("DB")}).ok());
  ASSERT_TRUE((*areas)->Insert(Row{std::string("OTHER")}).ok());
  Status inner;
  ASSERT_TRUE(papers_->Scan([&](const Row& row) {
                inner = (*papers)->Insert(row);
                return inner.ok();
              }).ok());
  ASSERT_TRUE(inner.ok());
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
  auto twin_view = twin->CreateClassificationView(def);
  ASSERT_TRUE(twin_view.ok());

  const std::pair<int64_t, const char*> stream[] = {
      {0, "DB"}, {4, "OTHER"}, {1, "DB"}, {5, "OTHER"}, {2, "DB"}, {6, "OTHER"}};
  db_->BeginUpdateBatch();
  for (const auto& [id, label] : stream) {
    ASSERT_TRUE(examples_->Insert(Row{id, std::string(label)}).ok());
    ASSERT_TRUE((*examples)->Insert(Row{id, std::string(label)}).ok());
  }
  ASSERT_TRUE(db_->EndUpdateBatch().ok());

  for (int64_t id = 0; id < 8; ++id) {
    auto batched = view_->LabelOf(id);
    auto unbatched = (*twin_view)->LabelOf(id);
    ASSERT_TRUE(batched.ok() && unbatched.ok());
    EXPECT_EQ(*batched, *unbatched) << "id " << id;
  }
}

TEST_F(EngineBatchTest, UnbalancedEndIsRejected) {
  EXPECT_TRUE(db_->EndUpdateBatch().IsInvalidArgument());
}

}  // namespace
}  // namespace hazy::engine
