// Tests for HeapFile: CRUD, scans, chaining, overflow (TOAST-style) records.

#include <gtest/gtest.h>

#include <unistd.h>

#include <map>
#include <string>

#include "common/random.h"
#include "storage/heap_file.h"

namespace hazy::storage {
namespace {

class HeapFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TempFilePath("heap_test");
    ASSERT_TRUE(pager_.Open(path_).ok());
    pool_ = std::make_unique<BufferPool>(&pager_, 64);
    heap_ = std::make_unique<HeapFile>(pool_.get());
    ASSERT_TRUE(heap_->Create().ok());
  }
  void TearDown() override {
    pager_.Close().ok();
    ::unlink(path_.c_str());
  }
  std::string path_;
  Pager pager_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<HeapFile> heap_;
};

TEST_F(HeapFileTest, AppendGetRoundTrip) {
  auto rid = heap_->Append("hello heap");
  ASSERT_TRUE(rid.ok());
  std::string out;
  ASSERT_TRUE(heap_->Get(*rid, &out).ok());
  EXPECT_EQ(out, "hello heap");
  EXPECT_EQ(heap_->num_records(), 1u);
}

TEST_F(HeapFileTest, GetMissingRecordIsNotFound) {
  auto rid = heap_->Append("x");
  ASSERT_TRUE(rid.ok());
  std::string out;
  Rid bogus{rid->page_id, 77};
  EXPECT_TRUE(heap_->Get(bogus, &out).IsNotFound());
}

TEST_F(HeapFileTest, SpillsAcrossPages) {
  std::string rec(1000, 'r');
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(heap_->Append(rec).ok());
  }
  EXPECT_GT(heap_->num_pages(), 1u);
  EXPECT_EQ(heap_->num_records(), 50u);
  // Scan sees everything exactly once.
  int seen = 0;
  ASSERT_TRUE(heap_->Scan([&](Rid, std::string_view r) {
    EXPECT_EQ(r.size(), 1000u);
    ++seen;
    return true;
  }).ok());
  EXPECT_EQ(seen, 50);
}

TEST_F(HeapFileTest, PatchMutatesInPlace) {
  auto rid = heap_->Append("0123456789");
  ASSERT_TRUE(rid.ok());
  ASSERT_TRUE(heap_->Patch(*rid, [](char* p, size_t n) {
    ASSERT_EQ(n, 10u);
    p[0] = 'X';
  }).ok());
  std::string out;
  ASSERT_TRUE(heap_->Get(*rid, &out).ok());
  EXPECT_EQ(out, "X123456789");
}

TEST_F(HeapFileTest, DeleteRemovesRecord) {
  auto r0 = heap_->Append("keep");
  auto r1 = heap_->Append("drop");
  ASSERT_TRUE(r0.ok() && r1.ok());
  ASSERT_TRUE(heap_->Delete(*r1).ok());
  EXPECT_EQ(heap_->num_records(), 1u);
  std::string out;
  EXPECT_TRUE(heap_->Get(*r1, &out).IsNotFound());
  int seen = 0;
  ASSERT_TRUE(heap_->Scan([&](Rid, std::string_view) {
    ++seen;
    return true;
  }).ok());
  EXPECT_EQ(seen, 1);
}

// Append reuses the tail page's deleted cells before it extends the chain,
// so a table whose rows are replaced one at a time stays one page long.
TEST_F(HeapFileTest, AppendReclaimsDeletedTailCells) {
  const std::string rec(3000, 'r');
  auto live = heap_->Append(rec);
  ASSERT_TRUE(live.ok());
  for (int i = 0; i < 20; ++i) {
    auto next = heap_->Append(rec);
    ASSERT_TRUE(next.ok());
    ASSERT_TRUE(heap_->Delete(*live).ok());
    live = next;
  }
  EXPECT_EQ(heap_->num_pages(), 1u);
  EXPECT_EQ(heap_->num_records(), 1u);
  std::string out;
  ASSERT_TRUE(heap_->Get(*live, &out).ok());
  EXPECT_EQ(out, rec);
}

TEST_F(HeapFileTest, ScanEarlyStop) {
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(heap_->Append("r").ok());
  int seen = 0;
  ASSERT_TRUE(heap_->Scan([&](Rid, std::string_view) {
    ++seen;
    return seen < 3;
  }).ok());
  EXPECT_EQ(seen, 3);
}

TEST_F(HeapFileTest, TruncateResets) {
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(heap_->Append(std::string(500, 'a')).ok());
  uint64_t pages_before = heap_->num_pages();
  ASSERT_TRUE(heap_->Truncate().ok());
  EXPECT_EQ(heap_->num_records(), 0u);
  EXPECT_EQ(heap_->num_pages(), 1u);
  // Freed pages are recycled, so re-filling does not grow the file.
  uint32_t file_pages = pager_.num_pages();
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(heap_->Append(std::string(500, 'b')).ok());
  EXPECT_EQ(heap_->num_pages(), pages_before);
  EXPECT_EQ(pager_.num_pages(), file_pages);
}

// --- Overflow (TOAST-style) records -------------------------------------

TEST_F(HeapFileTest, OverflowRecordRoundTrip) {
  std::string big(3 * kPageSize, '\0');
  for (size_t i = 0; i < big.size(); ++i) big[i] = static_cast<char>('a' + (i % 26));
  auto rid = heap_->Append(big);
  ASSERT_TRUE(rid.ok());
  std::string out;
  ASSERT_TRUE(heap_->Get(*rid, &out).ok());
  EXPECT_EQ(out, big);
}

TEST_F(HeapFileTest, OverflowHeadIsPatchable) {
  std::string big(2 * kPageSize, 'q');
  auto rid = heap_->Append(big);
  ASSERT_TRUE(rid.ok());
  ASSERT_TRUE(heap_->Patch(*rid, [](char* p, size_t n) {
    // Overflow patches see the inline head only.
    ASSERT_EQ(n, HeapFile::kOverflowHeadLen);
    p[0] = 'Z';
  }).ok());
  std::string out;
  ASSERT_TRUE(heap_->Get(*rid, &out).ok());
  EXPECT_EQ(out[0], 'Z');
  EXPECT_EQ(out[HeapFile::kOverflowHeadLen], 'q');  // payload intact
  EXPECT_EQ(out.size(), big.size());
}

TEST_F(HeapFileTest, OverflowScanMaterializes) {
  std::string big(kPageSize + 500, 'm');
  ASSERT_TRUE(heap_->Append("small").ok());
  ASSERT_TRUE(heap_->Append(big).ok());
  ASSERT_TRUE(heap_->Append("small2").ok());
  std::vector<size_t> sizes;
  ASSERT_TRUE(heap_->Scan([&](Rid, std::string_view r) {
    sizes.push_back(r.size());
    return true;
  }).ok());
  ASSERT_EQ(sizes.size(), 3u);
  EXPECT_EQ(sizes[0], 5u);
  EXPECT_EQ(sizes[1], big.size());
  EXPECT_EQ(sizes[2], 6u);
}

TEST_F(HeapFileTest, OverflowDeleteFreesChain) {
  std::string big(4 * kPageSize, 'd');
  auto rid = heap_->Append(big);
  ASSERT_TRUE(rid.ok());
  uint64_t pages_with = heap_->num_pages();
  size_t free_before = pager_.free_list_size();
  ASSERT_TRUE(heap_->Delete(*rid).ok());
  EXPECT_LT(heap_->num_pages(), pages_with);
  EXPECT_GT(pager_.free_list_size(), free_before);
}

TEST_F(HeapFileTest, MixedSizesPropertyRoundTrip) {
  // Property: a random mix of inline and overflow records all round-trip.
  hazy::Rng rng(99);
  std::map<uint64_t, std::string> expect;  // packed rid -> payload
  for (int i = 0; i < 200; ++i) {
    size_t len = 1 + rng.Uniform(3 * kPageSize);
    std::string rec(len, '\0');
    for (auto& ch : rec) ch = static_cast<char>('A' + rng.Uniform(26));
    auto rid = heap_->Append(rec);
    ASSERT_TRUE(rid.ok());
    expect[rid->Pack()] = std::move(rec);
  }
  for (const auto& [packed, want] : expect) {
    std::string got;
    ASSERT_TRUE(heap_->Get(Rid::Unpack(packed), &got).ok());
    EXPECT_EQ(got, want);
  }
  // And the scan agrees with point reads.
  size_t seen = 0;
  ASSERT_TRUE(heap_->Scan([&](Rid rid, std::string_view r) {
    auto it = expect.find(rid.Pack());
    EXPECT_NE(it, expect.end());
    EXPECT_EQ(std::string(r), it->second);
    ++seen;
    return true;
  }).ok());
  EXPECT_EQ(seen, expect.size());
}

TEST_F(HeapFileTest, DestroyFreesEverything) {
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(heap_->Append(std::string(2 * kPageSize, 'x')).ok());
  }
  ASSERT_TRUE(heap_->Destroy().ok());
  EXPECT_EQ(heap_->num_pages(), 0u);
  // Everything the heap allocated is back on the free list.
  EXPECT_EQ(pager_.free_list_size(), pager_.num_pages());
}

}  // namespace
}  // namespace hazy::storage
