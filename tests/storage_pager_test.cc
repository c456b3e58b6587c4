// Tests for the file-backed pager.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>

#include "storage/pager.h"

namespace hazy::storage {
namespace {

class PagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TempFilePath("pager_test");
    ASSERT_TRUE(pager_.Open(path_).ok());
  }
  void TearDown() override {
    if (pager_.is_open()) pager_.Close().ok();
    ::unlink(path_.c_str());
  }
  std::string path_;
  Pager pager_;
};

TEST_F(PagerTest, AllocateGrowsSequentially) {
  auto p0 = pager_.Allocate();
  auto p1 = pager_.Allocate();
  ASSERT_TRUE(p0.ok());
  ASSERT_TRUE(p1.ok());
  EXPECT_EQ(*p0, 0u);
  EXPECT_EQ(*p1, 1u);
  EXPECT_EQ(pager_.num_pages(), 2u);
}

TEST_F(PagerTest, FailedAllocateGivesItsPageIdBack) {
  ASSERT_TRUE(pager_.Allocate().ok());  // page 0
  pager_.SetFaultHook([](const char* op, uint32_t) {
    return std::strcmp(op, "page_write") == 0 ? kFaultFail : kFaultNone;
  });
  EXPECT_FALSE(pager_.Allocate().ok());
  EXPECT_EQ(pager_.num_pages(), 1u);
  pager_.SetFaultHook(nullptr);
  auto pid = pager_.Allocate();
  ASSERT_TRUE(pid.ok()) << pid.status().ToString();
  EXPECT_EQ(*pid, 1u);
  EXPECT_EQ(pager_.num_pages(), 2u);
}

TEST_F(PagerTest, WriteReadRoundTrip) {
  auto pid = pager_.Allocate();
  ASSERT_TRUE(pid.ok());
  char out[kPageSize];
  std::memset(out, 0xAB, kPageSize);
  ASSERT_TRUE(pager_.Write(*pid, out).ok());
  char in[kPageSize];
  ASSERT_TRUE(pager_.Read(*pid, in).ok());
  EXPECT_EQ(std::memcmp(out, in, kPageSize), 0);
}

TEST_F(PagerTest, FreshPagesAreZeroed) {
  auto pid = pager_.Allocate();
  ASSERT_TRUE(pid.ok());
  char in[kPageSize];
  ASSERT_TRUE(pager_.Read(*pid, in).ok());
  for (size_t i = 0; i < kPageSize; ++i) ASSERT_EQ(in[i], 0);
}

TEST_F(PagerTest, ReadPastEndFails) {
  char in[kPageSize];
  Status s = pager_.Read(5, in);
  EXPECT_TRUE(s.IsOutOfRange());
}

TEST_F(PagerTest, FreeListRecyclesPages) {
  auto p0 = pager_.Allocate();
  auto p1 = pager_.Allocate();
  ASSERT_TRUE(p0.ok() && p1.ok());
  pager_.Free(*p0);
  EXPECT_EQ(pager_.free_list_size(), 1u);
  auto p2 = pager_.Allocate();
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(*p2, *p0);  // recycled, file did not grow
  EXPECT_EQ(pager_.num_pages(), 2u);
}

TEST_F(PagerTest, StatsCount) {
  auto pid = pager_.Allocate();
  ASSERT_TRUE(pid.ok());
  char buf[kPageSize] = {};
  ASSERT_TRUE(pager_.Write(*pid, buf).ok());
  ASSERT_TRUE(pager_.Read(*pid, buf).ok());
  EXPECT_GE(pager_.stats().writes, 2u);  // alloc zero-fill + explicit write
  EXPECT_EQ(pager_.stats().reads, 1u);
  EXPECT_EQ(pager_.stats().allocs, 1u);
}

TEST_F(PagerTest, SyncSucceeds) { EXPECT_TRUE(pager_.Sync().ok()); }

TEST_F(PagerTest, OperationsAfterCloseFail) {
  ASSERT_TRUE(pager_.Close().ok());
  char buf[kPageSize];
  EXPECT_FALSE(pager_.Read(0, buf).ok());
  EXPECT_FALSE(pager_.Allocate().ok());
}

TEST(PagerStandaloneTest, DoubleOpenFails) {
  Pager p;
  std::string path = TempFilePath("pager_double");
  ASSERT_TRUE(p.Open(path).ok());
  EXPECT_FALSE(p.Open(path).ok());
  p.Close().ok();
  ::unlink(path.c_str());
}

TEST(PagerStandaloneTest, TempPathsAreUnique) {
  EXPECT_NE(TempFilePath("a"), TempFilePath("a"));
}

TEST(PagerStandaloneTest, FreeQuarantineDefersRecycling) {
  Pager p;
  std::string path = TempFilePath("pager_quarantine");
  ASSERT_TRUE(p.Open(path).ok());
  auto a = p.Allocate();
  ASSERT_TRUE(a.ok());
  // Without quarantine, a freed page is recycled immediately.
  p.Free(*a);
  auto b = p.Allocate();
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b, *a);
  // With quarantine (a durable checkpoint image may reference the page),
  // the freed page must NOT be handed out again...
  p.EnableFreeQuarantine();
  p.Free(*b);
  EXPECT_EQ(p.quarantined_count(), 1u);
  auto c = p.Allocate();
  ASSERT_TRUE(c.ok());
  EXPECT_NE(*c, *b);
  // ...until the next checkpoint commit releases it.
  p.ReleaseQuarantinedPages();
  EXPECT_EQ(p.quarantined_count(), 0u);
  auto d = p.Allocate();
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(*d, *b);
  p.Close().ok();
  ::unlink(path.c_str());
}

}  // namespace
}  // namespace hazy::storage
