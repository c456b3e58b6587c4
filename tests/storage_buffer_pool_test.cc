// Tests for the LRU buffer pool: caching, eviction, pinning, dirty pages.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "storage/buffer_pool.h"

namespace hazy::storage {
namespace {

class BufferPoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TempFilePath("bp_test");
    ASSERT_TRUE(pager_.Open(path_).ok());
  }
  void TearDown() override {
    pager_.Close().ok();
    ::unlink(path_.c_str());
  }
  std::string path_;
  Pager pager_;
};

TEST_F(BufferPoolTest, NewPagePinsAndZeroes) {
  BufferPool pool(&pager_, 4);
  auto h = pool.New();
  ASSERT_TRUE(h.ok());
  for (size_t i = 0; i < kPageSize; ++i) ASSERT_EQ(h->data()[i], 0);
}

TEST_F(BufferPoolTest, FetchHitAfterNew) {
  BufferPool pool(&pager_, 4);
  uint32_t pid;
  {
    auto h = pool.New();
    ASSERT_TRUE(h.ok());
    pid = h->page_id();
    h->data()[0] = 'z';
    h->MarkDirty();
  }
  auto h2 = pool.Fetch(pid);
  ASSERT_TRUE(h2.ok());
  EXPECT_EQ(h2->data()[0], 'z');
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(pool.stats().misses, 0u);
}

TEST_F(BufferPoolTest, EvictionWritesBackDirtyPages) {
  BufferPool pool(&pager_, 2);
  // Create 3 dirty pages with a 2-frame pool: the first must be evicted
  // and written back.
  std::vector<uint32_t> pids;
  for (int i = 0; i < 3; ++i) {
    auto h = pool.New();
    ASSERT_TRUE(h.ok());
    h->data()[0] = static_cast<char>('a' + i);
    h->MarkDirty();
    pids.push_back(h->page_id());
  }
  EXPECT_GE(pool.stats().evictions, 1u);
  // Re-reading the evicted page must see the written data (round trip
  // through the file).
  auto h = pool.Fetch(pids[0]);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->data()[0], 'a');
  EXPECT_GE(pool.stats().misses, 1u);
}

TEST_F(BufferPoolTest, PinnedPagesCannotBeEvicted) {
  BufferPool pool(&pager_, 2);
  auto h0 = pool.New();
  auto h1 = pool.New();
  ASSERT_TRUE(h0.ok() && h1.ok());
  ASSERT_EQ(h1->page_id(), 1u);
  // Both frames pinned: a third page has no victim, and the failed call
  // must not allocate (and so orphan) a page.
  auto h2 = pool.New();
  EXPECT_FALSE(h2.ok());
  EXPECT_EQ(h2.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(pager_.num_pages(), 2u);
  // Releasing one pin unblocks allocation, of the next page in line.
  h0->Release();
  auto h3 = pool.New();
  ASSERT_TRUE(h3.ok());
  EXPECT_EQ(h3->page_id(), 2u);
}

TEST_F(BufferPoolTest, LruEvictsLeastRecentlyUsed) {
  BufferPool pool(&pager_, 2);
  uint32_t p0, p1;
  {
    auto h = pool.New();
    ASSERT_TRUE(h.ok());
    p0 = h->page_id();
  }
  {
    auto h = pool.New();
    ASSERT_TRUE(h.ok());
    p1 = h->page_id();
  }
  // Touch p0 so p1 becomes LRU.
  { auto h = pool.Fetch(p0); ASSERT_TRUE(h.ok()); }
  { auto h = pool.New(); ASSERT_TRUE(h.ok()); }  // evicts p1
  pool.ResetStats();
  { auto h = pool.Fetch(p0); ASSERT_TRUE(h.ok()); }
  EXPECT_EQ(pool.stats().hits, 1u);  // p0 still resident
  { auto h = pool.Fetch(p1); ASSERT_TRUE(h.ok()); }
  EXPECT_EQ(pool.stats().misses, 1u);  // p1 was evicted
}

TEST_F(BufferPoolTest, FlushAllPersistsDirtyFrames) {
  BufferPool pool(&pager_, 4);
  uint32_t pid;
  {
    auto h = pool.New();
    ASSERT_TRUE(h.ok());
    pid = h->page_id();
    std::memset(h->data(), 0x5A, kPageSize);
    h->MarkDirty();
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  char buf[kPageSize];
  ASSERT_TRUE(pager_.Read(pid, buf).ok());
  EXPECT_EQ(buf[100], 0x5A);
}

TEST_F(BufferPoolTest, FreePageRecycles) {
  BufferPool pool(&pager_, 4);
  uint32_t pid;
  {
    auto h = pool.New();
    ASSERT_TRUE(h.ok());
    pid = h->page_id();
  }
  pool.FreePage(pid);
  auto h = pool.New();
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->page_id(), pid);  // page id recycled through the pager
}

TEST_F(BufferPoolTest, MoveHandleTransfersPin) {
  BufferPool pool(&pager_, 2);
  auto h = pool.New();
  ASSERT_TRUE(h.ok());
  PageHandle moved = std::move(*h);
  EXPECT_TRUE(moved.valid());
  moved.Release();
  EXPECT_FALSE(moved.valid());
}

TEST_F(BufferPoolTest, ConcurrentMissesOnDistinctPagesOverlapTheirReads) {
  // Regression test for the miss-path mutex: the pool must drop its lock for
  // the duration of the pager read, so two threads faulting distinct pages
  // have their disk reads in flight simultaneously. The pager's fault hook
  // rendezvous-blocks inside the reads: if the pool still serialized misses
  // under its mutex, the two hooks could never be inside pager reads at the
  // same time and the barrier below would time out.
  BufferPool setup_pool(&pager_, 8);
  uint32_t pid_a, pid_b;
  {
    auto a = setup_pool.New();
    auto b = setup_pool.New();
    ASSERT_TRUE(a.ok() && b.ok());
    pid_a = a->page_id();
    pid_b = b->page_id();
    a->MarkDirty();
    b->MarkDirty();
  }
  ASSERT_TRUE(setup_pool.FlushAll().ok());

  BufferPool pool(&pager_, 8);  // cold cache: both fetches miss
  std::mutex mu;
  std::condition_variable cv;
  int readers_inside = 0;
  bool both_seen = false;
  pager_.SetFaultHook([&](const char* op, uint32_t) -> int {
    if (std::string_view(op) != "page_read") return kFaultNone;
    std::unique_lock<std::mutex> lock(mu);
    if (++readers_inside == 2) {
      both_seen = true;
      cv.notify_all();
    } else {
      // Wait (bounded) for the second reader to arrive inside its read.
      cv.wait_for(lock, std::chrono::seconds(10), [&] { return both_seen; });
    }
    return kFaultNone;
  });

  Status sa, sb;
  std::thread ta([&] { sa = pool.Fetch(pid_a).status(); });
  std::thread tb([&] { sb = pool.Fetch(pid_b).status(); });
  ta.join();
  tb.join();
  pager_.SetFaultHook(nullptr);
  EXPECT_TRUE(sa.ok()) << sa.ToString();
  EXPECT_TRUE(sb.ok()) << sb.ToString();
  EXPECT_TRUE(both_seen) << "the two misses never overlapped their pager reads";
}

TEST_F(BufferPoolTest, ConcurrentFetchesOfSameMissingPageReadOnce) {
  BufferPool setup_pool(&pager_, 4);
  uint32_t pid;
  {
    auto h = setup_pool.New();
    ASSERT_TRUE(h.ok());
    h->data()[0] = 'q';
    h->MarkDirty();
    pid = h->page_id();
  }
  ASSERT_TRUE(setup_pool.FlushAll().ok());

  BufferPool pool(&pager_, 4);
  std::atomic<int> reads{0};
  pager_.SetFaultHook([&](const char* op, uint32_t) -> int {
    if (std::string_view(op) == "page_read") ++reads;
    return kFaultNone;
  });
  std::vector<std::thread> threads;
  std::atomic<int> ok_count{0};
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&] {
      auto h = pool.Fetch(pid);
      if (h.ok() && h->data()[0] == 'q') ++ok_count;
    });
  }
  for (auto& t : threads) t.join();
  pager_.SetFaultHook(nullptr);
  EXPECT_EQ(ok_count.load(), 8);
  EXPECT_EQ(reads.load(), 1) << "waiters must ride the in-flight read";
}

TEST_F(BufferPoolTest, HitRateAccounting) {
  BufferPool pool(&pager_, 4);
  uint32_t pid;
  {
    auto h = pool.New();
    ASSERT_TRUE(h.ok());
    pid = h->page_id();
  }
  for (int i = 0; i < 9; ++i) {
    auto h = pool.Fetch(pid);
    ASSERT_TRUE(h.ok());
  }
  EXPECT_DOUBLE_EQ(pool.stats().HitRate(), 1.0);
}

TEST_F(BufferPoolTest, ConcurrentResetAndSnapshotStayCoherent) {
  // ResetStats and stats readers race by design: the contract (see
  // BufferPoolStats) is per-field relaxed atomics — independently
  // consistent, never torn. Under TSan this test asserts the data-race
  // freedom; under any build it asserts the values stay sane (HitRate in
  // [0,1], counters never garbage-large).
  BufferPool pool(&pager_, 4);
  uint32_t pid;
  {
    auto h = pool.New();
    ASSERT_TRUE(h.ok());
    pid = h->page_id();
  }
  std::atomic<bool> stop{false};
  std::thread fetcher([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      auto h = pool.Fetch(pid);
      ASSERT_TRUE(h.ok());
    }
  });
  std::thread resetter([&] {
    for (int i = 0; i < 2000; ++i) pool.ResetStats();
  });
  for (int i = 0; i < 2000; ++i) {
    BufferPoolStatsSnapshot s = pool.stats().Snapshot();
    double rate = s.HitRate();
    ASSERT_GE(rate, 0.0);
    ASSERT_LE(rate, 1.0);
    // Bounded by the fetch loop's possible progress — a torn read would
    // show up as an absurd value.
    ASSERT_LT(s.hits, 1ull << 40);
    ASSERT_LT(s.misses, 1ull << 40);
  }
  resetter.join();
  stop.store(true, std::memory_order_relaxed);
  fetcher.join();
}

}  // namespace
}  // namespace hazy::storage
