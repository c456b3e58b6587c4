// Tests for the asynchronous write-back subsystem (storage/bg_writer.h):
// detach-on-evict, reclaim of queued buffers, drain/flush interaction, the
// free-frame low-water stock, multi-threaded stress over disjoint pages,
// the inline write-back of a pool without a writer (and its error path),
// and the headline property — no fsync is ever issued under the pool mutex,
// with or without a writer (a blocked WAL fsync must not block an unrelated
// pool operation).
//
// Pages allocated after a checkpoint are exempt from before-imaging, so the
// fixture seals an "epoch" first (flush + WAL reset): every page then counts
// as checkpoint-time content, and evictions owe the log a before-image + a
// durable horizon — the out-of-core steady state the writer exists for.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <future>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "storage/bg_writer.h"
#include "storage/buffer_pool.h"
#include "storage/wal.h"

namespace hazy::storage {
namespace {

class BgWriterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TempFilePath("bgw_test");
    wal_path_ = WalPathFor(path_);
    ASSERT_TRUE(pager_.Open(path_).ok());
    ASSERT_TRUE(wal_.Open(wal_path_, WalOptions{}).ok());
  }
  void TearDown() override {
    wal_.Close().ok();
    pager_.Close().ok();
    ::unlink(path_.c_str());
    ::unlink(wal_path_.c_str());
  }

  /// Creates `n` stamped pages through `pool` and seals the epoch: flushed
  /// to the file, WAL rebased — from here on every eviction needs a
  /// before-image and a durable-horizon fsync.
  std::vector<uint32_t> SealedPages(BufferPool* pool, int n, char tag) {
    std::vector<uint32_t> pids;
    for (int i = 0; i < n; ++i) {
      auto h = pool->New();
      EXPECT_TRUE(h.ok());
      Stamp(h->data(), h->page_id(), tag);
      h->MarkDirty();
      pids.push_back(h->page_id());
    }
    EXPECT_TRUE(pool->FlushAll().ok());
    EXPECT_TRUE(wal_.Reset(1).ok());
    return pids;
  }

  static void Stamp(char* data, uint32_t pid, char tag) {
    std::memset(data, 0, kPageUsableSize);
    data[0] = tag;
    std::memcpy(data + 1, &pid, sizeof(pid));
  }
  static bool CheckStamp(const char* data, uint32_t pid, char tag) {
    uint32_t got = 0;
    std::memcpy(&got, data + 1, sizeof(got));
    return data[0] == tag && got == pid;
  }

  /// While the WAL fsync of a write-back batch is in flight (here: blocked
  /// for 300 ms), a fetch of a resident page must complete immediately. If
  /// the fsync were issued under the pool mutex, the probe would block for
  /// the full stall. With a writer the writer thread's batch fsync stalls;
  /// without one, the churning thread's own eviction does.
  void CheckNoFsyncUnderThePoolMutex(bool with_writer) {
    BufferPool pool(&pager_, 8);
    pool.SetWal(&wal_);
    if (with_writer) {
      BgWriterOptions opts;
      opts.batch_pages = 2;
      ASSERT_TRUE(pool.StartBackgroundWriter(opts).ok());
    }
    std::vector<uint32_t> pids = SealedPages(&pool, 24, 'A');

    std::mutex mu;
    std::condition_variable cv;
    bool release = false;
    std::atomic<int> in_sync{0};
    wal_.SetFaultHook([&](const char* op, uint32_t) -> int {
      if (std::string_view(op) != "wal_sync") return kFaultNone;
      ++in_sync;
      std::unique_lock<std::mutex> lock(mu);
      cv.wait_for(lock, std::chrono::milliseconds(300), [&] { return release; });
      return kFaultNone;
    });

    // Re-dirty every page through the 8-frame pool, so dirty pages are
    // evicted and owe their before-images an fsync. Without a writer the
    // first eight fetches evict clean sealed pages and the ninth evicts
    // dirty pids[0], stalling this thread in its fsync.
    std::atomic<int> churn_failures{0};
    std::thread churn([&] {
      for (uint32_t pid : pids) {
        auto h = pool.Fetch(pid);
        if (!h.ok()) {
          ++churn_failures;
          return;
        }
        Stamp(h->data(), pid, 'S');
        h->MarkDirty();
      }
    });
    for (int i = 0; i < 1000 && in_sync.load() == 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_GT(in_sync.load(), 0) << "no write-back ever fsynced";

    // Probe pids[7]: dirtied before the stalled eviction and never part of
    // the stalled batch (whose own pages legitimately wait for their
    // write), so it is resident or, with a writer, reclaimable.
    auto t0 = std::chrono::steady_clock::now();
    auto probe = std::async(std::launch::async, [&] {
      auto h = pool.Fetch(pids[7]);
      return h.status();
    });
    EXPECT_EQ(probe.wait_for(std::chrono::milliseconds(250)), std::future_status::ready)
        << "a pool fetch blocked behind the WAL fsync";
    EXPECT_TRUE(probe.get().ok());
    auto elapsed = std::chrono::steady_clock::now() - t0;
    EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(), 250);

    {
      std::lock_guard<std::mutex> lock(mu);
      release = true;
    }
    cv.notify_all();
    churn.join();
    EXPECT_EQ(churn_failures.load(), 0);
    ASSERT_TRUE(pool.FlushAll().ok());
    wal_.SetFaultHook(nullptr);
  }

  std::string path_, wal_path_;
  Pager pager_;
  Wal wal_;
};

TEST_F(BgWriterTest, AsyncEvictionRoundTripsThroughTheFile) {
  std::vector<uint32_t> pids;
  {
    BufferPool pool(&pager_, 8);
    pool.SetWal(&wal_);
    BgWriterOptions opts;
    opts.batch_pages = 4;
    opts.free_target = 2;
    ASSERT_TRUE(pool.StartBackgroundWriter(opts).ok());
    pids = SealedPages(&pool, 64, 'A');
    // Re-dirty all 64 through the 8-frame pool: most travel through the
    // writer's queue, each owing a fresh before-image this epoch.
    for (uint32_t pid : pids) {
      auto h = pool.Fetch(pid);
      ASSERT_TRUE(h.ok());
      Stamp(h->data(), pid, 'B');
      h->MarkDirty();
    }
    ASSERT_TRUE(pool.FlushAll().ok());
    EXPECT_EQ(wal_.stats().before_images.load(), 64u);
    for (uint32_t pid : pids) {
      auto h = pool.Fetch(pid);
      ASSERT_TRUE(h.ok());
      EXPECT_TRUE(CheckStamp(h->data(), pid, 'B')) << "page " << pid;
    }
  }
  // And on disk, via a fresh pool (cold cache).
  BufferPool cold(&pager_, 8);
  for (uint32_t pid : pids) {
    auto h = cold.Fetch(pid);
    ASSERT_TRUE(h.ok());
    EXPECT_TRUE(CheckStamp(h->data(), pid, 'B')) << "page " << pid;
  }
}

TEST_F(BgWriterTest, QueuedPageIsReclaimedWithoutTouchingDisk) {
  BufferPool pool(&pager_, 4);
  pool.SetWal(&wal_);
  BgWriterOptions opts;
  opts.batch_pages = 1;  // one page per batch: the rest stay queued
  opts.free_target = 0;
  ASSERT_TRUE(pool.StartBackgroundWriter(opts).ok());
  std::vector<uint32_t> pids = SealedPages(&pool, 12, 'A');

  // Stall the writer inside its batch fsync so entries pile up queued (not
  // yet writing).
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> stalled{0};
  wal_.SetFaultHook([&](const char* op, uint32_t) -> int {
    if (std::string_view(op) != "wal_sync") return kFaultNone;
    ++stalled;
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, std::chrono::seconds(10), [&] { return release; });
    return kFaultNone;
  });

  for (uint32_t pid : pids) {
    auto h = pool.Fetch(pid);
    ASSERT_TRUE(h.ok());
    Stamp(h->data(), pid, 'Q');
    h->MarkDirty();
  }
  // Wait until the writer is inside its (stalled) first fsync.
  for (int i = 0; i < 1000 && stalled.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(stalled.load(), 0) << "writer never reached its batch fsync";

  // Early evicted pages sit in the queue. Fetching one must reclaim the
  // detached buffer — correct (re-stamped) bytes, and zero pager reads: the
  // on-disk copy is stale.
  const uint64_t reads_before = pager_.stats().reads.load();
  auto h = pool.Fetch(pids[1]);
  ASSERT_TRUE(h.ok());
  EXPECT_TRUE(CheckStamp(h->data(), pids[1], 'Q'));
  EXPECT_EQ(pager_.stats().reads.load(), reads_before)
      << "reclaim must not read the stale on-disk copy";
  h->Release();

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  ASSERT_TRUE(pool.FlushAll().ok());
  wal_.SetFaultHook(nullptr);
}

TEST_F(BgWriterTest, NoFsyncUnderThePoolMutex) {
  CheckNoFsyncUnderThePoolMutex(/*with_writer=*/true);
}

TEST_F(BgWriterTest, NoFsyncUnderThePoolMutexWithoutWriter) {
  // No writer thread: the fetch that evicts a dirty page retires it inline
  // and stalls in that fsync itself, but with the pool mutex released.
  CheckNoFsyncUnderThePoolMutex(/*with_writer=*/false);
}

TEST_F(BgWriterTest, FailedInlineWriteBackKeepsTheFrameAndTheBytes) {
  // No writer thread: an eviction whose inline write-back fails reports
  // the error to its caller, returns the victim's frame to the free list,
  // and leaves the page's new bytes queued until a later write succeeds.
  BufferPool pool(&pager_, 4);
  pool.SetWal(&wal_);
  std::vector<uint32_t> pids = SealedPages(&pool, 8, 'A');
  // pids[4..7] are resident; re-dirty them so every eviction owes the log
  // a before-image and an fsync.
  for (int i = 4; i < 8; ++i) {
    auto h = pool.Fetch(pids[i]);
    ASSERT_TRUE(h.ok());
    Stamp(h->data(), pids[i], 'E');
    h->MarkDirty();
  }
  // Pins capacity() distinct pages at once: possible only if no failed
  // eviction lost its frame. Reads still work while a write fault is armed.
  auto pin_capacity = [&](const std::vector<uint32_t>& pages) {
    ASSERT_EQ(pages.size(), pool.capacity());
    std::vector<PageHandle> pins;
    for (uint32_t pid : pages) {
      auto h = pool.Fetch(pid);
      ASSERT_TRUE(h.ok()) << "page " << pid << ": " << h.status().ToString();
      pins.push_back(std::move(*h));
    }
  };

  // A failing WAL fsync: the Fetch whose eviction (of pids[4]) hits it
  // reports it, and the frame is back on the free list.
  wal_.SetFaultHook([](const char* op, uint32_t) -> int {
    return std::string_view(op) == "wal_sync" ? kFaultFail : kFaultNone;
  });
  auto failed_fetch = pool.Fetch(pids[0]);
  ASSERT_FALSE(failed_fetch.ok());
  EXPECT_EQ(failed_fetch.status().code(), StatusCode::kIOError);
  pin_capacity({pids[5], pids[6], pids[7], pids[0]});
  wal_.SetFaultHook(nullptr);

  // A failing page write: the New whose eviction (of pids[5]) hits it
  // reports it, allocates no page, and the frame is back again.
  pager_.SetFaultHook([](const char* op, uint32_t) -> int {
    return std::string_view(op) == "page_write" ? kFaultFail : kFaultNone;
  });
  const uint32_t pages_before = pager_.num_pages();
  auto failed_new = pool.New();
  ASSERT_FALSE(failed_new.ok());
  EXPECT_EQ(failed_new.status().code(), StatusCode::kIOError);
  EXPECT_EQ(pager_.num_pages(), pages_before);
  pin_capacity({pids[6], pids[7], pids[0], pids[1]});
  pager_.SetFaultHook(nullptr);

  // The evicted pages' new bytes survived in the queue: a fetch gets them
  // back (the queue is retired by its own eviction first), FlushAll writes
  // the rest, and a cold pool reads them all.
  {
    auto h = pool.Fetch(pids[4]);
    ASSERT_TRUE(h.ok());
    EXPECT_TRUE(CheckStamp(h->data(), pids[4], 'E'));
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  BufferPool cold(&pager_, 4);
  for (int i = 4; i < 8; ++i) {
    auto h = cold.Fetch(pids[i]);
    ASSERT_TRUE(h.ok());
    EXPECT_TRUE(CheckStamp(h->data(), pids[i], 'E')) << "page " << pids[i];
  }
}

TEST_F(BgWriterTest, PersistentWriteFaultWithoutWriterEndsInErrors) {
  // No writer and a page write that always fails: each dirty eviction
  // fails and leaves its page queued until the queue is full, after which
  // evictions retry the queue instead of growing it. Every call still ends
  // in a Status, and once the fault clears nothing is lost.
  BufferPool pool(&pager_, 2);
  pool.SetWal(&wal_);
  const size_t max_queue = BgWriterOptions{}.max_queue;
  std::vector<uint32_t> pids =
      SealedPages(&pool, static_cast<int>(2 * max_queue + 16), 'A');
  pager_.SetFaultHook([](const char* op, uint32_t) -> int {
    return std::string_view(op) == "page_write" ? kFaultFail : kFaultNone;
  });
  std::vector<char> tags(pids.size(), 'A');
  size_t failures = 0;
  for (size_t i = 0; i < pids.size(); ++i) {
    auto h = pool.Fetch(pids[i]);
    if (!h.ok()) {
      EXPECT_EQ(h.status().code(), StatusCode::kIOError);
      ++failures;
      continue;
    }
    Stamp(h->data(), pids[i], 'F');
    h->MarkDirty();
    tags[i] = 'F';
  }
  EXPECT_GT(failures, max_queue);
  pager_.SetFaultHook(nullptr);

  ASSERT_TRUE(pool.FlushAll().ok());
  BufferPool cold(&pager_, 2);
  for (size_t i = 0; i < pids.size(); ++i) {
    auto h = cold.Fetch(pids[i]);
    ASSERT_TRUE(h.ok());
    EXPECT_TRUE(CheckStamp(h->data(), pids[i], tags[i])) << "page " << pids[i];
  }
}

TEST_F(BgWriterTest, StopAbandonsQueueButFlushAllDrainsItInline) {
  BufferPool pool(&pager_, 4);
  pool.SetWal(&wal_);
  BgWriterOptions opts;
  opts.batch_pages = 1;
  ASSERT_TRUE(pool.StartBackgroundWriter(opts).ok());
  std::vector<uint32_t> pids = SealedPages(&pool, 10, 'A');

  // Stall the writer's fsync so entries are still queued when we stop it.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  wal_.SetFaultHook([&](const char* op, uint32_t) -> int {
    if (std::string_view(op) != "wal_sync") return kFaultNone;
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, std::chrono::seconds(2), [&] { return release; });
    return kFaultNone;
  });
  for (uint32_t pid : pids) {
    auto h = pool.Fetch(pid);
    ASSERT_TRUE(h.ok());
    Stamp(h->data(), pid, 'Z');
    h->MarkDirty();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  pool.StopBackgroundWriter();

  // The inline drain (no writer thread) must persist everything.
  ASSERT_TRUE(pool.FlushAll().ok());
  wal_.SetFaultHook(nullptr);
  BufferPool cold(&pager_, 4);
  for (uint32_t pid : pids) {
    auto h = cold.Fetch(pid);
    ASSERT_TRUE(h.ok());
    EXPECT_TRUE(CheckStamp(h->data(), pid, 'Z')) << "page " << pid;
  }
}

TEST_F(BgWriterTest, StressDisjointPagesAcrossThreads) {
  // 4 writers over disjoint page sets (the engine contract), each cycling
  // fetch-mutate-release through a pool far smaller than the working set,
  // with the background writer churning (and periodically fsyncing)
  // underneath. Every page must hold its final value afterwards. This test
  // doubles as the TSan target for the pool/writer/wal locking.
  constexpr int kThreads = 4;
  constexpr int kPagesPerThread = 24;
  constexpr int kRounds = 20;

  BufferPool pool(&pager_, 16);
  pool.SetWal(&wal_);
  BgWriterOptions opts;
  opts.batch_pages = 8;
  opts.free_target = 4;
  opts.max_queue = 32;
  opts.sync_interval_batches = 2;
  ASSERT_TRUE(pool.StartBackgroundWriter(opts).ok());

  std::vector<uint32_t> all =
      SealedPages(&pool, kThreads * kPagesPerThread, 'a');
  std::vector<std::vector<uint32_t>> pids(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pids[t].assign(all.begin() + t * kPagesPerThread,
                   all.begin() + (t + 1) * kPagesPerThread);
  }

  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        const char tag = static_cast<char>('a' + (round % 26));
        const char next = static_cast<char>('a' + ((round + 1) % 26));
        for (uint32_t pid : pids[t]) {
          auto h = pool.Fetch(pid);
          if (!h.ok()) {
            ++failures;
            return;
          }
          if (!CheckStamp(h->data(), pid, tag)) {
            ++failures;
            return;
          }
          h->data()[0] = next;
          h->MarkDirty();
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  ASSERT_TRUE(pool.FlushAll().ok());
  const char final_tag = static_cast<char>('a' + (kRounds % 26));
  BufferPool cold(&pager_, 16);
  for (uint32_t pid : all) {
    auto h = cold.Fetch(pid);
    ASSERT_TRUE(h.ok());
    EXPECT_TRUE(CheckStamp(h->data(), pid, final_tag)) << "page " << pid;
  }
}

TEST_F(BgWriterTest, FreePageCancelsPendingWrite) {
  BufferPool pool(&pager_, 2);
  pool.SetWal(&wal_);
  BgWriterOptions opts;
  opts.batch_pages = 1;
  opts.free_target = 0;
  ASSERT_TRUE(pool.StartBackgroundWriter(opts).ok());
  std::vector<uint32_t> pids = SealedPages(&pool, 6, 'A');
  for (uint32_t pid : pids) {
    auto h = pool.Fetch(pid);
    ASSERT_TRUE(h.ok());
    Stamp(h->data(), pid, 'F');
    h->MarkDirty();
  }
  // Freeing pages — queued, in flight, or already written — must be safe
  // and leave no pending entry behind.
  for (uint32_t pid : pids) pool.FreePage(pid);
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ(pager_.free_list_size(), pids.size());
}

}  // namespace
}  // namespace hazy::storage
