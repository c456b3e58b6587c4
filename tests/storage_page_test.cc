// Tests for the slotted-page layout.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "storage/page.h"

namespace hazy::storage {
namespace {

class SlottedPageTest : public ::testing::Test {
 protected:
  SlottedPageTest() : buf_{}, page_(buf_) { page_.Init(); }
  char buf_[kPageSize];
  SlottedPage page_;
};

TEST_F(SlottedPageTest, InitIsEmpty) {
  EXPECT_EQ(page_.slot_count(), 0);
  EXPECT_EQ(page_.next_page(), kInvalidPageId);
  // Cell data grows down from kPageUsableSize: the trailing bytes are the
  // page-LSN footer stamped by the buffer pool at write-back.
  EXPECT_EQ(page_.FreeSpace(), kPageUsableSize - SlottedPage::kHeaderSize);
}

TEST_F(SlottedPageTest, LsnFooterIsOutsideCellArea) {
  // Fill the page completely, then stamp the LSN: no record may overlap it.
  std::string rec(100, 'x');
  while (page_.Insert(rec) >= 0) {
  }
  SetPageLsn(buf_, 0x1122334455667788ull);
  EXPECT_EQ(PageLsn(buf_), 0x1122334455667788ull);
  for (uint16_t s = 0; s < page_.slot_count(); ++s) {
    EXPECT_EQ(page_.Get(s), std::string_view(rec));
  }
}

TEST_F(SlottedPageTest, InsertAndGet) {
  int s0 = page_.Insert("hello");
  int s1 = page_.Insert("world!");
  ASSERT_GE(s0, 0);
  ASSERT_GE(s1, 0);
  EXPECT_EQ(page_.Get(static_cast<uint16_t>(s0)), "hello");
  EXPECT_EQ(page_.Get(static_cast<uint16_t>(s1)), "world!");
  EXPECT_EQ(page_.slot_count(), 2);
}

TEST_F(SlottedPageTest, GetInvalidSlotReturnsEmpty) {
  EXPECT_TRUE(page_.Get(0).empty());
  EXPECT_TRUE(page_.Get(99).empty());
}

TEST_F(SlottedPageTest, DeleteMarksSlot) {
  int s = page_.Insert("bye");
  ASSERT_GE(s, 0);
  EXPECT_TRUE(page_.Delete(static_cast<uint16_t>(s)));
  EXPECT_TRUE(page_.Get(static_cast<uint16_t>(s)).empty());
  EXPECT_FALSE(page_.Delete(static_cast<uint16_t>(s)));  // already gone
}

// Compact reclaims the cell bytes of deleted records; the live records keep
// their slots (RIDs) and bytes, and deleted slots stay deleted.
TEST_F(SlottedPageTest, CompactReclaimsDeletedCellsAndKeepsSlots) {
  std::vector<int> slots;
  for (char c : std::string("abcdef")) slots.push_back(page_.Insert(std::string(1000, c)));
  for (int s : slots) ASSERT_GE(s, 0);
  EXPECT_LT(page_.Insert(std::string(3000, 'z')), 0);  // full
  ASSERT_TRUE(page_.Delete(static_cast<uint16_t>(slots[1])));
  ASSERT_TRUE(page_.Delete(static_cast<uint16_t>(slots[4])));
  const size_t before = page_.FreeSpace();
  EXPECT_TRUE(page_.Compact());
  EXPECT_EQ(page_.FreeSpace(), before + 2000);
  EXPECT_FALSE(page_.Compact());  // nothing left to reclaim
  for (size_t i = 0; i < slots.size(); ++i) {
    std::string_view got = page_.Get(static_cast<uint16_t>(slots[i]));
    if (i == 1 || i == 4) {
      EXPECT_TRUE(got.empty()) << i;
    } else {
      EXPECT_EQ(got, std::string(1000, "abcdef"[i])) << i;
    }
  }
  const int fresh = page_.Insert(std::string(1900, 'z'));
  ASSERT_GE(fresh, 0);
  EXPECT_EQ(fresh, 6) << "slots are never reused";
  EXPECT_EQ(page_.Get(static_cast<uint16_t>(fresh)), std::string(1900, 'z'));
}

TEST_F(SlottedPageTest, InPlaceMutation) {
  int s = page_.Insert("abcdef");
  ASSERT_GE(s, 0);
  uint16_t size = 0;
  char* p = page_.GetMutable(static_cast<uint16_t>(s), &size);
  ASSERT_NE(p, nullptr);
  ASSERT_EQ(size, 6);
  p[0] = 'X';
  EXPECT_EQ(page_.Get(static_cast<uint16_t>(s)), "Xbcdef");
}

TEST_F(SlottedPageTest, FillsUntilFull) {
  std::string rec(100, 'x');
  int inserted = 0;
  while (page_.Insert(rec) >= 0) ++inserted;
  // 100 bytes + 4-byte slot each; expect close to the theoretical packing.
  int expected = static_cast<int>((kPageSize - SlottedPage::kHeaderSize) / 104);
  EXPECT_EQ(inserted, expected);
  EXPECT_LT(page_.FreeSpace(), 104u);
}

TEST_F(SlottedPageTest, MaxRecordFitsExactly) {
  std::string rec(SlottedPage::kMaxRecordSize, 'y');
  EXPECT_GE(page_.Insert(rec), 0);
  EXPECT_LT(page_.Insert("z"), 0);  // nothing else fits
}

TEST_F(SlottedPageTest, NextPageLink) {
  page_.set_next_page(77);
  EXPECT_EQ(page_.next_page(), 77u);
}

TEST_F(SlottedPageTest, ManyRecordsRoundTrip) {
  std::vector<std::string> recs;
  std::vector<int> slots;
  for (int i = 0; i < 50; ++i) {
    recs.push_back("record-" + std::to_string(i * i));
    int s = page_.Insert(recs.back());
    ASSERT_GE(s, 0);
    slots.push_back(s);
  }
  for (size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(page_.Get(static_cast<uint16_t>(slots[i])), recs[i]);
  }
}

TEST(RidTest, PackUnpackRoundTrip) {
  Rid r{123456, 789};
  Rid u = Rid::Unpack(r.Pack());
  EXPECT_EQ(u, r);
  EXPECT_TRUE(r.valid());
  EXPECT_FALSE(Rid{}.valid());
}

}  // namespace
}  // namespace hazy::storage
