// Slotted-page layout (PostgreSQL-style line pointers) over raw 8 KiB
// buffers. The page itself is just bytes; SlottedPage provides the accessors.
//
// Layout:
//   [PageHeader (12 B)] [slot 0][slot 1]... -> grows up
//   ...free space...
//   ...cell data... <- grows down from the end of the page
//
// A record is addressed by a RID = (page_id, slot). Deleting a record clears
// its slot but leaves its cell bytes in place; Compact slides the live cells
// together when an insert needs the room (slot numbers, and so RIDs, stay
// put). Slots are never reused.
//
// The trailing 8 bytes of every page — slotted or raw — are reserved for the
// page LSN: the WAL position that must be durable before this page image may
// reach the database file (storage/wal.h). The buffer pool stamps it at
// write-back; structures lay their data out inside kPageUsableSize.

#ifndef HAZY_STORAGE_PAGE_H_
#define HAZY_STORAGE_PAGE_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "storage/coding.h"

namespace hazy::storage {

inline constexpr size_t kPageSize = 8192;
inline constexpr uint32_t kInvalidPageId = 0xFFFFFFFFu;

/// Every page reserves its last 8 bytes for the page LSN (write-ahead-log
/// ordering stamp); page-resident data structures must stay within this.
inline constexpr size_t kPageLsnOff = kPageSize - 8;
inline constexpr size_t kPageUsableSize = kPageLsnOff;

inline uint64_t PageLsn(const char* page) { return DecodeFixed64(page + kPageLsnOff); }
inline void SetPageLsn(char* page, uint64_t lsn) { EncodeFixed64(page + kPageLsnOff, lsn); }

/// Identifies a record: which page and which slot within it.
struct Rid {
  uint32_t page_id = kInvalidPageId;
  uint16_t slot = 0;

  bool valid() const { return page_id != kInvalidPageId; }
  bool operator==(const Rid& o) const { return page_id == o.page_id && slot == o.slot; }
  bool operator!=(const Rid& o) const { return !(*this == o); }

  /// Packs into 8 bytes for storage inside index entries.
  uint64_t Pack() const { return (static_cast<uint64_t>(page_id) << 16) | slot; }
  static Rid Unpack(uint64_t v) {
    Rid r;
    r.page_id = static_cast<uint32_t>(v >> 16);
    r.slot = static_cast<uint16_t>(v & 0xFFFF);
    return r;
  }
};

/// \brief Accessors over one slotted page buffer (does not own the bytes).
class SlottedPage {
 public:
  // Header field offsets.
  static constexpr size_t kNextPageOff = 0;   // uint32: heap-chain link
  static constexpr size_t kSlotCountOff = 4;  // uint16
  static constexpr size_t kFreeStartOff = 6;  // uint16: end of slot array
  static constexpr size_t kFreeEndOff = 8;    // uint16: start of cell area
  static constexpr size_t kFlagsOff = 10;     // uint16
  static constexpr size_t kHeaderSize = 12;
  static constexpr size_t kSlotSize = 4;  // uint16 offset + uint16 size

  /// Largest record that can ever fit on one (empty) page.
  static constexpr size_t kMaxRecordSize = kPageUsableSize - kHeaderSize - kSlotSize;

  explicit SlottedPage(char* data) : data_(data) {}

  /// Formats an empty page in place.
  void Init() {
    std::memset(data_, 0, kPageSize);
    EncodeFixed32(data_ + kNextPageOff, kInvalidPageId);
    EncodeFixed16(data_ + kSlotCountOff, 0);
    EncodeFixed16(data_ + kFreeStartOff, kHeaderSize);
    EncodeFixed16(data_ + kFreeEndOff, kPageUsableSize);
  }

  uint32_t next_page() const { return DecodeFixed32(data_ + kNextPageOff); }
  void set_next_page(uint32_t pid) { EncodeFixed32(data_ + kNextPageOff, pid); }

  uint16_t slot_count() const { return DecodeFixed16(data_ + kSlotCountOff); }

  size_t FreeSpace() const {
    return DecodeFixed16(data_ + kFreeEndOff) - DecodeFixed16(data_ + kFreeStartOff);
  }

  /// True if a record of `size` bytes fits (including its new slot).
  bool HasRoomFor(size_t size) const { return FreeSpace() >= size + kSlotSize; }

  /// Inserts a record; returns its slot number, or -1 if the page is full.
  int Insert(std::string_view rec) {
    if (!HasRoomFor(rec.size())) return -1;
    uint16_t count = slot_count();
    uint16_t free_end = DecodeFixed16(data_ + kFreeEndOff);
    uint16_t off = static_cast<uint16_t>(free_end - rec.size());
    std::memcpy(data_ + off, rec.data(), rec.size());
    char* slot = SlotPtr(count);
    EncodeFixed16(slot, off);
    EncodeFixed16(slot + 2, static_cast<uint16_t>(rec.size()));
    EncodeFixed16(data_ + kSlotCountOff, static_cast<uint16_t>(count + 1));
    EncodeFixed16(data_ + kFreeStartOff,
                  static_cast<uint16_t>(kHeaderSize + (count + 1) * kSlotSize));
    EncodeFixed16(data_ + kFreeEndOff, off);
    return count;
  }

  /// Returns the record bytes at `slot`, or empty view if deleted/invalid.
  std::string_view Get(uint16_t slot) const {
    if (slot >= slot_count()) return {};
    const char* s = SlotPtr(slot);
    uint16_t off = DecodeFixed16(s);
    uint16_t size = DecodeFixed16(s + 2);
    if (off == 0) return {};  // deleted
    return std::string_view(data_ + off, size);
  }

  /// Mutable view of the record (for same-size in-place updates, the §B.1
  /// "update without copy" fast path).
  char* GetMutable(uint16_t slot, uint16_t* size) {
    if (slot >= slot_count()) return nullptr;
    char* s = SlotPtr(slot);
    uint16_t off = DecodeFixed16(s);
    if (off == 0) return nullptr;
    *size = DecodeFixed16(s + 2);
    return data_ + off;
  }

  /// Marks a slot deleted. The cell bytes are reclaimed by Compact.
  bool Delete(uint16_t slot) {
    if (slot >= slot_count()) return false;
    char* s = SlotPtr(slot);
    if (DecodeFixed16(s) == 0) return false;
    EncodeFixed16(s, 0);
    EncodeFixed16(s + 2, 0);
    return true;
  }

  /// Slides the live cells together at the end of the page, reclaiming the
  /// cell bytes of deleted records. Slot numbers do not change. Returns true
  /// when it freed any space.
  bool Compact() {
    std::vector<std::pair<uint16_t, uint16_t>> cells;  // (offset, slot), live only
    for (uint16_t i = 0; i < slot_count(); ++i) {
      const uint16_t off = DecodeFixed16(SlotPtr(i));
      if (off != 0) cells.emplace_back(off, i);
    }
    // Highest cell first: each moves up, never over a cell not yet moved.
    std::sort(cells.rbegin(), cells.rend());
    uint16_t end = static_cast<uint16_t>(kPageUsableSize);
    for (const auto& [off, slot] : cells) {
      const uint16_t size = DecodeFixed16(SlotPtr(slot) + 2);
      end = static_cast<uint16_t>(end - size);
      std::memmove(data_ + end, data_ + off, size);
      EncodeFixed16(SlotPtr(slot), end);
    }
    const bool freed = end != DecodeFixed16(data_ + kFreeEndOff);
    EncodeFixed16(data_ + kFreeEndOff, end);
    return freed;
  }

  const char* data() const { return data_; }

 private:
  char* SlotPtr(uint16_t slot) const {
    return data_ + kHeaderSize + static_cast<size_t>(slot) * kSlotSize;
  }

  char* data_;
};

}  // namespace hazy::storage

#endif  // HAZY_STORAGE_PAGE_H_
