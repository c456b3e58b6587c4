#include "storage/heap_file.h"

#include <cstring>

#include "common/strings.h"
#include "storage/coding.h"

namespace hazy::storage {

Status HeapFile::RecordNotFound(Rid rid) {
  return Status::NotFound(
      StrFormat("no record at page %u slot %u", rid.page_id, rid.slot));
}

Status HeapFile::Create() {
  if (first_page_ != kInvalidPageId) {
    return Status::InvalidArgument("heap file already created");
  }
  HAZY_ASSIGN_OR_RETURN(PageHandle h, pool_->New());
  SlottedPage(h.data()).Init();
  h.MarkDirty();
  first_page_ = last_page_ = h.page_id();
  num_pages_ = 1;
  num_overflow_pages_ = 0;
  num_records_ = 0;
  pages_.assign(1, first_page_);
  return Status::OK();
}

Status HeapFile::Attach(const HeapFileMeta& meta) {
  if (first_page_ != kInvalidPageId) {
    return Status::InvalidArgument("heap file already created");
  }
  if (meta.first_page == kInvalidPageId || meta.last_page == kInvalidPageId) {
    return Status::Corruption("heap metadata has no page chain");
  }
  first_page_ = meta.first_page;
  last_page_ = meta.last_page;
  num_records_ = meta.num_records;
  num_pages_ = meta.num_pages;
  num_overflow_pages_ = meta.num_overflow_pages;
  pages_.clear();  // rebuilt lazily by EnsurePageIds on first striped scan
  return Status::OK();
}

Status HeapFile::EnsurePageIds() const {
  if (pages_.size() == num_pages_ || first_page_ == kInvalidPageId) {
    return Status::OK();
  }
  // Rebuild the data-page list from the chain links. One pass over page
  // headers; bounded by num_pages so a corrupt cycle cannot loop forever.
  pages_.clear();
  pages_.reserve(num_pages_);
  uint32_t pid = first_page_;
  while (pid != kInvalidPageId) {
    if (pages_.size() >= num_pages_) {
      pages_.clear();
      return Status::Corruption("heap page chain longer than metadata count");
    }
    pages_.push_back(pid);
    HAZY_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(pid));
    pid = SlottedPage(h.data()).next_page();
  }
  if (pages_.size() != num_pages_) {
    size_t got = pages_.size();
    pages_.clear();
    return Status::Corruption(StrFormat("heap page chain has %zu pages, metadata says %llu",
                                        got, static_cast<unsigned long long>(num_pages_)));
  }
  return Status::OK();
}

StatusOr<Rid> HeapFile::Append(std::string_view rec) {
  if (first_page_ == kInvalidPageId) {
    return Status::InvalidArgument("heap file not created");
  }
  if (rec.size() + 1 > SlottedPage::kMaxRecordSize) {
    return AppendOverflow(rec);
  }
  std::string stored;
  stored.reserve(rec.size() + 1);
  stored.push_back(kInlineTag);
  stored.append(rec.data(), rec.size());

  {
    HAZY_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(last_page_));
    SlottedPage page(h.data());
    int slot = page.Insert(stored);
    // Reclaim the tail's deleted cells before extending the chain.
    if (slot < 0 && page.Compact()) slot = page.Insert(stored);
    if (slot >= 0) {
      h.MarkDirty();
      ++num_records_;
      return Rid{last_page_, static_cast<uint16_t>(slot)};
    }
  }
  // Current tail is full: extend the chain.
  HAZY_ASSIGN_OR_RETURN(PageHandle fresh, pool_->New());
  SlottedPage page(fresh.data());
  page.Init();
  int slot = page.Insert(stored);
  HAZY_CHECK(slot >= 0) << "record must fit in an empty page";
  fresh.MarkDirty();
  uint32_t new_pid = fresh.page_id();
  fresh.Release();

  HAZY_ASSIGN_OR_RETURN(PageHandle tail, pool_->Fetch(last_page_));
  SlottedPage(tail.data()).set_next_page(new_pid);
  tail.MarkDirty();
  last_page_ = new_pid;
  pages_.push_back(new_pid);
  ++num_pages_;
  ++num_records_;
  return Rid{new_pid, static_cast<uint16_t>(slot)};
}

StatusOr<Rid> HeapFile::AppendOverflow(std::string_view rec) {
  const size_t head_len = std::min(rec.size(), kOverflowHeadLen);
  std::string_view tail = rec.substr(head_len);

  // Write the overflow chain first (front to back).
  uint32_t first_ovf = kInvalidPageId;
  uint32_t prev = kInvalidPageId;
  size_t off = 0;
  while (off < tail.size()) {
    size_t n = std::min(kOvfCapacity, tail.size() - off);
    HAZY_ASSIGN_OR_RETURN(PageHandle h, pool_->New());
    char* p = h.data();
    EncodeFixed32(p, kInvalidPageId);
    EncodeFixed32(p + 4, static_cast<uint32_t>(n));
    std::memcpy(p + kOvfHeaderSize, tail.data() + off, n);
    h.MarkDirty();
    uint32_t pid = h.page_id();
    h.Release();
    if (prev == kInvalidPageId) {
      first_ovf = pid;
    } else {
      HAZY_ASSIGN_OR_RETURN(PageHandle ph, pool_->Fetch(prev));
      EncodeFixed32(ph.data(), pid);
      ph.MarkDirty();
    }
    prev = pid;
    ++num_overflow_pages_;
    off += n;
  }

  // Build the stub and store it like a small record.
  std::string stub;
  stub.reserve(kStubHeaderSize + head_len);
  stub.push_back(kOverflowTag);
  PutFixed32(&stub, static_cast<uint32_t>(rec.size()));
  PutFixed32(&stub, first_ovf);
  PutFixed16(&stub, static_cast<uint16_t>(head_len));
  stub.append(rec.data(), head_len);

  {
    HAZY_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(last_page_));
    SlottedPage page(h.data());
    int slot = page.Insert(stub);
    if (slot >= 0) {
      h.MarkDirty();
      ++num_records_;
      return Rid{last_page_, static_cast<uint16_t>(slot)};
    }
  }
  HAZY_ASSIGN_OR_RETURN(PageHandle fresh, pool_->New());
  SlottedPage page(fresh.data());
  page.Init();
  int slot = page.Insert(stub);
  HAZY_CHECK(slot >= 0) << "stub must fit in an empty page";
  fresh.MarkDirty();
  uint32_t new_pid = fresh.page_id();
  fresh.Release();

  HAZY_ASSIGN_OR_RETURN(PageHandle tail_h, pool_->Fetch(last_page_));
  SlottedPage(tail_h.data()).set_next_page(new_pid);
  tail_h.MarkDirty();
  last_page_ = new_pid;
  pages_.push_back(new_pid);
  ++num_pages_;
  ++num_records_;
  return Rid{new_pid, static_cast<uint16_t>(slot)};
}

Status HeapFile::MaterializeOverflow(std::string_view stub, std::string* out) const {
  std::string_view cur = stub.substr(1);  // skip tag
  uint32_t total = 0, first_ovf = 0;
  uint16_t head_len = 0;
  if (!GetFixed32(&cur, &total) || !GetFixed32(&cur, &first_ovf) ||
      !GetFixed16(&cur, &head_len) || cur.size() < head_len) {
    return Status::Corruption("malformed overflow stub");
  }
  out->clear();
  out->reserve(total);
  out->append(cur.data(), head_len);
  uint32_t pid = first_ovf;
  while (pid != kInvalidPageId) {
    HAZY_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(pid));
    const char* p = h.data();
    uint32_t next = DecodeFixed32(p);
    uint32_t used = DecodeFixed32(p + 4);
    out->append(p + kOvfHeaderSize, used);
    pid = next;
  }
  if (out->size() != total) {
    return Status::Corruption(StrFormat("overflow chain has %zu bytes, stub says %u",
                                        out->size(), total));
  }
  return Status::OK();
}

Status HeapFile::FreeOverflowChain(std::string_view stub) {
  std::string_view cur = stub.substr(1);
  uint32_t total = 0, first_ovf = 0;
  if (!GetFixed32(&cur, &total) || !GetFixed32(&cur, &first_ovf)) {
    return Status::Corruption("malformed overflow stub");
  }
  uint32_t pid = first_ovf;
  while (pid != kInvalidPageId) {
    uint32_t next;
    {
      HAZY_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(pid));
      next = DecodeFixed32(h.data());
    }
    pool_->FreePage(pid);
    --num_overflow_pages_;
    pid = next;
  }
  return Status::OK();
}

StatusOr<HeapFile::PageCursor> HeapFile::OpenPage(uint32_t pid) const {
  PageCursor cur;
  HAZY_ASSIGN_OR_RETURN(cur.handle_, pool_->Fetch(pid));
  cur.pid_ = pid;
  cur.count_ = SlottedPage(cur.handle_.data()).slot_count();
  return cur;
}

bool HeapFile::PageCursor::Next() {
  SlottedPage page(handle_.data());
  while (slot_ < count_) {
    uint16_t s = static_cast<uint16_t>(slot_++);
    uint16_t size = 0;
    char* data = page.GetMutable(s, &size);
    if (data == nullptr) continue;
    if (data[0] == kInlineTag) {
      head_ = data + 1;
      bytes_ = std::string_view(head_, size - 1);
      partial_ = false;
      return true;
    }
    auto head = StubHead(std::string_view(data, size));
    if (!head.ok()) {
      status_ = head.status();
      return false;
    }
    head_ = data + kStubHeaderSize;
    bytes_ = *head;
    partial_ = true;
    return true;
  }
  return false;
}

Status HeapFile::Get(Rid rid, std::string* out) const {
  HAZY_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(rid.page_id));
  std::string_view rec = SlottedPage(h.data()).Get(rid.slot);
  if (rec.empty()) return RecordNotFound(rid);
  if (rec[0] == kInlineTag) {
    out->assign(rec.data() + 1, rec.size() - 1);
    return Status::OK();
  }
  return MaterializeOverflow(rec, out);
}

Status HeapFile::Delete(Rid rid) {
  HAZY_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(rid.page_id));
  SlottedPage page(h.data());
  std::string_view rec = page.Get(rid.slot);
  if (rec.empty()) return RecordNotFound(rid);
  if (rec[0] == kOverflowTag) {
    std::string stub(rec);
    h.Release();
    HAZY_RETURN_NOT_OK(FreeOverflowChain(stub));
    HAZY_ASSIGN_OR_RETURN(h, pool_->Fetch(rid.page_id));
    page = SlottedPage(h.data());
  }
  if (!page.Delete(rid.slot)) {
    return Status::NotFound("record vanished during delete");
  }
  h.MarkDirty();
  --num_records_;
  return Status::OK();
}

Status HeapFile::CollectPages(std::vector<uint32_t>* out) const {
  uint32_t pid = first_page_;
  uint64_t visited = 0;
  while (pid != kInvalidPageId) {
    if (++visited > num_pages_) {
      return Status::Corruption("heap page chain longer than metadata count");
    }
    out->push_back(pid);
    HAZY_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(pid));
    SlottedPage page(h.data());
    uint32_t next = page.next_page();
    // Walk every overflow chain hanging off this page's stubs.
    uint16_t count = page.slot_count();
    for (uint16_t s = 0; s < count; ++s) {
      std::string_view rec = page.Get(s);
      if (rec.empty() || rec[0] != kOverflowTag) continue;
      std::string_view cur = rec.substr(1);
      uint32_t total = 0, ovf = 0;
      if (!GetFixed32(&cur, &total) || !GetFixed32(&cur, &ovf)) {
        return Status::Corruption("malformed overflow stub");
      }
      uint64_t ovf_visited = 0;
      while (ovf != kInvalidPageId) {
        if (++ovf_visited > num_overflow_pages_) {
          return Status::Corruption("overflow chain longer than metadata count");
        }
        out->push_back(ovf);
        HAZY_ASSIGN_OR_RETURN(PageHandle oh, pool_->Fetch(ovf));
        ovf = DecodeFixed32(oh.data());
      }
    }
    pid = next;
  }
  return Status::OK();
}

Status HeapFile::Truncate() {
  HAZY_RETURN_NOT_OK(Destroy());
  return Create();
}

Status HeapFile::Destroy() {
  uint32_t pid = first_page_;
  while (pid != kInvalidPageId) {
    uint32_t next;
    {
      HAZY_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(pid));
      SlottedPage page(h.data());
      next = page.next_page();
      // Free any overflow chains hanging off this page.
      uint16_t count = page.slot_count();
      std::vector<std::string> stubs;
      for (uint16_t s = 0; s < count; ++s) {
        std::string_view rec = page.Get(s);
        if (!rec.empty() && rec[0] == kOverflowTag) stubs.emplace_back(rec);
      }
      h.Release();
      for (const auto& stub : stubs) HAZY_RETURN_NOT_OK(FreeOverflowChain(stub));
    }
    pool_->FreePage(pid);
    pid = next;
  }
  first_page_ = last_page_ = kInvalidPageId;
  num_records_ = 0;
  num_pages_ = 0;
  num_overflow_pages_ = 0;
  pages_.clear();
  return Status::OK();
}

}  // namespace hazy::storage
