#include "storage/pager.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>

#include "common/strings.h"

namespace hazy::storage {

Pager::~Pager() {
  if (fd_ >= 0) Close().ok();
}

Status Pager::Open(const std::string& path, bool preserve_existing) {
  if (fd_ >= 0) return Status::InvalidArgument("pager already open");
  int flags = O_RDWR | O_CREAT | (preserve_existing ? 0 : O_TRUNC);
  int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) {
    return Status::IOError(StrFormat("open %s: %s", path.c_str(), std::strerror(errno)));
  }
  fd_ = fd;
  path_ = path;
  num_pages_.store(0, std::memory_order_release);
  if (preserve_existing) {
    off_t size = ::lseek(fd, 0, SEEK_END);
    if (size < 0) {
      ::close(fd);
      fd_ = -1;
      return Status::IOError(StrFormat("lseek %s: %s", path.c_str(), std::strerror(errno)));
    }
    num_pages_.store(static_cast<uint32_t>(static_cast<uint64_t>(size) / kPageSize),
                     std::memory_order_release);
  }
  free_list_.clear();
  return Status::OK();
}

Status Pager::Close() {
  if (fd_ < 0) return Status::InvalidArgument("pager not open");
  ::close(fd_);
  fd_ = -1;
  return Status::OK();
}

StatusOr<uint32_t> Pager::Allocate() {
  if (fd_ < 0) return Status::InvalidArgument("pager not open");
  stats_.allocs.fetch_add(1, std::memory_order_relaxed);
  if (!free_list_.empty()) {
    uint32_t pid = free_list_.back();
    free_list_.pop_back();
    return pid;
  }
  uint32_t pid = num_pages_.fetch_add(1, std::memory_order_acq_rel);
  // Extend the file with a zero page so later reads are well-defined.
  static const char kZeros[kPageSize] = {};
  Status s = Write(pid, kZeros);
  if (!s.ok()) {
    // Give the id back, or it stays a hole in the file. No later id can be
    // taken meanwhile: BufferPool::New allocates under the pool mutex.
    num_pages_.store(pid, std::memory_order_release);
    return s;
  }
  return pid;
}

void Pager::Free(uint32_t page_id) {
  if (quarantine_frees_) {
    quarantined_.push_back(page_id);
  } else {
    free_list_.push_back(page_id);
  }
}

Status Pager::Read(uint32_t page_id, char* buf) {
  if (fd_ < 0) return Status::InvalidArgument("pager not open");
  if (page_id >= num_pages()) {
    return Status::OutOfRange(StrFormat("read of page %u beyond end (%u pages)",
                                        page_id, num_pages()));
  }
  auto hook = fault_hook();
  if (hook && (*hook)("page_read", page_id) != kFaultNone) {
    return Status::IOError(StrFormat("injected fault reading page %u", page_id));
  }
  ssize_t n = ::pread(fd_, buf, kPageSize, static_cast<off_t>(page_id) * kPageSize);
  if (n != static_cast<ssize_t>(kPageSize)) {
    return Status::IOError(StrFormat("pread page %u: %s", page_id, std::strerror(errno)));
  }
  stats_.reads.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status Pager::Write(uint32_t page_id, const char* buf) {
  if (fd_ < 0) return Status::InvalidArgument("pager not open");
  size_t len = kPageSize;
  auto hook = fault_hook();
  if (hook) {
    int action = (*hook)("page_write", page_id);
    if (action == kFaultFail) {
      return Status::IOError(StrFormat("injected fault writing page %u", page_id));
    }
    if (action >= 0) {
      // Torn write: persist a prefix, then report the crash.
      len = std::min<size_t>(static_cast<size_t>(action), kPageSize);
      if (len > 0) {
        ::pwrite(fd_, buf, len, static_cast<off_t>(page_id) * kPageSize);
      }
      return Status::IOError(StrFormat("injected torn write of page %u (%zu bytes)",
                                       page_id, len));
    }
  }
  ssize_t n = ::pwrite(fd_, buf, len, static_cast<off_t>(page_id) * kPageSize);
  if (n != static_cast<ssize_t>(len)) {
    return Status::IOError(StrFormat("pwrite page %u: %s", page_id, std::strerror(errno)));
  }
  stats_.writes.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status Pager::Sync() {
  if (fd_ < 0) return Status::InvalidArgument("pager not open");
  auto hook = fault_hook();
  if (hook && (*hook)("fdatasync", kInvalidPageId) != kFaultNone) {
    return Status::IOError("injected fault in fdatasync");
  }
  if (::fdatasync(fd_) != 0) {
    return Status::IOError(StrFormat("fdatasync: %s", std::strerror(errno)));
  }
  return Status::OK();
}

Status Pager::TruncateTo(uint32_t num_pages) {
  if (fd_ < 0) return Status::InvalidArgument("pager not open");
  if (::ftruncate(fd_, static_cast<off_t>(num_pages) * kPageSize) != 0) {
    return Status::IOError(StrFormat("ftruncate: %s", std::strerror(errno)));
  }
  num_pages_.store(num_pages, std::memory_order_release);
  return Status::OK();
}

std::string TempFilePath(const std::string& hint) {
  static std::atomic<uint64_t> counter{0};
  const char* tmp = ::getenv("TMPDIR");
  std::string dir = tmp ? tmp : "/tmp";
  return StrFormat("%s/hazy_%s_%d_%llu.db", dir.c_str(), hint.c_str(),
                   static_cast<int>(::getpid()),
                   static_cast<unsigned long long>(counter.fetch_add(1)));
}

}  // namespace hazy::storage
