#include "rpc/reactor.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/strings.h"

namespace hazy::rpc {

namespace {

constexpr uint64_t kListenSentinel = 0;
constexpr uint64_t kWakeSentinel = 1;

// Bytes read per readable event. Level-triggered epoll re-reports the fd if
// more input remains, so one bounded read per event keeps a firehose
// connection from starving the rest.
constexpr size_t kReadChunk = 256 * 1024;

Status Errno(const char* what) {
  return Status::IOError(StrFormat("%s: %s", what, std::strerror(errno)));
}

}  // namespace

Reactor::Reactor(ReactorOptions options, ReactorHandler* handler)
    : options_(std::move(options)), handler_(handler) {}

Reactor::~Reactor() {
  for (auto& [id, conn] : conns_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

Status Reactor::Open() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return Errno("socket");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument(
        StrFormat("bad listen address '%s'", options_.host.c_str()));
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Errno("bind");
  }
  if (::listen(listen_fd_, SOMAXCONN) != 0) return Errno("listen");

  sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len) != 0) {
    return Errno("getsockname");
  }
  bound_port_ = ntohs(bound.sin_port);

  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) return Errno("eventfd");

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return Errno("epoll_create1");

  epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN;
  ev.data.u64 = kListenSentinel;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) {
    return Errno("epoll_ctl(listen)");
  }
  ev.data.u64 = kWakeSentinel;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    return Errno("epoll_ctl(wake)");
  }
  return Status::OK();
}

void Reactor::Stop() {
  {
    MutexLock lock(mu_);
    stop_requested_ = true;
  }
  Wake();
}

void Reactor::Send(uint64_t conn_id, std::string bytes, bool close_after_flush) {
  {
    MutexLock lock(mu_);
    pending_sends_.push_back(PendingSend{conn_id, std::move(bytes), close_after_flush});
  }
  Wake();
}

void Reactor::CloseConnection(uint64_t conn_id) {
  {
    MutexLock lock(mu_);
    pending_closes_.push_back(conn_id);
  }
  Wake();
}

void Reactor::Wake() {
  uint64_t one = 1;
  // An EAGAIN here means the counter is already non-zero: the loop is waking.
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void Reactor::Run() {
  constexpr int kMaxEvents = 128;
  epoll_event events[kMaxEvents];
  for (;;) {
    {
      MutexLock lock(mu_);
      if (stop_requested_) break;
    }
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll itself failed; nothing recoverable
    }
    for (int i = 0; i < n; ++i) {
      const uint64_t id = events[i].data.u64;
      const uint32_t flags = events[i].events;
      if (id == kListenSentinel) {
        AcceptAll();
        continue;
      }
      if (id == kWakeSentinel) {
        uint64_t drained;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        DrainPending();
        continue;
      }
      if (conns_.find(id) == conns_.end()) continue;  // closed earlier this batch
      if (flags & (EPOLLHUP | EPOLLERR)) {
        DestroyConn(id);
        continue;
      }
      if (flags & EPOLLIN) HandleReadable(id);
      if ((flags & EPOLLOUT) && conns_.count(id)) HandleWritable(id);
    }
  }
  // The loop is done: close every accepted connection so a peer blocked in
  // recv() sees EOF instead of a half-open socket nobody will ever answer.
  while (!conns_.empty()) DestroyConn(conns_.begin()->first);
}

void Reactor::AcceptAll() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // EMFILE etc.: retry on the next accept event
    }
    if (conns_.size() >= options_.max_connections) {
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const uint64_t id = next_conn_id_++;
    Conn& conn = conns_[id];
    conn.fd = fd;
    epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN;
    ev.data.u64 = id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      conns_.erase(id);
      continue;
    }
    num_connections_.fetch_add(1, std::memory_order_relaxed);
    handler_->OnConnect(id);
  }
}

void Reactor::HandleReadable(uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  Conn& conn = it->second;

  const size_t old_size = conn.in.size();
  conn.in.resize(old_size + kReadChunk);
  const ssize_t n = ::read(conn.fd, conn.in.data() + old_size, kReadChunk);
  if (n <= 0) {
    conn.in.resize(old_size);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) return;
    DestroyConn(conn_id);  // EOF or hard error
    return;
  }
  conn.in.resize(old_size + static_cast<size_t>(n));

  size_t consumed = 0;
  for (;;) {
    FrameView frame;
    size_t frame_bytes = 0;
    std::string error;
    const std::string_view rest =
        std::string_view(conn.in).substr(consumed);
    const FrameDecode rc = TryDecodeFrame(rest, &frame, &frame_bytes, &error);
    if (rc == FrameDecode::kNeedMore) break;
    if (rc == FrameDecode::kBad) {
      DestroyConn(conn_id);
      return;
    }
    handler_->OnFrame(conn_id, frame);
    // The handler may have closed the connection (protocol violation).
    if (conns_.find(conn_id) == conns_.end()) return;
    consumed += frame_bytes;
  }
  if (consumed > 0) conn.in.erase(0, consumed);
}

void Reactor::HandleWritable(uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  FlushOutput(conn_id, &it->second);
}

void Reactor::FlushOutput(uint64_t conn_id, Conn* conn) {
  while (conn->out_off < conn->out.size()) {
    // MSG_NOSIGNAL: a peer that vanished mid-response must surface as EPIPE,
    // not kill the process with SIGPIPE.
    const ssize_t n = ::send(conn->fd, conn->out.data() + conn->out_off,
                             conn->out.size() - conn->out_off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      DestroyConn(conn_id);
      return;
    }
    conn->out_off += static_cast<size_t>(n);
  }
  if (conn->out_off >= conn->out.size()) {
    conn->out.clear();
    conn->out_off = 0;
    if (conn->close_after_flush) {
      DestroyConn(conn_id);
      return;
    }
  }
  UpdateInterest(conn_id, conn);
}

void Reactor::UpdateInterest(uint64_t conn_id, Conn* conn) {
  const bool want_write = conn->out_off < conn->out.size();
  if (want_write == conn->want_write) return;
  conn->want_write = want_write;
  epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN | (want_write ? static_cast<uint32_t>(EPOLLOUT) : 0u);
  ev.data.u64 = conn_id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

void Reactor::DrainPending() {
  std::vector<PendingSend> sends;
  std::vector<uint64_t> closes;
  {
    MutexLock lock(mu_);
    sends.swap(pending_sends_);
    closes.swap(pending_closes_);
  }
  for (auto& s : sends) {
    auto it = conns_.find(s.conn_id);
    if (it == conns_.end()) continue;  // peer already gone
    Conn& conn = it->second;
    // An idle connection takes the reply buffer itself: the bytes the
    // session encoded are the bytes send() reads, with no copy between.
    if (conn.out.empty()) {
      conn.out = std::move(s.bytes);
    } else {
      conn.out.append(s.bytes);
    }
    if (s.close_after_flush) conn.close_after_flush = true;
    FlushOutput(s.conn_id, &conn);
  }
  for (uint64_t id : closes) DestroyConn(id);
}

void Reactor::DestroyConn(uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second.fd, nullptr);
  ::close(it->second.fd);
  conns_.erase(it);
  num_connections_.fetch_sub(1, std::memory_order_relaxed);
  handler_->OnDisconnect(conn_id);
}

}  // namespace hazy::rpc
