#include "client/hazy_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/strings.h"
#include "storage/coding.h"

namespace hazy::client {

namespace {

// First read of a reply, before its length is known: enough for every
// small reply in one recv().
constexpr size_t kHeadRead = 4096;

Status Errno(const char* what) {
  return Status::IOError(StrFormat("%s: %s", what, std::strerror(errno)));
}

}  // namespace

StatusOr<std::unique_ptr<HazyClient>> HazyClient::Connect(
    const std::string& host, uint16_t port, const std::string& client_name) {
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument(StrFormat("bad server address '%s'", host.c_str()));
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Errno("socket");
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status s = Errno("connect");
    ::close(fd);
    return s;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  auto client = std::unique_ptr<HazyClient>(new HazyClient());
  client->fd_ = fd;
  HAZY_RETURN_NOT_OK(client->Handshake(client_name));
  return client;
}

StatusOr<std::unique_ptr<HazyClient>> HazyClient::Loopback(
    engine::Database* db, const std::string& client_name) {
  auto client = std::unique_ptr<HazyClient>(new HazyClient());
  client->session_ = std::make_unique<server::Session>(/*id=*/0, db);
  HAZY_RETURN_NOT_OK(client->Handshake(client_name));
  return client;
}

HazyClient::~HazyClient() {
  Close().ok();  // best effort
}

Status HazyClient::Handshake(const std::string& client_name) {
  std::string payload;
  rpc::EncodeHelloPayload(rpc::kProtocolVersion, client_name, &payload);
  HAZY_ASSIGN_OR_RETURN(rpc::FrameView reply, RoundTrip(rpc::Opcode::kHello, payload));
  if (reply.opcode != rpc::Opcode::kHelloOk) {
    return Status::Internal(StrFormat("HELLO answered with %s",
                                      rpc::OpcodeName(reply.opcode)));
  }
  uint32_t server_version = 0;
  HAZY_RETURN_NOT_OK(
      rpc::DecodeHelloPayload(reply.payload, &server_version, &server_name_));
  if (server_version != rpc::kProtocolVersion) {
    return Status::NotSupported(StrFormat(
        "server speaks protocol %u, client speaks %u", server_version,
        rpc::kProtocolVersion));
  }
  return Status::OK();
}

Status HazyClient::SendAll(std::string_view bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

StatusOr<size_t> HazyClient::ReadFrame() {
  for (;;) {
    rpc::FrameView frame;
    size_t frame_bytes = 0;
    std::string error;
    const rpc::FrameDecode rc =
        rpc::TryDecodeFrame(recv_buf_, &frame, &frame_bytes, &error);
    if (rc == rpc::FrameDecode::kBad) {
      return Status::Corruption(StrFormat("bad frame from server: %s", error.c_str()));
    }
    if (rc == rpc::FrameDecode::kFrame) return frame_bytes;
    // recv() writes straight into the buffer the reply is decoded from: a
    // small read until the length is in, then the rest of the frame.
    size_t want = kHeadRead;
    if (recv_buf_.size() >= 4) {
      want = 4 + static_cast<size_t>(storage::DecodeFixed32(recv_buf_.data())) -
             recv_buf_.size();
    }
    const size_t old_size = recv_buf_.size();
    recv_buf_.resize(old_size + want);
    const ssize_t n = ::recv(fd_, recv_buf_.data() + old_size, want, 0);
    if (n < 0) {
      const Status s = errno == EINTR ? Status::OK() : Errno("recv");
      recv_buf_.resize(old_size);
      HAZY_RETURN_NOT_OK(s);
      continue;
    }
    recv_buf_.resize(old_size + static_cast<size_t>(n));
    if (n == 0) return Status::IOError("server closed the connection");
  }
}

Status HazyClient::Exchange(rpc::Opcode op, std::string_view payload,
                            std::string_view* raw, rpc::FrameView* reply) {
  if (closed_) return Status::InvalidArgument("client is closed");
  // The previous reply is no longer referenced.
  recv_buf_.erase(0, recv_used_);
  recv_used_ = 0;
  const uint32_t request_id = next_request_id_++;
  std::string request;
  rpc::EncodeFrame(op, request_id, payload, &request);

  if (session_ != nullptr) {
    rpc::FrameView view;
    size_t frame_bytes = 0;
    std::string error;
    if (rpc::TryDecodeFrame(request, &view, &frame_bytes, &error) !=
        rpc::FrameDecode::kFrame) {
      return Status::Internal(StrFormat("self-encoded frame invalid: %s",
                                        error.c_str()));
    }
    bool close_after = false;
    loopback_reply_ = session_->HandleFrame(view, &close_after);
    if (close_after) closed_ = true;
    *raw = loopback_reply_;
  } else {
    HAZY_RETURN_NOT_OK(SendAll(request));
    HAZY_ASSIGN_OR_RETURN(recv_used_, ReadFrame());
    *raw = std::string_view(recv_buf_).substr(0, recv_used_);
  }

  // A synchronous client has exactly one request outstanding; the response
  // id must echo it.
  size_t frame_bytes = 0;
  if (rpc::TryDecodeFrame(*raw, reply, &frame_bytes, nullptr) !=
      rpc::FrameDecode::kFrame) {
    return Status::Corruption("undecodable response frame");
  }
  if (reply->request_id != request_id) {
    return Status::Corruption(StrFormat("response id %u for request id %u",
                                        reply->request_id, request_id));
  }
  return Status::OK();
}

StatusOr<std::string> HazyClient::RoundTripRaw(rpc::Opcode op,
                                               std::string_view payload) {
  std::string_view raw;
  rpc::FrameView reply;
  HAZY_RETURN_NOT_OK(Exchange(op, payload, &raw, &reply));
  return std::string(raw);
}

StatusOr<rpc::FrameView> HazyClient::RoundTrip(rpc::Opcode op,
                                               std::string_view payload) {
  std::string_view raw;
  rpc::FrameView reply;
  HAZY_RETURN_NOT_OK(Exchange(op, payload, &raw, &reply));
  if (reply.opcode == rpc::Opcode::kError || reply.opcode == rpc::Opcode::kBusy) {
    return rpc::DecodeErrorPayload(reply.payload);
  }
  return reply;
}

StatusOr<sql::ResultSet> HazyClient::Query(const std::string& sql) {
  HAZY_ASSIGN_OR_RETURN(rpc::FrameView reply, RoundTrip(rpc::Opcode::kQuery, sql));
  if (reply.opcode != rpc::Opcode::kResult) {
    return Status::Internal(StrFormat("QUERY answered with %s",
                                      rpc::OpcodeName(reply.opcode)));
  }
  return sql::ResultSet::Decode(reply.payload);
}

StatusOr<PreparedHandle> HazyClient::Prepare(const std::string& sql_template) {
  HAZY_ASSIGN_OR_RETURN(rpc::FrameView reply,
                        RoundTrip(rpc::Opcode::kPrepare, sql_template));
  if (reply.opcode != rpc::Opcode::kPrepared) {
    return Status::Internal(StrFormat("PREPARE answered with %s",
                                      rpc::OpcodeName(reply.opcode)));
  }
  PreparedHandle handle;
  HAZY_RETURN_NOT_OK(
      rpc::DecodePreparedPayload(reply.payload, &handle.id, &handle.num_params));
  return handle;
}

StatusOr<sql::ResultSet> HazyClient::ExecPrepared(
    const PreparedHandle& handle, const std::vector<storage::Value>& params) {
  if (params.size() != handle.num_params) {
    return Status::InvalidArgument(
        StrFormat("statement %u takes %u parameters, got %zu", handle.id,
                  handle.num_params, params.size()));
  }
  std::string payload;
  rpc::EncodeExecPayload(handle.id, params, &payload);
  HAZY_ASSIGN_OR_RETURN(rpc::FrameView reply,
                        RoundTrip(rpc::Opcode::kExecPrepared, payload));
  if (reply.opcode != rpc::Opcode::kResult) {
    return Status::Internal(StrFormat("EXEC_PREPARED answered with %s",
                                      rpc::OpcodeName(reply.opcode)));
  }
  return sql::ResultSet::Decode(reply.payload);
}

Status HazyClient::CloseStmt(const PreparedHandle& handle) {
  std::string payload;
  rpc::EncodeCloseStmtPayload(handle.id, &payload);
  HAZY_ASSIGN_OR_RETURN(rpc::FrameView reply,
                        RoundTrip(rpc::Opcode::kCloseStmt, payload));
  if (reply.opcode != rpc::Opcode::kStmtClosed) {
    return Status::Internal(StrFormat("CLOSE_STMT answered with %s",
                                      rpc::OpcodeName(reply.opcode)));
  }
  return Status::OK();
}

StatusOr<sql::ResultSet> HazyClient::Stats(const std::string& like) {
  HAZY_ASSIGN_OR_RETURN(rpc::FrameView reply, RoundTrip(rpc::Opcode::kStats, like));
  if (reply.opcode != rpc::Opcode::kResult) {
    return Status::Internal(StrFormat("STATS answered with %s",
                                      rpc::OpcodeName(reply.opcode)));
  }
  return sql::ResultSet::Decode(reply.payload);
}

Status HazyClient::Ping() {
  HAZY_ASSIGN_OR_RETURN(rpc::FrameView reply, RoundTrip(rpc::Opcode::kPing, {}));
  if (reply.opcode != rpc::Opcode::kPong) {
    return Status::Internal(StrFormat("PING answered with %s",
                                      rpc::OpcodeName(reply.opcode)));
  }
  return Status::OK();
}

Status HazyClient::Close() {
  if (closed_) return Status::OK();
  Status s = Status::OK();
  auto reply = RoundTrip(rpc::Opcode::kGoodbye, {});
  if (!reply.ok()) {
    s = reply.status();
  } else if (reply->opcode != rpc::Opcode::kGoodbyeOk) {
    s = Status::Internal(StrFormat("GOODBYE answered with %s",
                                   rpc::OpcodeName(reply->opcode)));
  }
  closed_ = true;
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  session_.reset();
  return s;
}

}  // namespace hazy::client
