#include "server/session.h"

#include "common/strings.h"
#include "sql/metrics_result.h"
#include "sql/parser.h"

namespace hazy::server {

namespace {

/// Cap on prepared statements per session — a leaked PREPARE loop must not
/// grow server memory without bound.
constexpr size_t kMaxPreparedPerSession = 1024;

}  // namespace

Session::Session(uint64_t id, engine::Database* db)
    : id_(id), executor_(db) {}

std::string Session::BusyFrame(uint32_t request_id) {
  std::string payload;
  rpc::EncodeErrorPayload(
      Status::ResourceExhausted("admission queue full; retry"), &payload);
  std::string frame;
  rpc::EncodeFrame(rpc::Opcode::kBusy, request_id, payload, &frame);
  return frame;
}

std::string Session::StatsFrame(const rpc::FrameView& frame) {
  return ResultFrame(frame.request_id,
                     sql::MetricsResultSet(std::string(frame.payload)));
}

std::string Session::ErrorFrame(uint32_t request_id, const Status& status) {
  std::string payload;
  rpc::EncodeErrorPayload(status, &payload);
  std::string frame;
  rpc::EncodeFrame(rpc::Opcode::kError, request_id, payload, &frame);
  return frame;
}

std::string Session::EmptyFrame(rpc::Opcode op, uint32_t request_id) {
  std::string frame;
  rpc::EncodeFrame(op, request_id, {}, &frame);
  return frame;
}

std::string Session::ResultFrame(uint32_t request_id, const sql::ResultSet& rs) {
  // The columns give the encoded size up front. A frame over the cap fails
  // the client's decoder and is never drained, which would break every
  // later response on the connection, so it is refused before any byte of
  // it is built.
  StatusOr<uint64_t> payload_bytes = rs.EncodedSize();
  if (!payload_bytes.ok()) return ErrorFrame(request_id, payload_bytes.status());
  const uint64_t frame_bytes = *payload_bytes + 5;  // + opcode + request id
  if (frame_bytes > rpc::kMaxFrameBytes) {
    return ErrorFrame(request_id,
                      Status::ResourceExhausted(StrFormat(
                          "result frame of %llu bytes exceeds the %u-byte cap",
                          static_cast<unsigned long long>(frame_bytes),
                          rpc::kMaxFrameBytes)));
  }
  // Encoded straight into the frame: the reply's only copy before send().
  std::string frame;
  frame.reserve(rpc::kFrameHeaderBytes + *payload_bytes);
  rpc::EncodeFrameHeader(rpc::Opcode::kResult, request_id, *payload_bytes, &frame);
  Status s = rs.Encode(&frame);
  if (!s.ok()) return ErrorFrame(request_id, s);
  return frame;
}

size_t Session::num_prepared() const {
  MutexLock lock(mu_);
  return prepared_.size();
}

std::string Session::HandleFrame(const rpc::FrameView& frame, bool* close_after) {
  *close_after = false;
  MutexLock lock(mu_);
  return HandleLocked(frame, close_after);
}

std::string Session::HandleLocked(const rpc::FrameView& frame, bool* close_after) {
  switch (frame.opcode) {
    case rpc::Opcode::kHello: {
      uint32_t version = 0;
      std::string client_name;
      Status s = rpc::DecodeHelloPayload(frame.payload, &version, &client_name);
      if (!s.ok()) return ErrorFrame(frame.request_id, s);
      if (version != rpc::kProtocolVersion) {
        return ErrorFrame(
            frame.request_id,
            Status::NotSupported(StrFormat(
                "client speaks protocol %u, server speaks %u", version,
                rpc::kProtocolVersion)));
      }
      std::string payload;
      rpc::EncodeHelloPayload(rpc::kProtocolVersion, "hazy", &payload);
      std::string out;
      rpc::EncodeFrame(rpc::Opcode::kHelloOk, frame.request_id, payload, &out);
      return out;
    }

    case rpc::Opcode::kQuery: {
      auto rs = executor_.Execute(std::string(frame.payload));
      if (!rs.ok()) return ErrorFrame(frame.request_id, rs.status());
      return ResultFrame(frame.request_id, *rs);
    }

    case rpc::Opcode::kPrepare: {
      if (prepared_.size() >= kMaxPreparedPerSession) {
        return ErrorFrame(frame.request_id,
                          Status::ResourceExhausted(StrFormat(
                              "session holds %zu prepared statements",
                              prepared_.size())));
      }
      auto tmpl = sql::ParseTemplate(std::string(frame.payload));
      if (!tmpl.ok()) return ErrorFrame(frame.request_id, tmpl.status());
      const uint32_t stmt_id = next_stmt_id_++;
      const uint32_t num_params = static_cast<uint32_t>(tmpl->num_params());
      prepared_.emplace(stmt_id, std::move(*tmpl));
      std::string payload;
      rpc::EncodePreparedPayload(stmt_id, num_params, &payload);
      std::string out;
      rpc::EncodeFrame(rpc::Opcode::kPrepared, frame.request_id, payload, &out);
      return out;
    }

    case rpc::Opcode::kExecPrepared: {
      uint32_t stmt_id = 0;
      std::vector<storage::Value> params;
      Status s = rpc::DecodeExecPayload(frame.payload, &stmt_id, &params);
      if (!s.ok()) return ErrorFrame(frame.request_id, s);
      auto it = prepared_.find(stmt_id);
      if (it == prepared_.end()) {
        return ErrorFrame(frame.request_id,
                          Status::NotFound(StrFormat(
                              "no prepared statement with id %u", stmt_id)));
      }
      auto rs = executor_.Execute(it->second, params);
      if (!rs.ok()) return ErrorFrame(frame.request_id, rs.status());
      return ResultFrame(frame.request_id, *rs);
    }

    case rpc::Opcode::kCloseStmt: {
      uint32_t stmt_id = 0;
      Status s = rpc::DecodeCloseStmtPayload(frame.payload, &stmt_id);
      if (!s.ok()) return ErrorFrame(frame.request_id, s);
      if (prepared_.erase(stmt_id) == 0) {
        return ErrorFrame(frame.request_id,
                          Status::NotFound(StrFormat(
                              "no prepared statement with id %u", stmt_id)));
      }
      return EmptyFrame(rpc::Opcode::kStmtClosed, frame.request_id);
    }

    case rpc::Opcode::kStats:
      // Loopback path; the socket server answers this on the reactor thread
      // without entering the session at all.
      return StatsFrame(frame);

    case rpc::Opcode::kPing:
      return EmptyFrame(rpc::Opcode::kPong, frame.request_id);

    case rpc::Opcode::kGoodbye:
      *close_after = true;
      return EmptyFrame(rpc::Opcode::kGoodbyeOk, frame.request_id);

    default:
      return ErrorFrame(
          frame.request_id,
          Status::InvalidArgument(StrFormat("opcode %s is not a request",
                                            rpc::OpcodeName(frame.opcode))));
  }
}

}  // namespace hazy::server
