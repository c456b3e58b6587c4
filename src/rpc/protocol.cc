#include "rpc/protocol.h"

#include "common/strings.h"
#include "sql/result_set.h"
#include "storage/coding.h"

namespace hazy::rpc {

bool IsKnownOpcode(uint8_t op) {
  switch (static_cast<Opcode>(op)) {
    case Opcode::kHello:
    case Opcode::kQuery:
    case Opcode::kPrepare:
    case Opcode::kExecPrepared:
    case Opcode::kCloseStmt:
    case Opcode::kPing:
    case Opcode::kGoodbye:
    case Opcode::kStats:
    case Opcode::kHelloOk:
    case Opcode::kResult:
    case Opcode::kPrepared:
    case Opcode::kStmtClosed:
    case Opcode::kPong:
    case Opcode::kGoodbyeOk:
    case Opcode::kError:
    case Opcode::kBusy:
      return true;
  }
  return false;
}

const char* OpcodeName(Opcode op) {
  switch (op) {
    case Opcode::kHello:
      return "HELLO";
    case Opcode::kQuery:
      return "QUERY";
    case Opcode::kPrepare:
      return "PREPARE";
    case Opcode::kExecPrepared:
      return "EXEC_PREPARED";
    case Opcode::kCloseStmt:
      return "CLOSE_STMT";
    case Opcode::kPing:
      return "PING";
    case Opcode::kGoodbye:
      return "GOODBYE";
    case Opcode::kStats:
      return "STATS";
    case Opcode::kHelloOk:
      return "HELLO_OK";
    case Opcode::kResult:
      return "RESULT";
    case Opcode::kPrepared:
      return "PREPARED";
    case Opcode::kStmtClosed:
      return "STMT_CLOSED";
    case Opcode::kPong:
      return "PONG";
    case Opcode::kGoodbyeOk:
      return "GOODBYE_OK";
    case Opcode::kError:
      return "ERROR";
    case Opcode::kBusy:
      return "BUSY";
  }
  return "?";
}

void EncodeFrame(Opcode opcode, uint32_t request_id, std::string_view payload,
                 std::string* out) {
  EncodeFrameHeader(opcode, request_id, payload.size(), out);
  out->append(payload.data(), payload.size());
}

void EncodeFrameHeader(Opcode opcode, uint32_t request_id, size_t payload_bytes,
                       std::string* out) {
  storage::PutFixed32(out, static_cast<uint32_t>(payload_bytes + 5));
  out->push_back(static_cast<char>(opcode));
  storage::PutFixed32(out, request_id);
}

FrameDecode TryDecodeFrame(std::string_view buf, FrameView* frame,
                           size_t* frame_bytes, std::string* error) {
  if (buf.size() < 4) return FrameDecode::kNeedMore;
  const uint32_t length = storage::DecodeFixed32(buf.data());
  if (length < 5) {
    if (error != nullptr) {
      *error = StrFormat("frame length %u below the 5-byte header", length);
    }
    return FrameDecode::kBad;
  }
  if (length > kMaxFrameBytes) {
    if (error != nullptr) {
      *error = StrFormat("frame length %u exceeds the %u-byte cap", length,
                         kMaxFrameBytes);
    }
    return FrameDecode::kBad;
  }
  // Validate the opcode as soon as its byte is present: a garbage stream
  // fails fast instead of waiting for `length` bytes that never come.
  if (buf.size() >= 5 && !IsKnownOpcode(static_cast<uint8_t>(buf[4]))) {
    if (error != nullptr) {
      *error = StrFormat("unknown opcode 0x%02x",
                         static_cast<unsigned>(static_cast<uint8_t>(buf[4])));
    }
    return FrameDecode::kBad;
  }
  if (buf.size() < 4 + static_cast<size_t>(length)) return FrameDecode::kNeedMore;
  frame->opcode = static_cast<Opcode>(static_cast<uint8_t>(buf[4]));
  frame->request_id = storage::DecodeFixed32(buf.data() + 5);
  frame->payload = buf.substr(kFrameHeaderBytes, length - 5);
  *frame_bytes = 4 + static_cast<size_t>(length);
  return FrameDecode::kFrame;
}

void EncodeHelloPayload(uint32_t version, std::string_view name, std::string* out) {
  storage::PutFixed32(out, version);
  out->append(name.data(), name.size());
}

Status DecodeHelloPayload(std::string_view payload, uint32_t* version,
                          std::string* name) {
  if (!storage::GetFixed32(&payload, version)) {
    return Status::Corruption("truncated HELLO payload");
  }
  name->assign(payload.data(), payload.size());
  return Status::OK();
}

void EncodeErrorPayload(const Status& status, std::string* out) {
  out->push_back(static_cast<char>(StatusCodeToWire(status.code())));
  out->append(status.message());
}

Status DecodeErrorPayload(std::string_view payload) {
  if (payload.empty()) return Status::Corruption("empty error payload");
  StatusCode code;
  std::string message(payload.substr(1));
  if (!StatusCodeFromWire(static_cast<uint8_t>(payload[0]), &code)) {
    return Status::Internal(
        StrFormat("remote error with unknown wire code %u: %s",
                  static_cast<unsigned>(static_cast<uint8_t>(payload[0])),
                  message.c_str()));
  }
  return Status(code, std::move(message));
}

void EncodePreparedPayload(uint32_t stmt_id, uint32_t num_params, std::string* out) {
  storage::PutFixed32(out, stmt_id);
  storage::PutFixed32(out, num_params);
}

Status DecodePreparedPayload(std::string_view payload, uint32_t* stmt_id,
                             uint32_t* num_params) {
  if (!storage::GetFixed32(&payload, stmt_id) ||
      !storage::GetFixed32(&payload, num_params) || !payload.empty()) {
    return Status::Corruption("malformed PREPARED payload");
  }
  return Status::OK();
}

void EncodeExecPayload(uint32_t stmt_id, const std::vector<storage::Value>& params,
                       std::string* out) {
  storage::PutFixed32(out, stmt_id);
  storage::PutFixed16(out, static_cast<uint16_t>(params.size()));
  persist::StateWriter w(out);
  for (const auto& v : params) sql::EncodeValue(&w, v);
}

Status DecodeExecPayload(std::string_view payload, uint32_t* stmt_id,
                         std::vector<storage::Value>* params) {
  uint16_t n = 0;
  if (!storage::GetFixed32(&payload, stmt_id) || !storage::GetFixed16(&payload, &n)) {
    return Status::Corruption("truncated EXEC_PREPARED payload");
  }
  persist::StateReader r(payload);
  HAZY_RETURN_NOT_OK(r.CheckCount(n));
  params->clear();
  params->reserve(n);
  for (uint16_t i = 0; i < n; ++i) {
    storage::Value v;
    HAZY_RETURN_NOT_OK(sql::DecodeValue(&r, &v));
    params->push_back(std::move(v));
  }
  if (r.remaining() != 0) {
    return Status::Corruption("trailing bytes after EXEC_PREPARED parameters");
  }
  return Status::OK();
}

void EncodeCloseStmtPayload(uint32_t stmt_id, std::string* out) {
  storage::PutFixed32(out, stmt_id);
}

Status DecodeCloseStmtPayload(std::string_view payload, uint32_t* stmt_id) {
  if (!storage::GetFixed32(&payload, stmt_id) || !payload.empty()) {
    return Status::Corruption("malformed CLOSE_STMT payload");
  }
  return Status::OK();
}

}  // namespace hazy::rpc
