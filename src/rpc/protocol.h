// The Hazy wire protocol: length-prefixed binary frames carrying SQL in and
// serialized ResultSets out (the network analogue of the paper's §B.1 IPC
// between PostgreSQL and the Hazy process).
//
// Frame layout (all little-endian):
//
//   u32 length      — byte count of everything after this field
//   u8  opcode      — request/response kind (Opcode below)
//   u32 request_id  — echoed verbatim in the response so a pipelining client
//                     can match responses to in-flight requests
//   ...payload      — opcode-specific (length - 5 bytes)
//
// Payloads reuse the persist/serde conventions (StateWriter/StateReader over
// storage/coding.h primitives), and error payloads carry the frozen
// common/status.h wire code so remote failures keep their category, not just
// their message. Every number here is wire-frozen: bump kProtocolVersion and
// append, never renumber.

#ifndef HAZY_RPC_PROTOCOL_H_
#define HAZY_RPC_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "storage/schema.h"

namespace hazy::rpc {

/// Protocol revision sent in HELLO. Revision 2 carries ResultSet v2 (one
/// typed block per column; see sql/result_set.h) in RESULT frames. The
/// server answers a HELLO of any other revision with NotSupported, and the
/// client refuses a server of another revision.
constexpr uint32_t kProtocolVersion = 2;

/// u32 length + u8 opcode + u32 request id.
constexpr size_t kFrameHeaderBytes = 9;

/// Hard ceiling on `length`. A frame longer than this is garbage (or an
/// attack) and fails the connection instead of allocating unboundedly.
constexpr uint32_t kMaxFrameBytes = 64u << 20;

/// Frame kinds. Requests are < 0x80; responses have the high bit set.
enum class Opcode : uint8_t {
  // Requests (client -> server).
  kHello = 0x01,         ///< u32 version, string client name
  kQuery = 0x02,         ///< payload = SQL text
  kPrepare = 0x03,       ///< payload = SQL template with '?' placeholders
  kExecPrepared = 0x04,  ///< u32 stmt id, param list
  kCloseStmt = 0x05,     ///< u32 stmt id
  kPing = 0x06,          ///< empty
  kGoodbye = 0x07,       ///< empty; server acks then closes
  kStats = 0x08,         ///< metrics snapshot; payload = substring filter
                         ///< ("" = all). Answered with kResult. Served on
                         ///< the reactor thread, bypassing admission, so it
                         ///< works while the server is saturated.

  // Responses (server -> client).
  kHelloOk = 0x81,    ///< u32 version, string server name
  kResult = 0x82,     ///< encoded sql::ResultSet
  kPrepared = 0x83,   ///< u32 stmt id, u32 param count
  kStmtClosed = 0x84, ///< empty
  kPong = 0x85,       ///< empty
  kGoodbyeOk = 0x86,  ///< empty; connection closes after this frame
  kError = 0xE0,      ///< u8 status wire code, message bytes
  kBusy = 0xE1,       ///< same payload as kError; admission queue was full
};

/// True for byte values that decode to a known Opcode.
bool IsKnownOpcode(uint8_t op);

/// Debug name ("QUERY", "RESULT", ...).
const char* OpcodeName(Opcode op);

/// A decoded frame whose payload aliases the receive buffer.
struct FrameView {
  Opcode opcode = Opcode::kPing;
  uint32_t request_id = 0;
  std::string_view payload;
};

/// An owned frame (for handing off across threads).
struct Frame {
  Opcode opcode = Opcode::kPing;
  uint32_t request_id = 0;
  std::string payload;

  static Frame Copy(const FrameView& v) {
    return Frame{v.opcode, v.request_id, std::string(v.payload)};
  }
};

/// Appends one encoded frame to *out.
void EncodeFrame(Opcode opcode, uint32_t request_id, std::string_view payload,
                 std::string* out);

/// Appends the header of a frame whose `payload_bytes` the caller appends
/// next, so a payload can be encoded straight into its frame.
void EncodeFrameHeader(Opcode opcode, uint32_t request_id, size_t payload_bytes,
                       std::string* out);

/// Result of attempting to decode a frame from the front of a buffer.
enum class FrameDecode {
  kFrame,     ///< *frame filled, *frame_bytes consumed
  kNeedMore,  ///< buffer holds a torn prefix; read more bytes
  kBad,       ///< unrecoverable garbage (oversized/unknown opcode) — close
};

/// Tries to decode one frame from the front of `buf`. On kFrame, `*frame`
/// aliases `buf` and `*frame_bytes` is the total encoded size to consume.
/// On kBad, `*error` (if non-null) describes the problem.
FrameDecode TryDecodeFrame(std::string_view buf, FrameView* frame,
                           size_t* frame_bytes, std::string* error);

// --- Payload helpers -------------------------------------------------------

/// HELLO / HELLO_OK payloads: u32 version + name bytes.
void EncodeHelloPayload(uint32_t version, std::string_view name, std::string* out);
Status DecodeHelloPayload(std::string_view payload, uint32_t* version,
                          std::string* name);

/// ERROR / BUSY payloads: u8 frozen status wire code + message bytes.
void EncodeErrorPayload(const Status& status, std::string* out);
/// Reconstructs the remote Status (Internal for unknown wire codes).
Status DecodeErrorPayload(std::string_view payload);

/// PREPARED payloads: u32 statement id + u32 parameter count.
void EncodePreparedPayload(uint32_t stmt_id, uint32_t num_params, std::string* out);
Status DecodePreparedPayload(std::string_view payload, uint32_t* stmt_id,
                             uint32_t* num_params);

/// EXEC_PREPARED payloads: u32 statement id + u16 count + typed values
/// (sql::EncodeValue codec).
void EncodeExecPayload(uint32_t stmt_id, const std::vector<storage::Value>& params,
                       std::string* out);
Status DecodeExecPayload(std::string_view payload, uint32_t* stmt_id,
                         std::vector<storage::Value>* params);

/// CLOSE_STMT payloads: u32 statement id.
void EncodeCloseStmtPayload(uint32_t stmt_id, std::string* out);
Status DecodeCloseStmtPayload(std::string_view payload, uint32_t* stmt_id);

}  // namespace hazy::rpc

#endif  // HAZY_RPC_PROTOCOL_H_
