// Per-connection protocol state: one sql::Executor plus a prepared-statement
// table. Session::HandleFrame maps one request frame to one encoded response
// frame; the socket server and the in-process loopback transport both call
// it, which is what makes their response bytes identical.

#ifndef HAZY_SERVER_SESSION_H_
#define HAZY_SERVER_SESSION_H_

#include <cstdint>
#include <string>
#include <unordered_map>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "engine/database.h"
#include "rpc/protocol.h"
#include "sql/executor.h"

namespace hazy::server {

/// \brief One client session: executor + prepared statements, serialized
/// internally so pipelined frames from one connection can run on different
/// worker threads without racing the session state.
class Session {
 public:
  Session(uint64_t id, engine::Database* db);

  uint64_t id() const { return id_; }

  /// Processes one request frame and returns the encoded response frame.
  /// Errors never propagate — they become ERROR frames. `*close_after` is
  /// set for GOODBYE (the transport closes once the ack is flushed).
  std::string HandleFrame(const rpc::FrameView& frame, bool* close_after)
      EXCLUDES(mu_);

  /// The BUSY response the server sends when admission control sheds a
  /// request (built here so both transports shed with identical bytes).
  static std::string BusyFrame(uint32_t request_id);

  /// The STATS response: a metrics-registry snapshot as a kResult frame
  /// (payload of the request = substring filter). Static and lock-free with
  /// respect to session and statement state, so the server answers it on
  /// the reactor thread even when every worker is wedged.
  static std::string StatsFrame(const rpc::FrameView& frame);

  size_t num_prepared() const EXCLUDES(mu_);

 private:
  std::string HandleLocked(const rpc::FrameView& frame, bool* close_after)
      REQUIRES(mu_);

  // Frame builders (each returns one fully encoded frame).
  static std::string ErrorFrame(uint32_t request_id, const Status& status);
  static std::string EmptyFrame(rpc::Opcode op, uint32_t request_id);
  static std::string ResultFrame(uint32_t request_id, const sql::ResultSet& rs);

  const uint64_t id_;
  /// Runs every QUERY and EXEC_PREPARED frame. It serializes statements
  /// itself (snapshot reads run lock-free), so the session takes no
  /// statement lock.
  sql::Executor executor_;

  mutable Mutex mu_;
  uint32_t next_stmt_id_ GUARDED_BY(mu_) = 1;
  std::unordered_map<uint32_t, sql::PreparedStatement> prepared_
      GUARDED_BY(mu_);
};

}  // namespace hazy::server

#endif  // HAZY_SERVER_SESSION_H_
