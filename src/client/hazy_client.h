// The Hazy client library: one API, two transports.
//
//   - Connect(host, port): speaks rpc/protocol.h frames over a TCP socket to
//     a server::Server.
//   - Loopback(db): drives a server::Session directly, in process, with the
//     *same encoded frames* — no socket, no threads. A prepared statement
//     executed over both transports produces byte-identical response frames
//     (the session is the single shared implementation).
//
// The client is synchronous: one request in flight per client. Errors come
// back as the remote Status (the frozen wire code restores the category);
// BUSY maps to ResourceExhausted so callers can retry with backoff.

#ifndef HAZY_CLIENT_HAZY_CLIENT_H_
#define HAZY_CLIENT_HAZY_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/database.h"
#include "rpc/protocol.h"
#include "server/session.h"
#include "sql/result_set.h"

namespace hazy::client {

/// A prepared statement registered with the server.
struct PreparedHandle {
  uint32_t id = 0;
  uint32_t num_params = 0;
};

/// \brief Synchronous Hazy client over a socket or an in-process loopback.
class HazyClient {
 public:
  /// Connects over TCP and performs the HELLO handshake.
  static StatusOr<std::unique_ptr<HazyClient>> Connect(
      const std::string& host, uint16_t port,
      const std::string& client_name = "hazy_client");

  /// In-process transport over `db` (not owned; must outlive the client).
  /// Performs the same HELLO handshake through a private server::Session.
  static StatusOr<std::unique_ptr<HazyClient>> Loopback(
      engine::Database* db, const std::string& client_name = "hazy_client");

  ~HazyClient();

  HazyClient(const HazyClient&) = delete;
  HazyClient& operator=(const HazyClient&) = delete;

  /// Parses + executes one statement remotely.
  StatusOr<sql::ResultSet> Query(const std::string& sql);

  /// Registers a '?'-template; the handle is valid until CloseStmt or Close.
  StatusOr<PreparedHandle> Prepare(const std::string& sql_template);

  /// Executes a prepared statement with bound parameters.
  StatusOr<sql::ResultSet> ExecPrepared(const PreparedHandle& handle,
                                        const std::vector<storage::Value>& params);

  Status CloseStmt(const PreparedHandle& handle);

  /// Fetches the server's metrics-registry snapshot (STATS opcode). `like`
  /// is a substring filter on metric names; "" returns everything. Over a
  /// socket this is answered on the reactor thread, so it succeeds even
  /// when QUERY would be shed with BUSY.
  StatusOr<sql::ResultSet> Stats(const std::string& like = "");

  Status Ping();

  /// GOODBYE handshake + transport teardown. Idempotent; the destructor
  /// calls it best-effort.
  Status Close();

  bool is_loopback() const { return session_ != nullptr; }

  /// Server name from the HELLO handshake ("hazy").
  const std::string& server_name() const { return server_name_; }

  /// One raw request/response exchange: sends `payload` under `op` and
  /// returns the complete encoded response frame. This is the byte-identity
  /// observation point — the same call sequence over socket and loopback
  /// yields identical bytes. Test/bench plumbing; prefer the typed calls.
  StatusOr<std::string> RoundTripRaw(rpc::Opcode op, std::string_view payload);

 private:
  HazyClient() = default;

  Status Handshake(const std::string& client_name);

  /// Sends one request and waits for its reply. `*raw` (the whole frame)
  /// and `*reply` alias the receive buffer, or the loopback reply, until
  /// the next exchange: a reply is decoded where recv() put it.
  Status Exchange(rpc::Opcode op, std::string_view payload, std::string_view* raw,
                  rpc::FrameView* reply);

  /// Exchange + ERROR/BUSY → Status.
  StatusOr<rpc::FrameView> RoundTrip(rpc::Opcode op, std::string_view payload);

  /// Socket transport internals (no-ops for loopback).
  Status SendAll(std::string_view bytes);
  /// Receives until recv_buf_ starts with one whole frame; returns its size.
  StatusOr<size_t> ReadFrame();

  int fd_ = -1;                                 // socket transport
  std::string recv_buf_;
  /// Bytes at the front of recv_buf_ holding the last reply; the next
  /// exchange drops them.
  size_t recv_used_ = 0;
  std::unique_ptr<server::Session> session_;    // loopback transport
  std::string loopback_reply_;
  uint32_t next_request_id_ = 1;
  std::string server_name_;
  bool closed_ = false;
};

}  // namespace hazy::client

#endif  // HAZY_CLIENT_HAZY_CLIENT_H_
