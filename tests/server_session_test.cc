// Serving-layer tests: sessions with independent prepared-statement tables,
// the socket server end to end (concurrent clients, BUSY under a full
// admission queue, clean close mid-query, a result over the frame cap
// refused without breaking the connection), and the byte-identity guarantee —
// a prepared statement over a socket returns the exact response bytes the
// in-process loopback transport produces.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/hazy_client.h"
#include "engine/database.h"
#include "server/dispatch.h"
#include "server/server.h"
#include "server/session.h"

namespace hazy::server {
namespace {

class ServerSessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<engine::Database>();
    ASSERT_TRUE(db_->Open().ok());
  }

  std::unique_ptr<engine::Database> db_;
};

TEST_F(ServerSessionTest, LoopbackQueryAndPrepared) {
  auto client = client::HazyClient::Loopback(db_.get());
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE((*client)->is_loopback());
  EXPECT_EQ((*client)->server_name(), "hazy");

  auto rs = (*client)->Query("CREATE TABLE t (id INT PRIMARY KEY, name TEXT);");
  ASSERT_TRUE(rs.ok());

  auto ins = (*client)->Prepare("INSERT INTO t VALUES (?, ?);");
  ASSERT_TRUE(ins.ok());
  EXPECT_EQ(ins->num_params, 2u);
  for (int64_t i = 0; i < 5; ++i) {
    std::vector<storage::Value> params;
    params.emplace_back(i);
    params.emplace_back(std::string("row") + std::to_string(i));
    auto exec = (*client)->ExecPrepared(*ins, params);
    ASSERT_TRUE(exec.ok()) << exec.status().ToString();
    EXPECT_EQ(exec->affected_rows, 1);
  }

  auto count = (*client)->Query("SELECT COUNT(*) FROM t;");
  ASSERT_TRUE(count.ok());
  ASSERT_EQ(count->rows.size(), 1u);
  EXPECT_EQ(count->Int64At(0, 0).ValueOrDie(), 5);

  // Parameter-count mismatch is caught client-side.
  EXPECT_TRUE((*client)
                  ->ExecPrepared(*ins, {storage::Value(int64_t{9})})
                  .status()
                  .IsInvalidArgument());

  ASSERT_TRUE((*client)->CloseStmt(*ins).ok());
  // Closed handle: the server no longer knows it.
  std::vector<storage::Value> params;
  params.emplace_back(int64_t{6});
  params.emplace_back(std::string("x"));
  EXPECT_TRUE((*client)->ExecPrepared(*ins, params).status().IsNotFound());
}

TEST_F(ServerSessionTest, RemoteErrorKeepsCategory) {
  auto client = client::HazyClient::Loopback(db_.get());
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE((*client)->Query("SELECT * FROM nope;").status().IsNotFound());
  EXPECT_TRUE(
      (*client)->Prepare("NOT EVEN SQL").status().IsInvalidArgument());
}

TEST_F(ServerSessionTest, SocketEndToEnd) {
  ServerOptions opts;
  Server server(db_.get(), opts);
  ASSERT_TRUE(server.Start().ok());

  auto client = client::HazyClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_FALSE((*client)->is_loopback());
  ASSERT_TRUE((*client)->Ping().ok());

  ASSERT_TRUE(
      (*client)->Query("CREATE TABLE s (id INT PRIMARY KEY, v TEXT);").ok());
  ASSERT_TRUE((*client)->Query("INSERT INTO s VALUES (1, 'one');").ok());
  auto rs = (*client)->Query("SELECT * FROM s;");
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->rows.size(), 1u);
  EXPECT_EQ(rs->TextAt(0, 1).ValueOrDie(), "one");

  ASSERT_TRUE((*client)->Close().ok());
  server.Stop();
}

TEST_F(ServerSessionTest, OversizedResultIsRefusedAndConnectionStaysUsable) {
  // 66 rows of 1 MiB encode to a frame over rpc::kMaxFrameBytes (64 MiB).
  constexpr int64_t kRows = 66;
  auto table = db_->catalog()->CreateTable(
      "big",
      storage::Schema({{"id", storage::ColumnType::kInt64},
                       {"body", storage::ColumnType::kText}}),
      0);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  const std::string body(1u << 20, 'x');
  for (int64_t id = 0; id < kRows; ++id) {
    ASSERT_TRUE((*table)->Insert(storage::Row{id, body}).ok());
  }
  Server server(db_.get(), {});
  ASSERT_TRUE(server.Start().ok());
  auto client = client::HazyClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  auto all = (*client)->Query("SELECT * FROM big;");
  ASSERT_FALSE(all.ok());
  EXPECT_TRUE(all.status().IsResourceExhausted()) << all.status().ToString();
  EXPECT_NE(all.status().ToString().find(std::to_string(rpc::kMaxFrameBytes)),
            std::string::npos)
      << all.status().ToString();
  // The refusal is an ordinary frame: the same connection keeps answering.
  auto count = (*client)->Query("SELECT COUNT(*) FROM big;");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count->Int64At(0, 0).ValueOrDie(), kRows);

  ASSERT_TRUE((*client)->Close().ok());
  server.Stop();
}

TEST_F(ServerSessionTest, ConcurrentSessionsHaveIndependentStatements) {
  Server server(db_.get(), {});
  ASSERT_TRUE(server.Start().ok());
  {
    auto setup = client::HazyClient::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(setup.ok());
    ASSERT_TRUE(
        (*setup)->Query("CREATE TABLE c (id INT PRIMARY KEY, v INT);").ok());
  }

  constexpr int kClients = 8;
  constexpr int kRowsEach = 20;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      auto client = client::HazyClient::Connect("127.0.0.1", server.port());
      if (!client.ok()) {
        ++failures;
        return;
      }
      // Each session prepares its own statement; ids are per-session, so
      // every session sees stmt id 1 — interleaving must not cross wires.
      auto stmt = (*client)->Prepare("INSERT INTO c VALUES (?, ?);");
      if (!stmt.ok() || stmt->id != 1 || stmt->num_params != 2) {
        ++failures;
        return;
      }
      for (int i = 0; i < kRowsEach; ++i) {
        std::vector<storage::Value> params;
        params.emplace_back(int64_t{t * 1000 + i});
        params.emplace_back(int64_t{t});
        auto rs = (*client)->ExecPrepared(*stmt, params);
        if (!rs.ok() || rs->affected_rows != 1) ++failures;
      }
      if (!(*client)->CloseStmt(*stmt).ok()) ++failures;
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  auto check = client::HazyClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(check.ok());
  auto count = (*check)->Query("SELECT COUNT(*) FROM c;");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->Int64At(0, 0).ValueOrDie(), kClients * kRowsEach);
  server.Stop();
}

TEST_F(ServerSessionTest, ByteIdenticalFramesAcrossTransports) {
  // The same statement sequence through a socket and through loopback must
  // yield byte-identical response frames (shared Session::HandleFrame).
  Server server(db_.get(), {});
  ASSERT_TRUE(server.Start().ok());

  auto socket = client::HazyClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(socket.ok());
  auto loop = client::HazyClient::Loopback(db_.get());
  ASSERT_TRUE(loop.ok());

  ASSERT_TRUE(
      (*socket)->Query("CREATE TABLE b (id INT PRIMARY KEY, v TEXT);").ok());
  ASSERT_TRUE((*socket)
                  ->Query("INSERT INTO b VALUES (1, 'x'), (2, 'y'), (3, 'z');")
                  .ok());

  // Both clients have consumed identical request-id streams so far? No —
  // the socket client has done more requests. Re-align by fresh clients.
  auto socket2 = client::HazyClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(socket2.ok());
  auto loop2 = client::HazyClient::Loopback(db_.get());
  ASSERT_TRUE(loop2.ok());

  // Identical call sequence from here: PREPARE, then EXEC with bound params.
  const std::string tmpl = "SELECT * FROM b WHERE id = ?;";
  auto raw_prepare_a = (*socket2)->RoundTripRaw(rpc::Opcode::kPrepare, tmpl);
  auto raw_prepare_b = (*loop2)->RoundTripRaw(rpc::Opcode::kPrepare, tmpl);
  ASSERT_TRUE(raw_prepare_a.ok());
  ASSERT_TRUE(raw_prepare_b.ok());
  EXPECT_EQ(*raw_prepare_a, *raw_prepare_b);

  std::string exec_payload;
  std::vector<storage::Value> params;
  params.emplace_back(int64_t{2});
  rpc::EncodeExecPayload(/*stmt_id=*/1, params, &exec_payload);
  auto raw_exec_a =
      (*socket2)->RoundTripRaw(rpc::Opcode::kExecPrepared, exec_payload);
  auto raw_exec_b =
      (*loop2)->RoundTripRaw(rpc::Opcode::kExecPrepared, exec_payload);
  ASSERT_TRUE(raw_exec_a.ok());
  ASSERT_TRUE(raw_exec_b.ok());
  EXPECT_EQ(*raw_exec_a, *raw_exec_b);
  EXPECT_GT(raw_exec_a->size(), rpc::kFrameHeaderBytes);

  server.Stop();
}

TEST_F(ServerSessionTest, BusyUnderFullAdmissionQueue) {
  // One worker, admission depth 1: pipelining several statements at once
  // must shed some with BUSY — and every request still gets *a* response.
  ServerOptions opts;
  opts.worker_threads = 1;
  opts.max_in_flight = 1;
  Server server(db_.get(), opts);
  ASSERT_TRUE(server.Start().ok());

  {
    auto setup = client::HazyClient::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(setup.ok());
    ASSERT_TRUE(
        (*setup)->Query("CREATE TABLE busy (id INT PRIMARY KEY, v TEXT);").ok());
  }

  // The library client is synchronous, so concurrency comes from threads of
  // clients hammering statements. Clients connect up front, unloaded — the
  // HELLO handshake itself rides through the dispatcher and must not be shed
  // by the load the test is about to generate.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 25;
  std::vector<std::unique_ptr<client::HazyClient>> clients;
  for (int t = 0; t < kThreads; ++t) {
    auto client = client::HazyClient::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    clients.push_back(std::move(*client));
  }
  std::atomic<uint64_t> busy{0};
  std::atomic<uint64_t> ok{0};
  std::atomic<uint64_t> other{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      client::HazyClient* client = clients[t].get();
      for (int i = 0; i < kPerThread; ++i) {
        char sql[80];
        std::snprintf(sql, sizeof(sql), "INSERT INTO busy VALUES (%d, 'v');",
                      t * 1000 + i);
        auto rs = client->Query(sql);
        if (rs.ok()) {
          ++ok;
        } else if (rs.status().IsResourceExhausted()) {
          ++busy;
        } else {
          ++other;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  clients.clear();  // GOODBYEs may be shed under tail load; ignored

  // Every request was answered (no hangs — the joins above prove it), some
  // were shed, none failed any other way.
  EXPECT_EQ(ok.load() + busy.load(), uint64_t{kThreads * kPerThread});
  EXPECT_GT(busy.load(), 0u);
  EXPECT_EQ(other.load(), 0u);
  // The server counted at least the statement sheds (GOODBYEs shed during
  // teardown can push the server-side count higher).
  EXPECT_GE(server.busy_rejections(), busy.load());
  server.Stop();
}

TEST_F(ServerSessionTest, CleanCloseMidQuery) {
  // A client that vanishes with statements in flight must not wedge or
  // crash the server; subsequent clients work normally.
  ServerOptions opts;
  opts.worker_threads = 2;
  Server server(db_.get(), opts);
  ASSERT_TRUE(server.Start().ok());

  {
    auto setup = client::HazyClient::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(setup.ok());
    ASSERT_TRUE(
        (*setup)
            ->Query("CREATE TABLE mid (id INT PRIMARY KEY, v TEXT);")
            .ok());
  }

  // Raw sockets: send a statement frame and slam the connection shut without
  // reading anything. The server executes the statement and its response
  // lands on a dead socket — that must neither crash nor wedge it.
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  for (int round = 0; round < 10; ++round) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    char sql[80];
    std::snprintf(sql, sizeof(sql), "INSERT INTO mid VALUES (%d, 'w');", round);
    std::string frame;
    rpc::EncodeFrame(rpc::Opcode::kQuery, 1, sql, &frame);
    ASSERT_EQ(::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(frame.size()));
    ::close(fd);  // gone before the response exists
  }
  // Torn frame variant: half a header, then vanish.
  for (int round = 0; round < 5; ++round) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    const char torn[3] = {16, 0, 0};
    ASSERT_EQ(::send(fd, torn, sizeof(torn), MSG_NOSIGNAL),
              static_cast<ssize_t>(sizeof(torn)));
    ::close(fd);
  }

  // The abandoned INSERTs still execute server-side; wait for all 10.
  auto after = client::HazyClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(after.ok());
  int64_t count = 0;
  for (int attempt = 0; attempt < 200; ++attempt) {
    auto rs = (*after)->Query("SELECT COUNT(*) FROM mid;");
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    count = rs->Int64At(0, 0).ValueOrDie();
    if (count == 10) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(count, 10);
  ASSERT_TRUE((*after)->Close().ok());
  server.Stop();
  EXPECT_EQ(server.num_connections(), 0u);
}

TEST(DispatcherTest, BoundsInFlight) {
  Dispatcher d(DispatchOptions{/*worker_threads=*/1, /*max_in_flight=*/2});
  std::atomic<bool> release{false};
  std::atomic<int> ran{0};
  auto blocker = [&] {
    while (!release.load()) std::this_thread::yield();
    ++ran;
  };
  EXPECT_TRUE(d.TryDispatch(blocker));   // running
  EXPECT_TRUE(d.TryDispatch(blocker));   // queued
  EXPECT_FALSE(d.TryDispatch(blocker));  // shed
  EXPECT_EQ(d.rejected(), 1u);
  release = true;
  d.Drain();
  EXPECT_EQ(ran.load(), 2);
  EXPECT_EQ(d.in_flight(), 0u);
  // Capacity is restored after completion.
  EXPECT_TRUE(d.TryDispatch([] {}));
  d.Drain();
}

}  // namespace
}  // namespace hazy::server
