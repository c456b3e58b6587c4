// sql_shell: a tiny interactive SQL shell over the Hazy engine. Pipe SQL
// into it or type interactively:
//
//   $ ./sql_shell
//   hazy> CREATE TABLE Papers (id INT PRIMARY KEY, title TEXT);
//   hazy> CREATE CLASSIFICATION VIEW ... ;
//   hazy> SELECT COUNT(*) FROM Labeled_Papers WHERE class = 'DB';
//
// Statements end with ';'. '\q' quits, '\d' lists tables and views,
// '\timing' toggles per-statement wall-time reporting (how you watch the
// vectorized read path pay off interactively; on a remote session it also
// prints the server-side span breakdown via SHOW TRACE), and '\metrics
// [filter]' dumps the metrics registry over either transport.
//
// Batched view maintenance: a multi-row INSERT applies all its training
// examples to each classification view as one UpdateBatch automatically.
// '\batch on' holds the whole session in batched-trigger mode (updates
// queue; SELECTs keep answering from the last published epoch, so they do
// not see the queued examples), '\batch off' flushes the queue and
// publishes it.
//
// Remote serving: '\connect <host>:<port>' points the shell at a running
// hazy_server — statements travel as wire-protocol frames and results come
// back as decoded ResultSets (identical output to a local session, because
// both transports share the same session code). '\connect local' returns to
// the in-process loopback. Database-local commands (\d, \batch, \save,
// \open) need the embedded database and refuse while remote.
//
// Durability: 'CHECKPOINT;' persists all tables and classification views to
// the session's backing file. 'VACUUM;' checkpoints, then rewrites the file
// compacted (reclaiming all fragmentation). '\save <path>' checkpoints and
// copies the database file to <path>; '\open <path>' switches the session to
// the database at <path>, recovering every view from its last checkpoint
// (plus the write-ahead log's committed suffix) with zero retraining.

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "client/hazy_client.h"
#include "common/timer.h"
#include "engine/database.h"

using hazy::client::HazyClient;
using hazy::engine::Database;
using hazy::engine::DatabaseOptions;

namespace {

// True when both paths name the same existing file (dev/ino identity, not
// string equality — "./db" and "/tmp/db" may alias). Copying a file onto
// itself with ios::trunc would destroy it.
bool SameFile(const std::string& a, const std::string& b) {
  struct stat sa, sb;
  if (::stat(a.c_str(), &sa) != 0 || ::stat(b.c_str(), &sb) != 0) return false;
  return sa.st_dev == sb.st_dev && sa.st_ino == sb.st_ino;
}

bool CopyFile(const std::string& from, const std::string& to) {
  std::ifstream src(from, std::ios::binary);
  if (!src.good()) return false;
  std::ofstream dst(to, std::ios::binary | std::ios::trunc);
  if (!dst.good()) return false;
  dst << src.rdbuf();
  return dst.good();
}

// Pretty-prints a SHOW TRACE / EXPLAIN TRACE result (depth, span, count,
// total_ms) as an indented span tree.
void PrintTrace(const hazy::sql::ResultSet& rs) {
  for (size_t i = 0; i < rs.rows.size(); ++i) {
    auto depth = rs.Int64At(i, 0);
    auto span = rs.TextAt(i, 1);
    auto count = rs.Int64At(i, 2);
    auto ms = rs.DoubleAt(i, 3);
    if (!depth.ok() || !span.ok() || !count.ok() || !ms.ok()) continue;
    std::printf("  %*s%s  %.3f ms", static_cast<int>(*depth * 2), "",
                span->c_str(), *ms);
    if (*count > 1) std::printf("  (x%lld)", static_cast<long long>(*count));
    std::printf("\n");
  }
}

void ListCatalog(Database* db) {
  std::printf("tables:\n");
  for (const auto& t : db->catalog()->TableNames()) {
    std::printf("  %s\n", t.c_str());
  }
  std::printf("classification views:\n");
  for (const auto& v : db->ViewNames()) {
    std::printf("  %s\n", v.c_str());
  }
}

}  // namespace

int main() {
  auto db = std::make_unique<Database>();
  if (!db->Open().ok()) {
    std::fprintf(stderr, "failed to open database\n");
    return 1;
  }
  auto loopback = HazyClient::Loopback(db.get(), "sql_shell");
  if (!loopback.ok()) {
    std::fprintf(stderr, "failed to start session: %s\n",
                 loopback.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<HazyClient> client = std::move(*loopback);

  std::printf(
      "hazy sql shell — statements end with ';', \\q quits, \\d lists, "
      "\\connect host:port attaches to a hazy_server (\\connect local "
      "returns), \\batch on|off toggles batched view maintenance, "
      "\\timing toggles per-statement wall time (plus the server-side span "
      "breakdown when remote), \\metrics [filter] dumps the metrics registry "
      "(SHOW METRICS / EXPLAIN TRACE <stmt> work as SQL too),\n"
      "\\save <path> checkpoints to a file, \\open <path> recovers from one, "
      "VACUUM; compacts the database file.\n"
      "PRAGMA knobs: wal_sync = every_commit|group_commit|never, "
      "group_commit_interval = N,\n"
      "checkpoint_daemon = on|off, wal_checkpoint_bytes = N, "
      "wal_checkpoint_seconds = S (bare 'PRAGMA name;' reads the setting).\n");
  std::string buffer;
  std::string line;
  bool interactive = isatty(0);
  bool batching = false;
  bool timing = false;
  while (true) {
    if (interactive) {
      std::printf(buffer.empty() ? "hazy> " : "  ...> ");
      std::fflush(stdout);
    }
    if (!std::getline(std::cin, line)) break;
    if (buffer.empty() && line == "\\q") break;
    // After a failed same-file re-open the session may have no database;
    // only \open (and \q above) make sense until one is attached.
    if (db == nullptr && line.rfind("\\open ", 0) != 0 &&
        line.rfind("\\connect ", 0) != 0 &&
        !(client != nullptr && !client->is_loopback())) {
      std::printf("error: no database open — use \\open <path>\n");
      buffer.clear();
      continue;
    }
    if (buffer.empty() && line.rfind("\\connect ", 0) == 0) {
      std::string target = line.substr(9);
      if (target == "local") {
        if (db == nullptr) {
          std::printf("error: no local database — use \\open <path> first\n");
          continue;
        }
        auto local = HazyClient::Loopback(db.get(), "sql_shell");
        if (!local.ok()) {
          std::printf("error: %s\n", local.status().ToString().c_str());
          continue;
        }
        client = std::move(*local);
        std::printf("back on the local session\n");
        continue;
      }
      auto colon = target.rfind(':');
      if (colon == std::string::npos) {
        std::printf("usage: \\connect <host>:<port> | \\connect local\n");
        continue;
      }
      std::string host = target.substr(0, colon);
      int port = std::atoi(target.c_str() + colon + 1);
      if (host.empty() || port <= 0 || port > 65535) {
        std::printf("usage: \\connect <host>:<port> | \\connect local\n");
        continue;
      }
      auto remote = HazyClient::Connect(host, static_cast<uint16_t>(port),
                                        "sql_shell");
      if (!remote.ok()) {
        std::printf("error: %s\n", remote.status().ToString().c_str());
        continue;
      }
      client = std::move(*remote);
      std::printf("connected to %s (server '%s')\n", target.c_str(),
                  client->server_name().c_str());
      continue;
    }
    const bool remote_session = client != nullptr && !client->is_loopback();
    if (remote_session && buffer.empty() &&
        (line == "\\d" || line.rfind("\\batch", 0) == 0 ||
         line.rfind("\\save ", 0) == 0 || line.rfind("\\open ", 0) == 0)) {
      std::printf("error: %s needs the local session — \\connect local first\n",
                  line.substr(0, line.find(' ')).c_str());
      continue;
    }
    if (buffer.empty() && (line == "\\batch on" || line == "\\batch off")) {
      bool want = line == "\\batch on";
      if (want && !batching) {
        db->BeginUpdateBatch();
        batching = true;
      } else if (!want && batching) {
        auto s = db->EndUpdateBatch();
        if (!s.ok()) std::printf("error: %s\n", s.ToString().c_str());
        batching = false;
      }
      std::printf("batched view maintenance %s\n", batching ? "on" : "off");
      continue;
    }
    if (buffer.empty() && line == "\\d") {
      ListCatalog(db.get());
      continue;
    }
    if (buffer.empty() &&
        (line == "\\timing" || line == "\\timing on" || line == "\\timing off")) {
      timing = line == "\\timing" ? !timing : line == "\\timing on";
      std::printf("timing %s\n", timing ? "on" : "off");
      continue;
    }
    if (buffer.empty() &&
        (line == "\\metrics" || line.rfind("\\metrics ", 0) == 0)) {
      if (client == nullptr) {
        std::printf("error: no session — \\open or \\connect first\n");
        continue;
      }
      std::string filter = line.size() > 9 ? line.substr(9) : "";
      auto rs = client->Stats(filter);
      if (!rs.ok()) {
        std::printf("error: %s\n", rs.status().ToString().c_str());
      } else {
        std::printf("%s\n", rs->ToString().c_str());
      }
      continue;
    }
    if (buffer.empty() && line.rfind("\\save ", 0) == 0) {
      std::string path = line.substr(6);
      if (path.empty()) {
        std::printf("usage: \\save <path>\n");
        continue;
      }
      if (batching) {
        std::printf("error: turn \\batch off before saving\n");
        continue;
      }
      auto epoch = db->Checkpoint();
      if (!epoch.ok()) {
        std::printf("error: %s\n", epoch.status().ToString().c_str());
        continue;
      }
      if (SameFile(path, db->path())) {
        std::printf("checkpointed %s (epoch %llu)\n", path.c_str(),
                    static_cast<unsigned long long>(*epoch));
      } else if (CopyFile(db->path(), path)) {
        std::printf("saved to %s (epoch %llu)\n", path.c_str(),
                    static_cast<unsigned long long>(*epoch));
      } else {
        std::printf("error: could not copy database to %s\n", path.c_str());
      }
      continue;
    }
    if (buffer.empty() && line.rfind("\\open ", 0) == 0) {
      std::string path = line.substr(6);
      if (path.empty()) {
        std::printf("usage: \\open <path>\n");
        continue;
      }
      // Opening a nonexistent path would create a fresh empty database and
      // silently discard the current session — a typo must not do that.
      struct stat st;
      if (::stat(path.c_str(), &st) != 0) {
        std::printf("error: %s does not exist (use \\save to create one)\n",
                    path.c_str());
        continue;
      }
      // Re-opening the file this session already has open (e.g. right after
      // '\save' onto it) must close the live handle first: two pagers on one
      // file would fight over pages and the recovery roll-back would undo
      // writes the live handle still believes in.
      const bool reopening_same = db != nullptr && SameFile(path, db->path());
      std::string previous = db != nullptr ? db->path() : "";
      if (reopening_same) {
        if (batching) {
          db->EndUpdateBatch().ok();
          batching = false;
        }
        client.reset();
        db.reset();
      }
      DatabaseOptions opts;
      opts.path = path;
      auto fresh = std::make_unique<Database>(opts);
      auto s = fresh->Open();
      if (!s.ok()) {
        std::printf("error: %s\n", s.ToString().c_str());
        if (reopening_same) {
          // The previous handle is gone; leave the shell in a clean state:
          // either re-attached to the previous file or explicitly closed.
          DatabaseOptions prev_opts;
          prev_opts.path = previous;
          auto back = std::make_unique<Database>(prev_opts);
          auto rs = back->Open();
          if (rs.ok()) {
            db = std::move(back);
            auto lb = HazyClient::Loopback(db.get(), "sql_shell");
            client = lb.ok() ? std::move(*lb) : nullptr;
            std::printf("re-opened previous database %s (checkpoint epoch %llu)\n",
                        previous.c_str(),
                        static_cast<unsigned long long>(db->checkpoint_epoch()));
          } else {
            std::printf(
                "error: could not re-open previous database %s: %s\n"
                "session closed — use \\open <path> to attach a database\n",
                previous.c_str(), rs.ToString().c_str());
          }
        }
        continue;
      }
      if (batching) {
        db->EndUpdateBatch().ok();
        batching = false;
      }
      db = std::move(fresh);
      {
        auto lb = HazyClient::Loopback(db.get(), "sql_shell");
        client = lb.ok() ? std::move(*lb) : nullptr;
      }
      std::printf("opened %s (checkpoint epoch %llu)\n", path.c_str(),
                  static_cast<unsigned long long>(db->checkpoint_epoch()));
      ListCatalog(db.get());
      continue;
    }
    buffer += line;
    buffer.push_back('\n');
    // Execute when the statement terminator arrives.
    auto pos = buffer.find(';');
    if (pos == std::string::npos) continue;
    std::string stmt = buffer.substr(0, pos + 1);
    buffer.clear();
    if (!interactive) std::printf("hazy> %s\n", stmt.c_str());
    if (client == nullptr) {
      std::printf("error: no session — \\open or \\connect first\n");
      continue;
    }
    hazy::Timer stmt_timer;
    auto rs = client->Query(stmt);
    double elapsed_ms = stmt_timer.ElapsedSeconds() * 1e3;
    if (!rs.ok()) {
      std::printf("error: %s\n", rs.status().ToString().c_str());
    } else {
      std::printf("%s\n", rs->ToString().c_str());
    }
    if (timing) {
      std::printf("Time: %.3f ms\n", elapsed_ms);
      // Remotely, wall time includes the network; ask the server how the
      // statement's time actually broke down (its previous-statement trace).
      if (rs.ok() && remote_session) {
        auto trace = client->Query("SHOW TRACE;");
        if (trace.ok() && !trace->rows.empty()) PrintTrace(*trace);
      }
    }
  }
  if (batching && db != nullptr) {
    auto s = db->EndUpdateBatch();
    if (!s.ok()) std::printf("error: %s\n", s.ToString().c_str());
  }
  return 0;
}
