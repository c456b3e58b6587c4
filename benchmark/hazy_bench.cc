// hazy_bench: the load generator behind benchmark/run.py.
//
// One invocation measures one workload once and prints one JSON report line
// on stdout (everything else goes to stderr):
//
//   hazy_bench --workload NAME --seed N --seconds S --trace 0|1
//              --workdir DIR [--smoke]
//
// The program under test runs as a separate server process: this binary
// re-executes itself with --serve, and the child hosts engine::Database plus
// server::Server and prints its port. The generator loads a seeded synthetic
// corpus over the wire as SQL text, then drives clients — one synchronous
// client::HazyClient per connection, at most four, each a closed loop except
// mixed_ood's paced background readers — and checks every answer. The
// program only ever sees SQL text.
//
// The S timed seconds are split over kSubRuns servers, each spawned and set
// up afresh, and every end-to-end metric (set-up time included) is the
// median over them. With --trace 1 the last server's operation stream is
// then replayed in process through InProcessQuery, a copy of
// server::Session::RunQuery plus the client's framing built from public
// calls. Every other operation is traced with one span per layer; the
// untraced half gives the tracing overhead and the in-process latency that
// the socket latency is compared against.

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "client/hazy_client.h"
#include "common/random.h"
#include "data/synthetic.h"
#include "engine/database.h"
#include "rpc/protocol.h"
#include "server/server.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "sql/result_set.h"

namespace {

using hazy::Status;
using hazy::StatusOr;
using hazy::sql::ResultSet;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Traffic {
  kUpdates,     // one connection inserts training examples
  kPointReads,  // four connections read single entities
  kScans,       // one connection runs All Members rounds
  kMixed,       // one writer inserts examples beside three paced point readers
};

struct Workload {
  const char* name;
  bool citeseer;  // CiteseerLike abstracts; otherwise DBLifeLike titles
  size_t entities;
  const char* architecture;
  const char* mode;
  size_t pool_pages;
  Traffic traffic;
  int connections;
};

// Sizes keep one set-up near two seconds so that kSubRuns set-ups plus the
// timed phase fit one run. mixed_ood's database outgrows its 8 MiB pool;
// the others fit the default 32 MiB pool.
constexpr Workload kWorkloads[] = {
    {"update_eager", false, 100000, "HAZY_MM", "EAGER", 4096, Traffic::kUpdates, 1},
    {"read_point", false, 100000, "HAZY_MM", "EAGER", 4096, Traffic::kPointReads, 4},
    {"scan_members", true, 30000, "HAZY_OD", "LAZY", 4096, Traffic::kScans, 1},
    {"mixed_ood", false, 60000, "HAZY_OD", "EAGER", 1024, Traffic::kMixed, 4},
};

// The paper's warm model: this many labeled examples train the view before
// anything is timed.
constexpr size_t kWarmExamples = 12000;
constexpr size_t kRowsPerInsert = 256;
// A run measures its timed phase in this many equal slices, each on a
// freshly spawned and set-up server, and reports the median slice.
// Where the scheduler places the client and server threads differs from
// server to server and shifts latency by up to ~15% on a 4-vCPU VM; the
// median over fresh servers keeps that out of the run-to-run spread.
constexpr int kSubRuns = 5;
constexpr size_t kConsistencySamples = 1000;
constexpr int kSmokeDivisor = 20;
// Each background reader of mixed_ood sends one point read per period, 4,000
// reads/s per reader. A fixed rate keeps the load beside the writer the same
// from run to run and from version to version; in a closed loop the three
// readers and their server workers would fill all four cores, and the
// writer's latency would measure the scheduler.
constexpr auto kBackgroundReadPeriod = std::chrono::microseconds(250);

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

uint64_t Mix64(uint64_t x) {  // splitmix64 finalizer
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Nearest-rank percentile of `v` (sorted in place); 0 when empty.
double Percentile(std::vector<double>* v, double q) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v->size())));
  return (*v)[std::min(v->size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Median(std::vector<double> v) { return Percentile(&v, 0.5); }

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "hazy_bench: %s\n", what.c_str());
  std::exit(1);
}

std::string JsonString(const std::string& v) {
  std::string q = "\"";
  for (char c : v) {
    if (c == '"' || c == '\\') q += '\\';
    q += (c == '\n') ? ' ' : c;
  }
  return q + "\"";
}

/// Minimal JSON object writer (numbers keep all 17 significant digits).
class Json {
 public:
  Json& Num(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return Raw(key, buf);
  }
  Json& Str(const std::string& key, const std::string& v) { return Raw(key, JsonString(v)); }
  Json& Bool(const std::string& key, bool v) { return Raw(key, v ? "true" : "false"); }
  Json& Obj(const std::string& key, const Json& v) { return Raw(key, v.str()); }
  Json& Raw(const std::string& key, const std::string& v) {
    body_ += (body_.empty() ? "\"" : ", \"") + key + "\": " + v;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ---------------------------------------------------------------------------
// Corpus and operation stream
// ---------------------------------------------------------------------------

struct Corpus {
  std::vector<hazy::data::Document> docs;
  /// Seeded shuffle of the entity ids: the first `warm` train the model
  /// before timing, the rest are the update stream.
  std::vector<int64_t> example_order;
  size_t warm = 0;
  uint64_t text_bytes = 0;

  size_t size() const { return docs.size(); }
  /// Ground-truth label of the generator, as the view's label string.
  const char* Label(int64_t id) const { return docs[static_cast<size_t>(id)].label > 0 ? "A" : "B"; }
};

Corpus MakeCorpus(const Workload& w, uint64_t seed, bool smoke) {
  const size_t n = smoke ? w.entities / kSmokeDivisor : w.entities;
  hazy::data::TextCorpusOptions o =
      w.citeseer ? hazy::data::CiteseerLike(static_cast<double>(n) / 721000.0, seed)
                 : hazy::data::DBLifeLike(1.0, seed);
  o.num_entities = n;
  Corpus c;
  c.docs = hazy::data::GenerateTextCorpus(o);
  for (const auto& d : c.docs) c.text_bytes += d.text.size();
  c.example_order.resize(n);
  for (size_t i = 0; i < n; ++i) c.example_order[i] = static_cast<int64_t>(i);
  hazy::Rng rng(seed ^ 0x5EEDC0DEULL);
  rng.Shuffle(&c.example_order);
  c.warm = std::min(n / 2, smoke ? kWarmExamples / kSmokeDivisor : kWarmExamples);
  return c;
}

enum StmtKind : uint8_t { kInsert, kPoint, kCount, kMembers, kNumStmtKinds };
const char* const kStmtKindNames[kNumStmtKinds] = {"insert", "point", "count", "members"};

/// One operation: the statements sent back to back on a connection and
/// timed together. An All Members round is COUNT(A), then the member lists
/// of A and of B: together they return every entity once, so a round's work
/// does not depend on how the seed's model splits the classes.
struct Op {
  static constexpr int kMaxStmts = 3;
  int num_stmts = 0;
  StmtKind kind[kMaxStmts] = {};
  std::string sql[kMaxStmts];
  int64_t id = -1;  // inserted or read entity
};

/// The deterministic operation stream: operation i of connection c is a
/// pure function of (workload, seed, c, i), so the socket run and the
/// in-process replay send exactly the same statements.
struct Plan {
  const Workload* w = nullptr;
  const Corpus* corpus = nullptr;
  uint64_t seed = 0;

  bool IsWriter(int conn) const {
    return conn == 0 && (w->traffic == Traffic::kUpdates || w->traffic == Traffic::kMixed);
  }
  /// The connections whose operations the end-to-end metrics describe;
  /// mixed_ood's readers are background load.
  bool Measured(int conn) const { return w->traffic != Traffic::kMixed || conn == 0; }

  bool HasOp(int conn, uint64_t i) const {
    return !IsWriter(conn) || corpus->warm + i < corpus->size();
  }

  Op MakeOp(int conn, uint64_t i) const {
    Op op;
    if (IsWriter(conn)) {
      op.id = corpus->example_order[corpus->warm + i];
      op.num_stmts = 1;
      op.kind[0] = kInsert;
      op.sql[0] = "INSERT INTO Examples VALUES (" + std::to_string(op.id) + ", '" +
                  corpus->Label(op.id) + "')";
    } else if (w->traffic == Traffic::kScans) {
      op.num_stmts = 3;
      op.kind[0] = kCount;
      op.sql[0] = "SELECT COUNT(*) FROM V WHERE class = 'A'";
      op.kind[1] = kMembers;
      op.sql[1] = "SELECT id FROM V WHERE class = 'A'";
      op.kind[2] = kMembers;
      op.sql[2] = "SELECT id FROM V WHERE class = 'B'";
    } else {
      op.id = static_cast<int64_t>(
          Mix64(seed * 0x100000001B3ULL ^ (static_cast<uint64_t>(conn) << 56) ^ i) %
          corpus->size());
      op.num_stmts = 1;
      op.kind[0] = kPoint;
      op.sql[0] = "SELECT class FROM V WHERE id = " + std::to_string(op.id);
    }
    return op;
  }
};

/// Spaces a background reader's operations kBackgroundReadPeriod apart; on
/// a measured connection Wait() returns at once (a closed loop). A reader
/// that falls behind its schedule does not burst to catch up.
class Pacer {
 public:
  explicit Pacer(bool paced) : paced_(paced), next_(Clock::now()) {}

  void Wait() {
    if (!paced_) return;
    next_ += kBackgroundReadPeriod;
    const auto now = Clock::now();
    if (next_ > now) {
      std::this_thread::sleep_until(next_);
    } else {
      next_ = now;
    }
  }

 private:
  bool paced_;
  Clock::time_point next_;
};

using QueryFn = std::function<StatusOr<ResultSet>(const std::string&)>;

// ---------------------------------------------------------------------------
// Answer checks
// ---------------------------------------------------------------------------

/// Validates statement `s` of an operation; returns "" when correct. Within
/// an All Members round, `count_a` carries the COUNT and `seen` the ids
/// listed so far into the checks of the member lists that follow.
std::string CheckAnswer(const Op& op, int s, const ResultSet& rs, size_t n,
                        int64_t* count_a, std::vector<uint8_t>* seen) {
  switch (op.kind[s]) {
    case kInsert:
      return rs.affected_rows == 1 ? "" : "insert did not report one row";
    case kPoint: {
      if (rs.rows.size() != 1) {
        return "point read of id " + std::to_string(op.id) + " returned " +
               std::to_string(rs.rows.size()) + " rows";
      }
      auto label = rs.TextAt(0, 0);
      if (!label.ok() || (*label != "A" && *label != "B")) {
        return "point read of id " + std::to_string(op.id) + " returned no class A/B";
      }
      return "";
    }
    case kCount: {
      auto c = rs.rows.size() == 1 ? rs.Int64At(0, 0) : StatusOr<int64_t>(Status::Internal("rows"));
      if (!c.ok() || *c < 0 || static_cast<size_t>(*c) > n) return "COUNT returned no valid count";
      *count_a = *c;
      return "";
    }
    case kMembers: {
      const bool class_a = s == 1;
      if (class_a) seen->assign(n, 0);
      for (size_t r = 0; r < rs.rows.size(); ++r) {
        auto id = rs.Int64At(r, 0);
        if (!id.ok() || *id < 0 || static_cast<size_t>(*id) >= n) return "member id out of range";
        if ((*seen)[static_cast<size_t>(*id)]++ != 0) return "member id listed twice";
      }
      const size_t want = class_a ? static_cast<size_t>(*count_a) : n - static_cast<size_t>(*count_a);
      if (rs.rows.size() != want) {
        return std::string(class_a ? "|A| " : "|B| ") + std::to_string(rs.rows.size()) +
               " disagrees with COUNT(A) " + std::to_string(*count_a) + " of " + std::to_string(n);
      }
      return "";
    }
    case kNumStmtKinds:
      break;
  }
  return "unknown statement kind";
}

/// Sorted member ids of one class; "" error string on success.
std::string MembersOf(const QueryFn& q, const char* label, std::vector<int64_t>* ids) {
  auto rs = q(std::string("SELECT id FROM V WHERE class = '") + label + "'");
  if (!rs.ok()) return "member list failed: " + rs.status().ToString();
  ids->clear();
  for (size_t r = 0; r < rs->rows.size(); ++r) {
    auto id = rs->Int64At(r, 0);
    if (!id.ok()) return "member list holds a non-integer id";
    ids->push_back(*id);
  }
  std::sort(ids->begin(), ids->end());
  return "";
}

StatusOr<int64_t> CountOf(const QueryFn& q, const std::string& sql) {
  auto rs = q(sql);
  if (!rs.ok()) return rs.status();
  if (rs->rows.size() != 1) return Status::Internal("COUNT returned no single row");
  return rs->Int64At(0, 0);
}

/// COUNT(A) plus an FNV-1a hash of the sorted A members, taken at a
/// quiescent point. SGD folds examples in a fixed order, so one seed gives
/// one digest on every run and on every correct version of the program.
std::string Digest(const QueryFn& q, std::string* error) {
  std::vector<int64_t> ids;
  *error = MembersOf(q, "A", &ids);
  uint64_t h = 0xCBF29CE484222325ULL;
  for (int64_t id : ids) {
    for (int b = 0; b < 8; ++b) {
      h ^= static_cast<uint64_t>(id >> (8 * b)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  }
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%zu:%016" PRIx64, ids.size(), h);
  return buf;
}

/// Checks run once the timed phase has ended and the database is quiet.
std::vector<std::string> FinalChecks(const QueryFn& q, const Plan& plan, uint64_t updates_ok) {
  std::vector<std::string> errors;
  const size_t n = plan.corpus->size();
  auto examples = CountOf(q, "SELECT COUNT(*) FROM Examples");
  const uint64_t want = plan.corpus->warm + updates_ok;
  if (!examples.ok() || static_cast<uint64_t>(*examples) != want) {
    errors.push_back("Examples holds " +
                     (examples.ok() ? std::to_string(*examples) : examples.status().ToString()) +
                     " rows, expected " + std::to_string(want));
  }
  std::vector<int64_t> a, b;
  std::string e = MembersOf(q, "A", &a);
  if (e.empty()) e = MembersOf(q, "B", &b);
  if (!e.empty()) {
    errors.push_back(e);
    return errors;
  }
  auto count_a = CountOf(q, "SELECT COUNT(*) FROM V WHERE class = 'A'");
  if (!count_a.ok() || static_cast<size_t>(*count_a) != a.size()) {
    errors.push_back("COUNT(A) disagrees with the A member list");
  }
  std::vector<int64_t> all = a;
  all.insert(all.end(), b.begin(), b.end());
  std::sort(all.begin(), all.end());
  if (all.size() != n || std::adjacent_find(all.begin(), all.end()) != all.end() ||
      (n > 0 && (all.front() != 0 || all.back() != static_cast<int64_t>(n) - 1))) {
    errors.push_back("A and B member lists do not partition the entities");
  }
  for (size_t j = 0; j < kConsistencySamples; ++j) {
    const int64_t id = static_cast<int64_t>(Mix64(plan.seed ^ (0xC4EC4ULL << 32) ^ j) % n);
    auto rs = q("SELECT class FROM V WHERE id = " + std::to_string(id));
    const bool in_a = std::binary_search(a.begin(), a.end(), id);
    if (!rs.ok() || rs->rows.size() != 1 || !rs->TextAt(0, 0).ok() ||
        *rs->TextAt(0, 0) != (in_a ? "A" : "B")) {
      errors.push_back("point read of id " + std::to_string(id) +
                       " disagrees with the member list");
      break;
    }
  }
  return errors;
}

// ---------------------------------------------------------------------------
// Set-up: schema, corpus load, view, warm-up — all as SQL text
// ---------------------------------------------------------------------------

struct SetupTimes {
  double load_s = 0;
  double view_s = 0;
  double warm_s = 0;
};

Status Must(const QueryFn& q, const std::string& sql) {
  auto rs = q(sql);
  if (!rs.ok()) {
    return Status::Internal(sql.substr(0, 80) + " -> " + rs.status().ToString());
  }
  return Status::OK();
}

/// Inserts rows row(0) .. row(end - 1) as multi-row INSERTs.
template <typename RowFn>
Status InsertRows(const QueryFn& q, const std::string& table, size_t end, RowFn row) {
  for (size_t base = 0; base < end; base += kRowsPerInsert) {
    std::string stmt = "INSERT INTO " + table + " VALUES ";
    for (size_t i = base; i < std::min(end, base + kRowsPerInsert); ++i) {
      if (i != base) stmt += ", ";
      stmt += row(i);
    }
    HAZY_RETURN_NOT_OK(Must(q, stmt));
  }
  return Status::OK();
}

Status Setup(const QueryFn& q, const Workload& w, const Corpus& c, SetupTimes* times) {
  auto t0 = Clock::now();
  HAZY_RETURN_NOT_OK(Must(q, "CREATE TABLE Papers (id INT PRIMARY KEY, title TEXT)"));
  HAZY_RETURN_NOT_OK(Must(q, "CREATE TABLE Areas (label TEXT)"));
  HAZY_RETURN_NOT_OK(Must(q, "INSERT INTO Areas VALUES ('A'), ('B')"));
  HAZY_RETURN_NOT_OK(Must(q, "CREATE TABLE Examples (id INT PRIMARY KEY, label TEXT)"));
  HAZY_RETURN_NOT_OK(InsertRows(q, "Papers", c.size(), [&](size_t i) {
    return "(" + std::to_string(c.docs[i].id) + ", '" + c.docs[i].text + "')";
  }));
  auto t1 = Clock::now();
  HAZY_RETURN_NOT_OK(Must(q, std::string("CREATE CLASSIFICATION VIEW V KEY id "
                                         "ENTITIES FROM Papers KEY id "
                                         "LABELS FROM Areas LABEL label "
                                         "EXAMPLES FROM Examples KEY id LABEL label "
                                         "FEATURE FUNCTION tf_bag_of_words USING SVM "
                                         "ARCHITECTURE ") +
                                 w.architecture + " MODE " + w.mode));
  auto t2 = Clock::now();
  HAZY_RETURN_NOT_OK(InsertRows(q, "Examples", c.warm, [&](size_t i) {
    const int64_t id = c.example_order[i];
    return "(" + std::to_string(id) + ", '" + c.Label(id) + "')";
  }));
  auto t3 = Clock::now();
  times->load_s = Seconds(t1 - t0);
  times->view_s = Seconds(t2 - t1);
  times->warm_s = Seconds(t3 - t2);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// The server child
// ---------------------------------------------------------------------------

/// --serve mode: hosts the program and serves until stdin reaches EOF, which
/// happens when the generator closes the pipe or dies.
int Serve(const std::string& db_path, size_t pool_pages) {
  hazy::engine::DatabaseOptions opts;
  opts.path = db_path;
  opts.buffer_pool_pages = pool_pages;
  hazy::engine::Database db(opts);
  Status s = db.Open();
  if (!s.ok()) Die("server: open failed: " + s.ToString());
  hazy::server::Server server(&db);
  s = server.Start();
  if (!s.ok()) Die("server: start failed: " + s.ToString());
  std::printf("port %u\n", static_cast<unsigned>(server.port()));
  std::fflush(stdout);
  char buf[256];
  while (::read(STDIN_FILENO, buf, sizeof(buf)) > 0) {
  }
  server.Stop();
  return 0;
}

/// A running server child. Stop() (or the destructor) closes its stdin and
/// waits for it to exit.
class ServerProcess {
 public:
  ServerProcess(const std::string& db_path, size_t pool_pages) {
    int to_child[2], from_child[2];
    if (::pipe2(to_child, O_CLOEXEC) != 0 || ::pipe2(from_child, O_CLOEXEC) != 0) {
      Die("pipe failed");
    }
    const std::string pages = std::to_string(pool_pages);
    pid_ = ::fork();
    if (pid_ < 0) Die("fork failed");
    if (pid_ == 0) {
      ::dup2(to_child[0], STDIN_FILENO);
      ::dup2(from_child[1], STDOUT_FILENO);
      ::execl("/proc/self/exe", "hazy_bench", "--serve", db_path.c_str(), pages.c_str(),
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
    ::close(to_child[0]);
    ::close(from_child[1]);
    stdin_fd_ = to_child[1];
    std::string line;
    char ch = 0;
    while (::read(from_child[0], &ch, 1) == 1 && ch != '\n') line += ch;
    ::close(from_child[0]);
    unsigned port = 0;
    if (std::sscanf(line.c_str(), "port %u", &port) != 1 || port == 0 || port > 65535) {
      Stop();
      Die("server child did not report a port");
    }
    port_ = static_cast<uint16_t>(port);
  }
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  uint16_t port() const { return port_; }

  /// The child's peak resident set (VmHWM) in MiB.
  double PeakRssMb() const {
    std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
    std::string key;
    while (status >> key) {
      if (key == "VmHWM:") {
        double kb = 0;
        status >> kb;
        return kb / 1024.0;
      }
    }
    return 0;
  }

  void Stop() {
    if (stdin_fd_ >= 0) {
      ::close(stdin_fd_);
      stdin_fd_ = -1;
    }
    if (pid_ > 0) {
      int status = 0;
      while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
      }
      pid_ = -1;
    }
  }

 private:
  pid_t pid_ = -1;
  int stdin_fd_ = -1;
  uint16_t port_ = 0;
};

std::unique_ptr<hazy::client::HazyClient> Connect(uint16_t port) {
  auto c = hazy::client::HazyClient::Connect("127.0.0.1", port, "hazy_bench");
  if (!c.ok()) Die("connect failed: " + c.status().ToString());
  return std::move(*c);
}

QueryFn Over(hazy::client::HazyClient* c) {
  return [c](const std::string& sql) { return c->Query(sql); };
}

// ---------------------------------------------------------------------------
// The socket run
// ---------------------------------------------------------------------------

struct ConnLog {
  std::vector<double> op_us;                   // successful operations
  std::vector<double> stmt_us[kNumStmtKinds];  // their statements
  uint64_t attempted = 0;
  uint64_t failed = 0;     // ERROR or BUSY replies
  std::string wrong;       // first wrong answer
};

/// Closed loop on one connection until `deadline`, the end of its stream,
/// or (for background readers) the writer finishing.
void Drive(const QueryFn& q, const Plan& plan, int conn, Clock::time_point deadline,
           const std::atomic<bool>& writer_done, ConnLog* log) {
  const size_t n = plan.corpus->size();
  std::vector<uint8_t> seen;
  Pacer pacer(!plan.Measured(conn));
  log->op_us.reserve(1 << 18);
  for (uint64_t i = 0; plan.HasOp(conn, i); ++i) {
    pacer.Wait();
    if (Clock::now() >= deadline || (!plan.Measured(conn) && writer_done.load())) break;
    const Op op = plan.MakeOp(conn, i);
    StatusOr<ResultSet> rs[Op::kMaxStmts] = {Status::Internal("unsent"),
                                             Status::Internal("unsent"),
                                             Status::Internal("unsent")};
    double stmt_us[Op::kMaxStmts] = {};
    const auto t0 = Clock::now();
    auto ts = t0;
    for (int s = 0; s < op.num_stmts; ++s) {
      rs[s] = q(op.sql[s]);
      const auto te = Clock::now();
      stmt_us[s] = Micros(te - ts);
      ts = te;
    }
    const double op_us = Micros(ts - t0);
    ++log->attempted;
    int64_t count_a = 0;
    bool ok = true;
    for (int s = 0; s < op.num_stmts && ok; ++s) {
      if (!rs[s].ok()) {
        ok = false;
        ++log->failed;
      } else if (std::string e = CheckAnswer(op, s, *rs[s], n, &count_a, &seen); !e.empty()) {
        ok = false;
        if (log->wrong.empty()) log->wrong = e;
      }
    }
    if (!ok) continue;
    log->op_us.push_back(op_us);
    for (int s = 0; s < op.num_stmts; ++s) log->stmt_us[op.kind[s]].push_back(stmt_us[s]);
  }
}

/// Registry snapshot from the STATS opcode: "name{labels}" -> value.
using Registry = std::map<std::string, double>;

Registry Snapshot(hazy::client::HazyClient* c) {
  auto rs = c->Stats("hazy_");
  if (!rs.ok()) Die("STATS failed: " + rs.status().ToString());
  Registry reg;
  for (size_t r = 0; r < rs->rows.size(); ++r) {
    auto name = rs->TextAt(r, 0);
    auto labels = rs->TextAt(r, 1);
    auto value = rs->DoubleAt(r, 3);
    if (name.ok() && labels.ok() && value.ok()) reg[*name + "{" + *labels + "}"] = *value;
  }
  return reg;
}

/// Sum over every label set of `name` whose labels contain `label_part`.
double Sum(const Registry& reg, const std::string& name, const std::string& label_part = "") {
  double total = 0;
  for (auto it = reg.lower_bound(name + "{"); it != reg.end(); ++it) {
    if (it->first.compare(0, name.size() + 1, name + "{") != 0) break;
    if (it->first.find(label_part, name.size()) != std::string::npos) total += it->second;
  }
  return total;
}

struct SocketRun {
  double setup_s = 0;
  SetupTimes setup;
  std::string digest;
  std::vector<ConnLog> logs;
  double elapsed_s = 0;
  double peak_rss_mb = 0;
  Registry before, after;
  std::vector<std::string> errors;
  uint64_t updates_ok = 0;
  uint64_t db_bytes = 0;

  double Delta(const std::string& name, const std::string& label_part = "") const {
    return Sum(after, name, label_part) - Sum(before, name, label_part);
  }
};

uint64_t FileBytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  return f ? static_cast<uint64_t>(f.tellg()) : 0;
}

/// One server's life: spawn it on an empty database file, set it up over
/// the wire (timed from spawn until the warm-up completes), take the answer
/// digest, run the timed phase and the final checks, and stop it.
SocketRun RunSocket(const Plan& plan, double seconds, const std::string& db_path) {
  SocketRun run;
  const auto t0 = Clock::now();
  ServerProcess server(db_path, plan.w->pool_pages);
  std::unique_ptr<hazy::client::HazyClient> first = Connect(server.port());
  hazy::client::HazyClient* c0 = first.get();
  Status s = Setup(Over(c0), *plan.w, *plan.corpus, &run.setup);
  if (!s.ok()) Die("set-up failed: " + s.ToString());
  run.setup_s = Seconds(Clock::now() - t0);
  std::string error;
  run.digest = Digest(Over(c0), &error);
  if (!error.empty()) Die(error);

  const int conns = plan.w->connections;
  std::vector<std::unique_ptr<hazy::client::HazyClient>> extra;
  std::vector<hazy::client::HazyClient*> clients = {c0};
  for (int i = 1; i < conns; ++i) {
    extra.push_back(Connect(server.port()));
    clients.push_back(extra.back().get());
  }
  run.logs.resize(static_cast<size_t>(conns));
  run.before = Snapshot(c0);
  std::atomic<bool> writer_done{false};
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int i = 0; i < conns; ++i) {
    threads.emplace_back([&, i] {
      Drive(Over(clients[static_cast<size_t>(i)]), plan, i, deadline, writer_done,
            &run.logs[static_cast<size_t>(i)]);
      if (plan.IsWriter(i)) writer_done.store(true);
    });
  }
  for (auto& t : threads) t.join();
  run.elapsed_s = Seconds(Clock::now() - start);
  run.after = Snapshot(c0);
  run.peak_rss_mb = server.PeakRssMb();
  if (plan.IsWriter(0)) run.updates_ok = run.logs[0].op_us.size();
  for (const ConnLog& log : run.logs) {
    if (!log.wrong.empty()) run.errors.push_back(log.wrong);
  }
  for (std::string& e : FinalChecks(Over(c0), plan, run.updates_ok)) {
    run.errors.push_back(std::move(e));
  }
  run.db_bytes = FileBytes(db_path) + FileBytes(db_path + "-wal");
  extra.clear();
  first.reset();
  server.Stop();
  ::unlink(db_path.c_str());
  ::unlink((db_path + "-wal").c_str());
  return run;
}

// ---------------------------------------------------------------------------
// The traced in-process replay
// ---------------------------------------------------------------------------

/// Layer spans of one statement, in the order the statement crosses them.
enum Slot {
  kRequest,  // rpc: client EncodeFrame(QUERY), server TryDecodeFrame
  kParse,    // sql::Parse
  kRoute,    // sql::IsSnapshotRead
  kLock,     // engine: statement mutex, non-snapshot statements only
  kExecute,  // sql::Executor::Execute
  kEncode,   // sql: ResultSet::Encode
  kReply,    // rpc: server EncodeFrame(RESULT), client TryDecodeFrame
  kDecode,   // client: ResultSet::Decode
  kNumSlots
};
const char* const kSlotNames[kNumSlots] = {"rpc.request", "sql.parse",  "sql.route",
                                           "engine.lock_wait", "sql.execute", "sql.encode",
                                           "rpc.reply",   "client.decode"};

/// One statement of the replay, kept in a per-connection buffer reserved
/// before the replay starts and summarized after it ends.
struct StmtTrace {
  StmtKind kind = kInsert;
  bool traced = false;
  uint32_t reply_bytes = 0;
  float root_us = 0;
  float slot_us[kNumSlots] = {};
};

/// Times one statement. Traced, it reads the clock once per layer boundary:
/// Close(slot) ends the span that began at the previous boundary, so the
/// spans tile the statement. Untraced, it reads the clock only at the start
/// and in Finish, which records the statement's root time in both modes.
class LayerClock {
 public:
  explicit LayerClock(StmtTrace* t) : t_(t), start_(Clock::now()), last_(start_) {}

  void Close(Slot slot) {
    if (!t_->traced) return;
    const auto now = Clock::now();
    t_->slot_us[slot] = static_cast<float>(Micros(now - last_));
    last_ = now;
  }

  /// Closes the last span and records the root.
  void Finish(Slot slot) {
    if (t_->traced) {
      Close(slot);
    } else {
      last_ = Clock::now();
    }
    t_->root_us = static_cast<float>(Micros(last_ - start_));
  }

 private:
  StmtTrace* t_;
  Clock::time_point start_;
  Clock::time_point last_;
};

StatusOr<ResultSet> RoundTrip(hazy::engine::Database* db, hazy::sql::Executor* exec,
                              const std::string& sql, LayerClock* clock,
                              uint32_t* reply_bytes);

/// One statement through the public calls server::Session::RunQuery and the
/// client make around it, in process, timed into `t`. The root ends once
/// every temporary of the round trip has been released, traced or not.
StatusOr<ResultSet> InProcessQuery(hazy::engine::Database* db, hazy::sql::Executor* exec,
                                   const std::string& sql, StmtTrace* t) {
  LayerClock clock(t);
  StatusOr<ResultSet> result = RoundTrip(db, exec, sql, &clock, &t->reply_bytes);
  clock.Finish(kDecode);
  return result;
}

StatusOr<ResultSet> RoundTrip(hazy::engine::Database* db, hazy::sql::Executor* exec,
                              const std::string& sql, LayerClock* clock,
                              uint32_t* reply_bytes) {
  namespace rpc = hazy::rpc;
  std::string request;
  rpc::EncodeFrame(rpc::Opcode::kQuery, 1, sql, &request);
  rpc::FrameView frame;
  size_t frame_bytes = 0;
  if (rpc::TryDecodeFrame(request, &frame, &frame_bytes, nullptr) != rpc::FrameDecode::kFrame) {
    return Status::Internal("request frame did not decode");
  }
  const std::string text(frame.payload);
  clock->Close(kRequest);
  StatusOr<hazy::sql::Statement> stmt = hazy::sql::Parse(text);
  clock->Close(kParse);
  const bool snapshot = stmt.ok() && hazy::sql::IsSnapshotRead(db, *stmt);
  clock->Close(kRoute);
  std::string payload;
  rpc::Opcode opcode = rpc::Opcode::kResult;
  {
    StatusOr<ResultSet> rs = Status::Internal("not executed");
    if (snapshot) {
      rs = exec->Execute(*stmt);
    } else {
      std::unique_lock<std::recursive_mutex> lock(*db->statement_mutex());
      clock->Close(kLock);
      rs = exec->Execute(text);  // the session re-runs from text on this path
    }
    clock->Close(kExecute);
    Status s = rs.ok() ? rs->Encode(&payload) : rs.status();
    if (!s.ok()) {
      payload.clear();
      rpc::EncodeErrorPayload(s, &payload);
      opcode = rpc::Opcode::kError;
    }
  }  // the session, too, releases the result set once it is encoded
  clock->Close(kEncode);
  std::string reply;
  rpc::EncodeFrame(opcode, 1, payload, &reply);
  *reply_bytes = static_cast<uint32_t>(reply.size());
  if (rpc::TryDecodeFrame(reply, &frame, &frame_bytes, nullptr) != rpc::FrameDecode::kFrame) {
    return Status::Internal("reply frame did not decode");
  }
  clock->Close(kReply);
  if (frame.opcode != rpc::Opcode::kResult) return rpc::DecodeErrorPayload(frame.payload);
  return ResultSet::Decode(frame.payload);
}

struct Replay {
  std::vector<StmtTrace> stmts;  // statements of the measured connections
  std::vector<double> op_us[2];  // their operations: [0] untraced, [1] traced
  std::vector<std::string> errors;
};

/// Replays the socket run in process on a freshly set-up database: each
/// measured connection sends the operations it sent over the socket, every
/// odd one traced; background readers read until the writer is done.
Replay RunReplay(const Plan& plan, const SocketRun& socket, const std::string& db_path) {
  hazy::engine::DatabaseOptions opts;
  opts.path = db_path;
  opts.buffer_pool_pages = plan.w->pool_pages;
  hazy::engine::Database db(opts);
  Status s = db.Open();
  if (!s.ok()) Die("in-process open failed: " + s.ToString());
  {
    hazy::sql::Executor exec(&db);
    StmtTrace untraced;
    SetupTimes ignored;
    s = Setup([&](const std::string& sql) { return InProcessQuery(&db, &exec, sql, &untraced); },
              *plan.w, *plan.corpus, &ignored);
    if (!s.ok()) Die("in-process set-up failed: " + s.ToString());
  }
  const int conns = plan.w->connections;
  std::vector<Replay> per(static_cast<size_t>(conns));
  std::atomic<bool> writer_done{false};
  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      Replay& mine = per[static_cast<size_t>(c)];
      hazy::sql::Executor exec(&db);
      const bool measured = plan.Measured(c);
      const uint64_t ops = socket.logs[static_cast<size_t>(c)].attempted;
      if (measured) mine.stmts.reserve(ops * 2);
      std::vector<uint8_t> seen;
      Pacer pacer(!measured);
      for (uint64_t i = 0; measured ? i < ops : !writer_done.load(); ++i) {
        pacer.Wait();
        const Op op = plan.MakeOp(c, i);
        StmtTrace t;
        // Half the operations, picked by hash: strict alternation lines up
        // with the allocator's reuse of the previous round's large results.
        t.traced = measured && (Mix64(plan.seed ^ (0x7AC3ULL << 40) ^ i) & 1) != 0;
        double op_us = 0;
        int64_t count_a = 0;
        for (int st = 0; st < op.num_stmts; ++st) {
          t.kind = op.kind[st];
          auto rs = InProcessQuery(&db, &exec, op.sql[st], &t);
          op_us += t.root_us;
          if (measured) mine.stmts.push_back(t);
          const std::string e = rs.ok() ? CheckAnswer(op, st, *rs, plan.corpus->size(),
                                                      &count_a, &seen)
                                        : rs.status().ToString();
          if (!e.empty() && mine.errors.empty()) mine.errors.push_back("replay: " + e);
        }
        if (measured) mine.op_us[t.traced].push_back(op_us);
      }
      if (plan.IsWriter(c)) writer_done.store(true);
    });
  }
  for (auto& t : threads) t.join();
  Replay out;
  for (Replay& p : per) {
    out.stmts.insert(out.stmts.end(), p.stmts.begin(), p.stmts.end());
    for (int k = 0; k < 2; ++k) {
      out.op_us[k].insert(out.op_us[k].end(), p.op_us[k].begin(), p.op_us[k].end());
    }
    out.errors.insert(out.errors.end(), p.errors.begin(), p.errors.end());
  }
  return out;
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

std::vector<double> MeasuredOps(const SocketRun& run, const Plan& plan) {
  std::vector<double> ops;
  for (size_t c = 0; c < run.logs.size(); ++c) {
    if (!plan.Measured(static_cast<int>(c))) continue;
    ops.insert(ops.end(), run.logs[c].op_us.begin(), run.logs[c].op_us.end());
  }
  return ops;
}

/// Latency summary: median, tail percentiles and the sample count.
Json LatencyJson(std::vector<double> v) {
  Json j;
  const double n = static_cast<double>(v.size());
  j.Num("p50_us", Percentile(&v, 0.5)).Num("p90_us", Percentile(&v, 0.9));
  j.Num("p99_us", Percentile(&v, 0.99)).Num("p999_us", Percentile(&v, 0.999));
  return j.Num("n", n);
}

/// The end-to-end metrics of one socket run, as named in BENCHMARK.json.
std::map<std::string, double> EndToEnd(const SocketRun& run, const Plan& plan) {
  std::vector<double> ops = MeasuredOps(run, plan);
  return {{"setup_s", run.setup_s},
          {"ops_per_s", Ratio(static_cast<double>(ops.size()), run.elapsed_s)},
          {"p50_us", Percentile(&ops, 0.5)},
          {"p90_us", Percentile(&ops, 0.9)},
          {"server_peak_rss_mb", run.peak_rss_mb}};
}

/// Client-observed detail printed beside the gated metrics, pooled over
/// the sub-runs so that the tail percentiles have more samples.
Json Info(const std::vector<SocketRun>& runs, const Plan& plan) {
  std::vector<double> ops, stmts[kNumStmtKinds];
  double elapsed = 0, background_ops = 0;
  for (const SocketRun& run : runs) {
    std::vector<double> measured = MeasuredOps(run, plan);
    ops.insert(ops.end(), measured.begin(), measured.end());
    for (size_t c = 0; c < run.logs.size(); ++c) {
      const ConnLog& log = run.logs[c];
      for (int k = 0; k < kNumStmtKinds; ++k) {
        stmts[k].insert(stmts[k].end(), log.stmt_us[k].begin(), log.stmt_us[k].end());
      }
      if (!plan.Measured(static_cast<int>(c))) background_ops += static_cast<double>(log.op_us.size());
    }
    elapsed += run.elapsed_s;
  }
  Json j;
  j.Obj("op", LatencyJson(ops));
  for (int k = 0; k < kNumStmtKinds; ++k) {
    if (!stmts[k].empty()) j.Obj(std::string("stmt_") + kStmtKindNames[k], LatencyJson(stmts[k]));
  }
  if (background_ops > 0) j.Num("background_reads_per_s", Ratio(background_ops, elapsed));
  return j.Num("elapsed_s", elapsed);
}

/// Registry deltas over the timed phase, normalized per operation or as a
/// share of the client-observed time of the measured operations.
void RegistryLayers(const SocketRun& run, const Plan& plan, Json* j) {
  std::vector<double> ops = MeasuredOps(run, plan);
  double client_us = 0;
  for (double v : ops) client_us += v;
  const double n_ops = static_cast<double>(ops.size());
  const double updates = static_cast<double>(run.updates_ok);
  const double window = run.Delta("hazy_view_window_tuples_total");
  const double hits = run.Delta("hazy_pool_hits_total");
  const double misses = run.Delta("hazy_pool_misses_total");
  j->Num("server.busy_shed", run.Delta("hazy_server_busy_shed_total"));
  j->Num("engine.epochs_per_update", Ratio(run.Delta("hazy_epoch_published"), updates));
  j->Num("core.update_pct",
         100 * Ratio(1e6 * run.Delta("hazy_view_update_seconds_total"), client_us));
  j->Num("core.reorgs", run.Delta("hazy_view_reorgs_total"));
  j->Num("core.reorg_pct",
         100 * Ratio(1e6 * run.Delta("hazy_view_reorg_seconds_total"), client_us));
  j->Num("core.window_tuples_per_update", Ratio(window, updates));
  j->Num("core.flips_per_window_tuple", Ratio(run.Delta("hazy_view_label_flips_total"), window));
  j->Num("core.rows_scored_per_scan", Ratio(run.Delta("hazy_view_tuples_scanned_total"),
                                            run.Delta("hazy_view_all_members_total")));
  j->Num("storage.wal_syncs_per_update", Ratio(run.Delta("hazy_wal_syncs_total"), updates));
  j->Num("storage.wal_bytes_per_update", Ratio(run.Delta("hazy_wal_bytes_total"), updates));
  j->Num("storage.wal_fsync_pct",
         100 * Ratio(run.Delta("hazy_span_us_sum", "span=\"wal.fsync\""), client_us));
  j->Num("storage.pool_hit_rate", hits + misses > 0 ? hits / (hits + misses) : 1.0);
  j->Num("storage.pool_misses_per_op", Ratio(misses, n_ops));
  j->Num("storage.pool_evictions_per_op", Ratio(run.Delta("hazy_pool_evictions_total"), n_ops));
  j->Num("storage.writebacks_per_op",
         Ratio(run.Delta("hazy_pool_dirty_writebacks_total"), n_ops));
  j->Num("storage.pager_reads_per_op", Ratio(run.Delta("hazy_pager_reads_total"), n_ops));
  j->Num("storage.pager_writes_per_op", Ratio(run.Delta("hazy_pager_writes_total"), n_ops));
  j->Num("storage.db_file_mb", static_cast<double>(run.db_bytes) / (1 << 20));
  j->Num("storage.bytes_per_user_byte", Ratio(static_cast<double>(run.db_bytes),
                                              static_cast<double>(plan.corpus->text_bytes)));
}

/// Layer times from the replay — mean span time per traced operation — plus
/// the per-statement-kind table of span percentiles and the reconciliation
/// of the spans against the traced and untraced operations.
void TraceLayers(const Replay& replay, const SocketRun& socket, const Plan& plan, Json* j,
                 Json* table, Json* reconciliation) {
  double slot_sum[kNumSlots] = {};
  double bytes_sum = 0;
  std::vector<double> execute;
  for (const StmtTrace& t : replay.stmts) {
    bytes_sum += t.reply_bytes;
    if (!t.traced) continue;
    for (int s = 0; s < kNumSlots; ++s) slot_sum[s] += t.slot_us[s];
    execute.push_back(t.slot_us[kExecute]);
  }
  const double traced_ops = static_cast<double>(replay.op_us[1].size());
  auto per_op = [&](double v) { return Ratio(v, traced_ops); };
  double layers = 0;
  for (double v : slot_sum) layers += v;
  double traced_sum = 0;
  for (double v : replay.op_us[1]) traced_sum += v;
  const double untraced_p50 = Median(replay.op_us[0]);
  reconciliation->Num("layers_us", per_op(layers)).Num("traced_op_us", per_op(traced_sum));
  reconciliation->Num("traced_p50_us", Median(replay.op_us[1]));
  reconciliation->Num("untraced_p50_us", untraced_p50);
  j->Num("client.decode_us", per_op(slot_sum[kDecode]));
  j->Num("rpc.frame_us", per_op(slot_sum[kRequest] + slot_sum[kReply]));
  j->Num("rpc.reply_bytes", Ratio(bytes_sum, static_cast<double>(replay.stmts.size())));
  j->Num("sql.parse_us", per_op(slot_sum[kParse]));
  j->Num("sql.route_us", per_op(slot_sum[kRoute]));
  j->Num("sql.execute_us", per_op(slot_sum[kExecute]));
  j->Num("sql.execute_p99_us", Percentile(&execute, 0.99));
  j->Num("sql.encode_us", per_op(slot_sum[kEncode]));
  j->Num("engine.lock_wait_pct", 100 * Ratio(slot_sum[kLock], layers));
  j->Num("trace.overhead_pct", 100 * (Ratio(Median(replay.op_us[1]), untraced_p50) - 1));
  j->Num("server.transport_us", Median(MeasuredOps(socket, plan)) - untraced_p50);

  for (int k = 0; k < kNumStmtKinds; ++k) {
    std::vector<double> root;
    std::vector<std::vector<double>> slots(kNumSlots);
    for (const StmtTrace& t : replay.stmts) {
      if (!t.traced || t.kind != k) continue;
      root.push_back(t.root_us);
      for (int s = 0; s < kNumSlots; ++s) slots[static_cast<size_t>(s)].push_back(t.slot_us[s]);
    }
    if (root.empty()) continue;
    Json row;
    row.Obj("statement", LatencyJson(root));
    for (int s = 0; s < kNumSlots; ++s) {
      if (s == kLock && k != kInsert) continue;
      row.Obj(kSlotNames[s], LatencyJson(slots[static_cast<size_t>(s)]));
    }
    table->Obj(kStmtKindNames[k], row);
  }
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 8;
  bool trace = false;
  bool smoke = false;
  std::string workdir;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--smoke") {
      a.smoke = v == "1";
    } else if (k == "--workdir") {
      a.workdir = v;
    } else {
      Die("unknown flag " + k);
    }
  }
  if (a.workdir.empty() || !(a.seconds > 0)) Die("--workdir and --seconds > 0 are required");
  return a;
}

int Generate(const Args& args) {
  const Workload* w = FindWorkload(args.workload);
  if (w == nullptr) Die("unknown workload '" + args.workload + "'");
  const Corpus corpus = MakeCorpus(*w, args.seed, args.smoke);
  Plan plan;
  plan.w = w;
  plan.corpus = &corpus;
  plan.seed = args.seed;

  std::vector<SocketRun> runs;
  std::vector<std::string> errors;
  uint64_t attempted = 0, failed = 0;
  for (int r = 0; r < kSubRuns; ++r) {
    runs.push_back(RunSocket(plan, args.seconds / kSubRuns,
                             args.workdir + "/server" + std::to_string(r) + ".db"));
    const SocketRun& run = runs.back();
    errors.insert(errors.end(), run.errors.begin(), run.errors.end());
    if (run.digest != runs[0].digest) {
      errors.push_back("set-ups disagree: digest " + run.digest + " vs " + runs[0].digest);
    }
    for (const ConnLog& log : run.logs) {
      attempted += log.attempted;
      failed += log.failed;
    }
  }

  Json e2e;
  for (const auto& [name, value] : EndToEnd(runs[0], plan)) {
    std::vector<double> values = {value};
    for (size_t r = 1; r < runs.size(); ++r) values.push_back(EndToEnd(runs[r], plan)[name]);
    e2e.Num(name, Median(values));
  }

  Json report;
  report.Str("workload", w->name).Num("seed", static_cast<double>(args.seed));
  report.Num("attempted", static_cast<double>(attempted));
  report.Num("failed", static_cast<double>(failed));
  report.Str("answer_digest", runs[0].digest);
  report.Obj("e2e", e2e);
  report.Obj("info", Info(runs, plan));
  if (args.trace) {
    // Layers of the last server; the replay sends what it was sent.
    const SocketRun& run = runs.back();
    Json per_layer, table, reconciliation;
    per_layer.Num("setup.load_s", run.setup.load_s);
    per_layer.Num("setup.view_s", run.setup.view_s);
    per_layer.Num("setup.warm_s", run.setup.warm_s);
    RegistryLayers(run, plan, &per_layer);
    const Replay replay = RunReplay(plan, run, args.workdir + "/inprocess.db");
    errors.insert(errors.end(), replay.errors.begin(), replay.errors.end());
    TraceLayers(replay, run, plan, &per_layer, &table, &reconciliation);
    report.Obj("per_layer", per_layer);
    report.Obj("trace_table", table);
    report.Obj("reconciliation", reconciliation);
  }
  std::string error_list;
  for (const std::string& e : errors) {
    error_list += (error_list.empty() ? "" : ", ") + JsonString(e);
    std::fprintf(stderr, "hazy_bench: %s: wrong answer: %s\n", w->name, e.c_str());
  }
  report.Bool("correct", errors.empty()).Raw("errors", "[" + error_list + "]");
  std::printf("%s\n", report.str().c_str());
  return errors.empty() ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 4 && std::strcmp(argv[1], "--serve") == 0) {
    return Serve(argv[2], static_cast<size_t>(std::strtoull(argv[3], nullptr, 10)));
  }
  ::signal(SIGPIPE, SIG_IGN);
  return Generate(ParseArgs(argc, argv));
}
