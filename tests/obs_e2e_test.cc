// End-to-end observability: SHOW METRICS counters move as statements run
// (for more than one view architecture), EXPLAIN TRACE returns a span tree
// whose storage spans appear on a lazy scan over a checkpointed table,
// SHOW TRACE reports the previous statement, the slow-statement log fires
// through PRAGMA slow_statement_ms, the STATS opcode answers over both
// transports (including on the reactor thread while workers are busy), and
// the Prometheus exporter speaks valid text exposition over HTTP.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "client/hazy_client.h"
#include "engine/database.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "server/server.h"
#include "sql/executor.h"

namespace hazy {
namespace {

// Metric values by (name, labels) from a SHOW METRICS / STATS result set
// (columns: metric TEXT, labels TEXT, kind TEXT, value DOUBLE).
std::map<std::pair<std::string, std::string>, double> MetricMap(
    const sql::ResultSet& rs) {
  std::map<std::pair<std::string, std::string>, double> out;
  for (size_t i = 0; i < rs.rows.size(); ++i) {
    auto name = rs.TextAt(i, 0);
    auto labels = rs.TextAt(i, 1);
    auto value = rs.DoubleAt(i, 3);
    if (name.ok() && labels.ok() && value.ok()) {
      out[{*name, *labels}] = *value;
    }
  }
  return out;
}

// Sum of a family's values across labels.
double FamilyTotal(const sql::ResultSet& rs, const std::string& family) {
  double total = 0;
  for (const auto& [key, value] : MetricMap(rs)) {
    if (key.first == family) total += value;
  }
  return total;
}

class ObsEndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<engine::Database>();
    ASSERT_TRUE(db_->Open().ok());
    exec_ = std::make_unique<sql::Executor>(db_.get());
  }

  sql::ResultSet MustExec(const std::string& sql) {
    auto rs = exec_->Execute(sql);
    EXPECT_TRUE(rs.ok()) << sql << " -> " << rs.status().ToString();
    return rs.ok() ? *rs : sql::ResultSet{};
  }

  void SetUpCorpus(const std::string& arch) {
    MustExec("CREATE TABLE Papers (id INT PRIMARY KEY, title TEXT)");
    MustExec("CREATE TABLE Areas (label TEXT)");
    MustExec("INSERT INTO Areas VALUES ('DB'), ('OTHER')");
    MustExec("CREATE TABLE Examples (id INT PRIMARY KEY, label TEXT)");
    MustExec(
        "INSERT INTO Papers VALUES "
        "(0, 'query optimization in database systems'), "
        "(1, 'transaction processing in databases'), "
        "(2, 'database views and query rewriting'), "
        "(3, 'protein folding in molecular biology'), "
        "(4, 'genome sequencing of protein structures'), "
        "(5, 'cell biology and protein pathways')");
    MustExec(
        "CREATE CLASSIFICATION VIEW V KEY id "
        "ENTITIES FROM Papers KEY id "
        "LABELS FROM Areas LABEL label "
        "EXAMPLES FROM Examples KEY id LABEL label "
        "FEATURE FUNCTION tf_bag_of_words USING SVM "
        "ARCHITECTURE " + arch + " MODE LAZY");
    MustExec(
        "INSERT INTO Examples VALUES "
        "(0, 'DB'), (1, 'DB'), (2, 'DB'), "
        "(3, 'OTHER'), (4, 'OTHER'), (5, 'OTHER')");
  }

  std::unique_ptr<engine::Database> db_;
  std::unique_ptr<sql::Executor> exec_;
};

// The tier-1 counters move across insert / scan / checkpoint — the same
// assertion for two view architectures, because per-view families carry the
// arch label and must be fed by both codepaths.
class ObsMetricsMoveTest : public ObsEndToEndTest,
                           public ::testing::WithParamInterface<const char*> {};

TEST_P(ObsMetricsMoveTest, CountersMoveAcrossStatements) {
  SetUpCorpus(GetParam());

  auto before = MustExec("SHOW METRICS");
  EXPECT_GT(before.rows.size(), 0u);

  MustExec("INSERT INTO Papers VALUES (6, 'database query planner design')");
  MustExec("INSERT INTO Examples VALUES (6, 'DB')");
  auto members = MustExec("SELECT * FROM V");
  EXPECT_EQ(members.rows.size(), 7u);
  MustExec("CHECKPOINT");
  auto after = MustExec("SHOW METRICS");

  // View maintenance ran (insert trigger) and the lazy scan scored tuples.
  EXPECT_GT(FamilyTotal(after, "hazy_view_updates_total"),
            FamilyTotal(before, "hazy_view_updates_total"));
  EXPECT_GT(FamilyTotal(after, "hazy_view_all_members_total"),
            FamilyTotal(before, "hazy_view_all_members_total"));
  // The checkpoint forced WAL work and its commit-pause histogram observed.
  EXPECT_GT(FamilyTotal(after, "hazy_wal_records_total"),
            FamilyTotal(before, "hazy_wal_records_total"));
  EXPECT_GT(FamilyTotal(after, "hazy_checkpoint_commit_us_count"),
            FamilyTotal(before, "hazy_checkpoint_commit_us_count"));
  // The statement histogram saw every statement this test ran.
  EXPECT_GT(FamilyTotal(after, "hazy_statement_us_count"),
            FamilyTotal(before, "hazy_statement_us_count"));

  // The per-view families carry view/arch labels.
  bool saw_view_label = false;
  for (const auto& [key, value] : MetricMap(after)) {
    if (key.first == "hazy_view_updates_total" &&
        key.second.find("view=\"V\"") != std::string::npos) {
      saw_view_label = true;
    }
  }
  EXPECT_TRUE(saw_view_label);

  // LIKE filters to the named family only.
  auto filtered = MustExec("SHOW METRICS LIKE 'hazy_view_updates'");
  EXPECT_GT(filtered.rows.size(), 0u);
  for (const auto& [key, value] : MetricMap(filtered)) {
    EXPECT_NE(key.first.find("hazy_view_updates"), std::string::npos);
  }
}

INSTANTIATE_TEST_SUITE_P(Architectures, ObsMetricsMoveTest,
                         ::testing::Values("HAZY_MM", "HAZY_OD"));

TEST_F(ObsEndToEndTest, ExplainTraceShowsSpanTree) {
  SetUpCorpus("HAZY_OD");
  MustExec("CHECKPOINT");
  // A new example publishes a new epoch, so the scan below labels the
  // snapshot under a model its eps columns were not built with.
  MustExec("INSERT INTO Papers VALUES (6, 'database query planner design')");
  MustExec("INSERT INTO Examples VALUES (6, 'DB')");

  auto trace = MustExec("EXPLAIN TRACE SELECT * FROM V");
  ASSERT_EQ(trace.columns.size(), 4u);
  EXPECT_EQ(trace.columns[1].name, "span");
  ASSERT_GT(trace.rows.size(), 0u);

  double root_ms = -1, parse_ms = -1, execute_ms = -1;
  bool saw_scan = false;
  for (size_t i = 0; i < trace.rows.size(); ++i) {
    auto depth = trace.Int64At(i, 0);
    auto span = trace.TextAt(i, 1);
    auto ms = trace.DoubleAt(i, 3);
    ASSERT_TRUE(depth.ok() && span.ok() && ms.ok());
    if (*span == "statement") {
      EXPECT_EQ(*depth, 0);
      root_ms = *ms;
    }
    if (*span == "parse") parse_ms = *ms;
    if (*span == "execute") execute_ms = *ms;
    if (*span == "view.snapshot_scan") saw_scan = true;
    // No span can exceed the root's wall clock.
    if (root_ms >= 0) {
      EXPECT_LE(*ms, root_ms + 1e-6) << *span;
    }
  }
  ASSERT_GE(root_ms, 0.0);
  ASSERT_GE(parse_ms, 0.0);
  ASSERT_GE(execute_ms, 0.0);
  EXPECT_TRUE(saw_scan);
  // The direct children account for the root to within 10% (the acceptance
  // bound): anything else means untraced time is hiding in the statement.
  EXPECT_GE(parse_ms + execute_ms, 0.9 * root_ms);
  EXPECT_LE(parse_ms + execute_ms, root_ms + 1e-6);
}

TEST_F(ObsEndToEndTest, ShowTraceReportsPreviousStatement) {
  MustExec("CREATE TABLE t (id INT PRIMARY KEY)");
  MustExec("INSERT INTO t VALUES (1), (2), (3)");
  auto trace = MustExec("SHOW TRACE");
  ASSERT_GT(trace.rows.size(), 0u);
  auto span = trace.TextAt(0, 1);
  ASSERT_TRUE(span.ok());
  EXPECT_EQ(*span, "statement");
  // The INSERT ran under the statement mutex, and its wait is booked.
  bool saw_wait = false;
  for (size_t i = 0; i < trace.rows.size(); ++i) {
    auto name = trace.TextAt(i, 1);
    if (name.ok() && *name == "gate.wait") saw_wait = true;
  }
  EXPECT_TRUE(saw_wait);
  // Idempotent: SHOW TRACE does not clobber the saved trace.
  auto again = MustExec("SHOW TRACE");
  EXPECT_EQ(again.rows.size(), trace.rows.size());
}

TEST_F(ObsEndToEndTest, SlowStatementLogCountsStatements) {
  MustExec("CREATE TABLE t (id INT PRIMARY KEY)");
  auto before = FamilyTotal(MustExec("SHOW METRICS"),
                            "hazy_slow_statements_total");
  MustExec("PRAGMA slow_statement_ms = 0");  // every statement is "slow"
  MustExec("INSERT INTO t VALUES (1)");
  MustExec("PRAGMA slow_statement_ms = -1");
  auto after = FamilyTotal(MustExec("SHOW METRICS"),
                           "hazy_slow_statements_total");
  EXPECT_GT(after, before);
}

TEST_F(ObsEndToEndTest, StatsOpcodeOverLoopback) {
  auto client = client::HazyClient::Loopback(db_.get());
  ASSERT_TRUE(client.ok());
  auto stats = (*client)->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->rows.size(), 0u);
  ASSERT_EQ(stats->columns.size(), 4u);
  EXPECT_EQ(stats->columns[0].name, "metric");

  auto filtered = (*client)->Stats("hazy_pool_");
  ASSERT_TRUE(filtered.ok());
  for (const auto& [key, value] : MetricMap(*filtered)) {
    EXPECT_NE(key.first.find("hazy_pool_"), std::string::npos) << key.first;
  }
}

TEST_F(ObsEndToEndTest, StatsOpcodeOverSocketAndServerGauges) {
  server::ServerOptions opts;
  opts.worker_threads = 2;
  server::Server server(db_.get(), opts);
  ASSERT_TRUE(server.Start().ok());

  auto client = client::HazyClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto stats = (*client)->Stats("hazy_server_");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  auto metrics = MetricMap(*stats);
  // The server's own collector reports its admission/connection levels.
  const std::pair<std::string, std::string> shed{"hazy_server_busy_shed_total",
                                                 ""};
  const std::pair<std::string, std::string> conns{"hazy_server_connections",
                                                  ""};
  ASSERT_TRUE(metrics.count(shed));
  ASSERT_TRUE(metrics.count(conns));
  EXPECT_GE(metrics[conns], 1.0);

  (*client)->Close().ok();
  server.Stop();
}

TEST(ObsExporterTest, ServesPrometheusTextOverHttp) {
  obs::Registry::Global()
      .GetCounter("obs_test_export_total", "t=\"e2e\"")
      ->Add(7);
  obs::PrometheusExporter exporter;
  ASSERT_TRUE(exporter.Start("127.0.0.1", 0).ok());
  ASSERT_NE(exporter.port(), 0);

  // A raw HTTP GET, as curl would issue it.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(exporter.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const char* request = "GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n";
  ASSERT_EQ(::send(fd, request, std::strlen(request), 0),
            static_cast<ssize_t>(std::strlen(request)));
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  exporter.Stop();

  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(response.find("# TYPE obs_test_export_total counter"),
            std::string::npos);
  EXPECT_NE(response.find("obs_test_export_total{t=\"e2e\"} 7"),
            std::string::npos);
  // Histogram families render with quantile labels (the span histograms
  // exist in any process that ran a traced statement; assert on shape only
  // if one is present).
  auto pos = response.find("quantile=\"0.5\"");
  if (pos != std::string::npos) {
    EXPECT_NE(response.find("quantile=\"0.99\""), std::string::npos);
  }
}

}  // namespace
}  // namespace hazy
