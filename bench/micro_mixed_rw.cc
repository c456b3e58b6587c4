// micro_mixed_rw: snapshot-read throughput under a saturating update
// stream, against a read-only baseline — the acceptance benchmark for
// epoch-based snapshot reads (reads never wait on ingest).
//
// Four phases over one embedded database with a classification view:
//
//   read-only:  R reader threads hammer single-entity SELECTs through the
//               SQL layer with no writer anywhere; p50/p99 latency and
//               aggregate QPS are the baseline.
//   mixed:      the same readers run again while a writer thread ingests
//               continuously (a new entity, then a training example for
//               it; the executor serializes each statement). Readers route
//               through the snapshot path and never take the statement
//               mutex, so read QPS should stay within a few percent of the
//               baseline — the headline ratio.
//   members:    one reader lists a class (All Members) over and over while
//               the writer keeps ingesting. Each epoch moves the model, so
//               the reads label rows from eps columns built under earlier
//               epochs; rows scored vs. rows settled by the water lines per
//               scan show how narrow the Hölder window stays under drift,
//               and the per-scan p50/p99 latency what that saves.
//   reclaim:    a pin is held across a publication and released, proving a
//               retired epoch reclaims (and moving the
//               hazy_epoch_reclaimed_total counter for the dead-metric
//               lint; the mixed phase usually moves it too, but this makes
//               it deterministic).
//
// Environment knobs:
//   HAZY_MIXED_ENTITIES  corpus size                  (default 2000)
//   HAZY_MIXED_READERS   reader threads               (default 4)
//   HAZY_MIXED_READS     reads per phase (aggregate)  (default 40000)

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "engine/database.h"
#include "sql/executor.h"

namespace {

using Clock = std::chrono::steady_clock;

/// All Members reads in the members phase.
constexpr size_t kScans = 200;

size_t EnvSize(const char* name, size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  const long long parsed = std::atoll(v);
  return parsed > 0 ? static_cast<size_t>(parsed) : fallback;
}

double Percentile(std::vector<double>* v, double p) {
  if (v->empty()) return 0;
  const size_t idx = static_cast<size_t>(p * (v->size() - 1));
  std::nth_element(v->begin(), v->begin() + idx, v->end());
  return (*v)[idx];
}

// A paper title from one of two separable vocabularies, with an id-seeded
// tail so features are not all identical.
std::string Title(int64_t id, bool db_class) {
  static const char* kDbWords[] = {"database", "transaction", "query",
                                   "index",    "storage",     "recovery"};
  static const char* kBioWords[] = {"protein", "genome", "cell",
                                    "biology", "enzyme", "membrane"};
  const char** words = db_class ? kDbWords : kBioWords;
  std::string title;
  for (int k = 0; k < 4; ++k) {
    title += words[(id + k * 131) % 6];
    title += ' ';
  }
  title += "study";
  return title;
}

bool IsDbClass(int64_t id) { return id % 2 == 0; }

struct PhaseResult {
  double qps = 0;
  double p50_us = 0;
  double p99_us = 0;
  uint64_t reads = 0;
};

/// Runs `total_reads` single-entity SELECTs across `threads` reader
/// threads through the executor, which runs snapshot reads without the
/// statement mutex.
PhaseResult RunReaders(hazy::engine::Database* db, size_t threads,
                       size_t total_reads, size_t key_space) {
  std::vector<std::vector<double>> latencies(threads);
  std::atomic<bool> failed{false};
  const size_t per_thread = total_reads / threads;
  const auto start = Clock::now();
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      hazy::sql::Executor exec(db);
      std::mt19937_64 rng(t + 1);
      latencies[t].reserve(per_thread);
      for (size_t i = 0; i < per_thread && !failed.load(); ++i) {
        const int64_t id = static_cast<int64_t>(rng() % key_space);
        const std::string q =
            "SELECT class FROM V WHERE id = " + std::to_string(id);
        const auto t0 = Clock::now();
        auto rs = exec.Execute(q);
        if (!rs.ok() || rs->rows.size() != 1) {
          failed.store(true);
          break;
        }
        latencies[t].push_back(
            std::chrono::duration<double, std::micro>(Clock::now() - t0)
                .count());
      }
    });
  }
  for (auto& w : workers) w.join();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();
  PhaseResult result;
  if (failed.load()) {
    std::fprintf(stderr, "reader phase failed\n");
    return result;
  }
  std::vector<double> all;
  for (auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  result.reads = all.size();
  result.qps = elapsed > 0 ? static_cast<double>(all.size()) / elapsed : 0;
  result.p50_us = Percentile(&all, 0.50);
  result.p99_us = Percentile(&all, 0.99);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  hazy::bench::InitBenchReport(argc, argv);

  const size_t entities = EnvSize("HAZY_MIXED_ENTITIES", 2000);
  const size_t readers = EnvSize("HAZY_MIXED_READERS", 4);
  const size_t reads = EnvSize("HAZY_MIXED_READS", 40000);

  hazy::engine::Database db;
  if (!db.Open().ok()) {
    std::fprintf(stderr, "database open failed\n");
    return 1;
  }
  hazy::sql::Executor exec(&db);
  auto must = [&](const std::string& sql) {
    auto rs = exec.Execute(sql);
    if (!rs.ok()) {
      std::fprintf(stderr, "%s -> %s\n", sql.c_str(),
                   rs.status().ToString().c_str());
      std::exit(1);
    }
  };

  must("CREATE TABLE Papers (id INT PRIMARY KEY, title TEXT)");
  must("CREATE TABLE Areas (label TEXT)");
  must("INSERT INTO Areas VALUES ('DB'), ('OTHER')");
  must("CREATE TABLE Examples (id INT PRIMARY KEY, label TEXT)");
  // Bulk-load the corpus in multi-row statements.
  const size_t kRowsPerStmt = 256;
  for (size_t base = 0; base < entities; base += kRowsPerStmt) {
    std::string stmt = "INSERT INTO Papers VALUES ";
    for (size_t i = base; i < std::min(entities, base + kRowsPerStmt); ++i) {
      const int64_t id = static_cast<int64_t>(i);
      if (i != base) stmt += ", ";
      stmt += "(" + std::to_string(id) + ", '" + Title(id, IsDbClass(id)) + "')";
    }
    must(stmt);
  }
  must(
      "CREATE CLASSIFICATION VIEW V KEY id "
      "ENTITIES FROM Papers KEY id "
      "LABELS FROM Areas LABEL label "
      "EXAMPLES FROM Examples KEY id LABEL label "
      "FEATURE FUNCTION tf_bag_of_words USING SVM "
      "ARCHITECTURE HAZY_MM MODE LAZY");
  // Train on the first slice so the model separates the vocabularies.
  for (int64_t id = 0; id < 200 && id < static_cast<int64_t>(entities); ++id) {
    must("INSERT INTO Examples VALUES (" + std::to_string(id) + ", '" +
         (IsDbClass(id) ? "DB" : "OTHER") + "')");
  }

  // --- Phase 1: read-only baseline. ----------------------------------------
  const PhaseResult baseline = RunReaders(&db, readers, reads, entities);

  // --- Phase 2: the same readers under a saturating ingest stream. ---------
  std::atomic<bool> stop_writer{false};
  std::atomic<uint64_t> writes{0};
  int64_t next_id = static_cast<int64_t>(entities);
  auto ingest = [&] {
    hazy::sql::Executor wexec(&db);
    while (!stop_writer.load(std::memory_order_relaxed)) {
      const int64_t id = next_id++;
      const std::string paper = "INSERT INTO Papers VALUES (" +
                                std::to_string(id) + ", '" +
                                Title(id, IsDbClass(id)) + "')";
      const std::string example = "INSERT INTO Examples VALUES (" +
                                  std::to_string(id) + ", '" +
                                  (IsDbClass(id) ? "DB" : "OTHER") + "')";
      if (!wexec.Execute(paper).ok() || !wexec.Execute(example).ok()) {
        std::fprintf(stderr, "writer failed at id %lld\n",
                     static_cast<long long>(id));
        return;
      }
      writes.fetch_add(2, std::memory_order_relaxed);
    }
  };
  std::thread writer(ingest);
  // Readers stay inside the original key space: every key they touch exists
  // in every epoch, so answers are single-row in both phases.
  const auto mixed_start = Clock::now();
  const PhaseResult mixed = RunReaders(&db, readers, reads, entities);
  const double mixed_elapsed =
      std::chrono::duration<double>(Clock::now() - mixed_start).count();
  stop_writer.store(true);
  writer.join();
  const double write_rate =
      mixed_elapsed > 0 ? static_cast<double>(writes.load()) / mixed_elapsed : 0;

  auto view = db.GetView("V");
  if (!view.ok()) {
    std::fprintf(stderr, "view lookup failed\n");
    return 1;
  }

  // --- Phase 3: All Members reads under the same ingest stream. ------------
  const hazy::core::ViewStats& vstats = (*view)->view()->stats();
  const uint64_t scored_before = vstats.tuples_scanned;
  const uint64_t bounds_before = vstats.rows_by_bounds;
  const uint64_t queries_before = vstats.all_members_queries;
  stop_writer.store(false);
  writer = std::thread(ingest);
  std::vector<double> scan_us;
  scan_us.reserve(kScans);
  {
    hazy::sql::Executor rexec(&db);
    for (size_t i = 0; i < kScans; ++i) {
      const auto t0 = Clock::now();
      auto rs = rexec.Execute(i % 2 == 0
                                  ? "SELECT id FROM V WHERE class = 'DB'"
                                  : "SELECT id FROM V WHERE class = 'OTHER'");
      scan_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - t0)
              .count());
      if (!rs.ok() || rs->rows.empty()) {
        std::fprintf(stderr, "members read failed\n");
        stop_writer.store(true);
        writer.join();
        return 1;
      }
    }
  }
  stop_writer.store(true);
  writer.join();
  const uint64_t member_scans = vstats.all_members_queries - queries_before;
  const double scored_per_scan =
      member_scans > 0
          ? static_cast<double>(vstats.tuples_scanned - scored_before) /
                static_cast<double>(member_scans)
          : 0;
  const double by_bounds_per_scan =
      member_scans > 0
          ? static_cast<double>(vstats.rows_by_bounds - bounds_before) /
                static_cast<double>(member_scans)
          : 0;
  const double scan_p50_us = Percentile(&scan_us, 0.50);
  const double scan_p99_us = Percentile(&scan_us, 0.99);

  // --- Phase 4: deterministic epoch retire + reclaim. ----------------------
  {
    hazy::core::SnapshotPin pin = (*view)->PinSnapshot();
    must("INSERT INTO Examples VALUES (250, 'DB')");  // publishes a new epoch
    // `pin` releases here; its retired epoch reclaims now.
  }
  const uint64_t reclaimed = (*view)->epochs().reclaimed_total();
  const uint64_t live = (*view)->epochs().live_epochs();

  const double ratio_pct =
      baseline.qps > 0 ? 100.0 * mixed.qps / baseline.qps : 0;
  // The qps ratio folds in plain CPU sharing with the writer thread (on a
  // single-core box the writer's ~20% CPU shows up here no matter what the
  // gate does). The p50 latency ratio isolates blocking: a read that waits
  // on ingest gets slower per-op, a read that merely time-slices does not.
  const double p50_ratio_pct =
      mixed.p50_us > 0 ? 100.0 * baseline.p50_us / mixed.p50_us : 0;

  std::printf("micro_mixed_rw: %zu entities, %zu readers, %zu reads/phase\n",
              entities, readers, reads);
  hazy::bench::TablePrinter table({"metric", "read-only", "under ingest"});
  table.AddRow({"read qps", hazy::bench::FormatRate(baseline.qps),
                hazy::bench::FormatRate(mixed.qps)});
  table.AddRow({"p50 us", std::to_string(baseline.p50_us),
                std::to_string(mixed.p50_us)});
  table.AddRow({"p99 us", std::to_string(baseline.p99_us),
                std::to_string(mixed.p99_us)});
  table.AddRow({"writer stmts/s", "-", hazy::bench::FormatRate(write_rate)});
  table.Print();
  std::printf(
      "read throughput under saturating ingest: %.1f%% of read-only, "
      "per-read p50 at %.1f%% of baseline speed "
      "(%llu epochs reclaimed, %llu live)\n",
      ratio_pct, p50_ratio_pct, static_cast<unsigned long long>(reclaimed),
      static_cast<unsigned long long>(live));
  std::printf(
      "All Members under ingest: %.1f rows scored, %.1f settled by the water "
      "lines per scan (%llu scans, p50 %.1f us, p99 %.1f us)\n",
      scored_per_scan, by_bounds_per_scan,
      static_cast<unsigned long long>(member_scans), scan_p50_us, scan_p99_us);

  hazy::bench::ReportMetric("micro_mixed_rw", "baseline_read_qps",
                            baseline.qps, "req/s");
  hazy::bench::ReportMetric("micro_mixed_rw", "baseline_p50", baseline.p50_us,
                            "us");
  hazy::bench::ReportMetric("micro_mixed_rw", "baseline_p99", baseline.p99_us,
                            "us");
  hazy::bench::ReportMetric("micro_mixed_rw", "mixed_read_qps", mixed.qps,
                            "req/s");
  hazy::bench::ReportMetric("micro_mixed_rw", "mixed_p50", mixed.p50_us, "us");
  hazy::bench::ReportMetric("micro_mixed_rw", "mixed_p99", mixed.p99_us, "us");
  hazy::bench::ReportMetric("micro_mixed_rw", "read_ratio_pct", ratio_pct, "%");
  hazy::bench::ReportMetric("micro_mixed_rw", "p50_ratio_pct", p50_ratio_pct,
                            "%");
  hazy::bench::ReportMetric("micro_mixed_rw", "writer_stmts_per_s", write_rate,
                            "stmt/s");
  hazy::bench::ReportMetric("micro_mixed_rw", "rows_scored_per_scan",
                            scored_per_scan, "rows");
  hazy::bench::ReportMetric("micro_mixed_rw", "rows_by_bounds_per_scan",
                            by_bounds_per_scan, "rows");
  hazy::bench::ReportMetric("micro_mixed_rw", "scan_p50", scan_p50_us, "us");
  hazy::bench::ReportMetric("micro_mixed_rw", "scan_p99", scan_p99_us, "us");
  hazy::bench::ReportMetric("micro_mixed_rw", "epochs_reclaimed",
                            static_cast<double>(reclaimed), "count");
  return hazy::bench::FlushBenchReport();
}
