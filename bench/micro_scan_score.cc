// The read-path microbenchmark behind PR 3's acceptance bar: rows/second
// through the scan & scoring pipeline for
//   * lazy AllMembersCount (every tuple rescored under the current model),
//   * the eager relabel sweep (every tuple rescored + flipped labels
//     patched),
// over a dense Forest-like corpus and a sparse DBLife-like corpus, for all
// five architectures.
//
// The "kernel" metric records which dispatch the binary is running
// (-DHAZY_SIMD=OFF builds the scalar kernels only).
//
//   HAZY_BENCH_SCALE   corpus scale      (default 0.01)
//   HAZY_BENCH_WARM    warm-up examples  (default 12000)
//   --json[=path]      also emit machine-readable results

#include <algorithm>
#include <cstdio>

#include "bench/bench_util.h"
#include "common/strings.h"
#include "ml/simd.h"
#include "obs/trace.h"

using namespace hazy;
using namespace hazy::bench;

namespace {

struct Tech {
  const char* label;
  core::Architecture arch;
};

constexpr Tech kTechs[] = {
    {"OD Naive", core::Architecture::kNaiveOD},
    {"OD Hazy", core::Architecture::kHazyOD},
    {"Hybrid", core::Architecture::kHybrid},
    {"MM Naive", core::Architecture::kNaiveMM},
    {"MM Hazy", core::Architecture::kHazyMM},
};

}  // namespace

int main(int argc, char** argv) {
  InitBenchReport(argc, argv);
  double scale = BenchScale();
  const size_t warm = BenchWarmSteps();

  std::printf("== micro_scan_score: read-path rows/s (kernel: %s) ==\n",
              ml::simd::KernelName());
  std::printf("scale %.3f, warm-up %zu\n\n", scale, warm);
  ReportMetric("micro_scan_score", std::string("kernel is ") + ml::simd::KernelName(),
               ml::simd::KernelName()[0] == 'a' ? 1.0 : 0.0, "bool");

  std::vector<BenchCorpus> corpora;
  corpora.push_back(MakeForest(scale));
  corpora.push_back(MakeDBLife(scale));

  for (const auto& corpus : corpora) {
    const size_t rows = corpus.entities.size();
    std::vector<ml::LabeledExample> warm_set = MakeWarmSet(corpus, warm);
    // This is a CPU-pipeline benchmark: size the pool to hold the working
    // set so it measures decode + scoring, not pager I/O (fig6b owns the
    // buffer-pressure story).
    size_t pool_pages =
        std::max<size_t>(1024, 2 * corpus.data_bytes / storage::kPageSize);

    std::printf("-- corpus %s (%zu rows) --\n", corpus.name.c_str(), rows);
    TablePrinter table({"Technique", "lazy scan rows/s", "eager relabel rows/s",
                        "single reads/s"});

    for (const auto& tech : kTechs) {
      // Lazy AllMembersCount: every query rescans [lw, inf) under the
      // current model; a drip of updates between queries keeps the window
      // live (same protocol as fig4b).
      double lazy_rows_per_sec = 0.0;
      double reads_per_sec = 0.0;
      {
        auto h = ViewHarness::Create(tech.arch, BenchOptions(corpus, core::Mode::kLazy),
                                     corpus, pool_pages);
        HAZY_CHECK_OK(h->view()->WarmModel(warm_set));
        const size_t queries = 30;
        size_t off = warm;
        Timer timer;
        for (size_t q = 0; q < queries; ++q) {
          for (size_t d = 0; d < 5; ++d) {
            HAZY_CHECK_OK(
                h->view()->Update(corpus.stream[(off++) % corpus.stream.size()]));
          }
          auto count = h->view()->AllMembersCount(1);
          HAZY_CHECK(count.ok()) << count.status().ToString();
        }
        lazy_rows_per_sec =
            static_cast<double>(queries * rows) / timer.ElapsedSeconds();
        // Single-entity reads on the same lazily-maintained view: the point
        // read is each architecture's other read path (bounds check, hybrid
        // buffer, store fetch), so it belongs in the read-path microbench —
        // and it keeps the per-path read counters live for the CI
        // dead-metric lint.
        reads_per_sec = h->MeasureReadRate(corpus, 2000, /*seed=*/17);
      }

      // Eager per-update maintenance: naive relabels the whole table per
      // update (rows/update = all rows); hazy/hybrid sweep only the window,
      // so their per-update row count is window-sized — still reported as
      // whole-table-equivalent rows/s for comparability.
      double relabel_rows_per_sec = 0.0;
      {
        auto h = ViewHarness::Create(tech.arch, BenchOptions(corpus, core::Mode::kEager),
                                     corpus, pool_pages);
        HAZY_CHECK_OK(h->view()->WarmModel(warm_set));
        const size_t updates = 25;
        size_t off = warm;
        Timer timer;
        for (size_t u = 0; u < updates; ++u) {
          HAZY_CHECK_OK(
              h->view()->Update(corpus.stream[(off++) % corpus.stream.size()]));
        }
        relabel_rows_per_sec =
            static_cast<double>(updates * rows) / timer.ElapsedSeconds();
      }

      table.AddRow({tech.label, FormatRate(lazy_rows_per_sec),
                    FormatRate(relabel_rows_per_sec), FormatRate(reads_per_sec)});
      ReportMetric("micro_scan_score",
                   corpus.name + " " + tech.label + " lazy-allmembers",
                   lazy_rows_per_sec, "rows/s");
      ReportMetric("micro_scan_score",
                   corpus.name + " " + tech.label + " eager-relabel",
                   relabel_rows_per_sec, "rows/s");
      ReportMetric("micro_scan_score",
                   corpus.name + " " + tech.label + " single-reads",
                   reads_per_sec, "reads/s");
    }
    table.Print();
    std::printf("\n");
  }
  // -- Observability overhead: the same lazy scan with a TraceContext
  // installed vs not. With no trace, every probe is a thread-local load;
  // with one, span opens, event timers, and registry histograms are all
  // live. Best-of-3 interleaved rounds; the acceptance bar is < 2%.
  {
    const auto& corpus = corpora[0];  // Forest: the dense, CPU-bound case
    const size_t rows = corpus.entities.size();
    std::vector<ml::LabeledExample> warm_set = MakeWarmSet(corpus, warm);
    size_t pool_pages =
        std::max<size_t>(1024, 2 * corpus.data_bytes / storage::kPageSize);
    auto h = ViewHarness::Create(core::Architecture::kHazyOD,
                                 BenchOptions(corpus, core::Mode::kLazy),
                                 corpus, pool_pages);
    HAZY_CHECK_OK(h->view()->WarmModel(warm_set));
    size_t off = warm;
    obs::TraceContext trace;
    auto measure = [&](bool traced) {
      const size_t queries = 40;
      Timer timer;
      for (size_t q = 0; q < queries; ++q) {
        obs::ScopedTraceInstall install(traced ? &trace : nullptr);
        for (size_t d = 0; d < 5; ++d) {
          HAZY_CHECK_OK(
              h->view()->Update(corpus.stream[(off++) % corpus.stream.size()]));
        }
        auto count = h->view()->AllMembersCount(1);
        HAZY_CHECK(count.ok()) << count.status().ToString();
        trace.Clear();
      }
      return static_cast<double>(queries * rows) / timer.ElapsedSeconds();
    };
    measure(false);  // discarded: the first pass pays the post-warm-up
    measure(true);   // catch-up scan and faults the working set in
    double untraced = 0.0, traced = 0.0;
    for (int round = 0; round < 3; ++round) {
      untraced = std::max(untraced, measure(false));
      traced = std::max(traced, measure(true));
    }
    double overhead_pct = (untraced - traced) / untraced * 100.0;
    std::printf(
        "\n-- trace overhead (Forest, OD Hazy lazy) --\n"
        "untraced %s rows/s, traced %s rows/s => %.2f%% overhead\n",
        FormatRate(untraced).c_str(), FormatRate(traced).c_str(),
        overhead_pct);
    ReportMetric("micro_scan_score", "lazy-allmembers untraced", untraced,
                 "rows/s");
    ReportMetric("micro_scan_score", "lazy-allmembers traced", traced,
                 "rows/s");
    ReportMetric("micro_scan_score", "trace_overhead_pct", overhead_pct, "%");
  }
  return FlushBenchReport();
}
