#include "bench/bench_util.h"

#include <unistd.h>

#include <cmath>
#include <cstdlib>

#include "common/logging.h"
#include "common/strings.h"
#include "obs/metrics.h"
#include "obs/stats_collectors.h"

namespace hazy::bench {

double BenchScale() {
  const char* env = std::getenv("HAZY_BENCH_SCALE");
  if (env != nullptr) {
    double v = std::atof(env);
    if (v > 0) return v;
  }
  return 0.01;
}

size_t BenchWarmSteps() {
  const char* env = std::getenv("HAZY_BENCH_WARM");
  if (env != nullptr) {
    long v = std::atol(env);
    if (v > 0) return static_cast<size_t>(v);
  }
  return 12000;
}

namespace {

uint64_t ApproxBytes(const std::vector<core::Entity>& entities) {
  uint64_t b = 0;
  for (const auto& e : entities) b += e.features.ApproxBytes() + 16;
  return b;
}

BenchCorpus FromDense(std::string name, const data::DenseCorpusOptions& opts) {
  BenchCorpus c;
  c.name = std::move(name);
  auto pts = data::GenerateDenseCorpus(opts);
  auto examples = data::ToBinary(pts, 0);
  // ℓ2-normalize dense features (the paper's Section 3.2.2: "Some
  // applications use ℓ2 normalization, and so (p = 2, q = 2)"), which makes
  // M = max ‖f‖₂ = 1 and keeps the Hölder window tight.
  for (auto& ex : examples) {
    double n = ex.features.Norm(2.0);
    if (n <= 0) continue;
    std::vector<double> v(ex.features.dim(), 0.0);
    ex.features.ForEach([&](uint32_t i, double x) { v[i] = x / n; });
    ex.features = ml::FeatureVector::Dense(std::move(v));
  }
  c.entities.reserve(examples.size());
  for (const auto& ex : examples) c.entities.push_back({ex.id, ex.features});
  c.stream = data::ShuffledStream(std::move(examples), opts.seed + 1);
  c.holder_p = 2.0;
  c.data_bytes = ApproxBytes(c.entities);
  return c;
}

BenchCorpus FromText(std::string name, const data::TextCorpusOptions& opts) {
  BenchCorpus c;
  c.name = std::move(name);
  auto docs = data::GenerateTextCorpus(opts);
  features::TfBagOfWords fn;
  auto examples = data::Featurize(docs, &fn);
  HAZY_CHECK(examples.ok()) << examples.status().ToString();
  c.entities.reserve(examples->size());
  for (const auto& ex : *examples) c.entities.push_back({ex.id, ex.features});
  c.stream = data::ShuffledStream(std::move(*examples), opts.seed + 1);
  c.holder_p = ml::kInf;
  c.data_bytes = ApproxBytes(c.entities);
  return c;
}

}  // namespace

BenchCorpus MakeDense(std::string name, const data::DenseCorpusOptions& opts) {
  return FromDense(std::move(name), opts);
}

BenchCorpus MakeForest(double scale, uint64_t seed) {
  return FromDense("FC", data::ForestLike(scale, seed));
}

BenchCorpus MakeDBLife(double scale, uint64_t seed) {
  return FromText("DB", data::DBLifeLike(scale, seed));
}

BenchCorpus MakeCiteseer(double scale, uint64_t seed) {
  return FromText("CS", data::CiteseerLike(scale, seed));
}

std::vector<BenchCorpus> MakeAllCorpora(double scale) {
  std::vector<BenchCorpus> out;
  out.push_back(MakeForest(scale));
  out.push_back(MakeDBLife(scale));
  out.push_back(MakeCiteseer(scale));
  return out;
}

std::vector<ml::LabeledExample> MakeWarmSet(const BenchCorpus& corpus, size_t n) {
  std::vector<ml::LabeledExample> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(corpus.stream[i % corpus.stream.size()]);
  return out;
}

core::ViewOptions BenchOptions(const BenchCorpus& corpus, core::Mode mode) {
  core::ViewOptions o;
  o.mode = mode;
  o.holder_p = corpus.holder_p;
  o.cost_model = core::CostModel::kMeasuredTime;
  // Warm-model regime (calibrated against Fig 13): with eta0 = 0.5 and
  // lambda = 1e-2 the Bottou schedule has decayed enough after the 12k-example
  // warm-up that the steady-state water window holds ~1-3% of the tuples.
  o.sgd.eta0 = 0.5;
  o.sgd.lambda = 1e-2;
  o.hybrid_buffer_capacity = std::max<size_t>(16, corpus.entities.size() / 100);
  return o;
}

std::unique_ptr<ViewHarness> ViewHarness::Create(core::Architecture arch,
                                                 core::ViewOptions options,
                                                 const BenchCorpus& corpus,
                                                 size_t pool_pages) {
  auto h = std::unique_ptr<ViewHarness>(new ViewHarness());
  h->path_ = storage::TempFilePath("bench");
  h->pager_ = std::make_unique<storage::Pager>();
  HAZY_CHECK_OK(h->pager_->Open(h->path_));
  h->pool_ = std::make_unique<storage::BufferPool>(h->pager_.get(), pool_pages);
  auto v = core::MakeView(arch, options, h->pool_.get());
  HAZY_CHECK(v.ok()) << v.status().ToString();
  h->view_ = std::move(*v);
  HAZY_CHECK_OK(h->view_->BulkLoad(corpus.entities));
  // Publish the harness's storage/view stats into the registry so the
  // --json report's registry snapshot covers bench work too.
  const std::string labels = StrFormat(
      "src=\"bench\",arch=\"%s\"", core::ArchitectureToString(arch));
  h->collectors_.push_back(obs::RegisterBufferPoolStats(h->pool_.get(), labels));
  h->collectors_.push_back(obs::RegisterPagerStats(h->pager_.get(), labels));
  h->collectors_.push_back(obs::RegisterViewStats(&h->view_->stats(), labels));
  return h;
}

ViewHarness::~ViewHarness() {
  for (uint64_t id : collectors_) obs::UnregisterStats(id);
  view_.reset();
  pool_.reset();
  if (pager_) {
    pager_->Close().ok();
    ::unlink(path_.c_str());
  }
}

void ViewHarness::Warm(const BenchCorpus& corpus, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    HAZY_CHECK_OK(view_->Update(corpus.stream[i % corpus.stream.size()]));
  }
}

double ViewHarness::MeasureUpdateRate(const BenchCorpus& corpus, size_t n,
                                      size_t offset) {
  Timer timer;
  for (size_t i = 0; i < n; ++i) {
    HAZY_CHECK_OK(view_->Update(corpus.stream[(offset + i) % corpus.stream.size()]));
  }
  double secs = timer.ElapsedSeconds();
  return secs > 0 ? static_cast<double>(n) / secs : 0.0;
}

double ViewHarness::MeasureBatchedUpdateRate(const BenchCorpus& corpus, size_t n,
                                             size_t offset, size_t batch_size) {
  if (batch_size == 0) batch_size = 1;
  // Materialize the (cycled) stream slice so each batch is one contiguous span.
  std::vector<ml::LabeledExample> slice;
  slice.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    slice.push_back(corpus.stream[(offset + i) % corpus.stream.size()]);
  }
  Timer timer;
  for (size_t i = 0; i < n; i += batch_size) {
    size_t len = std::min(batch_size, n - i);
    HAZY_CHECK_OK(view_->UpdateBatch(Span<const ml::LabeledExample>(slice.data() + i, len)));
  }
  double secs = timer.ElapsedSeconds();
  return secs > 0 ? static_cast<double>(n) / secs : 0.0;
}

double ViewHarness::MeasureAllMembersRate(size_t n) {
  Timer timer;
  uint64_t sink = 0;
  for (size_t i = 0; i < n; ++i) {
    auto count = view_->AllMembersCount(1);
    HAZY_CHECK(count.ok()) << count.status().ToString();
    sink += *count;
  }
  double secs = timer.ElapsedSeconds();
  // Keep the compiler from dropping the loop.
  if (sink == 0xFFFFFFFFFFFFFFFFULL) std::fprintf(stderr, "?");
  return secs > 0 ? static_cast<double>(n) / secs : 0.0;
}

double ViewHarness::MeasureReadRate(const BenchCorpus& corpus, size_t n,
                                    uint64_t seed) {
  Rng rng(seed);
  Timer timer;
  int64_t sink = 0;
  for (size_t i = 0; i < n; ++i) {
    int64_t id = corpus.entities[rng.Uniform(corpus.entities.size())].id;
    auto label = view_->SingleEntityRead(id);
    HAZY_CHECK(label.ok()) << label.status().ToString();
    sink += *label;
  }
  double secs = timer.ElapsedSeconds();
  if (sink == -1234567) std::fprintf(stderr, "?");
  return secs > 0 ? static_cast<double>(n) / secs : 0.0;
}

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void TablePrinter::Print() const {
  std::vector<size_t> widths(headers_.size(), 0);
  for (size_t i = 0; i < headers_.size(); ++i) widths[i] = headers_[i].size();
  for (const auto& row : rows_) {
    for (size_t i = 0; i < row.size() && i < widths.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (size_t i = 0; i < widths.size(); ++i) {
      std::printf("%-*s", static_cast<int>(widths[i] + 2),
                  i < row.size() ? row[i].c_str() : "");
    }
    std::printf("\n");
  };
  print_row(headers_);
  size_t total = 2 * widths.size();
  for (size_t w : widths) total += w;
  std::printf("%s\n", std::string(total, '-').c_str());
  for (const auto& row : rows_) print_row(row);
}

std::string FormatRate(double per_second) {
  if (per_second >= 1e6) return StrFormat("%.1fM", per_second / 1e6);
  if (per_second >= 1e3) return StrFormat("%.1fk", per_second / 1e3);
  if (per_second >= 10) return StrFormat("%.0f", per_second);
  return StrFormat("%.2f", per_second);
}

namespace {

struct Metric {
  std::string bench;
  std::string metric;
  double value;
  std::string unit;
};

bool g_json_enabled = false;
std::string g_json_path;        // empty = stdout
std::vector<Metric> g_metrics;  // collected until FlushBenchReport

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += StrFormat("\\u%04x", c);
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

void InitBenchReport(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--json") {
      g_json_enabled = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      g_json_enabled = true;
      g_json_path = arg.substr(7);
    }
  }
}

bool JsonEnabled() { return g_json_enabled; }

void ReportMetric(const std::string& bench, const std::string& metric, double value,
                  const std::string& unit) {
  if (!g_json_enabled) return;
  g_metrics.push_back(Metric{bench, metric, value, unit});
}

int FlushBenchReport() {
  if (!g_json_enabled) return 0;
  // Fold in the registry: every sample becomes a "registry" bench entry
  // whose metric is `name{labels}` and whose unit is the sample kind. The
  // CI dead-metric lint greps these to prove each family was exercised.
  for (const obs::Sample& s : obs::Registry::Global().Snapshot()) {
    std::string name = s.labels.empty() ? s.name : s.name + "{" + s.labels + "}";
    g_metrics.push_back(
        Metric{"registry", std::move(name), s.value, obs::SampleKindName(s.kind)});
  }
  std::string out = "[\n";
  for (size_t i = 0; i < g_metrics.size(); ++i) {
    const Metric& m = g_metrics[i];
    // inf/nan are not JSON; emit null so one degenerate metric cannot make
    // the whole report unparseable.
    std::string value = std::isfinite(m.value) ? StrFormat("%.17g", m.value) : "null";
    out += StrFormat("  {\"bench\": \"%s\", \"metric\": \"%s\", \"value\": %s, "
                     "\"unit\": \"%s\"}%s\n",
                     JsonEscape(m.bench).c_str(), JsonEscape(m.metric).c_str(),
                     value.c_str(), JsonEscape(m.unit).c_str(),
                     i + 1 < g_metrics.size() ? "," : "");
  }
  out += "]\n";
  if (g_json_path.empty()) {
    std::fputs(out.c_str(), stdout);
  } else {
    std::FILE* f = std::fopen(g_json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "could not open %s for JSON output\n", g_json_path.c_str());
      return 1;
    }
    std::fputs(out.c_str(), f);
    std::fclose(f);
  }
  g_metrics.clear();
  return 0;
}

}  // namespace hazy::bench
