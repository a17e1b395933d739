#include "bench/util.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "common/logging.h"
#include "mapping/mapping.h"

namespace xmlshred::bench {

double BenchScale() {
  const char* env = std::getenv("XMLSHRED_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  double scale = std::atof(env);
  return scale > 0 ? scale : 1.0;
}

DesignProblem Dataset::MakeProblem(XPathWorkload workload) const {
  DesignProblem problem;
  problem.tree = data.tree.get();
  problem.stats = stats.get();
  problem.workload = std::move(workload);
  problem.storage_bound_pages = storage_bound_pages;
  problem.exec.metrics = &GlobalMetrics();
  return problem;
}

MetricsRegistry& GlobalMetrics() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

std::string ExtractStringFlag(int* argc, char** argv, const std::string& name) {
  std::string value;
  const std::string prefix = name + "=";
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) {
      value = arg.substr(prefix.size());
      continue;
    }
    if (arg == name && i + 1 < *argc) {
      value = argv[++i];
      continue;
    }
    argv[out++] = argv[i];
  }
  *argc = out;
  return value;
}

std::string ExtractMetricsOutArg(int* argc, char** argv) {
  std::string path = ExtractStringFlag(argc, argv, "--metrics-out");
  if (path.empty()) {
    if (const char* env = std::getenv("XMLSHRED_BENCH_METRICS_OUT")) {
      path = env;
    }
  }
  return path;
}

BenchFlags ExtractBenchFlags(int* argc, char** argv) {
  BenchFlags flags;
  flags.json_path = ExtractStringFlag(argc, argv, "--json");
  flags.metrics_out = ExtractMetricsOutArg(argc, argv);
  return flags;
}

void WriteMetricsOut(const std::string& path) {
  if (path.empty()) return;
  XS_CHECK_OK(WriteTextFile(path, GlobalMetrics().Snapshot().ToJson()));
  std::printf("metrics written to %s\n", path.c_str());
}

namespace {

void FinishDataset(Dataset* dataset) {
  auto stats = XmlStatistics::Collect(dataset->data.doc, *dataset->data.tree);
  XS_CHECK_OK(stats.status());
  dataset->stats = std::make_unique<XmlStatistics>(std::move(*stats));
  auto mapping = Mapping::Build(*dataset->data.tree);
  XS_CHECK_OK(mapping.status());
  CatalogDesc catalog =
      dataset->stats->DeriveCatalog(*dataset->data.tree, *mapping);
  // Like the paper (Table 1): a 3x-data space limit (300 MB for 100 MB of
  // DBLP). Override with XMLSHRED_BENCH_SPACE (multiplier of data pages).
  double multiplier = 3.0;
  if (const char* env = std::getenv("XMLSHRED_BENCH_SPACE")) {
    double v = std::atof(env);
    if (v > 1.0) multiplier = v;
  }
  dataset->storage_bound_pages = static_cast<int64_t>(
      static_cast<double>(catalog.DataPages()) * multiplier) + 256;
}

}  // namespace

Dataset MakeDblpDataset() {
  Dataset dataset;
  dataset.name = "DBLP";
  DblpConfig config;
  config.num_inproceedings = static_cast<int64_t>(20000 * BenchScale());
  config.num_books = config.num_inproceedings / 10;
  dataset.data = GenerateDblp(config);
  FinishDataset(&dataset);
  return dataset;
}

Dataset MakeMovieDataset() {
  Dataset dataset;
  dataset.name = "Movie";
  MovieConfig config;
  config.num_movies = static_cast<int64_t>(20000 * BenchScale());
  dataset.data = GenerateMovie(config);
  FinishDataset(&dataset);
  return dataset;
}

std::vector<WorkloadSpec> DblpWorkloadSpecs() {
  std::vector<WorkloadSpec> specs;
  uint64_t seed = 100;
  for (int n : {10, 20}) {
    for (ProjectionClass proj :
         {ProjectionClass::kLow, ProjectionClass::kHigh}) {
      for (SelectivityClass sel :
           {SelectivityClass::kLow, SelectivityClass::kHigh}) {
        WorkloadSpec spec;
        spec.projections = proj;
        spec.selectivity = sel;
        spec.num_queries = n;
        spec.seed = seed++;
        specs.push_back(spec);
      }
    }
  }
  return specs;
}

std::vector<WorkloadSpec> MovieWorkloadSpecs() {
  std::vector<WorkloadSpec> specs;
  uint64_t seed = 300;
  for (ProjectionClass proj :
       {ProjectionClass::kLow, ProjectionClass::kHigh}) {
    for (SelectivityClass sel :
         {SelectivityClass::kLow, SelectivityClass::kHigh}) {
      WorkloadSpec spec;
      spec.projections = proj;
      spec.selectivity = sel;
      spec.num_queries = 20;
      spec.seed = seed++;
      specs.push_back(spec);
    }
  }
  return specs;
}

Result<SearchResult> RunAlgorithm(const std::string& algorithm,
                                  const DesignProblem& problem,
                                  const GreedyOptions& greedy_options) {
  if (algorithm == "greedy") return GreedySearch(problem, greedy_options);
  if (algorithm == "naive") return NaiveGreedySearch(problem);
  if (algorithm == "two-step") return TwoStepSearch(problem);
  if (algorithm == "hybrid") return EvaluateHybridInline(problem);
  return InvalidArgument("unknown algorithm " + algorithm);
}

Timing TimeRepeated(const std::function<void()>& body) {
  using clock = std::chrono::steady_clock;
  constexpr size_t kWindows = 5;
  Timing out;
  std::vector<double> means;
  for (size_t w = 0; w < kWindows; ++w) {
    auto start = clock::now();
    int64_t iters = 0;
    double elapsed_ns = 0;
    do {
      body();
      ++iters;
      elapsed_ns = std::chrono::duration<double, std::nano>(clock::now() -
                                                            start)
                       .count();
    } while (elapsed_ns < 2e8 || iters < 3);
    means.push_back(elapsed_ns / static_cast<double>(iters));
    out.iterations += iters;
  }
  std::nth_element(means.begin(), means.begin() + kWindows / 2,
                   means.end());
  out.ns_per_iter = means[kWindows / 2];
  return out;
}

void PrintTitle(const std::string& title, const std::string& paper_shape) {
  std::printf("\n=== %s ===\n", title.c_str());
  if (!paper_shape.empty()) {
    std::printf("paper shape: %s\n", paper_shape.c_str());
  }
}

void PrintRow(const std::vector<std::string>& cells) {
  for (size_t i = 0; i < cells.size(); ++i) {
    std::printf("%-14s", cells[i].c_str());
  }
  std::printf("\n");
}

}  // namespace xmlshred::bench
