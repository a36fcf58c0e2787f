// adept_e2e: one workload of the end-to-end benchmark per invocation.
//
//   adept_e2e --workload <execute|adapt|monitor|replicated> --seed <n>
//             --seconds <s> --trace <0|1> [--dir <scratch>] [--out <dir>]
//   adept_e2e --selftest
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). A detail report with sample counts and side figures goes to
// <out>/detail-<workload>.json.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.h"

namespace {

const uint64_t kProcessStartNs = e2e::NowNs();

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

void Usage() {
  std::fprintf(stderr,
               "usage: adept_e2e --workload <execute|adapt|monitor|replicated> "
               "--seed <n> --seconds <s> --trace <0|1> [--dir d] [--out d]\n"
               "       adept_e2e --selftest [--dir d]\n");
}

}  // namespace

int main(int argc, char** argv) {
  e2e::RunOptions options;
  options.start_ns = kProcessStartNs;
  options.dir = ".bench_run";
  options.out_dir = ".bench_out";
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        Usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value() == "1";
    } else if (arg == "--dir") {
      options.dir = value();
    } else if (arg == "--out") {
      options.out_dir = value();
    } else if (arg == "--selftest") {
      selftest = true;
    } else {
      Usage();
      return 2;
    }
  }
  unsigned cores = std::thread::hardware_concurrency();
  options.threads = cores == 0 ? 1 : static_cast<int>(cores);

  // A fresh scratch directory per run: recovery must see only this run's
  // files.
  options.dir += "/" + (selftest ? std::string("selftest") : options.workload) +
                 "-" + std::to_string(options.seed);
  std::error_code ec;
  std::filesystem::remove_all(options.dir, ec);
  if (!std::filesystem::create_directories(options.dir, ec) ||
      (std::filesystem::create_directories(options.out_dir, ec), ec)) {
    std::fprintf(stderr, "cannot create %s or %s\n", options.dir.c_str(),
                 options.out_dir.c_str());
    return 2;
  }

  if (selftest) {
    int missed = e2e::RunSelfTest(options);
    std::filesystem::remove_all(options.dir, ec);
    return missed == 0 ? 0 : 1;
  }

  e2e::WorkloadResult result;
  if (options.workload == "execute") {
    result = e2e::RunExecute(options, /*replicated=*/false);
  } else if (options.workload == "replicated") {
    result = e2e::RunExecute(options, /*replicated=*/true);
  } else if (options.workload == "adapt") {
    result = e2e::RunAdapt(options);
  } else if (options.workload == "monitor") {
    result = e2e::RunMonitor(options);
  } else {
    Usage();
    return 2;
  }
  std::filesystem::remove_all(options.dir, ec);
  if (options.trace) {
    for (size_t i = 0; i < e2e::kLayerMetricCount; ++i) {
      const e2e::LayerMetric& m = e2e::kLayerMetrics[i];
      if (result.metrics.count(m.name) == 0) result.Set(m.name, 0, m.unit);
    }
  }

  for (const std::string& e : result.errors) {
    std::fprintf(stderr, "check failed: %s\n", e.c_str());
  }
  for (const std::string& e : result.failures) {
    std::fprintf(stderr, "operation failed: %s\n", e.c_str());
  }
  std::string detail = "{";
  for (const auto& [name, value] : result.detail) {
    if (detail.size() > 1) detail += ", ";
    detail += JsonString(name) + ": " + JsonNumber(value);
  }
  detail += "}";
  std::string detail_path = options.out_dir + "/detail-" + options.workload +
                            (options.trace ? "-trace" : "") + ".json";
  if (std::FILE* f = std::fopen(detail_path.c_str(), "w")) {
    std::fprintf(f, "%s\n", detail.c_str());
    std::fclose(f);
  }
  std::fprintf(stderr, "detail: %s\n", detail.c_str());

  std::string metrics = "{";
  for (const auto& [name, metric] : result.metrics) {
    if (metrics.size() > 1) metrics += ", ";
    metrics += JsonString(name) + ": {\"value\": " + JsonNumber(metric.value) +
               ", \"unit\": " + JsonString(metric.unit) + "}";
  }
  metrics += "}";
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  return 0;
}
