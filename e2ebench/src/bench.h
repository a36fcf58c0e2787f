// Shared infrastructure of the end-to-end benchmark: run options, latency
// samples, the span tracer, the workload result, the seeded schemas and the
// client-side step planner. See ../README.md for the workloads.

#ifndef ADEPT_E2EBENCH_BENCH_H_
#define ADEPT_E2EBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/adept_cluster.h"
#include "common/rng.h"
#include "model/schema.h"
#include "runtime/instance_snapshot.h"

namespace e2e {

using adept::DataId;
using adept::InstanceId;
using adept::NodeId;

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct RunOptions {
  // When the process started (NowNs at static initialisation): set-up time
  // runs from here.
  uint64_t start_ns = 0;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Scratch directory for this run's WAL, snapshot and replica files.
  std::string dir;
  // Output directory for the trace dump and the detail report.
  std::string out_dir;
  // Client threads: the machine's core count.
  int threads = 4;
  // Shrinks populations and round sizes (self-test only).
  bool small = false;
  // Self-test only: the check whose expectation the workload deliberately
  // corrupts (see selftest.cc); empty in real runs.
  std::string perturb;
  bool Perturb(const char* check) const { return perturb == check; }
};

// --- Latency samples ---------------------------------------------------------

class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t size() const { return values_.size(); }
  // Nearest-rank quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q);
  double Median() { return Quantile(0.5); }

 private:
  std::vector<double> values_;
  bool sorted_ = false;
};

// --- Spans -------------------------------------------------------------------

// One timed call from the benchmark's code into a layer's public function.
// Spans of one client operation share `op`; `parent` indexes the span of the
// enclosing call on the same thread (-1 for a root).
struct SpanRecord {
  const char* name;
  uint64_t start_ns;
  uint64_t end_ns;
  int32_t parent;
  uint64_t op;
  int thread;
};

// Per-thread span buffers, kept in memory and written out when the run
// ends. Disabled tracers record nothing; Span then costs one branch.
class Tracer {
 public:
  explicit Tracer(int threads) : buffers_(static_cast<size_t>(threads)) {
    for (auto& b : buffers_) b.spans.reserve(1 << 16);
  }
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  struct Buffer {
    std::vector<SpanRecord> spans;
    int32_t open = -1;       // innermost open span
    uint64_t current_op = 0;  // op id of the current client operation
  };
  Buffer& buffer(int thread) { return buffers_[static_cast<size_t>(thread)]; }

  // Durations (µs) of every span named `name`.
  Samples Durations(const std::string& name) const;
  // Self time (µs) of every span named `name`: its duration minus the time
  // its child spans cover.
  Samples SelfTimes(const std::string& name) const;
  // Writes every span as one JSON line.
  bool Dump(const std::string& path) const;

 private:
  std::vector<Buffer> buffers_;
  bool enabled_ = false;
};

class Span {
 public:
  Span(Tracer* tracer, int thread, const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer::Buffer* buffer_ = nullptr;
  int32_t index_ = -1;
  int32_t saved_open_ = -1;
};

// Starts a new client operation on `thread`: later spans share its id.
void BeginOp(Tracer* tracer, int thread);

// --- Result ------------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};

struct WorkloadResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // End-to-end metrics (untraced runs) or per-layer metrics (traced runs).
  std::map<std::string, Metric> metrics;
  // Everything else worth keeping: sample counts, round counts, probes.
  std::map<std::string, double> detail;
  // Failed checks (they make the run incorrect) and failed client calls
  // (counted in `failed`).
  std::vector<std::string> errors, failures;

  void Fail(const std::string& why) {
    correct = false;
    if (errors.size() < 20) errors.push_back(why);
  }
  void OpFailed(const std::string& why) {
    ++failed;
    if (failures.size() < 20) failures.push_back(why);
  }
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
};

// Every per-layer metric a traced run reports, with its unit; a workload
// that makes no call of a kind reports 0 for it.
struct LayerMetric {
  const char* name;
  const char* unit;
};
extern const LayerMetric kLayerMetrics[];
extern const size_t kLayerMetricCount;

// Runs `episodes` episodes of a workload one after another, each with its
// own scratch directory under options.dir (removed after it), and combines
// their results: correct when every episode is, attempted and failed calls
// summed, every metric and detail figure the median over the episodes,
// except `setup_s` and `peak_rss_mb`, which are the first episode's (the
// cold set-up, and the peak read before any episode's checks). Adds detail
// "episodes" and the slowest and fastest episode's ops_per_s. `last` marks
// the final episode.
WorkloadResult RunEpisodes(
    const RunOptions& options, int episodes,
    const std::function<WorkloadResult(const RunOptions&, bool last)>& run);

// Peak resident set of the process so far, in MiB (getrusage).
double PeakRssMb();
// Size of `path` in bytes, 0 when absent.
uint64_t FileBytes(const std::string& path);
// Sum of FileBytes over "<base>.shard<k>" for k < shards.
uint64_t ShardFilesBytes(const std::string& base, int shards);

// WAL bytes by record type ("create", "act", "adhoc", "migrate", "other";
// "journal" for the worklist claim journal), decoded with the storage
// layer's reader.
struct WalBreakdown {
  std::map<std::string, uint64_t> bytes;
  uint64_t records = 0;
  double scan_s = 0;  // time spent reading and decoding
};
void ScanWals(const std::vector<std::string>& paths,
              const std::string& journal_path, WalBreakdown* out);
// Sets the storage.wal_* per-layer metrics per client call.
void SetWalMetrics(const WalBreakdown& wal, uint64_t calls,
                   WorkloadResult& result);

// --- Schemas -----------------------------------------------------------------

// Block-structured schema of about `activities` activities with nested
// AND/XOR/LOOP blocks. Every activity carries one of `roles`; the first
// ("intake") and some later ones write the int element "x" (the monitor's
// indexed data field). Decision elements are
// named "sel*" (XOR codes 0/1) and loop conditions "again*".
std::shared_ptr<const adept::ProcessSchema> BlockSchema(
    const std::string& type_name, int activities, uint64_t seed,
    const std::vector<adept::RoleId>& roles);

// The paper's online-ordering process (Fig. 1), without roles.
std::shared_ptr<const adept::ProcessSchema> OnlineOrderSchema(
    const std::string& type_name);

// The adapt workload's fixed block type: s1 s2 AND(p1 p2 p3 | r1 r2 r3) s3
// XOR(sel: x1 | y1) s4 .. s10, without roles.
std::shared_ptr<const adept::ProcessSchema> AdaptBlockSchema(
    const std::string& type_name);

// --- Client-side step planning -----------------------------------------------

// Output values for completing `node` of `schema`: XOR decisions get a code
// in {0, 1}, loop conditions iterate with probability 0.3 while `runs` < 2,
// "x" gets a value below `x_range`, anything else a small int.
std::vector<adept::ProcessInstance::DataWrite> PlanWrites(
    const adept::SchemaView& schema, NodeId node, uint64_t runs,
    adept::Rng& rng, int x_range);

// Activated activities of a snapshot, ascending by node id.
std::vector<NodeId> ActivatedActivities(const adept::InstanceSnapshot& snap);

// --- Workloads ---------------------------------------------------------------

// `replicated` runs the execute load with one in-process replica node.
WorkloadResult RunExecute(const RunOptions& options, bool replicated);
WorkloadResult RunAdapt(const RunOptions& options);
WorkloadResult RunMonitor(const RunOptions& options);

// Feeds each correctness check a deliberately wrong expectation and returns
// the number of checks that failed to notice (0 = every check works).
int RunSelfTest(const RunOptions& options);

}  // namespace e2e

#endif  // ADEPT_E2EBENCH_BENCH_H_
