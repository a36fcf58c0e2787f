#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>

#include "bench.h"
#include "model/schema_builder.h"
#include "storage/wal.h"

namespace e2e {

using adept::DataType;
using adept::ProcessSchema;
using adept::RoleId;
using adept::SchemaBuilder;

// --- Samples -----------------------------------------------------------------

double Samples::Quantile(double q) {
  if (values_.empty()) return 0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  size_t rank = static_cast<size_t>(q * static_cast<double>(values_.size()));
  return values_[std::min(rank, values_.size() - 1)];
}

// --- Episodes ----------------------------------------------------------------

namespace {

WorkloadResult CombineEpisodes(std::vector<WorkloadResult>& episodes) {
  WorkloadResult out;
  if (episodes.empty()) return out;
  std::map<std::string, Samples> metrics, detail;
  for (const WorkloadResult& r : episodes) {
    if (!r.correct) out.correct = false;
    out.attempted += r.attempted;
    out.failed += r.failed;
    for (const std::string& e : r.errors) {
      if (out.errors.size() < 20) out.errors.push_back(e);
    }
    for (const std::string& e : r.failures) {
      if (out.failures.size() < 20) out.failures.push_back(e);
    }
    for (const auto& [name, m] : r.metrics) metrics[name].Add(m.value);
    for (const auto& [name, v] : r.detail) detail[name].Add(v);
  }
  const WorkloadResult& first = episodes.front();
  for (auto& [name, values] : metrics) {
    auto in_first = first.metrics.find(name);
    bool from_first = (name == "setup_s" || name == "peak_rss_mb") &&
                      in_first != first.metrics.end();
    std::string unit;
    for (const WorkloadResult& r : episodes) {
      if (r.metrics.count(name)) unit = r.metrics.at(name).unit;
    }
    out.Set(name, from_first ? in_first->second.value : values.Median(), unit);
  }
  for (auto& [name, values] : detail) out.detail[name] = values.Median();
  out.detail["episodes"] = static_cast<double>(episodes.size());
  if (metrics.count("ops_per_s")) {
    out.detail["ops_per_s.slowest_episode"] = metrics["ops_per_s"].Quantile(0);
    out.detail["ops_per_s.fastest_episode"] = metrics["ops_per_s"].Quantile(1);
  }
  return out;
}

}  // namespace

WorkloadResult RunEpisodes(
    const RunOptions& options, int episodes,
    const std::function<WorkloadResult(const RunOptions&, bool last)>& run) {
  std::vector<WorkloadResult> results;
  for (int e = 0; e < episodes; ++e) {
    RunOptions episode = options;
    episode.dir = options.dir + "/episode" + std::to_string(e);
    // Set-up time is the first episode's, from process start; the later
    // set-ups are warm.
    if (e > 0) episode.start_ns = NowNs();
    std::error_code ec;
    std::filesystem::create_directories(episode.dir, ec);
    results.push_back(run(episode, e == episodes - 1));
    std::filesystem::remove_all(episode.dir, ec);
  }
  return CombineEpisodes(results);
}

const LayerMetric kLayerMetrics[] = {
    {"change.adhoc_us", "us"},
    {"change.apply_to_schema_us", "us"},
    {"change.evolve_us", "us"},
    {"client.adapt_round_self_us", "us"},
    {"client.work_item_self_us", "us"},
    {"cluster.complete_us", "us"},
    {"cluster.create_us", "us"},
    {"cluster.layering_us", "us"},
    {"cluster.step_us", "us"},
    {"compliance.classify_inst_per_s", "inst/s"},
    {"compliance.migrate_inst_per_s", "inst/s"},
    {"query.activated_us", "us"},
    {"query.compile_us", "us"},
    {"query.data_eq_us", "us"},
    {"query.evaluated_per_match", "ratio"},
    {"query.queries_per_s", "q/s"},
    {"query.query_us", "us"},
    {"query.state_us", "us"},
    {"query.unindexed_us", "us"},
    {"query.version_range_us", "us"},
    {"repl.ack_lag_lsn", "LSN"},
    {"repl.shipped_bytes_per_op", "B/op"},
    {"repl.tail_evictions", "count"},
    {"runtime.step_us", "us"},
    {"storage.checkpoint_s", "s"},
    {"storage.full_state_serializations", "count"},
    {"storage.recovery_s", "s"},
    {"storage.snapshot_bytes", "B"},
    {"storage.wal_bytes_per_op", "B/op"},
    {"storage.wal_bytes_per_op.act", "B/op"},
    {"storage.wal_bytes_per_op.adhoc", "B/op"},
    {"storage.wal_bytes_per_op.create", "B/op"},
    {"storage.wal_bytes_per_op.journal", "B/op"},
    {"storage.wal_bytes_per_op.migrate", "B/op"},
    {"storage.wal_bytes_per_op.other", "B/op"},
    {"storage.wal_records_per_op", "rec/op"},
    {"storage.wal_scan_s", "s"},
    {"trace.overhead_pct", "%"},
    {"verify.schema_us", "us"},
    {"worklist.claim_us", "us"},
    {"worklist.complete_us", "us"},
    {"worklist.offers_for_us", "us"},
    {"worklist.offers_per_poll", "items"},
    {"worklist.start_us", "us"},
};
const size_t kLayerMetricCount = std::size(kLayerMetrics);

// --- Tracer ------------------------------------------------------------------

Span::Span(Tracer* tracer, int thread, const char* name) {
  if (tracer == nullptr || !tracer->enabled()) return;
  buffer_ = &tracer->buffer(thread);
  saved_open_ = buffer_->open;
  index_ = static_cast<int32_t>(buffer_->spans.size());
  buffer_->spans.push_back(SpanRecord{name, NowNs(), 0, saved_open_,
                                      buffer_->current_op, thread});
  buffer_->open = index_;
}

Span::~Span() {
  if (buffer_ == nullptr) return;
  buffer_->spans[static_cast<size_t>(index_)].end_ns = NowNs();
  buffer_->open = saved_open_;
}

void BeginOp(Tracer* tracer, int thread) {
  if (tracer == nullptr || !tracer->enabled()) return;
  static std::atomic<uint64_t> next_op{1};
  tracer->buffer(thread).current_op = next_op.fetch_add(1);
}

Samples Tracer::Durations(const std::string& name) const {
  Samples out;
  for (const Buffer& b : buffers_) {
    for (const SpanRecord& s : b.spans) {
      if (name == s.name) out.Add(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  return out;
}

Samples Tracer::SelfTimes(const std::string& name) const {
  Samples out;
  for (const Buffer& b : buffers_) {
    // Child spans of one parent never overlap (one thread), so the covered
    // time is the sum of the children's durations.
    std::vector<uint64_t> child_ns(b.spans.size(), 0);
    for (const SpanRecord& s : b.spans) {
      if (s.parent >= 0) {
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    for (size_t i = 0; i < b.spans.size(); ++i) {
      const SpanRecord& s = b.spans[i];
      if (name != s.name) continue;
      out.Add(static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1e3);
    }
  }
  return out;
}

bool Tracer::Dump(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Buffer& b : buffers_) {
    for (const SpanRecord& s : b.spans) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"thread\":%d,\"op\":%llu,\"parent\":%d,"
                   "\"start_ns\":%llu,\"end_ns\":%llu}\n",
                   s.name, s.thread, static_cast<unsigned long long>(s.op),
                   s.parent, static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

// --- Process facts -------------------------------------------------------------

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t FileBytes(const std::string& path) {
  struct stat st {};
  if (stat(path.c_str(), &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

uint64_t ShardFilesBytes(const std::string& base, int shards) {
  uint64_t total = 0;
  for (int k = 0; k < shards; ++k) {
    total += FileBytes(base + ".shard" + std::to_string(k));
  }
  return total;
}

// --- Schemas -------------------------------------------------------------------

namespace {

struct BlockGen {
  adept::Rng rng;
  const std::vector<RoleId>& roles;
  DataId x;
  int uid = 0;

  // Only activities outside AND blocks write "x": parallel writers of one
  // element would be reported as unordered writes.
  NodeId Act(SchemaBuilder& b, const std::string& name, bool parallel) {
    SchemaBuilder::ActivityOptions opts;
    // One draw whether or not roles are given, so a role-less schema has the
    // same structure as its role-carrying twin.
    uint64_t pick = rng.NextBelow(roles.empty() ? 1 : roles.size());
    if (!roles.empty()) opts.role = roles[pick];
    NodeId n = b.Activity(name, opts);
    if (rng.NextBelow(3) == 0 && !parallel) b.Writes(n, x);
    return n;
  }

  void Segment(SchemaBuilder& b, int& budget, int depth, bool parallel) {
    while (budget > 0) {
      int roll = static_cast<int>(rng.NextBelow(10));
      if (depth >= 3) roll = 0;
      if (roll < 6 || budget < 4) {
        Act(b, "act" + std::to_string(++uid), parallel);
        --budget;
      } else if (roll < 8) {
        int slice = std::max(1, budget / 4);
        budget -= 2 * slice;
        auto branch = [this, slice, depth](SchemaBuilder& s) {
          int sub = slice;
          Segment(s, sub, depth + 1, true);
        };
        b.Parallel({branch, branch});
      } else if (roll < 9) {
        DataId sel = b.Data("sel" + std::to_string(++uid), DataType::kInt);
        NodeId route = Act(b, "route" + std::to_string(uid), parallel);
        b.Writes(route, sel);
        --budget;
        int slice = std::max(1, budget / 4);
        budget -= 2 * slice;
        auto branch = [this, slice, depth, parallel](SchemaBuilder& s) {
          int sub = slice;
          Segment(s, sub, depth + 1, parallel);
        };
        b.Conditional(sel, {branch, branch});
      } else {
        DataId again = b.Data("again" + std::to_string(++uid), DataType::kBool);
        int slice = std::max(1, budget / 4);
        budget -= slice;
        b.Loop(again, [this, slice, depth, parallel, again](SchemaBuilder& s) {
          int sub = slice - 1;
          if (sub > 0) Segment(s, sub, depth + 1, parallel);
          NodeId last = Act(s, "body" + std::to_string(++uid), parallel);
          s.Writes(last, again);
        });
      }
    }
  }
};

std::shared_ptr<const ProcessSchema> Built(SchemaBuilder& b) {
  auto schema = b.Build();
  return schema.ok() ? *schema : nullptr;
}

}  // namespace

std::shared_ptr<const ProcessSchema> BlockSchema(
    const std::string& type_name, int activities, uint64_t seed,
    const std::vector<RoleId>& roles) {
  SchemaBuilder b(type_name, 1);
  BlockGen gen{adept::Rng(seed), roles, b.Data("x", DataType::kInt)};
  // Every instance sets "x" in its first step.
  SchemaBuilder::ActivityOptions opts;
  if (!roles.empty()) opts.role = roles[0];
  b.Writes(b.Activity("intake", opts), gen.x);
  int budget = activities - 1;
  gen.Segment(b, budget, 0, false);
  return Built(b);
}

std::shared_ptr<const ProcessSchema> OnlineOrderSchema(
    const std::string& type_name) {
  SchemaBuilder b(type_name, 1);
  b.Activity("get order");
  b.Activity("collect data");
  b.Parallel({
      [](SchemaBuilder& s) { s.Activity("confirm order"); },
      [](SchemaBuilder& s) { s.Activity("compose order"); },
  });
  b.Activity("pack goods");
  b.Activity("deliver goods");
  return Built(b);
}

std::shared_ptr<const ProcessSchema> AdaptBlockSchema(
    const std::string& type_name) {
  SchemaBuilder b(type_name, 1);
  DataId sel = b.Data("sel", DataType::kInt);
  b.Activity("s1");
  b.Activity("s2");
  b.Parallel({
      [](SchemaBuilder& s) {
        s.Activity("p1");
        s.Activity("p2");
        s.Activity("p3");
      },
      [](SchemaBuilder& s) {
        s.Activity("r1");
        s.Activity("r2");
        s.Activity("r3");
      },
  });
  NodeId s3 = b.Activity("s3");
  b.Writes(s3, sel);
  b.Conditional(sel, {[](SchemaBuilder& s) { s.Activity("x1"); },
                      [](SchemaBuilder& s) { s.Activity("y1"); }});
  for (int i = 4; i <= 10; ++i) b.Activity("s" + std::to_string(i));
  return Built(b);
}

// --- Planning ------------------------------------------------------------------

std::vector<adept::ProcessInstance::DataWrite> PlanWrites(
    const adept::SchemaView& schema, NodeId node, uint64_t runs,
    adept::Rng& rng, int x_range) {
  std::vector<adept::ProcessInstance::DataWrite> writes;
  for (const adept::DataEdge& edge :
       schema.DataEdgesOf(node, adept::AccessMode::kWrite)) {
    const adept::DataElement* element = schema.FindData(edge.data);
    if (element == nullptr) continue;
    adept::DataValue value;
    if (element->type == DataType::kBool) {
      bool iterate = runs < 2 && rng.NextBelow(10) < 3;
      value = adept::DataValue::Bool(iterate);
    } else if (element->name.rfind("sel", 0) == 0) {
      value = adept::DataValue::Int(static_cast<int64_t>(rng.NextBelow(2)));
    } else if (element->name == "x") {
      value = adept::DataValue::Int(
          static_cast<int64_t>(rng.NextBelow(static_cast<uint64_t>(x_range))));
    } else {
      value = adept::DataValue::Int(static_cast<int64_t>(rng.NextBelow(100)));
    }
    writes.push_back({edge.data, std::move(value)});
  }
  return writes;
}

std::vector<NodeId> ActivatedActivities(const adept::InstanceSnapshot& snap) {
  std::vector<NodeId> out;
  snap.activated_nodes.ForEach([&](const NodeId& node) {
    const adept::Node* n = snap.schema->FindNode(node);
    if (n != nullptr && n->type == adept::NodeType::kActivity) {
      out.push_back(node);
    }
  });
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace e2e

namespace e2e {

void ScanWals(const std::vector<std::string>& paths,
              const std::string& journal_path, WalBreakdown* out) {
  const uint64_t t0 = NowNs();
  auto add = [&](const std::string& path, bool journal) {
    auto tail = adept::WriteAheadLog::ReadTail(path, 0);
    if (!tail.ok()) return;
    for (const adept::WalFrame& frame : tail->frames) {
      std::string bucket = "journal";
      if (!journal) {
        auto record = adept::JsonValue::Parse(frame.payload);
        bucket = record.ok() ? record->Get("t").as_string() : "other";
        if (bucket != "create" && bucket != "act" && bucket != "adhoc" &&
            bucket != "migrate") {
          bucket = "other";
        }
      }
      out->bytes[bucket] += frame.payload.size();
      ++out->records;
    }
  };
  for (const std::string& path : paths) add(path, false);
  if (!journal_path.empty()) add(journal_path, true);
  out->scan_s += static_cast<double>(NowNs() - t0) / 1e9;
}

void SetWalMetrics(const WalBreakdown& wal, uint64_t calls,
                   WorkloadResult& result) {
  const double n = static_cast<double>(calls == 0 ? 1 : calls);
  for (const char* bucket :
       {"create", "act", "adhoc", "migrate", "journal", "other"}) {
    auto it = wal.bytes.find(bucket);
    double bytes = it == wal.bytes.end() ? 0 : static_cast<double>(it->second);
    result.Set(std::string("storage.wal_bytes_per_op.") + bucket, bytes / n,
               "B/op");
  }
  result.Set("storage.wal_records_per_op", static_cast<double>(wal.records) / n,
             "rec/op");
  result.Set("storage.wal_scan_s", wal.scan_s, "s");
}

}  // namespace e2e
