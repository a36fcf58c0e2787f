// The `monitor` workload: reader threads issue a seeded mix of queries and
// worklist polls against a large in-memory population while one writer
// thread steps instances. Every returned snapshot is checked against the
// benchmark's own evaluation of the predicate; at quiescent points every
// query must return exactly the ids the benchmark computes itself.

#include <algorithm>
#include <atomic>
#include <functional>
#include <thread>

#include "bench.h"
#include "checks.h"
#include "query/query.h"
#include "worklist/worklist_service.h"

namespace e2e {

namespace {

using adept::AdeptCluster;
using adept::InstanceSnapshot;
using adept::RoleId;
using adept::UserId;

constexpr int kActivities = 48;
constexpr uint64_t kSchemaSeed = 7;
constexpr int kRoles = 16;
constexpr int kXRange = 100;  // the shard drivers' value range too
constexpr const char* kType = "mon";

enum Family { kDataEq = 0, kActivated, kState, kVersionRange, kUnindexed, kPoll };
constexpr int kFamilies = 6;
// Per-layer metric and span name of each family.
const char* kFamilyNames[kFamilies] = {"query.data_eq_us",  "query.activated_us",
                                       "query.state_us",    "query.version_range_us",
                                       "query.unindexed_us", "worklist.offers_for_us"};
const char* kFamilySpans[kFamilies] = {
    "cluster.Query:data_eq",       "cluster.Query:activated",
    "cluster.Query:state",         "cluster.Query:version_range",
    "cluster.Query:unindexed",     "worklist.OffersFor"};

// One query of the mix, with the benchmark's own predicate.
struct Probe {
  Family family;
  std::string text;
  std::function<bool(const InstanceSnapshot&)> matches;
};

int64_t DataInt(const InstanceSnapshot& s, const char* name, bool* present) {
  DataId id = s.schema->FindDataByName(name);
  const adept::DataValue* v = id.valid() ? s.data_values.Find(id) : nullptr;
  *present = v != nullptr && v->type() == adept::DataType::kInt;
  return *present ? v->as_int() : 0;
}

// The probe with parameter `k` of `family`; k ranges over the family's
// whole domain in a round, so every run queries the same set of predicates
// and the seed decides only their order.
Probe MakeProbe(Family family, uint64_t k,
                const std::vector<std::string>& activity_names) {
  switch (family) {
    case kDataEq:
    case kPoll: {
      int64_t v = static_cast<int64_t>(k % kXRange);
      return {family, "data.x == " + std::to_string(v),
              [v](const InstanceSnapshot& s) {
                bool present = false;
                int64_t x = DataInt(s, "x", &present);
                return present && x == v;
              }};
    }
    case kActivated: {
      std::string name = activity_names[k % activity_names.size()];
      return {family, "activated(\"" + name + "\")",
              [name](const InstanceSnapshot& s) {
                NodeId node = s.schema->FindNodeByName(name);
                return node.valid() && s.activated_nodes.Contains(node);
              }};
    }
    case kState:
      return {family, "state == finished",
              [](const InstanceSnapshot& s) { return s.finished; }};
    case kVersionRange: {
      uint64_t lo = 2 + 2 * (k % 30);
      return {family,
              "version >= " + std::to_string(lo) + " && version <= " +
                  std::to_string(lo + 1),
              [lo](const InstanceSnapshot& s) {
                return s.version >= lo && s.version <= lo + 1;
              }};
    }
    case kUnindexed:
    default: {
      int64_t n = static_cast<int64_t>(10 + 4 * (k % 20));
      return {kUnindexed, "trace_length == " + std::to_string(n),
              [n](const InstanceSnapshot& s) { return s.trace_length == n; }};
    }
  }
}

// One round of a reader: every (family, parameter) pair of the fixed mix —
// 100 data probes, one per activity name, 10 state, 30 version ranges, 20
// unindexed scans and 48 worklist polls — in seeded order.
std::vector<std::pair<Family, uint64_t>> RoundMix(size_t activity_count,
                                                  adept::Rng& rng) {
  std::vector<std::pair<Family, uint64_t>> mix;
  auto add = [&](Family f, uint64_t n) {
    for (uint64_t k = 0; k < n; ++k) mix.emplace_back(f, k);
  };
  add(kDataEq, kXRange);
  add(kActivated, activity_count);
  add(kState, 10);
  add(kVersionRange, 30);
  add(kUnindexed, 20);
  add(kPoll, 48);
  for (size_t i = mix.size(); i > 1; --i) {
    std::swap(mix[i - 1], mix[rng.NextBelow(i)]);
  }
  return mix;
}

struct ReaderState {
  adept::Rng rng{1};
  Samples query_us;
  Samples compile_us;
  uint64_t calls = 0, evaluated = 0, matched = 0, polled_items = 0, polls = 0;
  uint64_t rounds = 0;
  std::vector<std::string> errors;       // failed checks
  std::vector<std::string> op_failures;  // failed client calls
};

// The work items the benchmark expects OffersFor(user, "data.x == v") to
// return at a quiescent point: every activated activity of `role` in an
// instance whose x equals v, as (instance, node) pairs.
std::set<uint64_t> ExpectedOffers(
    const std::vector<std::shared_ptr<const InstanceSnapshot>>& all,
    RoleId role, const Probe& probe) {
  std::set<uint64_t> out;
  for (const auto& s : all) {
    if (!probe.matches(*s)) continue;
    for (NodeId node : ActivatedActivities(*s)) {
      if (s->schema->FindNode(node)->role == role) {
        out.insert((s->id.value() << 20) | node.value());
      }
    }
  }
  return out;
}

// Quiescent check: one probe of every family against the benchmark's own
// evaluation over SnapshotOf of every instance.
void QuiescentCheck(const RunOptions& options, AdeptCluster& cluster,
                    const std::vector<InstanceId>& ids,
                    const std::vector<UserId>& users,
                    const std::vector<RoleId>& roles,
                    const std::vector<std::string>& names, adept::Rng& rng,
                    WorkloadResult& result) {
  std::vector<std::shared_ptr<const InstanceSnapshot>> all;
  for (InstanceId id : ids) all.push_back(cluster.SnapshotOf(id));
  for (int f = 0; f < kFamilies; ++f) {
    Probe probe = MakeProbe(static_cast<Family>(f), rng.Next(), names);
    if (f == kPoll) {
      size_t u = rng.NextBelow(users.size());
      auto offers = cluster.Worklist().OffersFor(users[u], probe.text);
      if (!offers.ok()) {
        result.OpFailed("OffersFor: " + offers.status().ToString());
        continue;
      }
      std::vector<uint64_t> got;
      for (const auto& item : *offers) {
        got.push_back((item.instance.value() << 20) | item.node.value());
      }
      std::string err = CheckQueryIds("offers " + probe.text,
                                      ExpectedOffers(all, roles[u], probe), got);
      if (!err.empty()) result.Fail(err);
      continue;
    }
    auto answer = cluster.Query(probe.text);
    if (!answer.ok()) {
      result.OpFailed("Query: " + answer.status().ToString());
      continue;
    }
    std::set<uint64_t> expected;
    for (const auto& s : all) {
      if (probe.matches(*s)) expected.insert(s->id.value());
    }
    std::vector<uint64_t> got;
    for (const auto& s : *answer) got.push_back(s->id.value());
    if (options.Perturb("query_ids") && !expected.empty()) {
      expected.erase(expected.begin());
    }
    std::string err = CheckQueryIds(probe.text, expected, got);
    if (!err.empty()) result.Fail(err);
  }
}

// A run is kEpisodes identical episodes, each on a fresh cluster, and its
// metrics are their medians (see RunEpisodes). Each episode's writer makes
// kWriterRoundsPerSecond rounds per --seconds, calibrated so that a
// 10-second run takes about that long here.
constexpr int kEpisodes = 15;
constexpr double kWriterRoundsPerSecond = 0.6;

WorkloadResult RunEpisode(const RunOptions& options, bool last) {
  WorkloadResult result;
  // Set-up cost grows with the square of the steps taken (see the FOUND line
  // on WorklistManager::LiveItemFor in CHANGES.md), which caps the
  // population; a full scan still costs far more than an index probe.
  const int population = options.small ? 200 : 2000;
  const int max_progress = 10;  // seeded steps per instance in set-up
  const int readers = std::max(1, options.threads - 1);
  const int writer_round = options.small ? 20 : 200;  // steps per round
  // A fixed amount of writer work per episode, scaled by --seconds (rounds
  // cost more as the worklist's history grows); readers poll until the
  // writer is done.
  const int writer_rounds = std::max(
      1, static_cast<int>(options.seconds * kWriterRoundsPerSecond));

  adept::ClusterOptions co;
  co.shards = 4;
  co.driver.seed = options.seed;
  auto created = AdeptCluster::Create(co);
  if (!created.ok()) {
    result.Fail("cluster create: " + created.status().ToString());
    return result;
  }
  AdeptCluster& cluster = **created;
  std::vector<RoleId> roles;
  std::vector<UserId> users;
  for (int k = 0; k < kRoles; ++k) {
    roles.push_back(*cluster.org().AddRole("role" + std::to_string(k)));
    users.push_back(*cluster.org().AddUser("user" + std::to_string(k)));
    (void)cluster.org().AssignRole(users.back(), roles.back());
  }
  auto schema = BlockSchema(kType, kActivities, kSchemaSeed, roles);
  if (schema == nullptr || !cluster.DeployProcessType(schema).ok()) {
    result.Fail("deploy");
    return result;
  }
  std::vector<std::string> names;
  schema->VisitNodes([&](const adept::Node& n) {
    if (n.type == adept::NodeType::kActivity) names.push_back(n.name);
  });
  std::sort(names.begin(), names.end());

  std::vector<AdeptCluster::BatchOp> ops(static_cast<size_t>(population),
                                         AdeptCluster::BatchOp::Create(kType));
  std::vector<InstanceId> ids;
  for (const auto& r : cluster.SubmitBatch(ops)) {
    if (!r.status.ok()) {
      result.Fail("create: " + r.status.ToString());
      return result;
    }
    ids.push_back(r.id);
  }
  adept::Rng setup_rng(options.seed * 7919 + 1);
  std::vector<int> steps;
  for (int i = 0; i < population; ++i) {
    steps.push_back(static_cast<int>(setup_rng.NextBelow(max_progress)));
  }
  // One batch, round by round: a shard runs its ops in submission order,
  // behind one barrier instead of one per round.
  ops.clear();
  for (int round = 0; round < max_progress; ++round) {
    for (int i = 0; i < population; ++i) {
      if (steps[static_cast<size_t>(i)] > round) {
        ops.push_back(AdeptCluster::BatchOp::DriveStep(ids[static_cast<size_t>(i)]));
      }
    }
  }
  for (const auto& r : cluster.SubmitBatch(ops)) {
    if (!r.status.ok()) {
      result.Fail("progress: " + r.status.ToString());
      return result;
    }
  }
  const double setup_s = static_cast<double>(NowNs() - options.start_ns) / 1e9;

  adept::Rng check_rng(options.seed * 104729 + 3);
  QuiescentCheck(options, cluster, ids, users, roles, names, check_rng, result);

  // --- Timed phase ----------------------------------------------------------------
  Tracer tracer(readers + 1);
  tracer.set_enabled(options.trace);
  std::vector<ReaderState> rs(static_cast<size_t>(readers));
  Samples complete_us;
  uint64_t writer_calls = 0;
  std::atomic<bool> failed{false};
  std::atomic<bool> writer_done{false};
  std::vector<uint64_t> round_ns(2, 0), round_calls(2, 0);
  std::mutex round_mu;
  const uint64_t phase_start = NowNs();
  std::vector<std::thread> threads;
  for (int t = 0; t < readers; ++t) {
    threads.emplace_back([&, t] {
      ReaderState& st = rs[static_cast<size_t>(t)];
      st.rng = adept::Rng(options.seed * 1000003 + static_cast<uint64_t>(t));
      do {
        bool traced = options.trace && st.rounds % 2 == 1;
        Tracer* tr = traced ? &tracer : nullptr;
        uint64_t r0 = NowNs(), c0 = st.calls;
        for (const auto& [family, k] : RoundMix(names.size(), st.rng)) {
          Probe probe = MakeProbe(family, family == kPoll ? k * 37 : k, names);
          BeginOp(tr, t);
          if (family == kPoll) {
            UserId user = users[k % users.size()];
            adept::Result<std::vector<adept::WorkItem>> offers =
                std::vector<adept::WorkItem>{};
            {
              Span span(tr, t, "worklist.OffersFor");
              offers = cluster.Worklist().OffersFor(user, probe.text);
            }
            ++st.calls;
            if (!offers.ok()) {
              st.op_failures.push_back("OffersFor: " + offers.status().ToString());
              failed = true;
              break;
            }
            ++st.polls;
            st.polled_items += offers->size();
            continue;
          }
          if (traced) {
            Span span(tr, t, "query.Compile");
            uint64_t t0 = NowNs();
            auto compiled = adept::CompiledQuery::Compile(probe.text);
            st.compile_us.Add(static_cast<double>(NowNs() - t0) / 1e3);
            if (!compiled.ok()) st.errors.push_back("compile " + probe.text);
          }
          uint64_t t0 = NowNs();
          adept::Result<adept::QueryResult> answer = adept::QueryResult{};
          {
            Span span(tr, t, kFamilySpans[family]);
            answer = cluster.Query(probe.text);
          }
          double us = static_cast<double>(NowNs() - t0) / 1e3;
          st.query_us.Add(us);
          ++st.calls;
          if (!answer.ok()) {
            st.op_failures.push_back("Query: " + answer.status().ToString());
            failed = true;
            break;
          }
          st.evaluated += answer->evaluated;
          st.matched += answer->size();
          if (options.Perturb("satisfies")) {
            probe.matches = [](const InstanceSnapshot&) { return false; };
          }
          std::string err = CheckSatisfies(probe.text, answer->snapshots, probe.matches);
          if (!err.empty()) {
            st.errors.push_back(err);
            failed = true;
          }
        }
        std::lock_guard<std::mutex> lock(round_mu);
        round_ns[traced ? 1 : 0] += NowNs() - r0;
        round_calls[traced ? 1 : 0] += st.calls - c0;
        ++st.rounds;
      } while (!writer_done.load() && !failed.load());
    });
  }
  // The writer: seeded steps through the facade on the whole population.
  std::vector<std::string> writer_failures;  // failed client calls
  std::vector<InstanceId> created_ids;
  threads.emplace_back([&] {
    const int t = readers;
    adept::Rng rng(options.seed * 1000003 + 999);
    std::vector<InstanceId> live = ids;
    uint64_t rounds = 0;
    do {
      bool traced = options.trace && rounds % 2 == 1;
      Tracer* tr = traced ? &tracer : nullptr;
      for (int i = 0; i < writer_round && !failed.load(); ++i) {
        size_t pick = rng.NextBelow(live.size());
        InstanceId id = live[pick];
        auto snap = cluster.SnapshotOf(id);
        ++writer_calls;
        std::vector<NodeId> activated = ActivatedActivities(*snap);
        if (snap->finished || activated.empty()) {
          // Keep the population constant: a finished instance is replaced.
          auto fresh = cluster.CreateInstance(kType);
          ++writer_calls;
          if (!fresh.ok()) {
            writer_failures.push_back("CreateInstance: " + fresh.status().ToString());
            failed = true;
            break;
          }
          live[pick] = *fresh;
          created_ids.push_back(*fresh);
          continue;
        }
        NodeId node = activated[rng.NextBelow(activated.size())];
        const uint64_t* runs = snap->completed_runs.Find(node);
        auto writes = PlanWrites(*snap->schema, node, runs == nullptr ? 0 : *runs,
                                 rng, kXRange);
        BeginOp(tr, t);
        adept::Status s;
        {
          Span span(tr, t, "cluster.StartActivity");
          s = cluster.StartActivity(id, node);
        }
        ++writer_calls;
        uint64_t t0 = NowNs();
        if (s.ok()) {
          Span span(tr, t, "cluster.CompleteActivity");
          s = cluster.CompleteActivity(id, node, writes);
        }
        complete_us.Add(static_cast<double>(NowNs() - t0) / 1e3);
        ++writer_calls;
        if (!s.ok()) {
          writer_failures.push_back("step: " + s.ToString());
          failed = true;
        }
      }
      ++rounds;
    } while (rounds < static_cast<uint64_t>(writer_rounds) && !failed.load());
    writer_done = true;
  });
  for (auto& th : threads) th.join();
  const double phase_s = static_cast<double>(NowNs() - phase_start) / 1e9;
  // Peak memory of set-up and the timed phase, before the quiescent check's
  // snapshot copies add their own.
  const double peak_rss = PeakRssMb();

  ids.insert(ids.end(), created_ids.begin(), created_ids.end());
  QuiescentCheck(options, cluster, ids, users, roles, names, check_rng, result);
  for (const std::string& e : writer_failures) result.OpFailed(e);

  Samples query_us, compile_us;
  uint64_t calls = writer_calls, evaluated = 0, matched = 0, polls = 0, polled = 0;
  uint64_t reader_calls = 0;
  for (ReaderState& st : rs) {
    for (const std::string& e : st.errors) result.Fail(e);
    for (const std::string& e : st.op_failures) result.OpFailed(e);
    query_us.Append(st.query_us);
    compile_us.Append(st.compile_us);
    calls += st.calls;
    reader_calls += st.calls;
    evaluated += st.evaluated;
    matched += st.matched;
    polls += st.polls;
    polled += st.polled_items;
  }
  result.attempted = calls;
  result.detail["phase_s"] = phase_s;
  result.detail["query_samples"] = static_cast<double>(query_us.size());
  result.detail["complete_samples"] = static_cast<double>(complete_us.size());
  result.detail["queries_per_s"] = static_cast<double>(reader_calls) / phase_s;
  result.detail["query_p50_us"] = query_us.Median();

  if (!options.trace) {
    result.Set("setup_s", setup_s, "s");
    result.Set("ops_per_s", static_cast<double>(calls) / phase_s, "ops/s");
    // Reported, not gated: they do not repeat within a bound on every
    // workload (see README).
    result.detail["complete_p50_us"] = complete_us.Median();
    result.detail["complete_p99_us"] = complete_us.Quantile(0.99);
    result.Set("key_op_p50_us", query_us.Median(), "us");
    result.Set("peak_rss_mb", peak_rss, "MiB");
    return result;
  }
  for (int f = 0; f < kFamilies; ++f) {
    result.Set(kFamilyNames[f], tracer.Durations(kFamilySpans[f]).Median(), "us");
  }
  result.Set("query.compile_us", compile_us.Median(), "us");
  result.Set("query.evaluated_per_match",
             matched == 0 ? 0 : static_cast<double>(evaluated) / static_cast<double>(matched),
             "ratio");
  result.Set("query.query_us", query_us.Median(), "us");
  result.Set("query.queries_per_s", static_cast<double>(reader_calls) / phase_s, "q/s");
  result.Set("worklist.offers_per_poll",
             polls == 0 ? 0 : static_cast<double>(polled) / static_cast<double>(polls),
             "items");
  result.Set("cluster.complete_us", tracer.Durations("cluster.CompleteActivity").Median(), "us");
  if (round_ns[0] > 0 && round_ns[1] > 0) {
    double untraced = static_cast<double>(round_calls[0]) / static_cast<double>(round_ns[0]);
    double traced = static_cast<double>(round_calls[1]) / static_cast<double>(round_ns[1]);
    result.Set("trace.overhead_pct", (untraced - traced) / untraced * 100.0, "%");
  }
  if (last && !options.out_dir.empty()) {
    tracer.Dump(options.out_dir + "/trace-" + options.workload + ".jsonl");
  }
  return result;
}

}  // namespace

WorkloadResult RunMonitor(const RunOptions& options) {
  return RunEpisodes(options, options.small ? 2 : kEpisodes, RunEpisode);
}

}  // namespace e2e
