// The `adapt` workload: client threads apply ad-hoc changes to their own
// instances between execution steps; each round, after a barrier, both
// process types evolve, the population is migrated to the new version and
// the cluster checkpoints. Every migration outcome is compared with the
// outcome the benchmark derives from the instance's own state and bias with
// the paper's compliance rule; the run ends with a recovery whose exports
// must equal the live cluster's.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "bench.h"
#include "change/change_op.h"
#include "change/delta.h"
#include "checks.h"
#include "compliance/migration.h"
#include "verify/verifier.h"

namespace e2e {

namespace {

using adept::AdeptCluster;
using adept::Delta;
using adept::MigrationOutcome;
using adept::NewActivitySpec;

enum Type { kOrder = 0, kBlock = 1 };
const char* kTypeNames[2] = {"order", "block"};
// Type-change anchors of the block type, cycled by round: q<r> is inserted
// right before the anchor. Ad-hoc changes stay clear of s5..s10.
const char* kBlockAnchors[3] = {"s6", "s8", "s10"};

// Ad-hoc changes, each applied at most once per instance.
enum Bias : uint32_t {
  kGiftWrap = 1,      // order: insert "gift wrap" between pack and deliver
  kConflictSync = 2,  // order: sync edge confirm order -> compose order
  kInsertA = 4,       // block: insert "ins_a" between p1 and p2
  kDeleteR2 = 8,      // block: delete r2
  kMoveS2 = 16,       // block: move s2 between s4 and s5
  kSyncP1R3 = 32,     // block: sync edge p1 -> r3
};

struct Inst {
  InstanceId id;
  Type type = kOrder;
  int version = 0;  // index into the type's version chain
  bool finished = false;
  // A seeded share of order instances may take the conflicting bias.
  bool conflict_prone = false;
  uint32_t biases = 0;
  std::set<std::string> started;  // names of started activities
};

bool Started(const Inst& inst, const char* name) {
  return inst.started.count(name) != 0;
}

// The ad-hoc changes applicable to `inst` by the client's own record of its
// state: each change's compliance condition (the node behind an insertion,
// a deleted or moved node, a sync edge's target: not yet started).
std::vector<Bias> Applicable(const Inst& inst) {
  std::vector<Bias> out;
  auto open = [&](Bias b) { return (inst.biases & b) == 0; };
  if (inst.type == kOrder) {
    if (open(kGiftWrap) && !Started(inst, "deliver goods")) out.push_back(kGiftWrap);
    // Only on the first version: after the Fig. 1 change the edge would
    // close a cycle.
    if (open(kConflictSync) && inst.conflict_prone && inst.version == 0 &&
        !Started(inst, "compose order")) {
      out.push_back(kConflictSync);
    }
  } else {
    if (open(kInsertA) && !Started(inst, "p2")) out.push_back(kInsertA);
    if (open(kDeleteR2) && !Started(inst, "r2")) out.push_back(kDeleteR2);
    if (open(kMoveS2) && !Started(inst, "s2") && !Started(inst, "s5")) {
      out.push_back(kMoveS2);
    }
    if (open(kSyncP1R3) && !Started(inst, "r3")) out.push_back(kSyncP1R3);
  }
  return out;
}

Delta MakeBias(Bias bias, const adept::SchemaView& schema) {
  auto node = [&](const char* name) { return schema.FindNodeByName(name); };
  Delta delta;
  NewActivitySpec spec;
  switch (bias) {
    case kGiftWrap:
      spec.name = "gift wrap";
      delta.Add(std::make_unique<adept::SerialInsertOp>(
          spec, node("pack goods"), node("deliver goods")));
      break;
    case kConflictSync:
      delta.Add(std::make_unique<adept::InsertSyncEdgeOp>(
          node("confirm order"), node("compose order")));
      break;
    case kInsertA:
      spec.name = "ins_a";
      delta.Add(std::make_unique<adept::SerialInsertOp>(spec, node("p1"), node("p2")));
      break;
    case kDeleteR2:
      delta.Add(std::make_unique<adept::DeleteActivityOp>(node("r2")));
      break;
    case kMoveS2:
      delta.Add(std::make_unique<adept::MoveActivityOp>(node("s2"), node("s4"),
                                                        node("s5")));
      break;
    case kSyncP1R3:
      delta.Add(std::make_unique<adept::InsertSyncEdgeOp>(node("p1"), node("r3")));
      break;
  }
  return delta;
}

// The marks a bias leaves in an instance schema (see CheckBiasKept).
std::set<std::string> BiasMarks(uint32_t biases) {
  std::set<std::string> marks;
  if (biases & kGiftWrap) marks.insert("gift wrap");
  if (biases & kInsertA) marks.insert("ins_a");
  if (biases & kDeleteR2) marks.insert("-r2");
  if (biases & kMoveS2) marks.insert("s4>s2");
  if (biases & kSyncP1R3) marks.insert("p1~r3");
  return marks;
}

std::set<std::string> PresentMarks(const adept::SchemaView& schema) {
  std::set<std::string> marks;
  auto node = [&](const char* name) { return schema.FindNodeByName(name); };
  for (const char* name : {"gift wrap", "ins_a"}) {
    if (node(name).valid()) marks.insert(name);
  }
  if (!node("r2").valid()) marks.insert("-r2");
  if (node("s2").valid() && schema.ControlPredecessor(node("s2")) == node("s4")) {
    marks.insert("s4>s2");
  }
  if (node("p1").valid() && node("r3").valid() &&
      schema.FindEdgeBetween(node("p1"), node("r3"), adept::EdgeType::kSync) !=
          nullptr) {
    marks.insert("p1~r3");
  }
  return marks;
}

// The type change of `round` for `type`, pinned against `latest`.
Delta TypeChange(Type type, int round, const adept::ProcessSchema& latest) {
  Delta delta;
  NewActivitySpec spec;
  spec.name = "q" + std::to_string(round);
  if (type == kOrder && round == 0) {
    // Fig. 1: insert "send questions" after "compose order" and order it
    // before "confirm order" with a sync edge.
    spec.name = "send questions";
    Delta probe;
    auto* op = probe.Add(std::make_unique<adept::SerialInsertOp>(
        spec, latest.FindNodeByName("compose order"),
        latest.FindNodeByName("and_join")));
    (void)probe.ApplyToSchema(latest);
    delta.Add(op->Clone());
    delta.Add(std::make_unique<adept::InsertSyncEdgeOp>(
        static_cast<adept::SerialInsertOp*>(op)->inserted_node(),
        latest.FindNodeByName("confirm order")));
    return delta;
  }
  adept::NodeId anchor = latest.FindNodeByName(
      type == kOrder ? "collect data" : kBlockAnchors[round % 3]);
  delta.Add(std::make_unique<adept::SerialInsertOp>(
      spec, latest.ControlPredecessor(anchor), anchor));
  return delta;
}

// The paper's compliance rule for the change of `round`: the node behind the
// insertion point (and, for Fig. 1, the sync edge's target "confirm order")
// must not have been started.
bool Compliant(const Inst& inst, int round) {
  if (inst.type == kOrder) {
    return round == 0 ? !Started(inst, "confirm order")
                      : !Started(inst, "collect data");
  }
  return !Started(inst, kBlockAnchors[round % 3]);
}

// The outcome of migrating `inst` with the change of `round`.
MigrationOutcome Expected(const Inst& inst, int round) {
  if (inst.finished) return MigrationOutcome::kFinishedSkipped;
  bool biased = inst.biases != 0;
  // Fig. 1's I2: with the conflicting sync edge, S' + bias has a cycle.
  if (biased && (inst.biases & kConflictSync) && inst.type == kOrder && round == 0) {
    return MigrationOutcome::kStructuralConflict;
  }
  if (!Compliant(inst, round)) return MigrationOutcome::kStateConflict;
  return biased ? MigrationOutcome::kMigratedBiased : MigrationOutcome::kMigrated;
}

struct ThreadState {
  adept::Rng rng{1};
  std::vector<size_t> mine;  // indexes into the instance table
  Samples complete_us, apply_us, verify_us;
  Samples adhoc_us[2];  // per process type
  uint64_t calls = 0;
  std::vector<std::string> op_failures;  // failed client calls
};

// One client operation on one of the thread's instances: an applicable
// ad-hoc change (35%) or one execution step.
bool ClientOp(AdeptCluster& cluster, std::vector<Inst>& table, int t,
              ThreadState& st, Tracer* tracer) {
  Inst& inst = table[st.mine[st.rng.NextBelow(st.mine.size())]];
  if (inst.finished) return true;
  BeginOp(tracer, t);
  std::shared_ptr<const adept::InstanceSnapshot> snap;
  {
    Span span(tracer, t, "cluster.SnapshotOf");
    snap = cluster.SnapshotOf(inst.id);
  }
  ++st.calls;
  if (snap == nullptr) {
    st.op_failures.push_back("SnapshotOf: instance vanished");
    return false;
  }
  std::vector<Bias> biases = Applicable(inst);
  if (st.rng.NextBelow(100) < 35 && !biases.empty()) {
    Bias bias = biases[st.rng.NextBelow(biases.size())];
    Delta delta = MakeBias(bias, *snap->schema);
    if (tracer != nullptr && st.rng.NextBelow(4) == 0) {
      // The change and verification layers alone, on a copy of the type
      // schema the instance runs on (every fourth change, to keep the
      // traced run close to the untraced one).
      auto base = cluster.Schema(snap->schema_ref);
      if (base.ok() && !snap->biased) {
        Delta copy = delta.Clone();
        uint64_t t0 = NowNs();
        auto applied = copy.ApplyToSchema(**base);
        uint64_t t1 = NowNs();
        st.apply_us.Add(static_cast<double>(t1 - t0) / 1e3);
        if (applied.ok()) {
          (void)adept::VerifySchema(**applied);
          st.verify_us.Add(static_cast<double>(NowNs() - t1) / 1e3);
        }
      }
    }
    uint64_t t0 = NowNs();
    adept::Status s;
    {
      Span span(tracer, t, "cluster.ApplyAdHocChange");
      s = cluster.ApplyAdHocChange(inst.id, std::move(delta));
    }
    st.adhoc_us[inst.type].Add(static_cast<double>(NowNs() - t0) / 1e3);
    ++st.calls;
    if (!s.ok()) {
      st.op_failures.push_back("ApplyAdHocChange: " + s.ToString());
      return false;
    }
    inst.biases |= bias;
    return true;
  }
  std::vector<NodeId> activated = ActivatedActivities(*snap);
  if (activated.empty()) return true;
  NodeId node = activated[st.rng.NextBelow(activated.size())];
  const uint64_t* runs = snap->completed_runs.Find(node);
  auto writes = PlanWrites(*snap->schema, node, runs == nullptr ? 0 : *runs,
                           st.rng, 100);
  adept::Status s;
  {
    Span span(tracer, t, "cluster.StartActivity");
    s = cluster.StartActivity(inst.id, node);
  }
  ++st.calls;
  if (s.ok()) inst.started.insert(snap->schema->FindNode(node)->name);
  uint64_t t0 = NowNs();
  if (s.ok()) {
    Span span(tracer, t, "cluster.CompleteActivity");
    s = cluster.CompleteActivity(inst.id, node, writes);
  }
  st.complete_us.Add(static_cast<double>(NowNs() - t0) / 1e3);
  ++st.calls;
  if (!s.ok()) {
    st.op_failures.push_back("step: " + s.ToString());
    return false;
  }
  {
    Span span(tracer, t, "cluster.SnapshotOf");
    snap = cluster.SnapshotOf(inst.id);
  }
  ++st.calls;
  inst.finished = snap != nullptr && snap->finished;
  return true;
}

// A reusable barrier for the client threads and the coordinator.
class Barrier {
 public:
  explicit Barrier(int parties) : parties_(parties) {}
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    uint64_t gen = generation_;
    if (++waiting_ == parties_) {
      waiting_ = 0;
      ++generation_;
      cv_.notify_all();
      return;
    }
    cv_.wait(lock, [&] { return generation_ != gen; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int parties_;
  int waiting_ = 0;
  uint64_t generation_ = 0;
};

}  // namespace

WorkloadResult RunAdapt(const RunOptions& options) {
  WorkloadResult result;
  const int threads = options.threads;
  const int per_type = options.small ? 100 : 6000;  // instances per type
  const int ops_per_round = options.small ? 50 : 1000;  // per thread
  // A fixed amount of work scaled by --seconds, calibrated so that a
  // 10-second run takes about that long here.
  const int rounds = std::max(1, static_cast<int>(options.seconds * 0.6));

  adept::ClusterOptions co;
  co.shards = 4;
  co.wal_path = options.dir + "/adapt.wal";
  co.snapshot_path = options.dir + "/adapt.snapshot";
  co.sync = adept::SyncMode::kFlush;
  co.driver.seed = options.seed;
  auto created = AdeptCluster::Create(co);
  if (!created.ok()) {
    result.Fail("cluster create: " + created.status().ToString());
    return result;
  }
  std::unique_ptr<AdeptCluster> cluster = std::move(*created);
  std::vector<adept::SchemaId> chains[2];  // each type's versions
  std::shared_ptr<const adept::ProcessSchema> v1[2] = {
      OnlineOrderSchema(kTypeNames[kOrder]), AdaptBlockSchema(kTypeNames[kBlock])};
  for (int type = 0; type < 2; ++type) {
    auto id = v1[type] == nullptr ? adept::Result<adept::SchemaId>(
                                        adept::Status::Internal("schema"))
                                  : cluster->DeployProcessType(v1[type]);
    if (!id.ok()) {
      result.Fail(std::string("deploy ") + kTypeNames[type]);
      return result;
    }
    chains[type].push_back(*id);
  }

  // Population: both types, each instance driven to a seeded progress
  // point by the shard drivers.
  std::vector<Inst> table;
  std::vector<AdeptCluster::BatchOp> ops;
  for (int i = 0; i < 2 * per_type; ++i) {
    ops.push_back(AdeptCluster::BatchOp::Create(kTypeNames[i % 2]));
  }
  adept::Rng setup_rng(options.seed * 7919 + 11);
  std::vector<int> steps;
  for (const auto& r : cluster->SubmitBatch(ops)) {
    if (!r.status.ok()) {
      result.Fail("create: " + r.status.ToString());
      return result;
    }
    Inst inst;
    inst.id = r.id;
    inst.type = static_cast<Type>(table.size() % 2);
    inst.conflict_prone = inst.type == kOrder && setup_rng.NextBelow(4) == 0;
    table.push_back(inst);
    steps.push_back(static_cast<int>(
        setup_rng.NextBelow(inst.type == kOrder ? 5 : 12)));
  }
  // One batch, round by round: a shard runs its ops in submission order,
  // behind one barrier instead of one per round.
  ops.clear();
  for (int round = 0; round < 12; ++round) {
    for (size_t i = 0; i < table.size(); ++i) {
      if (steps[i] > round) ops.push_back(AdeptCluster::BatchOp::DriveStep(table[i].id));
    }
  }
  for (const auto& r : cluster->SubmitBatch(ops)) {
    if (!r.status.ok()) {
      result.Fail("progress: " + r.status.ToString());
      return result;
    }
  }
  if (!cluster->SaveSnapshot().ok()) {
    result.Fail("checkpoint after set-up");
    return result;
  }
  const double setup_s = static_cast<double>(NowNs() - options.start_ns) / 1e9;

  // The client's record of each instance's state starts from the set-up
  // snapshots; from here on the client tracks what it starts itself.
  for (Inst& inst : table) {
    auto snap = cluster->SnapshotOf(inst.id);
    snap->completed_runs.ForEach([&](const NodeId& node, const uint64_t& runs) {
      const adept::Node* n = snap->schema->FindNode(node);
      if (runs > 0 && n->type == adept::NodeType::kActivity) inst.started.insert(n->name);
    });
    inst.finished = snap->finished;
  }
  std::vector<ThreadState> states(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    states[static_cast<size_t>(t)].rng =
        adept::Rng(options.seed * 1000003 + static_cast<uint64_t>(t));
  }
  for (size_t i = 0; i < table.size(); ++i) {
    states[i % static_cast<size_t>(threads)].mine.push_back(i);
  }

  // --- Timed phase: client phase, then per round evolve + migrate +
  // checkpoint, then a final client phase (the WAL tail recovery replays).
  Tracer tracer(threads + 1);
  tracer.set_enabled(options.trace);
  Barrier barrier(threads + 1);
  std::atomic<bool> failed{false};
  const uint64_t phase_start = NowNs();
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      ThreadState& st = states[static_cast<size_t>(t)];
      for (int round = 0; round <= rounds; ++round) {
        Tracer* tr = options.trace && round % 2 == 1 ? &tracer : nullptr;
        for (int i = 0; i < ops_per_round && !failed.load(); ++i) {
          if (!ClientOp(*cluster, table, t, st, tr)) failed = true;
        }
        barrier.Wait();  // client phase done
        barrier.Wait();  // migration done
      }
    });
  }
  Samples migrate_rate, classify_rate, evolve_us, checkpoint_s;
  uint64_t coordinator_calls = 0;
  std::map<int, uint64_t> outcome_counts;
  WalBreakdown wal;
  double snapshot_bytes = 0;
  const int ct = threads;  // the coordinator's tracer slot
  std::vector<std::string> shard_wals;
  for (int k = 0; k < co.shards; ++k) {
    shard_wals.push_back(co.wal_path + ".shard" + std::to_string(k));
  }
  // Client-phase time and calls of untraced [0] and traced [1] rounds.
  double client_s[2] = {0, 0};
  uint64_t client_calls[2] = {0, 0};
  uint64_t calls_before = 0;
  uint64_t client_start = NowNs();
  for (int round = 0; round <= rounds; ++round) {
    barrier.Wait();
    {
      uint64_t calls_now = 0;
      for (const ThreadState& st : states) calls_now += st.calls;
      int traced = options.trace && round % 2 == 1 ? 1 : 0;
      client_s[traced] += static_cast<double>(NowNs() - client_start) / 1e9;
      client_calls[traced] += calls_now - calls_before;
      calls_before = calls_now;
    }
    if (round == rounds || failed.load()) {
      barrier.Wait();
      client_start = NowNs();
      continue;
    }
    Tracer* tr = options.trace && round % 2 == 1 ? &tracer : nullptr;
    BeginOp(tr, ct);
    Span round_span(tr, ct, "client.adapt_round");
    for (int type = 0; type < 2; ++type) {
      std::vector<adept::SchemaId>& chain = chains[type];
      auto latest = cluster->Schema(chain.back());
      if (!latest.ok()) {
        result.OpFailed("Schema: " + latest.status().ToString());
        failed = true;
        break;
      }
      uint64_t t0 = NowNs();
      adept::Result<adept::SchemaId> next = adept::Status::Internal("unset");
      {
        Span span(tr, ct, "cluster.EvolveProcessType");
        next = cluster->EvolveProcessType(chain.back(),
                                          TypeChange(static_cast<Type>(type), round, **latest));
      }
      evolve_us.Add(static_cast<double>(NowNs() - t0) / 1e3);
      ++coordinator_calls;
      if (!next.ok()) {
        result.OpFailed("EvolveProcessType: " + next.status().ToString());
        failed = true;
        break;
      }
      const adept::SchemaId from = chain.back();
      chain.push_back(*next);
      if (options.trace) {
        adept::MigrationOptions dry;
        dry.dry_run = true;
        t0 = NowNs();
        adept::Result<adept::MigrationReport> plan = adept::Status::Internal("unset");
        {
          Span span(tr, ct, "cluster.Migrate(dry_run)");
          plan = cluster->Migrate(from, *next, dry);
        }
        if (plan.ok() && !plan->results.empty()) {
          classify_rate.Add(static_cast<double>(plan->results.size()) /
                            (static_cast<double>(NowNs() - t0) / 1e9));
        }
      }
      std::map<uint64_t, std::vector<int>> expected, reported;
      for (const Inst& inst : table) {
        if (inst.type == type && inst.version == round) {
          expected[inst.id.value()].push_back(static_cast<int>(Expected(inst, round)));
        }
      }
      t0 = NowNs();
      adept::Result<adept::MigrationReport> report = adept::Status::Internal("unset");
      {
        Span span(tr, ct, "cluster.Migrate");
        report = cluster->Migrate(from, *next);
      }
      const double migrate_s = static_cast<double>(NowNs() - t0) / 1e9;
      ++coordinator_calls;
      if (!report.ok()) {
        result.OpFailed("Migrate: " + report.status().ToString());
        failed = true;
        break;
      }
      if (!report->results.empty()) {
        migrate_rate.Add(static_cast<double>(report->results.size()) / migrate_s);
      }
      for (const auto& r : report->results) {
        reported[r.id.value()].push_back(static_cast<int>(r.outcome));
        ++outcome_counts[static_cast<int>(r.outcome)];
      }
      if (options.Perturb("migration") && !expected.empty()) {
        int& outcome = expected.begin()->second.back();
        outcome = static_cast<int>(
            outcome == static_cast<int>(MigrationOutcome::kMigrated)
                ? MigrationOutcome::kStateConflict
                : MigrationOutcome::kMigrated);
      }
      std::string err = CheckMigrationOutcomes(expected, reported);
      if (!err.empty()) result.Fail(std::string(kTypeNames[type]) + " round " +
                                    std::to_string(round) + ": " + err);
      std::map<uint64_t, std::set<std::string>> marks_expected, marks_present;
      for (Inst& inst : table) {
        auto it = reported.find(inst.id.value());
        if (it == reported.end()) continue;
        auto outcome = static_cast<MigrationOutcome>(it->second.back());
        if (outcome == MigrationOutcome::kMigrated ||
            outcome == MigrationOutcome::kMigratedBiased) {
          ++inst.version;
        }
        if (outcome == MigrationOutcome::kMigratedBiased) {
          marks_expected[inst.id.value()] = BiasMarks(inst.biases);
          auto snap = cluster->SnapshotOf(inst.id);
          if (snap != nullptr) marks_present[inst.id.value()] = PresentMarks(*snap->schema);
        }
      }
      if (options.Perturb("bias") && !marks_expected.empty()) {
        marks_expected.begin()->second.insert("never inserted");
      }
      err = CheckBiasKept(marks_expected, marks_present);
      if (!err.empty()) result.Fail(err);
    }
    // The checkpoint truncates the logs: count their records first.
    if (options.trace) ScanWals(shard_wals, "", &wal);
    uint64_t t0 = NowNs();
    adept::Status saved;
    {
      Span span(tr, ct, "cluster.SaveSnapshot");
      saved = cluster->SaveSnapshot();
    }
    checkpoint_s.Add(static_cast<double>(NowNs() - t0) / 1e9);
    ++coordinator_calls;
    if (!saved.ok()) {
      result.OpFailed("SaveSnapshot: " + saved.ToString());
      failed = true;
    }
    snapshot_bytes = static_cast<double>(ShardFilesBytes(co.snapshot_path, co.shards));
    barrier.Wait();
    client_start = NowNs();
  }
  for (auto& w : workers) w.join();
  const double phase_s = static_cast<double>(NowNs() - phase_start) / 1e9;
  // Peak memory of set-up and the timed phase, before the checks' exports
  // and the recovered cluster add their own.
  const double peak_rss = PeakRssMb();
  const uint64_t full_serializations = [&] {
    uint64_t n = 0;
    for (size_t k = 0; k < cluster->shard_count(); ++k) {
      n += cluster->shard(k).full_state_serializations();
    }
    return n;
  }();
  if (options.trace) ScanWals(shard_wals, "", &wal);

  Samples complete_us, apply_us, verify_us;
  Samples adhoc_us[2];
  uint64_t calls = coordinator_calls;
  for (ThreadState& st : states) {
    for (const std::string& e : st.op_failures) result.OpFailed(e);
    complete_us.Append(st.complete_us);
    for (int type = 0; type < 2; ++type) adhoc_us[type].Append(st.adhoc_us[type]);
    apply_us.Append(st.apply_us);
    verify_us.Append(st.verify_us);
    calls += st.calls;
  }
  result.attempted = calls;
  result.detail["phase_s"] = phase_s;
  result.detail["rounds"] = rounds;
  result.detail["adhoc_samples"] =
      static_cast<double>(adhoc_us[kOrder].size() + adhoc_us[kBlock].size());
  result.detail["adhoc_p50_us.order"] = adhoc_us[kOrder].Median();
  result.detail["adhoc_p50_us.block"] = adhoc_us[kBlock].Median();
  result.detail["complete_samples"] = static_cast<double>(complete_us.size());
  result.detail["migrate_inst_per_s"] = migrate_rate.Median();
  for (const auto& [outcome, n] : outcome_counts) {
    result.detail[std::string("outcome.") + adept::MigrationOutcomeToString(
                      static_cast<MigrationOutcome>(outcome))] = static_cast<double>(n);
  }

  // --- Recovery: the recovered cluster must export every instance
  // byte-identically.
  std::map<uint64_t, std::string> live;
  for (const Inst& inst : table) {
    auto exported = cluster->shard(cluster->ShardOf(inst.id)).ExportInstance(inst.id);
    if (exported.ok()) live[inst.id.value()] = exported->Dump();
  }
  cluster.reset();
  const uint64_t r0 = NowNs();
  auto recovered = AdeptCluster::Recover(co);
  const double recovery_s = static_cast<double>(NowNs() - r0) / 1e9;
  result.detail["recovery_s"] = recovery_s;
  if (!recovered.ok()) {
    result.Fail("recover: " + recovered.status().ToString());
  } else {
    std::map<uint64_t, std::string> again;
    for (const Inst& inst : table) {
      auto exported = (*recovered)->shard((*recovered)->ShardOf(inst.id)).ExportInstance(inst.id);
      if (exported.ok()) again[inst.id.value()] = exported->Dump();
    }
    if (options.Perturb("exports") && !live.empty()) live.begin()->second += " ";
    std::string err = CheckExportsEqual(live, again);
    if (!err.empty()) result.Fail(err);
  }

  if (!options.trace) {
    result.Set("setup_s", setup_s, "s");
    result.Set("ops_per_s", static_cast<double>(calls) / phase_s, "ops/s");
    // Reported, not gated: they do not repeat within a bound on every
    // workload (see README).
    result.detail["complete_p50_us"] = complete_us.Median();
    result.detail["complete_p99_us"] = complete_us.Quantile(0.99);
    // The two types' changes cost about 90 and 180 us; a median over both
    // would sit between the two groups and move with the share of each,
    // which the seed decides. The mean of the per-type medians does not.
    result.Set("key_op_p50_us",
               (adhoc_us[kOrder].Median() + adhoc_us[kBlock].Median()) / 2, "us");
    result.Set("peak_rss_mb", peak_rss, "MiB");
    return result;
  }
  result.Set("change.adhoc_us", tracer.Durations("cluster.ApplyAdHocChange").Median(), "us");
  result.Set("change.apply_to_schema_us", apply_us.Median(), "us");
  result.Set("verify.schema_us", verify_us.Median(), "us");
  result.Set("change.evolve_us", evolve_us.Median(), "us");
  result.Set("compliance.classify_inst_per_s", classify_rate.Median(), "inst/s");
  result.Set("compliance.migrate_inst_per_s", migrate_rate.Median(), "inst/s");
  result.Set("cluster.complete_us", tracer.Durations("cluster.CompleteActivity").Median(), "us");
  result.Set("storage.checkpoint_s", checkpoint_s.Median(), "s");
  result.Set("storage.snapshot_bytes", snapshot_bytes, "B");
  result.Set("storage.full_state_serializations", static_cast<double>(full_serializations), "count");
  result.Set("storage.recovery_s", recovery_s, "s");
  SetWalMetrics(wal, calls, result);
  uint64_t wal_bytes = 0;
  for (const auto& [bucket, bytes] : wal.bytes) wal_bytes += bytes;
  result.Set("storage.wal_bytes_per_op",
             static_cast<double>(wal_bytes) / static_cast<double>(calls), "B/op");
  if (client_s[0] > 0 && client_s[1] > 0) {
    double untraced = static_cast<double>(client_calls[0]) / client_s[0];
    double traced = static_cast<double>(client_calls[1]) / client_s[1];
    result.Set("trace.overhead_pct", (untraced - traced) / untraced * 100.0, "%");
  }
  result.Set("client.adapt_round_self_us", tracer.SelfTimes("client.adapt_round").Median(), "us");
  if (!options.out_dir.empty()) {
    tracer.Dump(options.out_dir + "/trace-" + options.workload + ".jsonl");
  }
  return result;
}

}  // namespace e2e
