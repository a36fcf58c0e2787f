// The `execute` and `replicated` workloads: every client thread acts as the
// users of its own process type, working items through the worklist
// lifecycle OffersFor -> Claim -> Start -> Complete; finished instances are
// replaced by new ones. `replicated` adds one in-process replica node that
// must ack every commit (quorum 2).

#include <algorithm>
#include <atomic>
#include <thread>

#include "bench.h"
#include "checks.h"
#include "repl/replica_node.h"
#include "runtime/driver.h"
#include "runtime/engine.h"
#include "worklist/worklist_service.h"

namespace e2e {

namespace {

using adept::AdeptCluster;
using adept::ClusterOptions;
using adept::RoleId;
using adept::UserId;
using adept::WorkItem;

constexpr int kActivities = 48;
constexpr uint64_t kSchemaSeed = 7;  // fixed: the seed varies only the work
constexpr int kRolesPerThread = 8;
constexpr int kXRange = 1000;
// Claimed but never started at the end of the run, so recovery has open
// claims to keep.
constexpr int kOpenClaimsPerThread = 4;
// A run is kEpisodes identical episodes, each on a fresh cluster; the
// metrics are medians over the episodes, so a slow spell of the machine
// that covers fewer than half of them does not move the result. Each
// episode's timed phase makes kRoundsPerSecond rounds per thread per
// --seconds, calibrated so that a 10-second run takes about that long.
constexpr int kEpisodes = 35;
constexpr double kRoundsPerSecond = 0.6;

struct Org {
  std::vector<std::vector<RoleId>> roles;   // per thread
  std::vector<std::vector<UserId>> users;   // per thread, one per role
};

// Populates the org model; called in the same order on every cluster of a
// run so ids agree after recovery.
Org PopulateOrg(adept::OrgModel& org, int threads) {
  Org out;
  out.roles.resize(static_cast<size_t>(threads));
  out.users.resize(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    for (int k = 0; k < kRolesPerThread; ++k) {
      std::string suffix = std::to_string(t) + "_" + std::to_string(k);
      RoleId role = *org.AddRole("role" + suffix);
      UserId user = *org.AddUser("user" + suffix);
      (void)org.AssignRole(user, role);
      out.roles[static_cast<size_t>(t)].push_back(role);
      out.users[static_cast<size_t>(t)].push_back(user);
    }
  }
  return out;
}

std::string TypeName(int t) { return "exec" + std::to_string(t); }

uint64_t ItemKey(const WorkItem& item) {
  return (item.instance.value() << 20) | item.node.value();
}

struct ThreadState {
  adept::Rng rng{1};
  // Creation order of this thread's instances: the pick order, so choices
  // do not depend on how instance ids interleave across threads.
  std::unordered_map<uint64_t, uint64_t> local_index;
  uint64_t next_local = 0;
  std::map<uint64_t, uint64_t> completions;  // instance -> completes seen
  std::vector<uint64_t> claimed, completed;  // work item ids
  std::map<uint64_t, uint32_t> open_claims;  // ItemKey -> owner
  Samples complete_us, claim_us, offers_per_poll;
  uint64_t calls = 0;
  uint64_t rounds = 0;
  std::vector<std::string> errors;       // failed checks
  std::vector<std::string> op_failures;  // failed client calls
};

struct ExecuteEnv {
  const RunOptions& options;
  bool replicated;
  ClusterOptions cluster_options;
  std::unique_ptr<adept::ReplicationReplica> replica;
  std::string replica_wal, replica_snapshot;
  std::unique_ptr<AdeptCluster> cluster;
  Org org;
  std::vector<std::shared_ptr<const adept::ProcessSchema>> schemas;
};

void Track(ThreadState& st, InstanceId id) {
  st.local_index[id.value()] = st.next_local++;
  st.completions[id.value()] = 0;
}

// One work item of thread `t`: poll users until one has offers, then
// claim, start and complete the item the seeded choice picks. Returns false
// when a call failed or no user had an offer.
bool WorkOneItem(ExecuteEnv& env, int t, ThreadState& st, Tracer* tracer,
                 bool leave_claimed) {
  adept::WorklistService& worklist = env.cluster->Worklist();
  const auto& users = env.org.users[static_cast<size_t>(t)];
  BeginOp(tracer, t);
  Span item_span(tracer, t, "client.work_item");
  uint64_t first = st.rng.NextBelow(users.size());
  for (size_t probe = 0; probe < users.size(); ++probe) {
    UserId user = users[(first + probe) % users.size()];
    std::vector<WorkItem> offers;
    {
      Span span(tracer, t, "worklist.OffersFor");
      offers = worklist.OffersFor(user);
    }
    ++st.calls;
    st.offers_per_poll.Add(static_cast<double>(offers.size()));
    if (offers.empty()) continue;
    std::sort(offers.begin(), offers.end(),
              [&](const WorkItem& a, const WorkItem& b) {
                uint64_t la = st.local_index[a.instance.value()];
                uint64_t lb = st.local_index[b.instance.value()];
                return la != lb ? la < lb : a.node < b.node;
              });
    const WorkItem item = offers[st.rng.NextBelow(offers.size())];
    {
      Span span(tracer, t, "worklist.Claim");
      uint64_t t0 = NowNs();
      adept::Status s = worklist.Claim(item.id, user);
      st.claim_us.Add(static_cast<double>(NowNs() - t0) / 1e3);
      ++st.calls;
      if (!s.ok()) {
        st.op_failures.push_back("Claim: " + s.ToString());
        return false;
      }
    }
    st.claimed.push_back(item.id.value());
    if (leave_claimed) {
      st.open_claims[ItemKey(item)] = user.value();
      return true;
    }
    {
      Span span(tracer, t, "worklist.Start");
      adept::Status s = worklist.Start(item.id, user);
      ++st.calls;
      if (!s.ok()) {
        st.op_failures.push_back("Start: " + s.ToString());
        return false;
      }
    }
    auto writes = PlanWrites(*env.schemas[static_cast<size_t>(t)], item.node,
                             item.epoch, st.rng, kXRange);
    {
      Span span(tracer, t, "worklist.Complete");
      uint64_t t0 = NowNs();
      adept::Status s = worklist.Complete(item.id, user, writes);
      st.complete_us.Add(static_cast<double>(NowNs() - t0) / 1e3);
      ++st.calls;
      if (!s.ok()) {
        st.op_failures.push_back("Complete: " + s.ToString());
        return false;
      }
    }
    st.completed.push_back(item.id.value());
    ++st.completions[item.instance.value()];
    std::shared_ptr<const adept::InstanceSnapshot> snap;
    {
      Span span(tracer, t, "cluster.SnapshotOf");
      snap = env.cluster->SnapshotOf(item.instance);
      ++st.calls;
    }
    if (snap != nullptr && snap->finished) {
      Span span(tracer, t, "cluster.CreateInstance");
      auto id = env.cluster->CreateInstance(TypeName(t));
      ++st.calls;
      if (!id.ok()) {
        st.op_failures.push_back("CreateInstance: " + id.status().ToString());
        return false;
      }
      Track(st, *id);
    }
    return true;
  }
  st.errors.push_back("no user of thread " + std::to_string(t) +
                      " has an offer");
  return false;
}

std::map<uint64_t, std::string> ExportAll(AdeptCluster& cluster,
                                          const std::vector<uint64_t>& ids,
                                          std::vector<std::string>* errors) {
  std::map<uint64_t, std::string> out;
  for (uint64_t raw : ids) {
    InstanceId id(raw);
    auto exported = cluster.shard(cluster.ShardOf(id)).ExportInstance(id);
    if (!exported.ok()) {
      errors->push_back("ExportInstance " + std::to_string(raw) + ": " +
                        exported.status().ToString());
      continue;
    }
    out[raw] = exported->Dump();
  }
  return out;
}

std::map<uint64_t, uint32_t> OpenClaims(AdeptCluster& cluster, const Org& org) {
  std::map<uint64_t, uint32_t> out;
  for (const auto& users : org.users) {
    for (UserId user : users) {
      for (const WorkItem& item : cluster.Worklist().AssignedTo(user)) {
        if (item.state == adept::WorkItemState::kClaimed) {
          out[ItemKey(item)] = user.value();
        }
      }
    }
  }
  return out;
}

bool WaitReplicaConverged(AdeptCluster& cluster,
                          const adept::ReplicationReplica& replica) {
  uint64_t deadline = NowNs() + 30'000'000'000ull;
  while (NowNs() < deadline) {
    bool converged = true;
    for (size_t k = 0; k < cluster.shard_count(); ++k) {
      if (replica.ShardLastLsn(k) <
          cluster.shard(k).wal_writer()->durable_lsn()) {
        converged = false;
      }
    }
    if (converged) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

// The traced run's layer ladder: the same seeded step sequence on a
// standalone Engine and through the cluster facade without the worklist.
void LayerLadder(ExecuteEnv& env, WorkloadResult& result) {
  const int kInstances = env.options.small ? 8 : 64;
  const int kSteps = env.options.small ? 200 : 5000;
  auto schema = BlockSchema("ladder", kActivities, kSchemaSeed, {});
  Samples engine_step, cluster_step, cluster_complete;

  adept::Engine engine;
  std::vector<adept::ProcessInstance*> instances;
  for (int i = 0; i < kInstances; ++i) {
    auto inst = engine.CreateInstance(schema, adept::SchemaId(1));
    if (!inst.ok() || !(*inst)->Start().ok()) {
      result.Fail("ladder: engine instance");
      return;
    }
    instances.push_back(*inst);
  }
  adept::Rng rng(env.options.seed * 31 + 5);
  for (int step = 0; step < kSteps; ++step) {
    adept::ProcessInstance* inst = instances[static_cast<size_t>(step) % instances.size()];
    std::vector<NodeId> activated = inst->ActivatedActivities();
    std::sort(activated.begin(), activated.end());
    if (activated.empty()) continue;
    NodeId node = activated[rng.NextBelow(activated.size())];
    auto writes = PlanWrites(inst->schema(), node, inst->completed_runs(node),
                             rng, kXRange);
    uint64_t t0 = NowNs();
    bool ok = inst->StartActivity(node).ok() &&
              inst->CompleteActivity(node, writes).ok();
    engine_step.Add(static_cast<double>(NowNs() - t0) / 1e3);
    if (!ok) {
      result.Fail("ladder: engine step failed");
      return;
    }
    if (inst->Finished()) {
      auto fresh = engine.CreateInstance(schema, adept::SchemaId(1));
      if (!fresh.ok() || !(*fresh)->Start().ok()) return;
      instances[static_cast<size_t>(step) % instances.size()] = *fresh;
    }
  }

  AdeptCluster& cluster = *env.cluster;
  if (!cluster.DeployProcessType(schema).ok()) {
    result.Fail("ladder: deploy");
    return;
  }
  std::vector<InstanceId> ids;
  for (int i = 0; i < kInstances; ++i) ids.push_back(*cluster.CreateInstance("ladder"));
  adept::Rng crng(env.options.seed * 31 + 5);
  for (int step = 0; step < kSteps; ++step) {
    InstanceId& id = ids[static_cast<size_t>(step) % ids.size()];
    auto snap = cluster.SnapshotOf(id);
    std::vector<NodeId> activated = ActivatedActivities(*snap);
    if (activated.empty()) continue;
    NodeId node = activated[crng.NextBelow(activated.size())];
    const uint64_t* runs = snap->completed_runs.Find(node);
    auto writes = PlanWrites(*snap->schema, node, runs == nullptr ? 0 : *runs,
                             crng, kXRange);
    uint64_t t0 = NowNs();
    bool ok = cluster.StartActivity(id, node).ok();
    uint64_t t1 = NowNs();
    ok = ok && cluster.CompleteActivity(id, node, writes).ok();
    uint64_t t2 = NowNs();
    cluster_step.Add(static_cast<double>(t2 - t0) / 1e3);
    cluster_complete.Add(static_cast<double>(t2 - t1) / 1e3);
    if (!ok) {
      result.Fail("ladder: cluster step failed");
      return;
    }
    if (cluster.SnapshotOf(id)->finished) id = *cluster.CreateInstance("ladder");
  }
  double engine_us = engine_step.Median();
  double cluster_us = cluster_step.Median();
  result.Set("runtime.step_us", engine_us, "us");
  result.Set("cluster.step_us", cluster_us, "us");
  result.Set("cluster.complete_us", cluster_complete.Median(), "us");
  result.Set("cluster.layering_us", cluster_us - engine_us, "us");
  result.detail["ladder.steps"] = static_cast<double>(engine_step.size());
}

// One episode: a fresh cluster, its set-up, the timed phase and the checks.
// `last` adds the traced run's layer ladder and trace dump.
WorkloadResult RunEpisode(const RunOptions& options, bool replicated,
                          bool last) {
  WorkloadResult result;
  const int threads = options.threads;
  const int population = options.small ? 8 : 32;   // live per thread
  const int round_items = options.small ? 20 : 100;  // work items per round
  // A fixed amount of work per episode, scaled by --seconds: every run with
  // the same --seconds makes the same calls, so instance and item counts
  // repeat exactly. (The rate falls as an episode goes on; see CHANGES.md.)
  const int rounds = std::max(1, static_cast<int>(options.seconds * kRoundsPerSecond));
  const int max_progress = 24;  // seeded set-up steps per instance

  ExecuteEnv env{options, replicated, {}, nullptr, "", "", nullptr, {}, {}};
  ClusterOptions& co = env.cluster_options;
  co.shards = 4;
  co.wal_path = options.dir + "/primary.wal";
  co.snapshot_path = options.dir + "/primary.snapshot";
  co.sync = adept::SyncMode::kFlush;
  co.driver.seed = options.seed;

  // --- Set-up -----------------------------------------------------------------
  if (replicated) {
    adept::ReplicaNodeOptions ro;
    env.replica_wal = options.dir + "/replica.wal";
    env.replica_snapshot = options.dir + "/replica.snapshot";
    ro.wal_path = env.replica_wal;
    ro.snapshot_path = env.replica_snapshot;
    ro.sync = adept::SyncMode::kFlush;
    auto replica = adept::ReplicationReplica::Start(ro);
    if (!replica.ok()) {
      result.Fail("replica start: " + replica.status().ToString());
      return result;
    }
    env.replica = std::move(*replica);
  }
  auto created = AdeptCluster::Create(co);
  if (!created.ok()) {
    result.Fail("cluster create: " + created.status().ToString());
    return result;
  }
  env.cluster = std::move(*created);
  AdeptCluster& cluster = *env.cluster;
  if (replicated) {
    adept::ReplicationOptions ro;
    ro.replicas.push_back({"127.0.0.1", env.replica->port()});
    ro.quorum = 2;
    adept::Status s = cluster.AttachReplication(ro);
    if (!s.ok()) {
      result.Fail("attach replication: " + s.ToString());
      return result;
    }
  }
  env.org = PopulateOrg(cluster.org(), threads);
  std::vector<ThreadState> states(static_cast<size_t>(threads));
  std::vector<adept::AdeptCluster::BatchOp> creates;
  for (int t = 0; t < threads; ++t) {
    env.schemas.push_back(BlockSchema(TypeName(t), kActivities, kSchemaSeed,
                                      env.org.roles[static_cast<size_t>(t)]));
    if (env.schemas.back() == nullptr ||
        !cluster.DeployProcessType(env.schemas.back()).ok()) {
      result.Fail("deploy " + TypeName(t));
      return result;
    }
    states[static_cast<size_t>(t)].rng = adept::Rng(options.seed * 1000003 + static_cast<uint64_t>(t));
    for (int i = 0; i < population; ++i) {
      creates.push_back(AdeptCluster::BatchOp::Create(TypeName(t)));
    }
  }
  auto created_ids = cluster.SubmitBatch(creates);
  for (size_t i = 0; i < created_ids.size(); ++i) {
    if (!created_ids[i].status.ok()) {
      result.Fail("create: " + created_ids[i].status.ToString());
      return result;
    }
    Track(states[i / static_cast<size_t>(population)], created_ids[i].id);
  }
  // Drive every instance to a seeded progress point through the shard
  // drivers, so the timed phase starts on a worklist with history. Every
  // progress point 0..max_progress-1 is used equally often and the seed
  // shuffles them over the instances, so the set-up's step count, and with
  // it set-up time and memory, is the same for every seed.
  adept::Rng setup_rng(options.seed * 7919 + 5);
  std::vector<int> steps;
  for (size_t i = 0; i < created_ids.size(); ++i) {
    steps.push_back(static_cast<int>(i % max_progress));
  }
  for (size_t i = steps.size(); i > 1; --i) {
    std::swap(steps[i - 1], steps[setup_rng.NextBelow(i)]);
  }
  // One batch, round by round: a shard runs its ops in submission order,
  // behind one barrier instead of one per round.
  std::vector<adept::AdeptCluster::BatchOp> drive;
  for (int round = 0; round < max_progress; ++round) {
    for (size_t i = 0; i < created_ids.size(); ++i) {
      if (steps[i] > round) {
        drive.push_back(AdeptCluster::BatchOp::DriveStep(created_ids[i].id));
      }
    }
  }
  for (const auto& r : cluster.SubmitBatch(drive)) {
    if (!r.status.ok()) {
      result.Fail("progress: " + r.status.ToString());
      return result;
    }
  }
  // Completions the set-up made are the baseline of the completion check.
  for (size_t i = 0; i < created_ids.size(); ++i) {
    auto snap = cluster.SnapshotOf(created_ids[i].id);
    states[i / static_cast<size_t>(population)]
        .completions[created_ids[i].id.value()] =
        snap == nullptr ? 0 : CompletedActivities(*snap);
  }
  if (!cluster.SaveSnapshot().ok()) {
    result.Fail("checkpoint after set-up");
    return result;
  }
  const double setup_s = static_cast<double>(NowNs() - options.start_ns) / 1e9;
  const uint64_t wal_before = ShardFilesBytes(co.wal_path, co.shards) +
                              FileBytes(co.wal_path + ".worklist");
  const uint64_t replica_before =
      replicated ? ShardFilesBytes(env.replica_wal, co.shards) : 0;

  // --- Timed phase --------------------------------------------------------------
  Tracer tracer(threads);
  Tracer* tr = options.trace ? &tracer : nullptr;
  tracer.set_enabled(options.trace);
  std::atomic<bool> failed{false};
  Samples ack_lag;
  std::mutex lag_mu;
  // Traced runs alternate traced and untraced rounds; the two rates give
  // the tracing overhead.
  std::vector<uint64_t> round_ns(2, 0), round_calls(2, 0);
  std::mutex round_mu;
  const uint64_t phase_start = NowNs();
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      ThreadState& st = states[static_cast<size_t>(t)];
      do {
        bool traced = options.trace && st.rounds % 2 == 1;
        Tracer* use = traced ? tr : nullptr;
        uint64_t r0 = NowNs(), c0 = st.calls;
        for (int i = 0; i < round_items && !failed.load(); ++i) {
          if (!WorkOneItem(env, t, st, use, false)) failed = true;
        }
        {
          std::lock_guard<std::mutex> lock(round_mu);
          round_ns[traced ? 1 : 0] += NowNs() - r0;
          round_calls[traced ? 1 : 0] += st.calls - c0;
        }
        ++st.rounds;
        if (replicated && options.trace && t == 0) {
          for (const auto& shard : cluster.ReplicationStatus().shards) {
            std::lock_guard<std::mutex> lock(lag_mu);
            ack_lag.Add(static_cast<double>(shard.local_durable - shard.quorum_acked));
          }
        }
      } while (st.rounds < static_cast<uint64_t>(rounds) && !failed.load());
    });
  }
  for (auto& w : workers) w.join();
  const double phase_s = static_cast<double>(NowNs() - phase_start) / 1e9;
  // Trailing claims, left open so recovery has claims to keep.
  for (int t = 0; t < threads && !failed.load(); ++t) {
    for (int i = 0; i < kOpenClaimsPerThread; ++i) {
      if (!WorkOneItem(env, t, states[static_cast<size_t>(t)], nullptr, true)) {
        failed = true;
      }
    }
  }
  // Peak memory of set-up and the timed phase, before the checks' exports
  // and the recovered cluster add their own.
  const double peak_rss = PeakRssMb();

  Samples complete_us, claim_us;
  uint64_t calls = 0, rounds_done = 0;
  std::vector<uint64_t> all_ids;
  std::map<uint64_t, uint64_t> expected_completions;
  std::vector<uint64_t> claimed, completed;
  std::map<uint64_t, uint32_t> open_claims;
  for (ThreadState& st : states) {
    for (const std::string& e : st.errors) result.Fail(e);
    for (const std::string& e : st.op_failures) result.OpFailed(e);
    complete_us.Append(st.complete_us);
    claim_us.Append(st.claim_us);
    calls += st.calls;
    rounds_done += st.rounds;
    for (const auto& [id, n] : st.completions) {
      all_ids.push_back(id);
      expected_completions[id] = n;
    }
    claimed.insert(claimed.end(), st.claimed.begin(), st.claimed.end());
    completed.insert(completed.end(), st.completed.begin(), st.completed.end());
    open_claims.insert(st.open_claims.begin(), st.open_claims.end());
  }
  result.attempted = calls;
  result.detail["rounds"] = static_cast<double>(rounds_done);
  result.detail["phase_s"] = phase_s;
  result.detail["complete_samples"] = static_cast<double>(complete_us.size());
  result.detail["instances"] = static_cast<double>(all_ids.size());

  // --- Checks ---------------------------------------------------------------------
  std::map<uint64_t, uint64_t> published;
  for (uint64_t id : all_ids) {
    auto snap = cluster.SnapshotOf(InstanceId(id));
    published[id] = snap == nullptr ? 0 : CompletedActivities(*snap);
  }
  if (options.Perturb("completions")) {
    for (auto& [id, n] : expected_completions) {
      if (n > 0) {
        --n;  // one acknowledged completion dropped
        break;
      }
    }
  }
  if (options.Perturb("claims") && !claimed.empty()) {
    claimed.push_back(claimed.front());
  }
  std::string err = CheckCompletions(expected_completions, published);
  if (!err.empty()) result.Fail(err);
  err = CheckClaimsOnce(claimed, completed);
  if (!err.empty()) result.Fail(err);

  const uint64_t wal_after = ShardFilesBytes(co.wal_path, co.shards) +
                             FileBytes(co.wal_path + ".worklist");
  WalBreakdown wal;
  if (options.trace) {
    std::vector<std::string> shard_wals;
    for (int k = 0; k < co.shards; ++k) {
      shard_wals.push_back(co.wal_path + ".shard" + std::to_string(k));
    }
    ScanWals(shard_wals, co.wal_path + ".worklist", &wal);
  }
  if (options.trace && !replicated && last) LayerLadder(env, result);

  // Recovery is checked after the run's last episode: from the WAL, the
  // snapshots and the claim journal (the replica's files, promoted, for
  // `replicated`), every instance must export byte-identically.
  std::vector<std::string> export_errors;
  if (replicated && last && !WaitReplicaConverged(cluster, *env.replica)) {
    result.Fail("replica did not converge");
  }
  std::map<uint64_t, std::string> live;
  if (last) live = ExportAll(cluster, all_ids, &export_errors);
  if (options.Perturb("exports") && !live.empty()) live.begin()->second += " ";
  if (options.Perturb("claim_owners") && !open_claims.empty()) {
    ++open_claims.begin()->second;
  }
  std::map<uint64_t, uint32_t> live_claims = OpenClaims(cluster, env.org);
  err = CheckClaimOwners(open_claims, live_claims);
  if (!err.empty()) result.Fail("live: " + err);
  uint64_t tail_evictions = 0;
  if (replicated) {
    for (const auto& shard : cluster.ReplicationStatus().shards) {
      tail_evictions += shard.tail_evictions;
    }
  }
  const uint64_t replica_after =
      replicated ? ShardFilesBytes(env.replica_wal, co.shards) : 0;
  cluster.DetachReplication();
  env.cluster.reset();
  if (replicated) env.replica->Stop();

  double recovery_s = 0;
  if (last) {
    ClusterOptions ro = co;
    if (replicated) {
      ro.wal_path = env.replica_wal;
      ro.snapshot_path = env.replica_snapshot;
      if (!adept::PromoteReplicaFiles(ro.wal_path).ok()) result.Fail("promote");
    }
    const uint64_t r0 = NowNs();
    auto recovered = AdeptCluster::Recover(ro);
    recovery_s = static_cast<double>(NowNs() - r0) / 1e9;
    if (!recovered.ok()) {
      result.Fail("recover: " + recovered.status().ToString());
    } else {
      std::map<uint64_t, std::string> again =
          ExportAll(**recovered, all_ids, &export_errors);
      err = CheckExportsEqual(live, again);
      if (!err.empty()) result.Fail(err);
      if (!replicated) {
        // The journal is local to the primary; a replica does not hold it.
        err = CheckClaimOwners(open_claims, OpenClaims(**recovered, env.org));
        if (!err.empty()) result.Fail("recovered: " + err);
      }
    }
  }
  for (const std::string& e : export_errors) result.Fail(e);

  // --- Metrics ----------------------------------------------------------------------
  const double wal_per_op =
      static_cast<double>(wal_after - wal_before) / static_cast<double>(calls);
  if (!options.trace) {
    result.Set("setup_s", setup_s, "s");
    result.Set("ops_per_s", static_cast<double>(calls) / phase_s, "ops/s");
    result.Set("key_op_p50_us", complete_us.Median(), "us");
    // Reported, not gated: they do not repeat within a bound on every
    // workload (see README).
    result.detail["complete_p99_us"] = complete_us.Quantile(0.99);
    result.detail["claim_p50_us"] = claim_us.Median();
    result.Set("peak_rss_mb", peak_rss, "MiB");
    if (last) result.detail["recovery_s"] = recovery_s;
    result.detail["wal_bytes_per_op"] = wal_per_op;
    return result;
  }
  result.Set("worklist.offers_for_us", tracer.Durations("worklist.OffersFor").Median(), "us");
  result.Set("worklist.claim_us", tracer.Durations("worklist.Claim").Median(), "us");
  result.Set("worklist.start_us", tracer.Durations("worklist.Start").Median(), "us");
  result.Set("worklist.complete_us", tracer.Durations("worklist.Complete").Median(), "us");
  result.Set("cluster.create_us", tracer.Durations("cluster.CreateInstance").Median(), "us");
  result.Set("client.work_item_self_us", tracer.SelfTimes("client.work_item").Median(), "us");
  Samples per_poll;
  for (const ThreadState& st : states) per_poll.Append(st.offers_per_poll);
  result.Set("worklist.offers_per_poll", per_poll.Median(), "items");
  if (last) result.Set("storage.recovery_s", recovery_s, "s");
  SetWalMetrics(wal, calls, result);
  result.Set("storage.wal_bytes_per_op", wal_per_op, "B/op");
  if (replicated) {
    result.Set("repl.ack_lag_lsn", ack_lag.Median(), "LSN");
    result.Set("repl.shipped_bytes_per_op",
               static_cast<double>(replica_after - replica_before) /
                   static_cast<double>(calls),
               "B/op");
    result.Set("repl.tail_evictions", static_cast<double>(tail_evictions), "count");
  }
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

WorkloadResult RunExecute(const RunOptions& options, bool replicated) {
  return RunEpisodes(options, options.small ? 2 : kEpisodes,
                     [replicated](const RunOptions& episode, bool last) {
                       return RunEpisode(episode, replicated, last);
                     });
}

}  // namespace e2e
