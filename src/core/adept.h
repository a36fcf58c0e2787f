// AdeptSystem: the public facade of the adaptive process management system.
//
// This is the API a downstream application programs against. It composes
// every substrate of the reproduction:
//
//   SchemaRepository   versioned process type storage (+ deltas)
//   Engine             running instances with ADEPT marking semantics
//   InstanceStore      Fig. 2 storage representations (overlay/copy/on-demand)
//   compliance         ad-hoc changes, compliance checks, migration
//   OrgModel/worklist  staff assignment and work items (WorklistService)
//   monitor            Fig. 3 reports and visualization (separate headers)
//   WAL + snapshots    durability: every state-changing call is logged via
//                      a group-commit WalWriter (storage/wal_writer.h) with
//                      a configurable SyncMode; Recover() replays the log
//                      tail above the snapshot's covered LSN;
//                      SaveSnapshot() checkpoints and truncates the log
//
// Threading: the facade is single-threaded by design (one engine turn at a
// time), matching the original prototype's per-server execution model.
// Concurrency is layered on top: cluster/adept_cluster.h partitions
// instances across N AdeptSystem shards (one mutex each) behind the same
// AdeptApi interface.

#ifndef ADEPT_CORE_ADEPT_H_
#define ADEPT_CORE_ADEPT_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "change/delta.h"
#include "common/status.h"
#include "compliance/migration.h"
#include "core/adept_api.h"
#include "model/schema.h"
#include "org/org_model.h"
#include "runtime/driver.h"
#include "runtime/engine.h"
#include "storage/instance_store.h"
#include "storage/schema_repository.h"
#include "storage/wal.h"
#include "storage/wal_writer.h"
#include "worklist/worklist_service.h"

namespace adept {

struct AdeptOptions {
  // Representation for biased instances (paper Fig. 2; kOverlay = hybrid).
  StorageStrategy default_strategy = StorageStrategy::kOverlay;
  // Write-ahead log path; empty disables durability.
  std::string wal_path;
  // Snapshot path used by SaveSnapshot()/Recover(); empty disables.
  std::string snapshot_path;
  // Durability level applied per group-commit batch (see SyncMode in
  // storage/wal.h). kFlush matches the historical per-append fflush.
  SyncMode sync = SyncMode::kFlush;
  // When true, state-changing calls only *enqueue* their WAL record and
  // return without waiting for durability; callers then await
  // WaitWalDurable(last_enqueued_lsn()) themselves. The cluster layer uses
  // this to overlap engine work with WAL I/O across shards.
  bool defer_wal_sync = false;
  // Maintain the secondary query indexes (src/query/README.md) on every
  // snapshot publication. Disabling trades indexed Query() execution
  // (falls back to full scans) for zero index-delta work on the mutation
  // path — benchmarks price the difference.
  bool query_indexes = true;
};

class AdeptSystem : public AdeptApi {
 public:
  // Fresh system (ignores any existing WAL/snapshot files).
  static Result<std::unique_ptr<AdeptSystem>> Create(
      const AdeptOptions& options = {});

  // Rebuilds a system from the snapshot (if present) plus the WAL tail.
  // Tolerates a truncated WAL (crash mid-append).
  static Result<std::unique_ptr<AdeptSystem>> Recover(
      const AdeptOptions& options);

  AdeptSystem(const AdeptSystem&) = delete;
  AdeptSystem& operator=(const AdeptSystem&) = delete;

  // --- Buildtime ------------------------------------------------------------

  // Verifies and deploys version 1 of a process type.
  Result<SchemaId> DeployProcessType(
      std::shared_ptr<const ProcessSchema> schema) override;

  // Applies a type change, creating the next version (schema evolution).
  Result<SchemaId> EvolveProcessType(SchemaId base, Delta delta) override;

  Result<SchemaId> LatestVersion(const std::string& type_name) const override;
  Result<std::shared_ptr<const ProcessSchema>> Schema(
      SchemaId id) const override;

  // Full verification report of a stored type version, warnings included
  // (Deploy/Evolve reject versions with errors, so the report carries at
  // most warnings — races, duplicate names).
  Result<const VerificationReport*> SchemaReport(SchemaId id) {
    return repository_.ReportFor(id);
  }

  // Verification report of a biased instance's combined schema (the last
  // AddBias/Rebase application). Errors out for unbiased instances — their
  // report is the type schema's (SchemaReport).
  Result<const VerificationReport*> InstanceReport(InstanceId id) const {
    ADEPT_ASSIGN_OR_RETURN(const InstanceStore::Record* record,
                           store_.Get(id));
    if (!record->biased()) {
      return Status::FailedPrecondition(
          "instance is unbiased; use SchemaReport on its type version");
    }
    return &record->report;
  }

  // --- Instance lifecycle ----------------------------------------------------

  // Creates and starts an instance of the latest version of `type_name`.
  Result<InstanceId> CreateInstance(const std::string& type_name) override;
  Result<InstanceId> CreateInstanceOn(SchemaId schema) override;

  // Creates and starts an instance under a caller-chosen id (WAL-logged).
  // The cluster layer uses this for shard-affine id allocation; plain
  // applications should prefer CreateInstance/CreateInstanceOn.
  Result<InstanceId> CreateInstanceWithId(SchemaId schema, InstanceId id);

  // Lock-free read path: current published snapshot of `id` (rebuilt by
  // every mutating facade call; see runtime/instance_snapshot.h). Direct
  // substrate mutation (MutableInstance, engine()) bypasses publication —
  // republish by routing the next change through the facade.
  std::shared_ptr<const InstanceSnapshot> SnapshotOf(
      InstanceId id) const override;

  // The published-snapshot table (cluster sweeps, tests).
  const SnapshotTable& snapshots() const { return snapshots_; }

  // Indexed predicate evaluation over the published snapshots (the
  // AdeptApi::Query contract). Lock-free; safe from any thread.
  Result<QueryResult> Query(const std::string& query) const override;

  // Appends this system's matches for an already compiled query to
  // `result` (unsorted — the cluster's fan-out merges across shards and
  // sorts once). Takes no engine lock.
  void CollectQueryMatches(const CompiledQuery& query,
                           QueryResult* result) const;

  Status StartActivity(InstanceId id, NodeId node) override;
  Status CompleteActivity(
      InstanceId id, NodeId node,
      const std::vector<ProcessInstance::DataWrite>& writes = {}) override;
  Status FailActivity(InstanceId id, NodeId node,
                      const std::string& reason) override;
  Status RetryActivity(InstanceId id, NodeId node) override;
  Status SuspendActivity(InstanceId id, NodeId node) override;
  Status ResumeActivity(InstanceId id, NodeId node) override;
  Status SelectBranch(InstanceId id, NodeId split, int branch_value) override;
  Status SetLoopDecision(InstanceId id, NodeId loop_end,
                         bool iterate) override;

  // Synthetic execution through the facade (WAL-logged, unlike driving the
  // ProcessInstance directly).
  Result<bool> DriveStep(InstanceId id, SimulationDriver& driver) override;
  Status DriveToCompletion(InstanceId id, SimulationDriver& driver,
                           int max_steps = 100000) override;

  // --- Dynamic change --------------------------------------------------------

  // Ad-hoc change of a single instance (paper Sec. 2).
  Status ApplyAdHocChange(InstanceId id, Delta delta) override;

  // Propagates the type change `from` -> `to` to all running instances.
  Result<MigrationReport> Migrate(
      SchemaId from, SchemaId to,
      const MigrationOptions& options = {}) override;
  // Convenience: migrate every predecessor-version instance to the latest.
  Result<MigrationReport> MigrateToLatest(
      const std::string& type_name,
      const MigrationOptions& options = {}) override;

  // --- Cross-shard instance migration (cluster resize) -----------------------
  //
  // The cluster layer hands instances over between shards with these three
  // calls (paper §distributed execution: instances migrate between servers
  // as load and structure change). The move protocol is: Export on the
  // source (pure read), Import on the destination (WAL-logged, waited
  // durable), then Evict on the source (WAL-logged) — so at every crash
  // point the instance is durable on at least one shard, and recovery
  // dedups a both-sides window (import durable, evict lost) back to
  // exactly one owner.

  // Serializes the instance wholesale: base schema ref, storage strategy,
  // bias delta, and full runtime state (marking, trace, data, loops).
  Result<JsonValue> ExportInstance(InstanceId id) const;

  // Adopts an exported instance under its original id. Fails
  // kAlreadyExists when the id is live here; the base schema (and any
  // bias) must resolve against this system's repository.
  Status ImportInstance(const JsonValue& exported);

  // Removes the instance from this system (engine + store). Fires no
  // instance events: the work items of a moving instance must survive the
  // handover untouched.
  Status EvictInstance(InstanceId id);

  // Adopts a full schema repository image (SchemaRepository::ToJson) into
  // this system, which must not have deployed anything yet. WAL-logged.
  // The cluster uses this to bring freshly created shards up to the
  // cluster's identical-schema invariant before importing instances.
  Status ReplicateSchemas(const JsonValue& repo_json);

  // --- Organization ----------------------------------------------------------

  OrgModel& org() { return org_; }
  const OrgModel& org() const { return org_; }
  // The worklist over this system's instances, built on first call: no
  // claim journal, this system routes Start/Complete, and it is seeded
  // from current instance state (offers are a pure function of it), then
  // subscribed to instance events. Cluster shards never call this, so
  // they carry no worklist state; AdeptCluster::Worklist() serves theirs.
  WorklistService& worklist();

  // Subscribes an additional observer to all instance events (monitoring).
  void AddObserver(InstanceObserver* observer) { fanout_.Add(observer); }

  // --- Durability ------------------------------------------------------------

  // Writes a full snapshot (recording the covered WAL LSN) and truncates
  // the WAL (checkpoint). Recovery skips WAL records at or below the
  // snapshot's LSN, so an interrupted truncation cannot double-apply.
  Status SaveSnapshot() override;

  // LSN of the most recent record this system enqueued (0 when nothing was
  // logged yet). Meaningful for durability waits under defer_wal_sync.
  uint64_t last_enqueued_lsn() const { return last_enqueued_lsn_; }

  // Count of full instance-state serializations performed (checkpoints and
  // exports). Checkpoints reuse the cached serialization of instances whose
  // published version is unchanged since the previous SaveSnapshot, so
  // back-to-back checkpoints of an idle system serialize nothing — the
  // regression tests pin that with this counter.
  uint64_t full_state_serializations() const {
    return full_state_serializations_;
  }

  // Blocks until every WAL record with an LSN <= `lsn` is durable per the
  // configured SyncMode. No-op without a WAL or for lsn 0.
  Status WaitWalDurable(uint64_t lsn);

  // --- Substrate access (benchmarks, monitoring, tests) ----------------------

  Engine& engine() { return engine_; }
  const Engine& engine() const { return engine_; }
  // The group-commit WAL writer, or nullptr when no WAL is configured.
  // The replication layer attaches its commit hook here
  // (WalWriter::SetCommitHook); see cluster/adept_cluster.h
  // AttachReplication.
  WalWriter* wal_writer() { return wal_.get(); }
  SchemaRepository& repository() { return repository_; }
  InstanceStore& store() { return store_; }
  MigrationManager& migration_manager() { return migration_manager_; }
  ProcessInstance* MutableInstance(InstanceId id) { return engine_.Find(id); }

 protected:
  const ProcessInstance* InstanceImpl(InstanceId id) const override;

 private:
  explicit AdeptSystem(const AdeptOptions& options);

  // `prescan` (recovery only): the replay pass's parse of the WAL, reused
  // so opening the writer does not rescan the file.
  Status OpenWalIfConfigured(uint64_t min_last_lsn = 0,
                             const WalScan* prescan = nullptr);
  Status Log(const JsonValue& record);
  Status ApplyWalRecord(const JsonValue& record);
  Result<InstanceId> CreateInstanceInternal(SchemaId schema_id,
                                            InstanceId forced_id);
  // Per-instance (de)serialization shared by snapshots and the
  // export/import handover: id, base schema ref, strategy, bias, state.
  Result<JsonValue> InstanceToJson(InstanceId id) const;
  Status AdoptInstanceFromJson(const JsonValue& ij);
  JsonValue SnapshotToJson(uint64_t wal_lsn) const;
  Status LoadSnapshotJson(const JsonValue& json, uint64_t* wal_lsn);
  // Visits every live instance (the worklist's resync enumerator).
  WorklistService::InstanceEnumerator EngineInstances() const;
  // Publishes `id`'s current state into the snapshot table (erases when
  // the instance is gone) and applies the publication delta to the query
  // indexes. No-op during recovery — Recover() bulk-publishes once at
  // the end instead of once per replayed record, which also rebuilds the
  // indexes from scratch.
  void PublishSnapshot(InstanceId id);
  void PublishAllSnapshots();
  // Erases `id`'s published snapshot + index entries (eviction paths).
  void ErasePublishedSnapshot(InstanceId id);

  AdeptOptions options_;
  SchemaRepository repository_;
  Engine engine_;
  InstanceStore store_{&repository_};
  MigrationManager migration_manager_{&engine_, &repository_, &store_};
  OrgModel org_;
  ObserverFanout fanout_;
  std::unique_ptr<WorklistService> worklist_;  // see worklist()
  SnapshotTable snapshots_;
  QueryIndex query_index_;
  std::unique_ptr<WalWriter> wal_;
  uint64_t last_enqueued_lsn_ = 0;
  bool recovering_ = false;

  // Checkpoint serialization cache: the instance JSON written by the last
  // SaveSnapshot, keyed by instance id and fingerprinted by the published
  // snapshot version (every facade mutation republishes, so an unchanged
  // version means unchanged state — the same contract SnapshotOf serves
  // readers under; direct substrate mutation bypasses both). In-memory
  // only: a recovered system starts cold and re-serializes once.
  struct CachedInstanceJson {
    uint64_t version = 0;
    JsonValue json;
  };
  mutable std::unordered_map<uint64_t, CachedInstanceJson> checkpoint_cache_;
  mutable uint64_t full_state_serializations_ = 0;
};

}  // namespace adept

#endif  // ADEPT_CORE_ADEPT_H_
