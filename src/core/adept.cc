#include "core/adept.h"

#include <cstdio>
#include <filesystem>

#include "common/fs_util.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "compliance/adhoc.h"
#include "model/serialization.h"
#include "storage/state_serialization.h"

namespace adept {

namespace {

JsonValue WritesToJson(const std::vector<ProcessInstance::DataWrite>& writes) {
  JsonValue arr = JsonValue::MakeArray();
  for (const auto& w : writes) {
    JsonValue wj = JsonValue::MakeObject();
    wj.Set("d", JsonValue(w.data.value()));
    wj.Set("v", w.value.ToJson());
    arr.Append(std::move(wj));
  }
  return arr;
}

Result<std::vector<ProcessInstance::DataWrite>> WritesFromJson(
    const JsonValue& json) {
  std::vector<ProcessInstance::DataWrite> writes;
  for (const JsonValue& wj : json.as_array()) {
    ADEPT_ASSIGN_OR_RETURN(DataValue value, DataValue::FromJson(wj.Get("v")));
    writes.push_back(
        {DataId(static_cast<uint32_t>(wj.Get("d").as_int())), value});
  }
  return writes;
}

}  // namespace

AdeptSystem::AdeptSystem(const AdeptOptions& options) : options_(options) {
  engine_.set_observer(&fanout_);
}

Status AdeptSystem::OpenWalIfConfigured(uint64_t min_last_lsn,
                                        const WalScan* prescan) {
  if (options_.wal_path.empty()) return Status::OK();
  WalWriterOptions writer_options;
  writer_options.sync = options_.sync;
  writer_options.min_last_lsn = min_last_lsn;
  ADEPT_ASSIGN_OR_RETURN(
      wal_, WalWriter::Open(options_.wal_path, writer_options, prescan));
  return Status::OK();
}

Result<std::unique_ptr<AdeptSystem>> AdeptSystem::Create(
    const AdeptOptions& options) {
  std::unique_ptr<AdeptSystem> system(new AdeptSystem(options));
  ADEPT_RETURN_IF_ERROR(system->OpenWalIfConfigured());
  // A fresh system starts a fresh history — durably: a stale snapshot left
  // on disk would otherwise be resurrected by a later Recover() (which
  // would also skip this run's WAL records below its covered LSN).
  if (!options.snapshot_path.empty()) {
    std::error_code ec;
    std::filesystem::remove(options.snapshot_path, ec);
    if (ec) {
      return Status::Corruption("cannot discard stale snapshot '" +
                                options.snapshot_path + "': " + ec.message());
    }
  }
  if (system->wal_ != nullptr) {
    ADEPT_RETURN_IF_ERROR(system->wal_->Truncate());
  }
  return system;
}

Result<std::unique_ptr<AdeptSystem>> AdeptSystem::Recover(
    const AdeptOptions& options) {
  std::unique_ptr<AdeptSystem> system(new AdeptSystem(options));
  system->recovering_ = true;

  uint64_t snapshot_lsn = 0;
  if (!options.snapshot_path.empty() &&
      std::filesystem::exists(options.snapshot_path)) {
    ADEPT_ASSIGN_OR_RETURN(std::string content,
                           ReadFileToString(options.snapshot_path));
    ADEPT_ASSIGN_OR_RETURN(JsonValue json, JsonValue::Parse(content));
    ADEPT_RETURN_IF_ERROR(system->LoadSnapshotJson(json, &snapshot_lsn));
  }

  WalScan scan;
  if (!options.wal_path.empty()) {
    // One parse pass serves both the replay below and the writer open at
    // the end (historically Open() rescanned the file a second time).
    ADEPT_ASSIGN_OR_RETURN(scan, WriteAheadLog::Scan(options.wal_path));
    for (const WalRecord& record : scan.records) {
      // Records at or below the snapshot's covered LSN are already part of
      // the snapshot state; replaying them would double-apply (the window
      // exists when a checkpoint wrote the snapshot but failed to truncate).
      if (record.lsn <= snapshot_lsn) continue;
      Status st = system->ApplyWalRecord(record.value);
      if (!st.ok()) {
        return Status::Corruption("WAL replay failed at record " +
                                  record.value.Dump() + ": " + st.message());
      }
    }
  }

  system->recovering_ = false;
  // One bulk snapshot publication instead of one per replayed record: the
  // lock-free read path serves the recovered state from here on.
  system->PublishAllSnapshots();
  // Seed LSN numbering past the snapshot's coverage: after a checkpoint
  // truncated the log, the file alone would restart at 1 and the *next*
  // recovery would skip the new records as already covered.
  ADEPT_RETURN_IF_ERROR(system->OpenWalIfConfigured(snapshot_lsn, &scan));
  return system;
}

Status AdeptSystem::Log(const JsonValue& record) {
  if (wal_ == nullptr || recovering_) return Status::OK();
  last_enqueued_lsn_ = wal_->Enqueue(record);
  if (options_.defer_wal_sync) return Status::OK();
  return wal_->WaitDurable(last_enqueued_lsn_);
}

Status AdeptSystem::WaitWalDurable(uint64_t lsn) {
  if (wal_ == nullptr || lsn == 0) return Status::OK();
  return wal_->WaitDurable(lsn);
}

// --- Buildtime ---------------------------------------------------------------

Result<SchemaId> AdeptSystem::DeployProcessType(
    std::shared_ptr<const ProcessSchema> schema) {
  JsonValue schema_json =
      schema != nullptr ? SchemaToJson(*schema) : JsonValue();
  ADEPT_ASSIGN_OR_RETURN(SchemaId id, repository_.Deploy(std::move(schema)));
  JsonValue record = JsonValue::MakeObject();
  record.Set("t", JsonValue("deploy"));
  record.Set("id", JsonValue(id.value()));
  record.Set("schema", std::move(schema_json));
  ADEPT_RETURN_IF_ERROR(Log(record));
  return id;
}

Result<SchemaId> AdeptSystem::EvolveProcessType(SchemaId base, Delta delta) {
  // The delta is serialized *after* application so pins are captured.
  ADEPT_ASSIGN_OR_RETURN(SchemaId id,
                         repository_.DeriveVersion(base, std::move(delta)));
  ADEPT_ASSIGN_OR_RETURN(const Delta* stored, repository_.DeltaFor(id));
  JsonValue record = JsonValue::MakeObject();
  record.Set("t", JsonValue("evolve"));
  record.Set("base", JsonValue(base.value()));
  record.Set("id", JsonValue(id.value()));
  record.Set("delta", stored->ToJson());
  ADEPT_RETURN_IF_ERROR(Log(record));
  return id;
}

Result<SchemaId> AdeptSystem::LatestVersion(
    const std::string& type_name) const {
  return repository_.Latest(type_name);
}

Result<std::shared_ptr<const ProcessSchema>> AdeptSystem::Schema(
    SchemaId id) const {
  return repository_.Get(id);
}

// --- Instance lifecycle ------------------------------------------------------

Result<InstanceId> AdeptSystem::CreateInstanceInternal(SchemaId schema_id,
                                                       InstanceId forced_id) {
  ADEPT_ASSIGN_OR_RETURN(std::shared_ptr<const ProcessSchema> schema,
                         repository_.Get(schema_id));
  ProcessInstance* instance = nullptr;
  if (forced_id.valid()) {
    ADEPT_ASSIGN_OR_RETURN(instance,
                           engine_.AdoptInstance(forced_id, schema, schema_id));
  } else {
    ADEPT_ASSIGN_OR_RETURN(instance, engine_.CreateInstance(schema, schema_id));
  }
  Status st = store_.Register(instance->id(), schema_id,
                              options_.default_strategy);
  if (!st.ok()) {
    (void)engine_.Remove(instance->id());
    return st;
  }
  st = instance->Start();
  if (!st.ok()) {
    (void)store_.Unregister(instance->id());
    (void)engine_.Remove(instance->id());
    return st;
  }
  PublishSnapshot(instance->id());
  return instance->id();
}

Result<InstanceId> AdeptSystem::CreateInstance(const std::string& type_name) {
  ADEPT_ASSIGN_OR_RETURN(SchemaId latest, repository_.Latest(type_name));
  return CreateInstanceOn(latest);
}

Result<InstanceId> AdeptSystem::CreateInstanceOn(SchemaId schema) {
  ADEPT_ASSIGN_OR_RETURN(InstanceId id,
                         CreateInstanceInternal(schema, InstanceId::Invalid()));
  JsonValue record = JsonValue::MakeObject();
  record.Set("t", JsonValue("create"));
  record.Set("id", JsonValue(id.value()));
  record.Set("schema", JsonValue(schema.value()));
  ADEPT_RETURN_IF_ERROR(Log(record));
  return id;
}

Result<InstanceId> AdeptSystem::CreateInstanceWithId(SchemaId schema,
                                                     InstanceId forced_id) {
  if (!forced_id.valid()) {
    return Status::InvalidArgument("forced instance id must be valid");
  }
  ADEPT_ASSIGN_OR_RETURN(InstanceId id,
                         CreateInstanceInternal(schema, forced_id));
  JsonValue record = JsonValue::MakeObject();
  record.Set("t", JsonValue("create"));
  record.Set("id", JsonValue(id.value()));
  record.Set("schema", JsonValue(schema.value()));
  ADEPT_RETURN_IF_ERROR(Log(record));
  return id;
}

const ProcessInstance* AdeptSystem::InstanceImpl(InstanceId id) const {
  return engine_.Find(id);
}

std::shared_ptr<const InstanceSnapshot> AdeptSystem::SnapshotOf(
    InstanceId id) const {
  return snapshots_.Get(id);
}

void AdeptSystem::PublishSnapshot(InstanceId id) {
  if (recovering_) return;
  const ProcessInstance* instance = engine_.Find(id);
  if (instance == nullptr) {
    ErasePublishedSnapshot(id);
    return;
  }
  std::shared_ptr<InstanceSnapshot> snapshot = instance->BuildSnapshot();
  // The table swap returns the superseded snapshot: exactly the delta the
  // query indexes need. Publication is serialized per system, so the
  // index trails the table by at most this one call — and the query
  // executor re-validates every candidate against the table anyway.
  std::shared_ptr<const InstanceSnapshot> previous =
      snapshots_.Publish(snapshot);
  if (options_.query_indexes) {
    query_index_.ApplyDelta(previous.get(), snapshot.get());
  }
}

void AdeptSystem::ErasePublishedSnapshot(InstanceId id) {
  std::shared_ptr<const InstanceSnapshot> previous = snapshots_.Erase(id);
  if (options_.query_indexes && previous != nullptr) {
    query_index_.ApplyDelta(previous.get(), nullptr);
  }
  // Snapshot versions restart at 1 if the id is ever re-imported; dropping
  // the cached serialization now keeps the version a valid fingerprint.
  checkpoint_cache_.erase(id.value());
}

void AdeptSystem::PublishAllSnapshots() {
  for (InstanceId id : engine_.InstanceIds()) {
    PublishSnapshot(id);
  }
}

Result<QueryResult> AdeptSystem::Query(const std::string& query) const {
  ADEPT_ASSIGN_OR_RETURN(CompiledQuery compiled,
                         CompiledQuery::Compile(query));
  return RunQuery(compiled, snapshots_,
                  options_.query_indexes ? &query_index_ : nullptr);
}

void AdeptSystem::CollectQueryMatches(const CompiledQuery& query,
                                      QueryResult* result) const {
  RunQueryInto(query, snapshots_,
               options_.query_indexes ? &query_index_ : nullptr, result);
}

namespace {
Result<ProcessInstance*> RequireInstance(Engine& engine, InstanceId id) {
  ProcessInstance* instance = engine.Find(id);
  if (instance == nullptr) return Status::NotFound("no such instance");
  return instance;
}
}  // namespace

Status AdeptSystem::StartActivity(InstanceId id, NodeId node) {
  ADEPT_ASSIGN_OR_RETURN(ProcessInstance * instance,
                         RequireInstance(engine_, id));
  ADEPT_RETURN_IF_ERROR(instance->StartActivity(node));
  PublishSnapshot(id);
  JsonValue record = JsonValue::MakeObject();
  record.Set("t", JsonValue("act"));
  record.Set("ev", JsonValue("start"));
  record.Set("id", JsonValue(id.value()));
  record.Set("node", JsonValue(node.value()));
  return Log(record);
}

Status AdeptSystem::CompleteActivity(
    InstanceId id, NodeId node,
    const std::vector<ProcessInstance::DataWrite>& writes) {
  ADEPT_ASSIGN_OR_RETURN(ProcessInstance * instance,
                         RequireInstance(engine_, id));
  ADEPT_RETURN_IF_ERROR(instance->CompleteActivity(node, writes));
  PublishSnapshot(id);
  JsonValue record = JsonValue::MakeObject();
  record.Set("t", JsonValue("act"));
  record.Set("ev", JsonValue("complete"));
  record.Set("id", JsonValue(id.value()));
  record.Set("node", JsonValue(node.value()));
  record.Set("writes", WritesToJson(writes));
  return Log(record);
}

Status AdeptSystem::FailActivity(InstanceId id, NodeId node,
                                 const std::string& reason) {
  ADEPT_ASSIGN_OR_RETURN(ProcessInstance * instance,
                         RequireInstance(engine_, id));
  ADEPT_RETURN_IF_ERROR(instance->FailActivity(node, reason));
  PublishSnapshot(id);
  JsonValue record = JsonValue::MakeObject();
  record.Set("t", JsonValue("act"));
  record.Set("ev", JsonValue("fail"));
  record.Set("id", JsonValue(id.value()));
  record.Set("node", JsonValue(node.value()));
  record.Set("detail", JsonValue(reason));
  return Log(record);
}

Status AdeptSystem::RetryActivity(InstanceId id, NodeId node) {
  ADEPT_ASSIGN_OR_RETURN(ProcessInstance * instance,
                         RequireInstance(engine_, id));
  ADEPT_RETURN_IF_ERROR(instance->RetryActivity(node));
  PublishSnapshot(id);
  JsonValue record = JsonValue::MakeObject();
  record.Set("t", JsonValue("act"));
  record.Set("ev", JsonValue("retry"));
  record.Set("id", JsonValue(id.value()));
  record.Set("node", JsonValue(node.value()));
  return Log(record);
}

Status AdeptSystem::SuspendActivity(InstanceId id, NodeId node) {
  ADEPT_ASSIGN_OR_RETURN(ProcessInstance * instance,
                         RequireInstance(engine_, id));
  ADEPT_RETURN_IF_ERROR(instance->SuspendActivity(node));
  PublishSnapshot(id);
  JsonValue record = JsonValue::MakeObject();
  record.Set("t", JsonValue("act"));
  record.Set("ev", JsonValue("suspend"));
  record.Set("id", JsonValue(id.value()));
  record.Set("node", JsonValue(node.value()));
  return Log(record);
}

Status AdeptSystem::ResumeActivity(InstanceId id, NodeId node) {
  ADEPT_ASSIGN_OR_RETURN(ProcessInstance * instance,
                         RequireInstance(engine_, id));
  ADEPT_RETURN_IF_ERROR(instance->ResumeActivity(node));
  PublishSnapshot(id);
  JsonValue record = JsonValue::MakeObject();
  record.Set("t", JsonValue("act"));
  record.Set("ev", JsonValue("resume"));
  record.Set("id", JsonValue(id.value()));
  record.Set("node", JsonValue(node.value()));
  return Log(record);
}

Status AdeptSystem::SelectBranch(InstanceId id, NodeId split,
                                 int branch_value) {
  ADEPT_ASSIGN_OR_RETURN(ProcessInstance * instance,
                         RequireInstance(engine_, id));
  ADEPT_RETURN_IF_ERROR(instance->SelectBranch(split, branch_value));
  PublishSnapshot(id);
  JsonValue record = JsonValue::MakeObject();
  record.Set("t", JsonValue("branch"));
  record.Set("id", JsonValue(id.value()));
  record.Set("node", JsonValue(split.value()));
  record.Set("code", JsonValue(branch_value));
  return Log(record);
}

Status AdeptSystem::SetLoopDecision(InstanceId id, NodeId loop_end,
                                    bool iterate) {
  ADEPT_ASSIGN_OR_RETURN(ProcessInstance * instance,
                         RequireInstance(engine_, id));
  ADEPT_RETURN_IF_ERROR(instance->SetLoopDecision(loop_end, iterate));
  PublishSnapshot(id);
  JsonValue record = JsonValue::MakeObject();
  record.Set("t", JsonValue("loopdec"));
  record.Set("id", JsonValue(id.value()));
  record.Set("node", JsonValue(loop_end.value()));
  record.Set("iterate", JsonValue(iterate));
  return Log(record);
}

Result<bool> AdeptSystem::DriveStep(InstanceId id, SimulationDriver& driver) {
  ADEPT_ASSIGN_OR_RETURN(ProcessInstance * instance,
                         RequireInstance(engine_, id));
  SimulationDriver::PlannedStep step = driver.PlanStep(*instance);
  if (!step.node.valid()) return false;
  ADEPT_RETURN_IF_ERROR(StartActivity(id, step.node));
  ADEPT_RETURN_IF_ERROR(CompleteActivity(id, step.node, step.writes));
  return true;
}

Status AdeptSystem::DriveToCompletion(InstanceId id, SimulationDriver& driver,
                                      int max_steps) {
  for (int i = 0; i < max_steps; ++i) {
    const ProcessInstance* instance = engine_.Find(id);
    if (instance == nullptr) return Status::NotFound("no such instance");
    if (instance->Finished()) return Status::OK();
    ADEPT_ASSIGN_OR_RETURN(bool progressed, DriveStep(id, driver));
    if (!progressed) {
      return instance->Finished()
                 ? Status::OK()
                 : Status::FailedPrecondition("instance blocked");
    }
  }
  return Status::Internal("step budget exceeded");
}

// --- Dynamic change ----------------------------------------------------------

Status AdeptSystem::ApplyAdHocChange(InstanceId id, Delta delta) {
  ADEPT_ASSIGN_OR_RETURN(ProcessInstance * instance,
                         RequireInstance(engine_, id));
  // The op count before this change marks where the newly pinned tail of
  // the cumulative bias starts — exactly the delta worth logging.
  size_t prior_ops = 0;
  if (auto prior = store_.Get(id); prior.ok()) {
    prior_ops = (*prior)->bias.size();
  }
  ADEPT_RETURN_IF_ERROR(
      adept::ApplyAdHocChange(*instance, store_, std::move(delta)));
  PublishSnapshot(id);
  // Serialize only the *applied* (pinned) ops this change appended — a
  // delta record against the bias the replayed prefix already rebuilt.
  // (Historically the full cumulative bias was logged; replay still
  // accepts those records, see ApplyWalRecord.)
  ADEPT_ASSIGN_OR_RETURN(const InstanceStore::Record* record, store_.Get(id));
  JsonValue ops = JsonValue::MakeArray();
  const auto& bias_ops = record->bias.ops();
  for (size_t i = prior_ops; i < bias_ops.size(); ++i) {
    ops.Append(bias_ops[i]->ToJson());
  }
  JsonValue tail = JsonValue::MakeObject();
  tail.Set("ops", std::move(ops));
  JsonValue wal_record = JsonValue::MakeObject();
  wal_record.Set("t", JsonValue("adhoc"));
  wal_record.Set("id", JsonValue(id.value()));
  wal_record.Set("delta", std::move(tail));
  return Log(wal_record);
}

WorklistService& AdeptSystem::worklist() {
  if (worklist_ == nullptr) {
    // Without a journal, Create cannot fail.
    worklist_ = WorklistService::Create(&org_, this).value();
    worklist_->Resync(EngineInstances());
    fanout_.Add(worklist_.get());
  }
  return *worklist_;
}

WorklistService::InstanceEnumerator AdeptSystem::EngineInstances() const {
  return [this](const WorklistService::InstanceVisitor& visit) {
    for (InstanceId id : engine_.InstanceIds()) visit(*engine_.Find(id));
  };
}

Result<MigrationReport> AdeptSystem::Migrate(SchemaId from, SchemaId to,
                                             const MigrationOptions& options) {
  ADEPT_ASSIGN_OR_RETURN(MigrationReport report,
                         migration_manager_.MigrateAll(from, to, options));
  if (!options.dry_run) {
    // Bias-cancellation migrations rewrite instance markings wholesale
    // (no per-node events), which can strand work items referencing
    // remapped node ids; reconcile before anyone claims a stale item.
    if (worklist_ != nullptr) worklist_->Resync(EngineInstances());
    // Migration mutates instances below the facade's per-call hooks;
    // republish the touched instances so the read path sees the new
    // schema refs and remapped markings.
    for (const auto& result : report.results) {
      PublishSnapshot(result.id);
    }
    JsonValue record = JsonValue::MakeObject();
    record.Set("t", JsonValue("migrate"));
    record.Set("from", JsonValue(from.value()));
    record.Set("to", JsonValue(to.value()));
    record.Set("use_replay", JsonValue(options.use_replay_checker));
    ADEPT_RETURN_IF_ERROR(Log(record));
  }
  return report;
}

Result<MigrationReport> AdeptSystem::MigrateToLatest(
    const std::string& type_name, const MigrationOptions& options) {
  std::vector<SchemaId> versions = repository_.VersionsOf(type_name);
  if (versions.size() < 2) {
    return Status::FailedPrecondition("type has no newer version");
  }
  MigrationReport merged;
  for (size_t i = 1; i < versions.size(); ++i) {
    ADEPT_ASSIGN_OR_RETURN(MigrationReport step,
                           Migrate(versions[i - 1], versions[i], options));
    if (i == 1) {
      merged = std::move(step);
    } else {
      merged.to = step.to;
      merged.to_version = step.to_version;
      for (auto& r : step.results) merged.results.push_back(std::move(r));
    }
  }
  return merged;
}

// --- Durability --------------------------------------------------------------

Result<JsonValue> AdeptSystem::InstanceToJson(InstanceId id) const {
  const ProcessInstance* instance = engine_.Find(id);
  if (instance == nullptr) return Status::NotFound("no such instance");
  ADEPT_ASSIGN_OR_RETURN(const InstanceStore::Record* record, store_.Get(id));
  ++full_state_serializations_;
  JsonValue ij = JsonValue::MakeObject();
  ij.Set("id", JsonValue(id.value()));
  ij.Set("base", JsonValue(record->base_schema.value()));
  ij.Set("strategy", JsonValue(static_cast<int>(record->strategy)));
  if (record->biased()) ij.Set("bias", record->bias.ToJson());
  ij.Set("state", InstanceStateToJson(*instance));
  return ij;
}

Status AdeptSystem::AdoptInstanceFromJson(const JsonValue& ij) {
  InstanceId id(static_cast<uint64_t>(ij.Get("id").as_int()));
  SchemaId base(static_cast<uint64_t>(ij.Get("base").as_int()));
  auto strategy = static_cast<StorageStrategy>(ij.Get("strategy").as_int());
  ADEPT_RETURN_IF_ERROR(store_.Register(id, base, strategy));
  bool biased = ij.Has("bias");
  if (biased) {
    ADEPT_ASSIGN_OR_RETURN(Delta bias, Delta::FromJson(ij.Get("bias")));
    ADEPT_RETURN_IF_ERROR(store_.AddBias(id, std::move(bias)).status());
  }
  ADEPT_ASSIGN_OR_RETURN(std::shared_ptr<const SchemaView> view,
                         store_.ExecutionSchema(id));
  auto adopted = engine_.AdoptInstance(id, view, base);
  if (!adopted.ok()) {
    (void)store_.Unregister(id);
    return adopted.status();
  }
  (*adopted)->set_biased(biased);
  ADEPT_RETURN_IF_ERROR(RestoreInstanceState(**adopted, ij.Get("state")));
  // Live imports (cross-shard handover) must be readable immediately;
  // during recovery PublishSnapshot is a no-op and Recover() bulk-
  // publishes at the end.
  PublishSnapshot(id);
  return Status::OK();
}

JsonValue AdeptSystem::SnapshotToJson(uint64_t wal_lsn) const {
  JsonValue j = JsonValue::MakeObject();
  j.Set("format", JsonValue(1));
  // Every WAL record with an LSN <= wal_lsn is folded into this snapshot;
  // recovery must not replay them again.
  j.Set("wal_lsn", JsonValue(wal_lsn));
  j.Set("repo", repository_.ToJson());
  JsonValue instances = JsonValue::MakeArray();
  // Unchanged instances reuse the serialization the previous checkpoint
  // produced: the published snapshot version is the change fingerprint
  // (every facade mutation republishes before logging), so a long-running
  // system full of idle instances checkpoints in O(changed), not O(all).
  std::unordered_map<uint64_t, CachedInstanceJson> next_cache;
  for (InstanceId id : store_.Ids()) {
    std::shared_ptr<const InstanceSnapshot> published = snapshots_.Get(id);
    if (published != nullptr) {
      auto cached = checkpoint_cache_.find(id.value());
      if (cached != checkpoint_cache_.end() &&
          cached->second.version == published->version) {
        instances.Append(JsonValue(cached->second.json));
        next_cache.emplace(id.value(), std::move(cached->second));
        continue;
      }
    }
    auto ij = InstanceToJson(id);
    if (!ij.ok()) continue;
    if (published != nullptr) {
      next_cache.emplace(id.value(),
                         CachedInstanceJson{published->version, *ij});
    }
    instances.Append(std::move(*ij));
  }
  // Swapping (not merging) also drops entries of evicted instances.
  checkpoint_cache_ = std::move(next_cache);
  j.Set("instances", std::move(instances));
  return j;
}

Status AdeptSystem::LoadSnapshotJson(const JsonValue& json,
                                     uint64_t* wal_lsn) {
  if (json.Get("format").as_int() != 1) {
    return Status::Corruption("unsupported snapshot format");
  }
  // Pre-LSN snapshots carry no "wal_lsn"; Get() then yields null/0, which
  // reproduces the old replay-everything behavior.
  *wal_lsn = static_cast<uint64_t>(json.Get("wal_lsn").as_int());
  ADEPT_RETURN_IF_ERROR(repository_.LoadFromJson(json.Get("repo")));
  for (const JsonValue& ij : json.Get("instances").as_array()) {
    ADEPT_RETURN_IF_ERROR(AdoptInstanceFromJson(ij));
  }
  return Status::OK();
}

// --- Cross-shard instance migration ------------------------------------------

Result<JsonValue> AdeptSystem::ExportInstance(InstanceId id) const {
  return InstanceToJson(id);
}

Status AdeptSystem::ImportInstance(const JsonValue& exported) {
  ADEPT_RETURN_IF_ERROR(AdoptInstanceFromJson(exported));
  JsonValue record = JsonValue::MakeObject();
  record.Set("t", JsonValue("import"));
  record.Set("inst", exported);
  return Log(record);
}

Status AdeptSystem::EvictInstance(InstanceId id) {
  ADEPT_RETURN_IF_ERROR(engine_.Remove(id));
  (void)store_.Unregister(id);
  // The cluster's epoch-checked read path retries a miss while a resize
  // is in flight, so erasing here never turns a live instance invisible:
  // by the time the routing epoch stabilizes, the import side's snapshot
  // (and its index entries) is published.
  ErasePublishedSnapshot(id);
  JsonValue record = JsonValue::MakeObject();
  record.Set("t", JsonValue("evict"));
  record.Set("id", JsonValue(id.value()));
  return Log(record);
}

Status AdeptSystem::ReplicateSchemas(const JsonValue& repo_json) {
  ADEPT_RETURN_IF_ERROR(repository_.LoadFromJson(repo_json));
  JsonValue record = JsonValue::MakeObject();
  record.Set("t", JsonValue("repo"));
  record.Set("repo", repo_json);
  return Log(record);
}

Status AdeptSystem::SaveSnapshot() {
  if (options_.snapshot_path.empty()) {
    return Status::FailedPrecondition("no snapshot path configured");
  }
  // The snapshot is built from in-memory state, which already reflects
  // every enqueued record, so it covers everything up to this LSN — even
  // records the writer thread has not flushed yet.
  const uint64_t cover = wal_ != nullptr ? wal_->last_enqueued_lsn() : 0;
  ADEPT_RETURN_IF_ERROR(
      WriteFileAtomic(options_.snapshot_path, SnapshotToJson(cover).Dump()));
  if (wal_ != nullptr) {
    // If this truncation fails, the stale records stay in the log but carry
    // LSNs <= cover, so recovery skips them: no double-apply.
    ADEPT_RETURN_IF_ERROR(wal_->Truncate());
  }
  return Status::OK();
}

// --- WAL replay --------------------------------------------------------------

Status AdeptSystem::ApplyWalRecord(const JsonValue& record) {
  const std::string& type = record.Get("t").as_string();
  if (type == "deploy") {
    ADEPT_ASSIGN_OR_RETURN(std::shared_ptr<ProcessSchema> schema,
                           SchemaFromJson(record.Get("schema")));
    ADEPT_ASSIGN_OR_RETURN(SchemaId id, repository_.Deploy(std::move(schema)));
    if (id.value() != static_cast<uint64_t>(record.Get("id").as_int())) {
      return Status::Corruption("schema id diverged during replay");
    }
    return Status::OK();
  }
  if (type == "evolve") {
    ADEPT_ASSIGN_OR_RETURN(Delta delta, Delta::FromJson(record.Get("delta")));
    ADEPT_ASSIGN_OR_RETURN(
        SchemaId id,
        repository_.DeriveVersion(
            SchemaId(static_cast<uint64_t>(record.Get("base").as_int())),
            std::move(delta)));
    if (id.value() != static_cast<uint64_t>(record.Get("id").as_int())) {
      return Status::Corruption("schema id diverged during replay");
    }
    return Status::OK();
  }
  if (type == "create") {
    return CreateInstanceInternal(
               SchemaId(static_cast<uint64_t>(record.Get("schema").as_int())),
               InstanceId(static_cast<uint64_t>(record.Get("id").as_int())))
        .status();
  }
  if (type == "repo") {
    return repository_.LoadFromJson(record.Get("repo"));
  }
  if (type == "import") {
    return AdoptInstanceFromJson(record.Get("inst"));
  }
  if (type == "evict") {
    // Tolerate an already-absent instance: an evict whose import side was
    // checkpointed away replays against a shard that never re-created it.
    InstanceId evicted(static_cast<uint64_t>(record.Get("id").as_int()));
    if (engine_.Find(evicted) == nullptr) return Status::OK();
    (void)store_.Unregister(evicted);
    return engine_.Remove(evicted);
  }
  InstanceId id(static_cast<uint64_t>(record.Get("id").as_int()));
  NodeId node(static_cast<uint32_t>(record.Get("node").as_int()));
  if (type == "act") {
    const std::string& ev = record.Get("ev").as_string();
    if (ev == "start") return StartActivity(id, node);
    if (ev == "complete") {
      ADEPT_ASSIGN_OR_RETURN(std::vector<ProcessInstance::DataWrite> writes,
                             WritesFromJson(record.Get("writes")));
      return CompleteActivity(id, node, writes);
    }
    if (ev == "fail") {
      return FailActivity(id, node, record.Get("detail").as_string());
    }
    if (ev == "retry") return RetryActivity(id, node);
    if (ev == "suspend") return SuspendActivity(id, node);
    if (ev == "resume") return ResumeActivity(id, node);
    return Status::Corruption("unknown activity event: " + ev);
  }
  if (type == "branch") {
    return SelectBranch(id, node,
                        static_cast<int>(record.Get("code").as_int()));
  }
  if (type == "loopdec") {
    return SetLoopDecision(id, node, record.Get("iterate").as_bool());
  }
  if (type == "adhoc") {
    ProcessInstance* instance = engine_.Find(id);
    if (instance == nullptr) return Status::NotFound("no such instance");
    if (record.Has("delta")) {
      // Delta record: the ops this change appended, applied on top of the
      // bias the replayed prefix already rebuilt — same pinning order as
      // the original execution.
      ADEPT_ASSIGN_OR_RETURN(Delta ops, Delta::FromJson(record.Get("delta")));
      return adept::ApplyAdHocChange(*instance, store_, std::move(ops));
    }
    // Legacy full-state record: the logged bias is cumulative. When the
    // record's prefix matches the bias the replayed prefix already
    // rebuilt (the common case: each record repeats the previous ops and
    // appends one change), apply only the tail — reconstructing the
    // original incremental application exactly, trace details included.
    ADEPT_ASSIGN_OR_RETURN(Delta bias, Delta::FromJson(record.Get("bias")));
    auto rec = store_.Get(id);
    const size_t have =
        rec.ok() && (*rec)->biased() ? (*rec)->bias.size() : 0;
    bool prefix_matches = have <= bias.size();
    for (size_t i = 0; prefix_matches && i < have; ++i) {
      prefix_matches = (*rec)->bias.ops()[i]->ToJson().Dump() ==
                       bias.ops()[i]->ToJson().Dump();
    }
    if (prefix_matches && have > 0) {
      Delta tail;
      for (size_t i = have; i < bias.size(); ++i) {
        tail.Add(bias.ops()[i]->Clone());
      }
      if (tail.empty()) return Status::OK();  // record fully rebuilt already
      return adept::ApplyAdHocChange(*instance, store_, std::move(tail));
    }
    // Divergent prefix (a hand-edited or partially-compacted log):
    // rebuild the record's bias from scratch by clearing first.
    if (have > 0) {
      ADEPT_RETURN_IF_ERROR(
          store_.ClearBias(id, (*rec)->base_schema).status());
      instance->set_biased(false);
    }
    return adept::ApplyAdHocChange(*instance, store_, std::move(bias));
  }
  if (type == "migrate") {
    MigrationOptions options;
    options.use_replay_checker = record.Get("use_replay").as_bool();
    return migration_manager_
        .MigrateAll(
            SchemaId(static_cast<uint64_t>(record.Get("from").as_int())),
            SchemaId(static_cast<uint64_t>(record.Get("to").as_int())),
            options)
        .status();
  }
  return Status::Corruption("unknown WAL record type: " + type);
}

}  // namespace adept
