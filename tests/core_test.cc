#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "change/change_op.h"
#include "core/adept.h"
#include "monitor/monitor.h"
#include "storage/wal.h"
#include "tests/test_fixtures.h"

namespace adept {
namespace {

using testing_fixtures::OnlineOrderV1;
using testing_fixtures::SequenceSchema;

class TempDir {
 public:
  TempDir() {
    path_ = std::filesystem::temp_directory_path() /
            ("adept_core_test_" + std::to_string(counter_++));
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  std::string File(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  static int counter_;
  std::filesystem::path path_;
};

int TempDir::counter_ = 0;

AdeptOptions DurableOptions(const TempDir& dir) {
  AdeptOptions options;
  options.wal_path = dir.File("adept.wal");
  options.snapshot_path = dir.File("adept.snapshot");
  return options;
}

// Fig. 1's Delta-T against the deployed V1 schema.
Delta MakeTypeChange(const ProcessSchema& v1) {
  NodeId compose = v1.FindNodeByName("compose order");
  NodeId confirm = v1.FindNodeByName("confirm order");
  NodeId join = v1.FindNodeByName("and_join");
  Delta probe;
  NewActivitySpec spec;
  spec.name = "send questions";
  auto* op = probe.Add(std::make_unique<SerialInsertOp>(spec, compose, join));
  EXPECT_TRUE(probe.ApplyToSchema(v1).ok());
  Delta delta;
  delta.Add(op->Clone());
  delta.Add(std::make_unique<InsertSyncEdgeOp>(
      static_cast<SerialInsertOp*>(op)->inserted_node(), confirm));
  return delta;
}

TEST(AdeptSystemTest, EndToEndLifecycle) {
  auto system = AdeptSystem::Create();
  ASSERT_TRUE(system.ok());
  AdeptSystem& adept = **system;

  auto v1_id = adept.DeployProcessType(OnlineOrderV1());
  ASSERT_TRUE(v1_id.ok()) << v1_id.status();
  EXPECT_EQ(*adept.LatestVersion("online_order"), *v1_id);

  auto instance = adept.CreateInstance("online_order");
  ASSERT_TRUE(instance.ok());
  auto created = adept.SnapshotOf(*instance);
  ASSERT_NE(created, nullptr);
  EXPECT_FALSE(created->finished);

  SimulationDriver driver({.seed = 3});
  ASSERT_TRUE(adept.DriveToCompletion(*instance, driver).ok());
  EXPECT_TRUE(adept.SnapshotOf(*instance)->finished);
}

// Regression for the warning-discarding bug: Deploy used to run the
// verifier through VerifySchemaOrError, which throws away kNaming /
// kLostUpdate / kDataRace warnings. The full report must be retrievable
// for type versions and for biased instances.
TEST(AdeptSystemTest, VerificationWarningsAreRetained) {
  auto system = AdeptSystem::Create();
  ASSERT_TRUE(system.ok());
  AdeptSystem& adept = **system;

  // A correct-but-warned schema: duplicate activity names.
  SchemaBuilder b("warned", 1);
  b.Activity("step");
  b.Activity("step");
  auto schema = b.Build();
  ASSERT_TRUE(schema.ok());
  auto v1_id = adept.DeployProcessType(*schema);
  ASSERT_TRUE(v1_id.ok()) << v1_id.status();

  auto report = adept.SchemaReport(*v1_id);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE((*report)->ok());
  ASSERT_EQ((*report)->warning_count(), 1u);
  EXPECT_EQ((*report)->issues()[0].rule, VerifyRule::kNaming);

  // Evolving keeps the (still present) warning in the new version's report.
  Delta delta;
  NewActivitySpec spec;
  spec.name = "extra";
  NodeId first = (*schema)->FindNodeByName("step");
  auto succs = (*schema)->Successors(first, EdgeType::kControl);
  ASSERT_FALSE(succs.empty());
  delta.Add(std::make_unique<SerialInsertOp>(spec, first, succs[0]));
  auto v2_id = adept.EvolveProcessType(*v1_id, std::move(delta));
  ASSERT_TRUE(v2_id.ok()) << v2_id.status();
  auto v2_report = adept.SchemaReport(*v2_id);
  ASSERT_TRUE(v2_report.ok());
  EXPECT_EQ((*v2_report)->warning_count(), 1u);

  // An ad-hoc change that introduces a race: warnings must be retrievable
  // on the biased instance (previously silently dropped).
  auto inst = adept.CreateInstanceOn(*v1_id);
  ASSERT_TRUE(inst.ok());
  EXPECT_FALSE(adept.InstanceReport(*inst).ok());  // unbiased: no report

  Delta bias;
  NewActivitySpec extra;
  extra.name = "biased step";
  auto succs2 = (*schema)->Successors(first, EdgeType::kControl);
  bias.Add(std::make_unique<SerialInsertOp>(extra, first, succs2[0]));
  ASSERT_TRUE(adept.ApplyAdHocChange(*inst, std::move(bias)).ok());
  auto inst_report = adept.InstanceReport(*inst);
  ASSERT_TRUE(inst_report.ok());
  EXPECT_TRUE((*inst_report)->ok());
  EXPECT_EQ((*inst_report)->warning_count(), 1u);  // duplicate names persist
}

TEST(AdeptSystemTest, UnknownEntitiesRejected) {
  auto system = AdeptSystem::Create();
  ASSERT_TRUE(system.ok());
  AdeptSystem& adept = **system;
  EXPECT_FALSE(adept.CreateInstance("no such type").ok());
  EXPECT_FALSE(adept.StartActivity(InstanceId(99), NodeId(0)).ok());
  EXPECT_FALSE(adept.LatestVersion("nope").ok());
  EXPECT_EQ(adept.SnapshotOf(InstanceId(1)), nullptr);
}

TEST(AdeptSystemTest, EvolveAndMigrateThroughFacade) {
  auto system = AdeptSystem::Create();
  ASSERT_TRUE(system.ok());
  AdeptSystem& adept = **system;

  auto v1 = OnlineOrderV1();
  auto v1_id = adept.DeployProcessType(v1);
  ASSERT_TRUE(v1_id.ok());

  auto i1 = adept.CreateInstance("online_order");
  ASSERT_TRUE(i1.ok());
  NodeId get_order = v1->FindNodeByName("get order");
  ASSERT_TRUE(adept.StartActivity(*i1, get_order).ok());
  ASSERT_TRUE(adept.CompleteActivity(*i1, get_order).ok());

  auto v2_id = adept.EvolveProcessType(*v1_id, MakeTypeChange(*v1));
  ASSERT_TRUE(v2_id.ok()) << v2_id.status();

  auto report = adept.Migrate(*v1_id, *v2_id);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->MigratedTotal(), 1u);
  EXPECT_EQ(adept.SnapshotOf(*i1)->schema->version(), 2);

  std::string rendered = RenderMigrationReport(*report);
  EXPECT_NE(rendered.find("1/1 migrated"), std::string::npos);
}

TEST(AdeptSystemTest, MigrateToLatestCrossesVersions) {
  auto system = AdeptSystem::Create();
  ASSERT_TRUE(system.ok());
  AdeptSystem& adept = **system;

  auto v1 = SequenceSchema(4, "chain");
  auto v1_id = adept.DeployProcessType(v1);
  ASSERT_TRUE(v1_id.ok());
  auto inst = adept.CreateInstance("chain");
  ASSERT_TRUE(inst.ok());

  // V2: insert after a2; V3: insert after a3.
  Delta d2;
  NewActivitySpec s2;
  s2.name = "b1";
  d2.Add(std::make_unique<SerialInsertOp>(s2, v1->FindNodeByName("a2"),
                                          v1->FindNodeByName("a3")));
  auto v2_id = adept.EvolveProcessType(*v1_id, std::move(d2));
  ASSERT_TRUE(v2_id.ok());
  Delta d3;
  NewActivitySpec s3;
  s3.name = "b2";
  d3.Add(std::make_unique<SerialInsertOp>(s3, v1->FindNodeByName("a3"),
                                          v1->FindNodeByName("a4")));
  auto v3_id = adept.EvolveProcessType(*v2_id, std::move(d3));
  ASSERT_TRUE(v3_id.ok());

  auto report = adept.MigrateToLatest("chain");
  ASSERT_TRUE(report.ok()) << report.status();
  auto snapshot = adept.SnapshotOf(*inst);
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->schema->version(), 3);
  EXPECT_TRUE(snapshot->schema->FindNodeByName("b1").valid());
  EXPECT_TRUE(snapshot->schema->FindNodeByName("b2").valid());
}

TEST(AdeptSystemTest, WorklistIntegration) {
  auto system = AdeptSystem::Create();
  ASSERT_TRUE(system.ok());
  AdeptSystem& adept = **system;

  auto clerk = adept.org().AddRole("clerk");
  ASSERT_TRUE(clerk.ok());
  auto alice = adept.org().AddUser("alice");
  ASSERT_TRUE(alice.ok());
  ASSERT_TRUE(adept.org().AssignRole(*alice, *clerk).ok());

  SchemaBuilder b("office", 1);
  b.Activity("file papers", {.role = *clerk});
  auto schema = b.Build();
  ASSERT_TRUE(schema.ok());
  ASSERT_TRUE(adept.DeployProcessType(*schema).ok());
  auto inst = adept.CreateInstance("office");
  ASSERT_TRUE(inst.ok());

  auto offers = adept.worklist().OffersFor(*alice);
  ASSERT_EQ(offers.size(), 1u);
  ASSERT_TRUE(adept.worklist().Claim(offers[0].id, *alice).ok());
  ASSERT_TRUE(adept.StartActivity(*inst, offers[0].node).ok());
  ASSERT_TRUE(adept.CompleteActivity(*inst, offers[0].node).ok());
  EXPECT_TRUE(adept.SnapshotOf(*inst)->finished);
}

TEST(AdeptSystemTest, WalRecoveryRestoresFullState) {
  TempDir dir;
  AdeptOptions options = DurableOptions(dir);

  InstanceId running_id, biased_id;
  std::string running_render, biased_render;
  {
    auto system = AdeptSystem::Create(options);
    ASSERT_TRUE(system.ok());
    AdeptSystem& adept = **system;
    auto v1 = OnlineOrderV1();
    auto v1_id = adept.DeployProcessType(v1);
    ASSERT_TRUE(v1_id.ok());

    auto i1 = adept.CreateInstance("online_order");
    ASSERT_TRUE(i1.ok());
    running_id = *i1;
    NodeId get_order = v1->FindNodeByName("get order");
    ASSERT_TRUE(adept.StartActivity(running_id, get_order).ok());
    ASSERT_TRUE(adept.CompleteActivity(running_id, get_order).ok());

    auto i2 = adept.CreateInstance("online_order");
    ASSERT_TRUE(i2.ok());
    biased_id = *i2;
    Delta bias;
    NewActivitySpec spec;
    spec.name = "verify address";
    bias.Add(std::make_unique<SerialInsertOp>(
        spec, v1->FindNodeByName("get order"),
        v1->FindNodeByName("collect data")));
    ASSERT_TRUE(adept.ApplyAdHocChange(biased_id, std::move(bias)).ok());

    running_render = RenderInstance(*adept.SnapshotOf(running_id));
    biased_render = RenderInstance(*adept.SnapshotOf(biased_id));
  }  // system destroyed ("crash")

  auto recovered = AdeptSystem::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  AdeptSystem& adept = **recovered;

  auto running = adept.SnapshotOf(running_id);
  ASSERT_NE(running, nullptr);
  EXPECT_EQ(RenderInstance(*running), running_render);

  auto biased = adept.SnapshotOf(biased_id);
  ASSERT_NE(biased, nullptr);
  EXPECT_TRUE(biased->biased);
  EXPECT_EQ(RenderInstance(*biased), biased_render);
  EXPECT_TRUE(biased->schema->FindNodeByName("verify address").valid());

  // The recovered system keeps working (and logging).
  SimulationDriver driver({.seed = 4});
  ASSERT_TRUE(adept.DriveToCompletion(running_id, driver).ok());
  ASSERT_TRUE(adept.DriveToCompletion(biased_id, driver).ok());
}

// Regression for the ROADMAP item "recovery scans+parses the WAL twice":
// Recover() performs exactly one parse pass (the replay scan seeds the
// reopened writer via OpenScanned).
TEST(AdeptSystemTest, RecoverParsesWalExactlyOnce) {
  TempDir dir;
  AdeptOptions options = DurableOptions(dir);
  {
    auto system = AdeptSystem::Create(options);
    ASSERT_TRUE(system.ok());
    AdeptSystem& adept = **system;
    auto v1 = OnlineOrderV1();
    ASSERT_TRUE(adept.DeployProcessType(v1).ok());
    auto id = adept.CreateInstance("online_order");
    ASSERT_TRUE(id.ok());
    NodeId get_order = v1->FindNodeByName("get order");
    ASSERT_TRUE(adept.StartActivity(*id, get_order).ok());
    ASSERT_TRUE(adept.CompleteActivity(*id, get_order).ok());
  }

  const uint64_t scans_before = WriteAheadLog::scan_count();
  auto recovered = AdeptSystem::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(WriteAheadLog::scan_count() - scans_before, 1u);

  // The single-scan recovery is complete: state replayed, log appendable.
  ASSERT_NE((*recovered)->SnapshotOf(InstanceId(1)), nullptr);
  SimulationDriver driver({.seed = 11});
  ASSERT_TRUE((*recovered)->DriveToCompletion(InstanceId(1), driver).ok());
}

TEST(AdeptSystemTest, WalRecoveryReplaysMigration) {
  TempDir dir;
  AdeptOptions options = DurableOptions(dir);
  InstanceId inst_id;
  {
    auto system = AdeptSystem::Create(options);
    ASSERT_TRUE(system.ok());
    AdeptSystem& adept = **system;
    auto v1 = OnlineOrderV1();
    auto v1_id = adept.DeployProcessType(v1);
    ASSERT_TRUE(v1_id.ok());
    auto inst = adept.CreateInstance("online_order");
    ASSERT_TRUE(inst.ok());
    inst_id = *inst;
    auto v2_id = adept.EvolveProcessType(*v1_id, MakeTypeChange(*v1));
    ASSERT_TRUE(v2_id.ok());
    auto report = adept.Migrate(*v1_id, *v2_id);
    ASSERT_TRUE(report.ok());
    ASSERT_EQ(report->MigratedTotal(), 1u);
  }
  auto recovered = AdeptSystem::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ((*recovered)->SnapshotOf(inst_id)->schema->version(), 2);
}

TEST(AdeptSystemTest, CrashTruncatedWalRecoversPrefix) {
  TempDir dir;
  AdeptOptions options = DurableOptions(dir);
  {
    auto system = AdeptSystem::Create(options);
    ASSERT_TRUE(system.ok());
    AdeptSystem& adept = **system;
    auto v1 = SequenceSchema(3, "crashy");
    ASSERT_TRUE(adept.DeployProcessType(v1).ok());
    auto inst = adept.CreateInstance("crashy");
    ASSERT_TRUE(inst.ok());
    NodeId a1 = v1->FindNodeByName("a1");
    ASSERT_TRUE(adept.StartActivity(*inst, a1).ok());
    ASSERT_TRUE(adept.CompleteActivity(*inst, a1).ok());
  }
  // Crash injection: chop the tail mid-record.
  auto size = std::filesystem::file_size(options.wal_path);
  std::filesystem::resize_file(options.wal_path, size - 7);

  auto recovered = AdeptSystem::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  auto snapshot = (*recovered)->SnapshotOf(InstanceId(1));
  ASSERT_NE(snapshot, nullptr);
  // The damaged record (a1's completion) is lost; a1 is Running again.
  NodeId a1 = snapshot->schema->FindNodeByName("a1");
  EXPECT_EQ(snapshot->marking.node(a1), NodeState::kRunning);
}

TEST(AdeptSystemTest, SnapshotCheckpointAndTailReplay) {
  TempDir dir;
  AdeptOptions options = DurableOptions(dir);
  InstanceId inst_id;
  {
    auto system = AdeptSystem::Create(options);
    ASSERT_TRUE(system.ok());
    AdeptSystem& adept = **system;
    auto v1 = SequenceSchema(3, "snappy");
    ASSERT_TRUE(adept.DeployProcessType(v1).ok());
    auto inst = adept.CreateInstance("snappy");
    ASSERT_TRUE(inst.ok());
    inst_id = *inst;
    NodeId a1 = v1->FindNodeByName("a1");
    ASSERT_TRUE(adept.StartActivity(inst_id, a1).ok());
    ASSERT_TRUE(adept.CompleteActivity(inst_id, a1).ok());

    // Checkpoint: snapshot + WAL truncation.
    ASSERT_TRUE(adept.SaveSnapshot().ok());
    EXPECT_LT(std::filesystem::file_size(options.wal_path), 10u);

    // Post-snapshot tail.
    NodeId a2 = v1->FindNodeByName("a2");
    ASSERT_TRUE(adept.StartActivity(inst_id, a2).ok());
    ASSERT_TRUE(adept.CompleteActivity(inst_id, a2).ok());
  }
  auto recovered = AdeptSystem::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  auto snapshot = (*recovered)->SnapshotOf(inst_id);
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->marking.node(snapshot->schema->FindNodeByName("a1")),
            NodeState::kCompleted);
  EXPECT_EQ(snapshot->marking.node(snapshot->schema->FindNodeByName("a2")),
            NodeState::kCompleted);
  EXPECT_EQ(snapshot->marking.node(snapshot->schema->FindNodeByName("a3")),
            NodeState::kActivated);
}

// Regression for the checkpoint double-apply window: when the WAL
// truncation after a successful snapshot write is lost (crash, I/O error),
// the stale records survive in the log — but they carry LSNs at or below
// the snapshot's recorded coverage, so recovery must skip them instead of
// replaying deploy/create/complete a second time.
TEST(AdeptSystemTest, StaleWalAfterSnapshotIsNotDoubleApplied) {
  TempDir dir;
  AdeptOptions options = DurableOptions(dir);
  InstanceId inst_id;
  std::string pre_snapshot_wal;
  {
    auto system = AdeptSystem::Create(options);
    ASSERT_TRUE(system.ok());
    AdeptSystem& adept = **system;
    auto v1 = SequenceSchema(3, "chk");
    ASSERT_TRUE(adept.DeployProcessType(v1).ok());
    auto inst = adept.CreateInstance("chk");
    ASSERT_TRUE(inst.ok());
    inst_id = *inst;
    NodeId a1 = v1->FindNodeByName("a1");
    ASSERT_TRUE(adept.StartActivity(inst_id, a1).ok());
    ASSERT_TRUE(adept.CompleteActivity(inst_id, a1).ok());

    {
      std::ifstream in(options.wal_path, std::ios::binary);
      std::stringstream buffer;
      buffer << in.rdbuf();
      pre_snapshot_wal = buffer.str();
    }
    ASSERT_FALSE(pre_snapshot_wal.empty());

    ASSERT_TRUE(adept.SaveSnapshot().ok());
  }
  // Crash injection: undo the truncation, as if it never reached the disk.
  {
    std::ofstream out(options.wal_path, std::ios::binary);
    out << pre_snapshot_wal;
  }

  auto recovered = AdeptSystem::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  auto recovered_snapshot = (*recovered)->SnapshotOf(inst_id);
  ASSERT_NE(recovered_snapshot, nullptr);
  // a1 completed exactly once; without LSN skipping the replayed "deploy"
  // record already fails recovery with kAlreadyExists.
  EXPECT_EQ(recovered_snapshot->marking.node(
                recovered_snapshot->schema->FindNodeByName("a1")),
            NodeState::kCompleted);
  EXPECT_EQ((*recovered)->engine().InstanceIds().size(), 1u);
}

// Regression: after a checkpoint truncates the WAL, the file alone no
// longer remembers how far LSN numbering got. A restarted system must
// resume above the snapshot's covered LSN — otherwise the records of the
// restarted run land at LSN 1.. and the *next* recovery skips them as
// "already covered by the snapshot".
TEST(AdeptSystemTest, LsnNumberingSurvivesCheckpointRestart) {
  TempDir dir;
  AdeptOptions options = DurableOptions(dir);
  InstanceId inst_id;
  NodeId a1;
  {
    auto system = AdeptSystem::Create(options);
    ASSERT_TRUE(system.ok());
    auto v1 = SequenceSchema(3, "restart");
    ASSERT_TRUE((*system)->DeployProcessType(v1).ok());
    auto inst = (*system)->CreateInstance("restart");
    ASSERT_TRUE(inst.ok());
    inst_id = *inst;
    a1 = v1->FindNodeByName("a1");
    ASSERT_TRUE((*system)->SaveSnapshot().ok());  // covers LSN 2, truncates
  }
  {
    // Clean restart: these two ops are the entire WAL of this run.
    auto system = AdeptSystem::Recover(options);
    ASSERT_TRUE(system.ok()) << system.status();
    ASSERT_TRUE((*system)->StartActivity(inst_id, a1).ok());
    ASSERT_TRUE((*system)->CompleteActivity(inst_id, a1).ok());
  }
  auto recovered = AdeptSystem::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  auto snapshot = (*recovered)->SnapshotOf(inst_id);
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->marking.node(a1), NodeState::kCompleted);
}

TEST(AdeptSystemTest, SnapshotPersistsBiasedInstances) {
  TempDir dir;
  AdeptOptions options = DurableOptions(dir);
  InstanceId inst_id;
  {
    auto system = AdeptSystem::Create(options);
    ASSERT_TRUE(system.ok());
    AdeptSystem& adept = **system;
    auto v1 = OnlineOrderV1();
    ASSERT_TRUE(adept.DeployProcessType(v1).ok());
    auto inst = adept.CreateInstance("online_order");
    ASSERT_TRUE(inst.ok());
    inst_id = *inst;
    Delta bias;
    NewActivitySpec spec;
    spec.name = "extra check";
    bias.Add(std::make_unique<SerialInsertOp>(
        spec, v1->FindNodeByName("pack goods"),
        v1->FindNodeByName("deliver goods")));
    ASSERT_TRUE(adept.ApplyAdHocChange(inst_id, std::move(bias)).ok());
    ASSERT_TRUE(adept.SaveSnapshot().ok());
  }
  auto recovered = AdeptSystem::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  auto recovered_snapshot = (*recovered)->SnapshotOf(inst_id);
  ASSERT_NE(recovered_snapshot, nullptr);
  EXPECT_TRUE(recovered_snapshot->biased);
  EXPECT_TRUE(
      recovered_snapshot->schema->FindNodeByName("extra check").valid());
  EXPECT_TRUE((*recovered)->store().IsBiased(inst_id));
}

TEST(AdeptSystemTest, RecoveredSystemIsDeterministicReplica) {
  TempDir dir;
  AdeptOptions options = DurableOptions(dir);
  std::vector<std::string> renders_before;
  {
    auto system = AdeptSystem::Create(options);
    ASSERT_TRUE(system.ok());
    AdeptSystem& adept = **system;
    auto v1 = testing_fixtures::ComplexSchema();
    ASSERT_TRUE(adept.DeployProcessType(v1).ok());
    SimulationDriver driver({.seed = 11});
    for (int i = 0; i < 5; ++i) {
      auto inst = adept.CreateInstance("complex");
      ASSERT_TRUE(inst.ok());
      for (int s = 0; s < i * 2; ++s) {
        auto progressed = adept.DriveStep(*inst, driver);
        ASSERT_TRUE(progressed.ok());
        if (!*progressed) break;
      }
      renders_before.push_back(RenderInstance(*adept.SnapshotOf(*inst)));
    }
  }
  auto recovered = AdeptSystem::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  for (size_t i = 0; i < renders_before.size(); ++i) {
    auto snapshot = (*recovered)->SnapshotOf(InstanceId(i + 1));
    ASSERT_NE(snapshot, nullptr);
    EXPECT_EQ(RenderInstance(*snapshot), renders_before[i])
        << "instance " << i;
  }
}

// Regression for the checkpoint double-serialization bug: SaveSnapshot
// used to re-serialize the full state of every instance on every
// checkpoint, even when nothing changed since the previous one. The
// facade now keys a per-instance serialization cache on the published
// snapshot version (every mutation republishes, so the version is a
// change fingerprint) — unchanged instances must cost zero fresh
// serializations.
TEST(AdeptSystemTest, CheckpointSkipsUnchangedInstances) {
  TempDir dir;
  auto system = AdeptSystem::Create(DurableOptions(dir));
  ASSERT_TRUE(system.ok());
  AdeptSystem& adept = **system;
  auto v1 = SequenceSchema(3, "chk");
  ASSERT_TRUE(adept.DeployProcessType(v1).ok());
  InstanceId insts[3];
  for (InstanceId& id : insts) {
    auto created = adept.CreateInstance("chk");
    ASSERT_TRUE(created.ok());
    id = *created;
  }
  NodeId a1 = v1->FindNodeByName("a1");
  ASSERT_TRUE(adept.StartActivity(insts[0], a1).ok());

  uint64_t before = adept.full_state_serializations();
  ASSERT_TRUE(adept.SaveSnapshot().ok());
  EXPECT_EQ(adept.full_state_serializations() - before, 3u)
      << "first checkpoint serializes every instance";

  before = adept.full_state_serializations();
  ASSERT_TRUE(adept.SaveSnapshot().ok());
  EXPECT_EQ(adept.full_state_serializations() - before, 0u)
      << "checkpoint with no intervening mutation must reuse the cache";

  ASSERT_TRUE(adept.StartActivity(insts[1], a1).ok());
  before = adept.full_state_serializations();
  ASSERT_TRUE(adept.SaveSnapshot().ok());
  EXPECT_EQ(adept.full_state_serializations() - before, 1u)
      << "only the mutated instance pays a fresh serialization";

  // Evict + re-import restarts publication versions at 1 — the cache
  // entry must be purged, not left to alias the old version numbering.
  auto exported = adept.ExportInstance(insts[2]);
  ASSERT_TRUE(exported.ok());
  ASSERT_TRUE(adept.EvictInstance(insts[2]).ok());
  ASSERT_TRUE(adept.ImportInstance(*exported).ok());
  before = adept.full_state_serializations();
  ASSERT_TRUE(adept.SaveSnapshot().ok());
  EXPECT_EQ(adept.full_state_serializations() - before, 1u)
      << "re-imported instance must be re-serialized exactly once";

  // And the cached bytes must be correct: a cold recovery off the final
  // checkpoint sees all three instances with their exact states.
  auto recovered = AdeptSystem::Recover(DurableOptions(dir));
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  for (int i = 0; i < 3; ++i) {
    auto snapshot = (*recovered)->SnapshotOf(insts[i]);
    ASSERT_NE(snapshot, nullptr) << "instance " << i;
    EXPECT_EQ(snapshot->marking.node(a1),
              i < 2 ? NodeState::kRunning : NodeState::kActivated)
        << "instance " << i;
  }
}

void StripKeyRecursively(JsonValue& value, const std::string& key) {
  if (value.is_object()) {
    value.as_object().erase(key);
    for (auto& [k, child] : value.as_object()) StripKeyRecursively(child, key);
  } else if (value.is_array()) {
    for (JsonValue& child : value.as_array()) StripKeyRecursively(child, key);
  }
}

// Compatibility with pre-refactor WALs: ad-hoc records used to log the
// full *cumulative* bias under "bias" (today only the appended ops ship,
// under "delta"), and serialized instance state had no "asince" stamps.
// A WAL rewritten into that old shape must still recover — and for
// instances the asince stamps can be rebuilt for (no import records),
// byte-identically.
TEST(AdeptSystemTest, LegacyFullStateWalRecordsReplay) {
  TempDir dir;
  AdeptOptions options = DurableOptions(dir);
  InstanceId biased_id;
  InstanceId imported_id;
  std::string biased_export;
  {
    auto system = AdeptSystem::Create(options);
    ASSERT_TRUE(system.ok());
    AdeptSystem& adept = **system;
    auto v1 = OnlineOrderV1();
    ASSERT_TRUE(adept.DeployProcessType(v1).ok());

    auto created = adept.CreateInstance("online_order");
    ASSERT_TRUE(created.ok());
    biased_id = *created;
    NodeId get_order = v1->FindNodeByName("get order");
    ASSERT_TRUE(adept.StartActivity(biased_id, get_order).ok());
    ASSERT_TRUE(adept.CompleteActivity(biased_id, get_order).ok());
    // Two separate ad-hoc changes on distinct edges, so the legacy
    // cumulative encoding genuinely differs from both per-change deltas.
    NodeId confirm = v1->FindNodeByName("confirm order");
    auto confirm_succs = v1->Successors(confirm, EdgeType::kControl);
    ASSERT_FALSE(confirm_succs.empty());
    const std::pair<const char*, std::pair<NodeId, NodeId>> changes[] = {
        {"extra check",
         {v1->FindNodeByName("pack goods"),
          v1->FindNodeByName("deliver goods")}},
        {"second check", {confirm, confirm_succs[0]}},
    };
    for (const auto& [name, edge] : changes) {
      Delta bias;
      NewActivitySpec spec;
      spec.name = name;
      bias.Add(
          std::make_unique<SerialInsertOp>(spec, edge.first, edge.second));
      ASSERT_TRUE(adept.ApplyAdHocChange(biased_id, std::move(bias)).ok());
    }

    auto second = adept.CreateInstance("online_order");
    ASSERT_TRUE(second.ok());
    imported_id = *second;
    auto exported = adept.ExportInstance(imported_id);
    ASSERT_TRUE(exported.ok());
    ASSERT_TRUE(adept.EvictInstance(imported_id).ok());
    ASSERT_TRUE(adept.ImportInstance(*exported).ok());

    auto reference = adept.ExportInstance(biased_id);
    ASSERT_TRUE(reference.ok());
    biased_export = reference->Dump();
  }  // destroyed without SaveSnapshot: the WAL alone carries the history

  // Rewrite the modern WAL into the pre-refactor shape.
  auto records = WriteAheadLog::ReadAll(options.wal_path);
  ASSERT_TRUE(records.ok());
  TempDir legacy_dir;
  AdeptOptions legacy_options = DurableOptions(legacy_dir);
  {
    auto legacy_wal = WriteAheadLog::Open(legacy_options.wal_path);
    ASSERT_TRUE(legacy_wal.ok());
    // Per-instance cumulative op arrays, rebuilt record by record.
    std::map<int64_t, JsonValue> cumulative;
    int rewritten = 0;
    for (JsonValue record : *records) {
      if (record.Get("t").as_string() == "adhoc") {
        ASSERT_TRUE(record.Has("delta"));
        const int64_t id = record.Get("id").as_int();
        auto [it, inserted] = cumulative.emplace(id, JsonValue::MakeArray());
        for (const JsonValue& op :
             record.Get("delta").Get("ops").as_array()) {
          it->second.Append(op);
        }
        JsonValue bias = JsonValue::MakeObject();
        bias.Set("ops", it->second);
        JsonValue legacy = JsonValue::MakeObject();
        legacy.Set("t", JsonValue("adhoc"));
        legacy.Set("id", record.Get("id"));
        legacy.Set("bias", std::move(bias));
        record = std::move(legacy);
        ++rewritten;
      }
      StripKeyRecursively(record, "asince");
      ASSERT_TRUE((*legacy_wal)->Append(record).ok());
    }
    ASSERT_EQ(rewritten, 2) << "both ad-hoc records must be rewritten";
  }

  auto recovered = AdeptSystem::Recover(legacy_options);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  // The biased instance never crossed an import, so every stamp is
  // rebuilt by replay: its export must match the modern bytes exactly.
  auto replayed = (*recovered)->ExportInstance(biased_id);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed->Dump(), biased_export);
  // The imported instance lost its stamps with the record: recovery must
  // still land it in the right state, with deterministic default stamps
  // for the in-flight nodes.
  auto snapshot = (*recovered)->SnapshotOf(imported_id);
  ASSERT_NE(snapshot, nullptr);
  EXPECT_FALSE(snapshot->finished);
  size_t stamped = 0;
  snapshot->activated_nodes.ForEach([&](NodeId node) {
    if (snapshot->activated_since.Find(node) != nullptr) ++stamped;
  });
  EXPECT_EQ(stamped, snapshot->activated_nodes.size());
}

}  // namespace
}  // namespace adept
