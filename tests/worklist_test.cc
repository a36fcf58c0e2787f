#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "change/change_op.h"
#include "cluster/adept_cluster.h"
#include "model/schema_builder.h"
#include "worklist/worklist_service.h"

namespace adept {
namespace {

class TempDir {
 public:
  TempDir() {
    path_ = std::filesystem::temp_directory_path() /
            ("adept_worklist_test_" + std::to_string(counter_++));
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

// start -> prepare(clerk) -> execute(packer) -> end
std::shared_ptr<const ProcessSchema> RoleSchema(RoleId clerk, RoleId packer) {
  SchemaBuilder b("wl_proc", 1);
  b.Activity("prepare", {.role = clerk});
  b.Activity("execute", {.role = packer});
  auto schema = b.Build();
  return schema.ok() ? *schema : nullptr;
}

// Cluster + org scaffold shared by the service tests.
class WorklistServiceTest : public ::testing::Test {
 protected:
  // Org population is repeatable (recovery does not persist the org
  // model; re-adding in the same order yields the same ids).
  void PopulateOrg(OrgModel& org) {
    clerk_ = *org.AddRole("clerk");
    packer_ = *org.AddRole("packer");
    alice_ = *org.AddUser("alice");
    bob_ = *org.AddUser("bob");
    carol_ = *org.AddUser("carol");
    ASSERT_TRUE(org.AssignRole(alice_, clerk_).ok());
    ASSERT_TRUE(org.AssignRole(bob_, packer_).ok());
    ASSERT_TRUE(org.AssignRole(carol_, clerk_).ok());
  }

  void Init(OrgModel& org, AdeptApi& api) {
    PopulateOrg(org);
    schema_ = RoleSchema(clerk_, packer_);
    ASSERT_NE(schema_, nullptr);
    auto deployed = api.DeployProcessType(schema_);
    ASSERT_TRUE(deployed.ok());
    v1_id_ = *deployed;
  }
  void Init(AdeptCluster& cluster) { Init(cluster.org(), cluster); }

  RoleId clerk_, packer_;
  UserId alice_, bob_, carol_;
  SchemaId v1_id_;
  std::shared_ptr<const ProcessSchema> schema_;
};

// The cases below hold for every worklist: each runs once on a cluster's
// Worklist() and once on a standalone AdeptSystem's worklist().
class WorklistBackendTest : public WorklistServiceTest,
                            public ::testing::WithParamInterface<bool> {
 protected:
  // Exactly one of the two is set.
  struct Backend {
    std::unique_ptr<AdeptCluster> cluster;
    std::unique_ptr<AdeptSystem> system;

    AdeptApi& api() {
      if (cluster != nullptr) return *cluster;
      return *system;
    }
    OrgModel& org() {
      return cluster != nullptr ? cluster->org() : system->org();
    }
    WorklistService& worklist() {
      return cluster != nullptr ? cluster->Worklist() : system->worklist();
    }
  };

  // Builds `backend_` (a `shards`-shard cluster, or a standalone system)
  // and deploys the role schema on it.
  void InitBackend(bool standalone, int shards) {
    backend_ = Backend{};
    if (standalone) {
      auto system = AdeptSystem::Create();
      ASSERT_TRUE(system.ok());
      backend_.system = std::move(*system);
    } else {
      auto cluster = AdeptCluster::Create({.shards = shards});
      ASSERT_TRUE(cluster.ok());
      backend_.cluster = std::move(*cluster);
    }
    Init(backend_.org(), backend_.api());
  }

  Backend backend_;
};

INSTANTIATE_TEST_SUITE_P(Backends, WorklistBackendTest,
                         ::testing::Values(false, true),
                         [](const auto& info) {
                           return info.param ? "Standalone" : "Cluster";
                         });

TEST_P(WorklistBackendTest, OfferClaimStartCompleteLifecycle) {
  InitBackend(GetParam(), /*shards=*/2);
  WorklistService& worklist = backend_.worklist();

  InstanceId id = *backend_.api().CreateInstance("wl_proc");

  // "prepare" is offered to both clerks, not the packer.
  auto alice_offers = worklist.OffersFor(alice_);
  ASSERT_EQ(alice_offers.size(), 1u);
  EXPECT_EQ(alice_offers[0].node, schema_->FindNodeByName("prepare"));
  EXPECT_EQ(worklist.OffersFor(carol_).size(), 1u);
  EXPECT_TRUE(worklist.OffersFor(bob_).empty());

  // Claim: the offer leaves every clerk's view, lands on alice's list.
  WorkItemId item = alice_offers[0].id;
  ASSERT_TRUE(worklist.Claim(item, alice_).ok());
  EXPECT_TRUE(worklist.OffersFor(alice_).empty());
  EXPECT_TRUE(worklist.OffersFor(carol_).empty());
  auto assigned = worklist.AssignedTo(alice_);
  ASSERT_EQ(assigned.size(), 1u);
  EXPECT_EQ(assigned[0].state, WorkItemState::kClaimed);

  // Start requires the claim; the packer cannot start alice's item.
  EXPECT_EQ(worklist.Start(item, bob_).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(worklist.Start(item, alice_).ok());
  assigned = worklist.AssignedTo(alice_);
  ASSERT_EQ(assigned.size(), 1u);
  EXPECT_EQ(assigned[0].state, WorkItemState::kStarted);

  // Completing routes through the cluster and opens the successor offer.
  ASSERT_TRUE(worklist.Complete(item, alice_).ok());
  EXPECT_TRUE(worklist.AssignedTo(alice_).empty());
  auto bob_offers = worklist.OffersFor(bob_);
  ASSERT_EQ(bob_offers.size(), 1u);
  EXPECT_EQ(bob_offers[0].node, schema_->FindNodeByName("execute"));
  EXPECT_EQ(bob_offers[0].instance, id);

  WorklistStats stats = worklist.Stats();
  EXPECT_EQ(stats.offered, 1u);
  EXPECT_EQ(stats.completed_total, 1u);
}

TEST_P(WorklistBackendTest, ClaimAuthorizationAndUnknownItems) {
  InitBackend(GetParam(), /*shards=*/2);
  WorklistService& worklist = backend_.worklist();
  (void)*backend_.api().CreateInstance("wl_proc");

  auto offers = worklist.OffersFor(alice_);
  ASSERT_EQ(offers.size(), 1u);
  // bob is no clerk.
  EXPECT_EQ(worklist.Claim(offers[0].id, bob_).code(),
            StatusCode::kFailedPrecondition);
  // Unknown item ids are kNotFound.
  EXPECT_EQ(worklist.Claim(WorkItemId(999999), alice_).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(worklist.Get(WorkItemId(999999)).status().code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(worklist.Claim(offers[0].id, alice_).ok());
  // Double claim rejected.
  EXPECT_FALSE(worklist.Claim(offers[0].id, alice_).ok());
}

TEST_F(WorklistServiceTest, ReleaseAndDelegate) {
  auto cluster = AdeptCluster::Create({.shards = 2});
  ASSERT_TRUE(cluster.ok());
  Init(**cluster);
  WorklistService& worklist = (*cluster)->Worklist();
  (void)*(*cluster)->CreateInstance("wl_proc");

  WorkItemId item = worklist.OffersFor(alice_)[0].id;
  ASSERT_TRUE(worklist.Claim(item, alice_).ok());

  // Release returns the item to every clerk's offers.
  ASSERT_TRUE(worklist.Release(item, alice_).ok());
  EXPECT_TRUE(worklist.AssignedTo(alice_).empty());
  ASSERT_EQ(worklist.OffersFor(carol_).size(), 1u);

  // Carol claims and delegates to alice; bob (wrong role) is rejected.
  ASSERT_TRUE(worklist.Claim(item, carol_).ok());
  EXPECT_EQ(worklist.Delegate(item, carol_, bob_).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(worklist.Delegate(item, carol_, alice_).ok());
  EXPECT_TRUE(worklist.AssignedTo(carol_).empty());
  ASSERT_EQ(worklist.AssignedTo(alice_).size(), 1u);
  // Only the current owner can release or start.
  EXPECT_EQ(worklist.Release(item, carol_).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(worklist.Start(item, alice_).ok());
}

// The acceptance-criteria test: under 8 concurrent claimers every item is
// claimed by exactly one user — no lost claims, no double claims.
TEST_F(WorklistServiceTest, EightThreadConcurrentClaimExactlyOnce) {
  auto cluster = AdeptCluster::Create({.shards = 4});
  ASSERT_TRUE(cluster.ok());
  Init(**cluster);
  OrgModel& org = (*cluster)->org();
  WorklistService& worklist = (*cluster)->Worklist();

  constexpr int kUsers = 8;
  constexpr int kItems = 64;
  std::vector<UserId> users;
  for (int u = 0; u < kUsers; ++u) {
    UserId user = *org.AddUser("claimer" + std::to_string(u));
    ASSERT_TRUE(org.AssignRole(user, clerk_).ok());
    users.push_back(user);
  }
  for (int i = 0; i < kItems; ++i) {
    ASSERT_TRUE((*cluster)->CreateInstance("wl_proc").ok());
  }
  auto offers = worklist.OffersFor(users[0]);
  ASSERT_EQ(offers.size(), static_cast<size_t>(kItems));

  std::atomic<int> successes{0};
  std::atomic<int> losers{0};
  std::atomic<int> unexpected{0};
  std::vector<std::thread> threads;
  for (int u = 0; u < kUsers; ++u) {
    threads.emplace_back([&, u] {
      for (const WorkItem& offer : offers) {
        Status st = worklist.Claim(offer.id, users[u]);
        if (st.ok()) {
          successes.fetch_add(1);
        } else if (st.code() == StatusCode::kFailedPrecondition) {
          losers.fetch_add(1);
        } else {
          unexpected.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  // Exactly one winner per item, everyone else lost the compare-and-swap.
  EXPECT_EQ(successes.load(), kItems);
  EXPECT_EQ(losers.load(), kItems * (kUsers - 1));
  EXPECT_EQ(unexpected.load(), 0);

  // The item table agrees: every item claimed, each by a valid user,
  // and the per-user assignment lists partition the items.
  std::set<uint64_t> seen;
  size_t assigned_total = 0;
  for (UserId user : users) {
    for (const WorkItem& item : worklist.AssignedTo(user)) {
      EXPECT_EQ(item.state, WorkItemState::kClaimed);
      EXPECT_EQ(item.claimed_by, user);
      EXPECT_TRUE(seen.insert(item.id.value()).second)
          << "item on two assignment lists";
      ++assigned_total;
    }
  }
  EXPECT_EQ(assigned_total, static_cast<size_t>(kItems));
  EXPECT_TRUE(worklist.OffersFor(users[0]).empty());
}

// The acceptance-criteria test: claimed items survive Recover() with owner
// and state intact.
TEST_F(WorklistServiceTest, ClaimedItemsSurviveRecovery) {
  TempDir dir;
  ClusterOptions options;
  options.shards = 2;
  options.wal_path = dir.File("cluster.wal");
  options.snapshot_path = dir.File("cluster.snapshot");

  InstanceId claimed_instance, started_instance, offered_instance;
  NodeId prepare;
  {
    auto cluster = AdeptCluster::Create(options);
    ASSERT_TRUE(cluster.ok());
    Init(**cluster);
    WorklistService& worklist = (*cluster)->Worklist();
    prepare = schema_->FindNodeByName("prepare");

    claimed_instance = *(*cluster)->CreateInstance("wl_proc");
    started_instance = *(*cluster)->CreateInstance("wl_proc");
    offered_instance = *(*cluster)->CreateInstance("wl_proc");

    std::map<uint64_t, WorkItemId> by_instance;
    for (const WorkItem& offer : worklist.OffersFor(alice_)) {
      by_instance[offer.instance.value()] = offer.id;
    }
    ASSERT_EQ(by_instance.size(), 3u);
    ASSERT_TRUE(
        worklist.Claim(by_instance[claimed_instance.value()], alice_).ok());
    ASSERT_TRUE(
        worklist.Claim(by_instance[started_instance.value()], carol_).ok());
    ASSERT_TRUE(
        worklist.Start(by_instance[started_instance.value()], carol_).ok());
  }  // cluster destroyed ("crash")

  auto recovered = AdeptCluster::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  // The org model is not durable; repopulate in the same order (same ids).
  PopulateOrg((*recovered)->org());
  WorklistService& worklist = (*recovered)->Worklist();

  auto alice_assigned = worklist.AssignedTo(alice_);
  ASSERT_EQ(alice_assigned.size(), 1u);
  EXPECT_EQ(alice_assigned[0].instance, claimed_instance);
  EXPECT_EQ(alice_assigned[0].node, prepare);
  EXPECT_EQ(alice_assigned[0].state, WorkItemState::kClaimed);
  EXPECT_EQ(alice_assigned[0].claimed_by, alice_);

  auto carol_assigned = worklist.AssignedTo(carol_);
  ASSERT_EQ(carol_assigned.size(), 1u);
  EXPECT_EQ(carol_assigned[0].instance, started_instance);
  EXPECT_EQ(carol_assigned[0].state, WorkItemState::kStarted);
  EXPECT_EQ(carol_assigned[0].claimed_by, carol_);

  // The unclaimed offer is re-derived from instance state; the claimed
  // ones stay off the offer lists.
  auto offers = worklist.OffersFor(alice_);
  ASSERT_EQ(offers.size(), 1u);
  EXPECT_EQ(offers[0].instance, offered_instance);

  // The recovered lifecycle keeps working end to end.
  ASSERT_TRUE(worklist.Start(alice_assigned[0].id, alice_).ok());
  ASSERT_TRUE(worklist.Complete(alice_assigned[0].id, alice_).ok());
  ASSERT_TRUE(worklist.Complete(carol_assigned[0].id, carol_).ok());
  ASSERT_EQ(worklist.OffersFor(bob_).size(), 2u);
}

TEST_F(WorklistServiceTest, ReleasedThenReclaimedSurvivesRecovery) {
  TempDir dir;
  ClusterOptions options;
  options.shards = 2;
  options.wal_path = dir.File("cluster.wal");
  options.snapshot_path = dir.File("cluster.snapshot");
  {
    auto cluster = AdeptCluster::Create(options);
    ASSERT_TRUE(cluster.ok());
    Init(**cluster);
    WorklistService& worklist = (*cluster)->Worklist();
    (void)*(*cluster)->CreateInstance("wl_proc");
    WorkItemId item = worklist.OffersFor(alice_)[0].id;
    ASSERT_TRUE(worklist.Claim(item, alice_).ok());
    ASSERT_TRUE(worklist.Release(item, alice_).ok());
    ASSERT_TRUE(worklist.Claim(item, carol_).ok());
  }
  auto recovered = AdeptCluster::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  PopulateOrg((*recovered)->org());
  WorklistService& worklist = (*recovered)->Worklist();
  // The journal replays claim -> release -> claim: carol owns the item.
  EXPECT_TRUE(worklist.AssignedTo(alice_).empty());
  auto assigned = worklist.AssignedTo(carol_);
  ASSERT_EQ(assigned.size(), 1u);
  EXPECT_EQ(assigned[0].state, WorkItemState::kClaimed);
}

// Crash window: a claim is made durable, its activity completes and the
// loop re-activates the node, but the async start/close journal records
// are lost in the crash. The journal's last durable record is the old
// claim — replay must NOT attach it to the fresh iteration's offer (the
// activation epoch recorded in the claim catches the mismatch).
TEST_F(WorklistServiceTest, LostCloseRecordCannotResurrectStaleClaim) {
  TempDir dir;
  ClusterOptions options;
  options.shards = 1;
  options.wal_path = dir.File("cluster.wal");
  options.snapshot_path = dir.File("cluster.snapshot");

  DataId again;
  {
    auto cluster = AdeptCluster::Create(options);
    ASSERT_TRUE(cluster.ok());
    PopulateOrg((*cluster)->org());
    SchemaBuilder b("loop_proc", 1);
    again = b.Data("again", DataType::kBool);
    b.Loop(again, [&](SchemaBuilder& s) {
      NodeId work = s.Activity("work", {.role = clerk_});
      s.Writes(work, again);
    });
    auto schema = b.Build();
    ASSERT_TRUE(schema.ok());
    ASSERT_TRUE((*cluster)->DeployProcessType(*schema).ok());
    ASSERT_TRUE((*cluster)->CreateInstance("loop_proc").ok());

    WorklistService& worklist = (*cluster)->Worklist();
    auto offers = worklist.OffersFor(alice_);
    ASSERT_EQ(offers.size(), 1u);
    ASSERT_TRUE(worklist.Claim(offers[0].id, alice_).ok());
    ASSERT_TRUE(worklist.Start(offers[0].id, alice_).ok());
    // Iterate: "work" completes and is re-activated (fresh offer).
    ASSERT_TRUE(worklist
                    .Complete(offers[0].id, alice_,
                              {{again, DataValue::Bool(true)}})
                    .ok());
    ASSERT_EQ(worklist.OffersFor(carol_).size(), 1u);
  }  // clean shutdown drains the journal: claim, start, close, ...

  // Crash injection: chop the journal back to its first frame (the
  // durable claim) — the async start/close tail never hit the disk.
  std::string journal = options.wal_path + ".worklist";
  {
    std::ifstream in(journal, std::ios::binary);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    auto first_frame_end = content.find('\n');
    ASSERT_NE(first_frame_end, std::string::npos);
    std::filesystem::resize_file(journal, first_frame_end + 1);
  }

  auto recovered = AdeptCluster::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  PopulateOrg((*recovered)->org());
  WorklistService& worklist = (*recovered)->Worklist();

  // The stale claim (epoch 0) must not own iteration 2's offer (epoch 1):
  // alice holds nothing and any clerk can claim the fresh offer.
  EXPECT_TRUE(worklist.AssignedTo(alice_).empty());
  auto offers = worklist.OffersFor(carol_);
  ASSERT_EQ(offers.size(), 1u);
  EXPECT_TRUE(worklist.Claim(offers[0].id, carol_).ok());
}

// Revocation storm: a bulk cross-shard migration demotes the offered/
// claimed activity on every instance; each item is retracted exactly once
// and stale claim tickets fail kNotFound.
TEST_P(WorklistBackendTest, BulkMigrationRetractsOfferedAndClaimedOnce) {
  InitBackend(GetParam(), /*shards=*/4);
  AdeptApi& api = backend_.api();
  WorklistService& worklist = backend_.worklist();

  constexpr int kInstances = 12;
  NodeId prepare = schema_->FindNodeByName("prepare");
  std::vector<InstanceId> instances;
  for (int i = 0; i < kInstances; ++i) {
    InstanceId id = *api.CreateInstance("wl_proc");
    instances.push_back(id);
    // Complete "prepare" so "execute" (packer) is the offered activity.
    ASSERT_TRUE(api.StartActivity(id, prepare).ok());
    ASSERT_TRUE(api.CompleteActivity(id, prepare).ok());
  }
  auto offers = worklist.OffersFor(bob_);
  ASSERT_EQ(offers.size(), static_cast<size_t>(kInstances));
  // Claim half of them: revocation must retract offered AND claimed.
  std::vector<WorkItemId> claimed_ids;
  for (int i = 0; i < kInstances / 2; ++i) {
    ASSERT_TRUE(worklist.Claim(offers[i].id, bob_).ok());
    claimed_ids.push_back(offers[i].id);
  }

  // Delta-T: insert "inspect" (clerk) before "execute" on every instance.
  Delta delta;
  NewActivitySpec spec;
  spec.name = "inspect";
  spec.role = clerk_;
  delta.Add(std::make_unique<SerialInsertOp>(
      spec, prepare, schema_->FindNodeByName("execute")));
  auto v2 = api.EvolveProcessType(v1_id_, std::move(delta));
  ASSERT_TRUE(v2.ok());
  auto report = api.MigrateToLatest("wl_proc");
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->MigratedTotal(), static_cast<size_t>(kInstances));

  // Every "execute" item was retracted exactly once; "inspect" offers
  // replace them.
  WorklistStats stats = worklist.Stats();
  EXPECT_EQ(stats.revoked_total, static_cast<size_t>(kInstances));
  EXPECT_TRUE(worklist.OffersFor(bob_).empty());
  EXPECT_TRUE(worklist.AssignedTo(bob_).empty());
  EXPECT_EQ(worklist.OffersFor(alice_).size(),
            static_cast<size_t>(kInstances));
  for (WorkItemId id : claimed_ids) {
    EXPECT_EQ(worklist.Claim(id, bob_).code(), StatusCode::kNotFound);
  }
  EXPECT_EQ(stats.claimed, 0u);
}

TEST_P(WorklistBackendTest, AdHocDeletionRetractsClaimedItem) {
  InitBackend(GetParam(), /*shards=*/2);
  WorklistService& worklist = backend_.worklist();

  InstanceId id = *backend_.api().CreateInstance("wl_proc");
  auto offers = worklist.OffersFor(alice_);
  ASSERT_EQ(offers.size(), 1u);
  ASSERT_TRUE(worklist.Claim(offers[0].id, alice_).ok());

  Delta delta;
  delta.Add(std::make_unique<DeleteActivityOp>(
      schema_->FindNodeByName("prepare")));
  ASSERT_TRUE(backend_.api().ApplyAdHocChange(id, std::move(delta)).ok());

  // Retracted exactly once — claimed items included.
  EXPECT_TRUE(worklist.AssignedTo(alice_).empty());
  EXPECT_TRUE(worklist.OffersFor(alice_).empty());
  EXPECT_EQ(worklist.Stats().revoked_total, 1u);
  EXPECT_EQ(worklist.Claim(offers[0].id, alice_).code(),
            StatusCode::kNotFound);
  // The successor is offered instead.
  ASSERT_EQ(worklist.OffersFor(bob_).size(), 1u);
}

// The claim journal must not grow without bound: each checkpoint rewrites
// it as one record per live claim, so after N cycles of claim/complete
// churn its size is O(live claims), not O(total claim history).
TEST_F(WorklistServiceTest, JournalCompactionBoundsFileAtLiveClaims) {
  TempDir dir;
  ClusterOptions options;
  options.shards = 2;
  options.wal_path = dir.File("cluster.wal");
  options.snapshot_path = dir.File("cluster.snapshot");
  const std::string journal = options.wal_path + ".worklist";

  auto cluster = AdeptCluster::Create(options);
  ASSERT_TRUE(cluster.ok());
  Init(**cluster);
  WorklistService& worklist = (*cluster)->Worklist();

  // A full claim cycle for one user on the instance's currently offered
  // activity: claim -> start -> complete.
  auto run_cycle = [&](InstanceId id, UserId user) {
    WorkItemId item;
    bool found = false;
    for (const WorkItem& offer : worklist.OffersFor(user)) {
      if (offer.instance == id) {
        item = offer.id;
        found = true;
      }
    }
    ASSERT_TRUE(found) << "no offer for instance " << id;
    ASSERT_TRUE(worklist.Claim(item, user).ok());
    ASSERT_TRUE(worklist.Start(item, user).ok());
    ASSERT_TRUE(worklist.Complete(item, user).ok());
  };

  // 10 checkpointed churn cycles; every claim closes within its cycle.
  for (int cycle = 0; cycle < 10; ++cycle) {
    InstanceId id = *(*cluster)->CreateInstance("wl_proc");
    run_cycle(id, alice_);  // prepare (clerk)
    run_cycle(id, bob_);    // execute (packer)
    ASSERT_TRUE((*cluster)->SaveSnapshot().ok());
    // Bounded after every checkpoint: no live claims -> no records, even
    // though 4+ lifecycle records were journaled during the cycle.
    auto compacted = WriteAheadLog::ReadRecords(journal);
    ASSERT_TRUE(compacted.ok());
    EXPECT_EQ(compacted->size(), 0u) << "cycle " << cycle;
  }

  // With live claims the compacted journal holds exactly one record each.
  InstanceId open1 = *(*cluster)->CreateInstance("wl_proc");
  InstanceId open2 = *(*cluster)->CreateInstance("wl_proc");
  std::map<uint64_t, WorkItemId> by_instance;
  for (const WorkItem& offer : worklist.OffersFor(alice_)) {
    by_instance[offer.instance.value()] = offer.id;
  }
  ASSERT_TRUE(worklist.Claim(by_instance[open1.value()], alice_).ok());
  ASSERT_TRUE(worklist.Claim(by_instance[open2.value()], carol_).ok());
  ASSERT_TRUE(worklist.Start(by_instance[open2.value()], carol_).ok());
  ASSERT_TRUE((*cluster)->SaveSnapshot().ok());
  auto compacted = WriteAheadLog::ReadRecords(journal);
  ASSERT_TRUE(compacted.ok());
  EXPECT_EQ(compacted->size(), 2u);

  // The compacted journal still recovers claims with owner and state.
  cluster->reset();
  auto recovered = AdeptCluster::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  WorklistService& recovered_worklist = (*recovered)->Worklist();
  auto alice_assigned = recovered_worklist.AssignedTo(alice_);
  ASSERT_EQ(alice_assigned.size(), 1u);
  EXPECT_EQ(alice_assigned[0].instance, open1);
  EXPECT_EQ(alice_assigned[0].state, WorkItemState::kClaimed);
  auto carol_assigned = recovered_worklist.AssignedTo(carol_);
  ASSERT_EQ(carol_assigned.size(), 1u);
  EXPECT_EQ(carol_assigned[0].instance, open2);
  EXPECT_EQ(carol_assigned[0].state, WorkItemState::kStarted);
}

}  // namespace
}  // namespace adept
