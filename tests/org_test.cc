#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "change/change_op.h"
#include "core/adept.h"
#include "model/schema_builder.h"
#include "org/org_model.h"
#include "worklist/worklist_service.h"

namespace adept {
namespace {

// Order process whose activities carry staff-assignment roles.
std::shared_ptr<const ProcessSchema> RoleSchema(RoleId clerk, RoleId packer) {
  SchemaBuilder b("role_proc", 1);
  b.Activity("take order", {.role = clerk});
  b.Activity("pack", {.role = packer});
  b.Activity("ship", {.role = packer});
  auto schema = b.Build();
  return schema.ok() ? *schema : nullptr;
}

// A standalone AdeptSystem whose org holds a clerk (alice) and a packer
// (bob); its worklist() is the one under test.
class WorklistTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto system = AdeptSystem::Create();
    ASSERT_TRUE(system.ok());
    system_ = std::move(*system);
    OrgModel& org = system_->org();
    clerk_ = *org.AddRole("clerk");
    packer_ = *org.AddRole("packer");
    alice_ = *org.AddUser("alice");
    bob_ = *org.AddUser("bob");
    ASSERT_TRUE(org.AssignRole(alice_, clerk_).ok());
    ASSERT_TRUE(org.AssignRole(bob_, packer_).ok());
    schema_ = RoleSchema(clerk_, packer_);
    ASSERT_NE(schema_, nullptr);
  }

  std::unique_ptr<AdeptSystem> system_;
  RoleId clerk_, packer_;
  UserId alice_, bob_;
  std::shared_ptr<const ProcessSchema> schema_;
};

TEST(OrgModelTest, RolesAndUsers) {
  OrgModel org;
  auto clerk = org.AddRole("clerk");
  ASSERT_TRUE(clerk.ok());
  EXPECT_FALSE(org.AddRole("clerk").ok());

  auto alice = org.AddUser("alice");
  ASSERT_TRUE(alice.ok());
  EXPECT_FALSE(org.AddUser("alice").ok());

  ASSERT_TRUE(org.AssignRole(*alice, *clerk).ok());
  EXPECT_TRUE(org.UserHasRole(*alice, *clerk));
  EXPECT_EQ(org.UsersInRole(*clerk).size(), 1u);
  EXPECT_EQ(org.RolesOf(*alice).size(), 1u);

  ASSERT_TRUE(org.RevokeRole(*alice, *clerk).ok());
  EXPECT_FALSE(org.UserHasRole(*alice, *clerk));
  EXPECT_FALSE(org.RevokeRole(*alice, *clerk).ok());

  EXPECT_EQ(*org.FindUser("alice"), *alice);
  EXPECT_EQ(*org.FindRole("clerk"), *clerk);
  EXPECT_FALSE(org.FindUser("nobody").ok());
  EXPECT_EQ(*org.UserName(*alice), "alice");
  EXPECT_EQ(*org.RoleName(*clerk), "clerk");
}

TEST_F(WorklistTest, AdHocDeletionRevokesWorkItem) {
  AdeptSystem& adept = *system_;
  ASSERT_TRUE(adept.DeployProcessType(schema_).ok());
  WorklistService& worklist = adept.worklist();
  InstanceId id = *adept.CreateInstance("role_proc");
  ASSERT_EQ(worklist.Stats().offered, 1u);

  // Delete the offered activity ad hoc: the work item must be revoked.
  Delta delta;
  delta.Add(std::make_unique<DeleteActivityOp>(
      schema_->FindNodeByName("take order")));
  ASSERT_TRUE(adept.ApplyAdHocChange(id, std::move(delta)).ok());

  EXPECT_EQ(worklist.Stats().revoked_total, 1u);
  // The successor ("pack") is offered instead.
  auto bob_offers = worklist.OffersFor(bob_);
  ASSERT_EQ(bob_offers.size(), 1u);
  EXPECT_EQ(bob_offers[0].node, schema_->FindNodeByName("pack"));
}

TEST_F(WorklistTest, StaleItemAfterBiasCancellationMigration) {
  AdeptSystem& adept = *system_;
  SchemaBuilder b("bias_proc", 1);
  NodeId a = b.Activity("a", {.role = clerk_});
  NodeId c = b.Activity("c", {.role = clerk_});
  auto schema = b.Build();
  ASSERT_TRUE(schema.ok());
  auto v1 = adept.DeployProcessType(*schema);
  ASSERT_TRUE(v1.ok());

  InstanceId id = *adept.CreateInstance("bias_proc");
  ASSERT_TRUE(adept.StartActivity(id, a).ok());
  ASSERT_TRUE(adept.CompleteActivity(id, a).ok());

  // Ad-hoc: insert "x" between a and c; it activates and is offered.
  auto make_insert = [&] {
    Delta delta;
    NewActivitySpec spec;
    spec.name = "x";
    spec.role = clerk_;
    delta.Add(std::make_unique<SerialInsertOp>(spec, a, c));
    return delta;
  };
  ASSERT_TRUE(adept.ApplyAdHocChange(id, make_insert()).ok());
  auto offers = adept.worklist().OffersFor(alice_);
  ASSERT_EQ(offers.size(), 1u);
  WorkItemId stale = offers[0].id;

  // The type evolves by the semantically identical change; migration
  // cancels the bias and remaps the instance state onto the type's ids.
  auto v2 = adept.EvolveProcessType(*v1, make_insert());
  ASSERT_TRUE(v2.ok());
  auto report = adept.Migrate(*v1, *v2);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->MigratedTotal(), 1u);

  // The stale item (bias node id) is gone; claiming it is kNotFound.
  EXPECT_EQ(adept.worklist().Claim(stale, alice_).code(),
            StatusCode::kNotFound);
  // Exactly one live offer for the remapped "x" node remains, claimable.
  offers = adept.worklist().OffersFor(alice_);
  ASSERT_EQ(offers.size(), 1u);
  EXPECT_NE(offers[0].id, stale);
  auto snapshot = adept.SnapshotOf(id);
  ASSERT_NE(snapshot, nullptr);
  EXPECT_NE(snapshot->schema->FindNode(offers[0].node), nullptr);
  EXPECT_TRUE(adept.worklist().Claim(offers[0].id, alice_).ok());
}

// worklist() is built on first use. Instances driven before that call are
// seeded from their current state: exactly one offer per role-carrying
// Activated node, whether it got there by navigation or by an ad-hoc
// insert, and none for a Running one. The seeded items then follow
// migration like any other: bias cancellation still drops the stale one.
TEST_F(WorklistTest, FirstWorklistCallSeedsFromInstanceState) {
  AdeptSystem& adept = *system_;
  SchemaBuilder builder("seed_proc", 1);
  NodeId a = builder.Activity("a", {.role = clerk_});
  NodeId b = builder.Activity("b", {.role = clerk_});
  NodeId c = builder.Activity("c", {.role = packer_});
  auto schema = builder.Build();
  ASSERT_TRUE(schema.ok());
  auto v1 = adept.DeployProcessType(*schema);
  ASSERT_TRUE(v1.ok());
  auto make_insert = [&] {
    Delta delta;
    NewActivitySpec spec;
    spec.name = "x";
    spec.role = clerk_;
    delta.Add(std::make_unique<SerialInsertOp>(spec, a, b));
    return delta;
  };
  auto complete = [&](InstanceId id, NodeId node) {
    ASSERT_TRUE(adept.StartActivity(id, node).ok());
    ASSERT_TRUE(adept.CompleteActivity(id, node).ok());
  };

  InstanceId at_a = *adept.CreateInstance("seed_proc");
  InstanceId at_b = *adept.CreateInstance("seed_proc");
  complete(at_b, a);
  InstanceId at_c = *adept.CreateInstance("seed_proc");
  complete(at_c, a);
  complete(at_c, b);
  InstanceId at_x = *adept.CreateInstance("seed_proc");
  complete(at_x, a);
  ASSERT_TRUE(adept.ApplyAdHocChange(at_x, make_insert()).ok());
  NodeId bias_x = adept.SnapshotOf(at_x)->schema->FindNodeByName("x");
  ASSERT_TRUE(bias_x.valid());
  InstanceId running = *adept.CreateInstance("seed_proc");
  ASSERT_TRUE(adept.StartActivity(running, a).ok());

  // First call: offers derived from the state above, one per node.
  WorklistService& worklist = adept.worklist();
  using Key = std::pair<InstanceId, NodeId>;
  auto keys = [](const std::vector<WorkItem>& items) {
    std::multiset<Key> out;
    for (const WorkItem& item : items) out.insert({item.instance, item.node});
    return out;
  };
  auto alice_offers = worklist.OffersFor(alice_);
  EXPECT_EQ(keys(alice_offers),
            (std::multiset<Key>{{at_a, a}, {at_b, b}, {at_x, bias_x}}));
  EXPECT_EQ(keys(worklist.OffersFor(bob_)), (std::multiset<Key>{{at_c, c}}));
  EXPECT_EQ(worklist.Stats().offered, 4u);
  WorkItemId stale;
  for (const WorkItem& item : alice_offers) {
    if (item.instance == at_x) stale = item.id;
  }
  ASSERT_TRUE(stale.valid());

  // The type evolves by the same insert; migration cancels at_x's bias
  // and remaps its state onto the type's node ids.
  auto v2 = adept.EvolveProcessType(*v1, make_insert());
  ASSERT_TRUE(v2.ok());
  auto report = adept.Migrate(*v1, *v2);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(worklist.Claim(stale, alice_).code(), StatusCode::kNotFound);
  for (const WorkItem& item : worklist.OffersFor(alice_)) {
    EXPECT_NE(item.id, stale);
    EXPECT_NE(adept.SnapshotOf(item.instance)->schema->FindNode(item.node),
              nullptr);
  }
}

TEST_F(WorklistTest, SkippedBranchRevokesOffer) {
  SchemaBuilder b("xor_roles", 1);
  DataId sel = b.Data("sel", DataType::kInt);
  NodeId init = b.Activity("init", {.role = clerk_});
  b.Writes(init, sel);
  b.Conditional(sel, {
      [&](SchemaBuilder& s) { s.Activity("left", {.role = packer_}); },
      [&](SchemaBuilder& s) { s.Activity("right", {.role = packer_}); },
  });
  auto schema = b.Build();
  ASSERT_TRUE(schema.ok());

  AdeptSystem& adept = *system_;
  ASSERT_TRUE(adept.DeployProcessType(*schema).ok());
  WorklistService& worklist = adept.worklist();
  InstanceId id = *adept.CreateInstance("xor_roles");
  ASSERT_TRUE(adept.StartActivity(id, init).ok());
  ASSERT_TRUE(
      adept.CompleteActivity(id, init, {{sel, DataValue::Int(0)}}).ok());

  // Only "left" is offered; "right" was skipped without ever being offered.
  auto offers = worklist.OffersFor(bob_);
  ASSERT_EQ(offers.size(), 1u);
  EXPECT_EQ(offers[0].node, (*schema)->FindNodeByName("left"));
}

}  // namespace
}  // namespace adept
