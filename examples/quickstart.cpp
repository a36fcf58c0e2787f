// Quickstart: model a process, deploy it, run an instance, watch worklists.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>
#include <iostream>

#include "core/adept.h"
#include "model/schema_builder.h"
#include "monitor/monitor.h"

using namespace adept;

int main() {
  // 1. A system (in-memory; pass wal_path/snapshot_path for durability).
  auto system = AdeptSystem::Create();
  if (!system.ok()) {
    std::cerr << system.status() << "\n";
    return 1;
  }
  AdeptSystem& adept = **system;

  // 2. Organization: who works here?
  RoleId clerk = *adept.org().AddRole("clerk");
  RoleId warehouse = *adept.org().AddRole("warehouse");
  UserId alice = *adept.org().AddUser("alice");
  UserId bob = *adept.org().AddUser("bob");
  (void)adept.org().AssignRole(alice, clerk);
  (void)adept.org().AssignRole(bob, warehouse);

  // 3. Model the paper's online ordering process (Fig. 1, schema S).
  SchemaBuilder builder("online_order", 1);
  builder.Activity("get order", {.role = clerk});
  builder.Activity("collect data", {.role = clerk});
  builder.Parallel({
      [&](SchemaBuilder& b) { b.Activity("confirm order", {.role = clerk}); },
      [&](SchemaBuilder& b) {
        b.Activity("compose order", {.role = warehouse});
      },
  });
  builder.Activity("pack goods", {.role = warehouse});
  builder.Activity("deliver goods", {.role = warehouse});
  auto schema = builder.Build();
  if (!schema.ok()) {
    std::cerr << "modeling failed: " << schema.status() << "\n";
    return 1;
  }

  // 4. Deploy (runs buildtime verification) and print the block structure.
  auto v1 = adept.DeployProcessType(*schema);
  if (!v1.ok()) {
    std::cerr << "deploy failed: " << v1.status() << "\n";
    return 1;
  }
  std::cout << RenderSchema(**schema) << "\n";

  // 5. Create and run one instance, pulling work from the worklist: each
  // user claims an offer, starts it and completes it. Reads go through
  // the published snapshot (ReadInstance/SnapshotOf) — lock-free and
  // race-free on any AdeptApi implementation; monitoring never blocks the
  // engine.
  InstanceId instance = *adept.CreateInstance("online_order");
  WorklistService& worklist = adept.worklist();
  auto finished = [&] {
    auto snapshot = adept.SnapshotOf(instance);
    return snapshot != nullptr && snapshot->finished;
  };
  int step = 0;
  while (!finished()) {
    bool worked = false;
    for (UserId user : {alice, bob}) {
      auto offers = worklist.OffersFor(user);
      if (offers.empty()) continue;
      const WorkItem& item = offers.front();
      Status done = worklist.Claim(item.id, user);
      if (done.ok()) done = worklist.Start(item.id, user);
      if (done.ok()) done = worklist.Complete(item.id, user);
      std::string name = "?";
      (void)adept.ReadInstance(instance, [&](const InstanceSnapshot& s) {
        const Node* node = s.schema->FindNode(item.node);
        if (node != nullptr) name = node->name;
      });
      std::printf("step %d: %-8s completes '%s' (%s)\n", ++step,
                  adept.org().UserName(user)->c_str(), name.c_str(),
                  done.ok() ? "ok" : done.ToString().c_str());
      worked = true;
    }
    if (!worked) break;
  }

  (void)adept.ReadInstance(instance, [&](const InstanceSnapshot& s) {
    std::cout << "\n" << RenderInstance(s);
    std::cout << "\ninstance finished: " << (s.finished ? "yes" : "no")
              << "\n";
  });
  return 0;
}
