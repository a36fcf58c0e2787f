// E-health scenario: a medical treatment process with a treatment loop and
// severity triage, deviated ad hoc for one patient.
//
// ADEPT2 was deployed to research groups "as platform for realizing
// advanced PAIS in domains like e-health" (paper Sec. 3). The classic
// motivating case: for one patient an additional lab test must be inserted
// *now*, without stopping the running case and without compromising the
// guarantees checked at buildtime. A second attempted deviation (deleting
// an activity whose results are already used) is correctly rejected.
//
// Build & run:  ./build/examples/ehealth

#include <iostream>
#include <string>

#include "change/change_op.h"
#include "core/adept.h"
#include "model/schema_builder.h"
#include "monitor/monitor.h"

using namespace adept;

int main() {
  auto system = AdeptSystem::Create();
  AdeptSystem& adept = **system;

  RoleId physician = *adept.org().AddRole("physician");
  RoleId nurse = *adept.org().AddRole("nurse");
  UserId dr_weber = *adept.org().AddUser("dr. weber");
  UserId nurse_kim = *adept.org().AddUser("nurse kim");
  (void)adept.org().AssignRole(dr_weber, physician);
  (void)adept.org().AssignRole(nurse_kim, nurse);

  // Treatment process: admit -> triage -> XOR(ward | icu) -> LOOP(treat,
  // evaluate) -> discharge. The loop repeats while "continue_treatment".
  SchemaBuilder b("treatment", 1);
  DataId severity = b.Data("severity", DataType::kInt);
  DataId continue_treatment = b.Data("continue_treatment", DataType::kBool);
  DataId vitals = b.Data("vitals", DataType::kString);

  NodeId admit = b.Activity("admit patient", {.role = nurse});
  b.Writes(admit, vitals);
  NodeId triage = b.Activity("triage", {.role = physician});
  b.Reads(triage, vitals);
  b.Writes(triage, severity);
  b.Conditional(severity, {
      [&](SchemaBuilder& s) { s.Activity("assign ward bed", {.role = nurse}); },
      [&](SchemaBuilder& s) {
        s.Activity("admit to ICU", {.role = physician});
      },
  });
  b.Loop(continue_treatment, [&](SchemaBuilder& s) {
    NodeId treat = s.Activity("administer treatment", {.role = nurse});
    s.Reads(treat, vitals);
    NodeId evaluate = s.Activity("evaluate response", {.role = physician});
    s.Writes(evaluate, continue_treatment);
    s.Writes(evaluate, vitals);
  });
  NodeId discharge = b.Activity("discharge", {.role = physician});
  b.Reads(discharge, vitals);

  auto schema = b.Build();
  if (!schema.ok()) {
    std::cerr << "modeling failed: " << schema.status() << "\n";
    return 1;
  }
  (void)adept.DeployProcessType(*schema);
  std::cout << "--- treatment process ---\n" << RenderSchema(**schema) << "\n";

  // Patient case starts; the nurse admits, the physician triages (severe).
  InstanceId patient = *adept.CreateInstance("treatment");
  NodeId admit_node = (*schema)->FindNodeByName("admit patient");
  (void)adept.StartActivity(patient, admit_node);
  (void)adept.CompleteActivity(
      patient, admit_node,
      {{vitals, DataValue::String("bp 150/95, temp 39.1")}});
  NodeId triage_node = (*schema)->FindNodeByName("triage");
  (void)adept.StartActivity(patient, triage_node);
  (void)adept.CompleteActivity(patient, triage_node,
                               {{severity, DataValue::Int(1)}});  // ICU

  (void)adept.WithInstance(patient, [](const ProcessInstance& i) {
    std::cout << "after triage (ICU branch selected, ward branch skipped):\n"
              << RenderInstance(i) << "\n";
  });

  // The unified read API: a textual query replaces a hand-written sweep.
  // This ward's dashboard question — "which severe cases are running?" —
  // is one indexed, lock-free Query() against published snapshots.
  auto severe = adept.Query("data.severity == 1 && state == running");
  if (!severe.ok()) {
    std::cerr << "query failed: " << severe.status() << "\n";
    return 1;
  }
  std::cout << "severe running cases (data.severity == 1): "
            << severe->size() << "\n\n";

  // Ad-hoc deviation: this patient needs an extra lab test before ICU
  // admission. The paper: "to deal with an exceptional situation".
  {
    Delta delta;
    NewActivitySpec spec;
    spec.name = "extra lab test";
    spec.role = physician;
    delta.Add(std::make_unique<SerialInsertOp>(
        spec, (*schema)->FindNodeByName("xor_split"),
        (*schema)->FindNodeByName("admit to ICU")));
    Status st = adept.ApplyAdHocChange(patient, std::move(delta));
    std::cout << "insert 'extra lab test' ad hoc: " << st << "\n";
  }

  // A second deviation is *rejected*: deleting "admit patient" would strip
  // the writer of data the triage already consumed — and it already ran.
  {
    Delta delta;
    delta.Add(std::make_unique<DeleteActivityOp>(admit_node));
    Status st = adept.ApplyAdHocChange(patient, std::move(delta));
    std::cout << "delete 'admit patient' ad hoc: " << st
              << "  <- correctly rejected\n\n";
  }

  // Work through the worklists until discharge. The completion poll is a
  // point query on the published snapshot — no engine lock, no sweep.
  const std::string done_query =
      "id == " + std::to_string(patient.value()) + " && state == finished";
  auto patient_finished = [&] {
    auto result = adept.Query(done_query);
    return result.ok() && !result->empty();
  };
  WorklistService& worklist = adept.worklist();
  int guard = 0;
  while (!patient_finished() && ++guard < 100) {
    bool worked = false;
    for (UserId user : {dr_weber, nurse_kim}) {
      for (const WorkItem& item : worklist.OffersFor(user)) {
        if (!worklist.Claim(item.id, user).ok() ||
            !worklist.Start(item.id, user).ok()) {
          continue;
        }
        std::vector<ProcessInstance::DataWrite> writes;
        (void)adept.WithInstance(patient, [&](const ProcessInstance& inst) {
          inst.schema().VisitDataEdges(item.node, [&](const DataEdge& de) {
            if (de.mode != AccessMode::kWrite) return;
            if (de.data == continue_treatment) {
              // Two treatment cycles, then stop.
              writes.push_back(
                  {de.data, DataValue::Bool(inst.loop_iteration(
                                inst.schema().FindNodeByName("loop_start")) <
                            1)});
            } else {
              writes.push_back({de.data, DataValue::String("stable")});
            }
          });
        });
        (void)worklist.Complete(item.id, user, writes);
        worked = true;
      }
    }
    if (!worked) break;
  }

  // Final render goes through the same query surface (RenderMatching is
  // Query + RenderInstance per hit); only the execution-trace statistics
  // still need the live instance under WithInstance.
  auto rendered = RenderMatching(adept, "state == finished");
  if (!rendered.ok()) {
    std::cerr << "render query failed: " << rendered.status() << "\n";
    return 1;
  }
  std::cout << "--- final state ---\n" << *rendered;
  (void)adept.WithInstance(patient, [](const ProcessInstance& i) {
    NodeId loop_start = i.schema().FindNodeByName("loop_start");
    std::cout << "treatment cycles: " << i.loop_iteration(loop_start) + 1
              << "\n";
    std::cout << "trace length: " << i.trace().events().size()
              << " events (reduced: " << i.trace().Reduced().size() << ")\n";
  });
  return 0;
}
