// Self-test of the correctness checks: every workload runs small, once
// unchanged (its checks must pass) and once per check with that check's
// expectation deliberately corrupted (the check must then fail). No client
// call may fail in any case.

#include <cstdio>
#include <filesystem>

#include "bench.h"

namespace e2e {

int RunSelfTest(const RunOptions& base) {
  struct Case {
    const char* workload;
    const char* perturb;  // "" = unchanged; the run must pass
  };
  const Case cases[] = {
      {"execute", ""},         {"execute", "completions"},
      {"execute", "claims"},   {"execute", "claim_owners"},
      {"execute", "exports"},  {"replicated", ""},
      {"replicated", "exports"}, {"adapt", ""},
      {"adapt", "migration"},  {"adapt", "bias"},
      {"adapt", "exports"},    {"monitor", ""},
      {"monitor", "query_ids"}, {"monitor", "satisfies"},
  };
  int missed = 0;
  for (const Case& c : cases) {
    RunOptions options = base;
    options.workload = c.workload;
    options.perturb = c.perturb;
    options.small = true;
    options.seconds = 1;
    options.out_dir.clear();
    options.dir = base.dir + "/" + c.workload + "-" + c.perturb;
    std::error_code ec;
    std::filesystem::create_directories(options.dir, ec);
    WorkloadResult result;
    if (options.workload == "execute" || options.workload == "replicated") {
      result = RunExecute(options, options.workload == "replicated");
    } else if (options.workload == "adapt") {
      result = RunAdapt(options);
    } else {
      result = RunMonitor(options);
    }
    std::filesystem::remove_all(options.dir, ec);
    bool want_correct = c.perturb[0] == '\0';
    bool ok = result.correct == want_correct && result.failed == 0;
    if (!ok) ++missed;
    std::printf("%-4s %-10s %-13s %s\n", ok ? "ok" : "FAIL", c.workload,
                want_correct ? "(unchanged)" : c.perturb,
                result.errors.empty() ? "" : result.errors.front().c_str());
  }
  std::printf("%s: %d of %zu self-test cases failed\n",
              missed == 0 ? "PASS" : "FAIL", missed, std::size(cases));
  return missed;
}

}  // namespace e2e
