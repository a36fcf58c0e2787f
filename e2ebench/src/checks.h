// The benchmark's correctness checks, as pure functions over data the
// workloads collect. Each returns an empty string when the check holds and
// a description of the first mismatch otherwise; the self-test feeds each
// one a deliberately wrong expectation and requires a non-empty answer.

#ifndef ADEPT_E2EBENCH_CHECKS_H_
#define ADEPT_E2EBENCH_CHECKS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "runtime/instance_snapshot.h"

namespace e2e {

// Per instance: the completed activities the program publishes equal the
// completions the client saw succeed.
std::string CheckCompletions(const std::map<uint64_t, uint64_t>& expected,
                             const std::map<uint64_t, uint64_t>& published);

// Every work item was claimed successfully exactly once, and every item the
// client completed is one it claimed.
std::string CheckClaimsOnce(const std::vector<uint64_t>& claimed,
                            const std::vector<uint64_t>& completed);

// Two exports (instance id -> serialized ExportInstance) are identical.
std::string CheckExportsEqual(const std::map<uint64_t, std::string>& live,
                              const std::map<uint64_t, std::string>& recovered);

// Every open claim (item -> owner) is kept with its owner.
std::string CheckClaimOwners(const std::map<uint64_t, uint32_t>& live,
                             const std::map<uint64_t, uint32_t>& recovered);

// Per instance: the migration outcomes of one MigrateToLatest/Migrate call,
// in report order, equal the outcomes derived by the benchmark.
std::string CheckMigrationOutcomes(
    const std::map<uint64_t, std::vector<int>>& expected,
    const std::map<uint64_t, std::vector<int>>& reported);

// Per migrated biased instance: every mark of its bias (inserted node
// names, "-name" for a deleted node, "a>b" for a sync edge) is still
// present in the instance's schema.
std::string CheckBiasKept(
    const std::map<uint64_t, std::set<std::string>>& expected,
    const std::map<uint64_t, std::set<std::string>>& present);

// A query returned exactly the expected instance ids.
std::string CheckQueryIds(const std::string& query,
                          const std::set<uint64_t>& expected,
                          const std::vector<uint64_t>& returned);

// Every returned snapshot satisfies the benchmark's own predicate.
std::string CheckSatisfies(
    const std::string& query,
    const std::vector<std::shared_ptr<const adept::InstanceSnapshot>>& result,
    const std::function<bool(const adept::InstanceSnapshot&)>& predicate);

// Completed activity runs in a snapshot (structural nodes excluded).
uint64_t CompletedActivities(const adept::InstanceSnapshot& snapshot);

}  // namespace e2e

#endif  // ADEPT_E2EBENCH_CHECKS_H_
