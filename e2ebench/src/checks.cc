#include "checks.h"

#include <algorithm>

#include "compliance/migration.h"
#include "model/node.h"

namespace e2e {

namespace {

std::string Id(uint64_t id) { return "instance " + std::to_string(id); }

template <typename V>
std::string CompareMaps(const std::map<uint64_t, V>& a,
                        const std::map<uint64_t, V>& b, const char* what,
                        const std::function<std::string(const V&)>& show) {
  if (a.size() != b.size()) {
    return std::string(what) + ": " + std::to_string(a.size()) +
           " expected entries, " + std::to_string(b.size()) + " found";
  }
  for (const auto& [key, value] : a) {
    auto it = b.find(key);
    if (it == b.end()) return std::string(what) + ": " + Id(key) + " missing";
    if (!(it->second == value)) {
      return std::string(what) + ": " + Id(key) + " expected " + show(value) +
             ", found " + show(it->second);
    }
  }
  return "";
}

}  // namespace

std::string CheckCompletions(const std::map<uint64_t, uint64_t>& expected,
                             const std::map<uint64_t, uint64_t>& published) {
  return CompareMaps<uint64_t>(
      expected, published, "completed activities",
      [](const uint64_t& v) { return std::to_string(v); });
}

std::string CheckClaimsOnce(const std::vector<uint64_t>& claimed,
                            const std::vector<uint64_t>& completed) {
  std::set<uint64_t> seen;
  for (uint64_t item : claimed) {
    if (!seen.insert(item).second) {
      return "work item " + std::to_string(item) + " claimed twice";
    }
  }
  for (uint64_t item : completed) {
    if (seen.count(item) == 0) {
      return "work item " + std::to_string(item) +
             " completed without a successful claim";
    }
  }
  return "";
}

std::string CheckExportsEqual(const std::map<uint64_t, std::string>& live,
                              const std::map<uint64_t, std::string>& recovered) {
  return CompareMaps<std::string>(
      live, recovered, "recovered export",
      [](const std::string& v) { return std::to_string(v.size()) + " bytes"; });
}

std::string CheckClaimOwners(const std::map<uint64_t, uint32_t>& live,
                             const std::map<uint64_t, uint32_t>& recovered) {
  for (const auto& [item, owner] : live) {
    auto it = recovered.find(item);
    if (it == recovered.end()) {
      return "claim of work item " + std::to_string(item) + " lost";
    }
    if (it->second != owner) {
      return "work item " + std::to_string(item) + " owner " +
             std::to_string(owner) + " became " + std::to_string(it->second);
    }
  }
  if (live.size() != recovered.size()) {
    return std::to_string(live.size()) + " open claims, " +
           std::to_string(recovered.size()) + " after recovery";
  }
  return "";
}

std::string CheckMigrationOutcomes(
    const std::map<uint64_t, std::vector<int>>& expected,
    const std::map<uint64_t, std::vector<int>>& reported) {
  return CompareMaps<std::vector<int>>(
      expected, reported, "migration outcome", [](const std::vector<int>& v) {
        std::string s = "[";
        for (int o : v) {
          if (s.size() > 1) s += ",";
          s += adept::MigrationOutcomeToString(
              static_cast<adept::MigrationOutcome>(o));
        }
        return s + "]";
      });
}

std::string CheckBiasKept(
    const std::map<uint64_t, std::set<std::string>>& expected,
    const std::map<uint64_t, std::set<std::string>>& present) {
  for (const auto& [id, marks] : expected) {
    auto it = present.find(id);
    for (const std::string& mark : marks) {
      if (it == present.end() || it->second.count(mark) == 0) {
        return Id(id) + " lost bias mark '" + mark + "'";
      }
    }
  }
  return "";
}

std::string CheckQueryIds(const std::string& query,
                          const std::set<uint64_t>& expected,
                          const std::vector<uint64_t>& returned) {
  std::set<uint64_t> got(returned.begin(), returned.end());
  if (got.size() != returned.size()) {
    return "query '" + query + "' returned a duplicate id";
  }
  if (got == expected) return "";
  for (uint64_t id : expected) {
    if (got.count(id) == 0) return "query '" + query + "' missed " + Id(id);
  }
  for (uint64_t id : got) {
    if (expected.count(id) == 0) {
      return "query '" + query + "' returned non-matching " + Id(id);
    }
  }
  return "query '" + query + "' mismatch";
}

std::string CheckSatisfies(
    const std::string& query,
    const std::vector<std::shared_ptr<const adept::InstanceSnapshot>>& result,
    const std::function<bool(const adept::InstanceSnapshot&)>& predicate) {
  for (const auto& snapshot : result) {
    if (!predicate(*snapshot)) {
      return "query '" + query + "' returned " + Id(snapshot->id.value()) +
             ", which does not satisfy it";
    }
  }
  return "";
}

uint64_t CompletedActivities(const adept::InstanceSnapshot& snapshot) {
  uint64_t total = 0;
  snapshot.completed_runs.ForEach([&](const adept::NodeId& node, const uint64_t& runs) {
    const adept::Node* n = snapshot.schema->FindNode(node);
    if (n != nullptr && n->type == adept::NodeType::kActivity) total += runs;
  });
  return total;
}

}  // namespace e2e
