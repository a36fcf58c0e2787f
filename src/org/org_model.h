// Minimal organizational model: users, roles, staff assignment.
//
// ADEPT2 activities carry a staff-assignment role (Node::role); the
// worklist service (worklist/worklist_service.h) offers activated
// activities to the users holding that role. This module is deliberately
// small — enough to make the examples' worklists realistic and to test
// revocation on dynamic changes.

#ifndef ADEPT_ORG_ORG_MODEL_H_
#define ADEPT_ORG_ORG_MODEL_H_

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/ids.h"
#include "common/json.h"
#include "common/status.h"

namespace adept {

class OrgModel {
 public:
  Result<RoleId> AddRole(const std::string& name);
  Result<UserId> AddUser(const std::string& name);

  Status AssignRole(UserId user, RoleId role);
  Status RevokeRole(UserId user, RoleId role);

  bool UserHasRole(UserId user, RoleId role) const;
  std::vector<UserId> UsersInRole(RoleId role) const;
  std::vector<RoleId> RolesOf(UserId user) const;

  Result<std::string> UserName(UserId user) const;
  Result<std::string> RoleName(RoleId role) const;
  Result<RoleId> FindRole(const std::string& name) const;
  Result<UserId> FindUser(const std::string& name) const;

  size_t user_count() const { return users_.size(); }
  size_t role_count() const { return roles_.size(); }

  // Durability round trip (cluster recovery persists the org model to
  // "<wal>.org" at checkpoint time): serializes roles, users, assignments,
  // and the id counters, so restored ids are bit-identical to the
  // originals. LoadFromJson requires an empty model.
  JsonValue ToJson() const;
  Status LoadFromJson(const JsonValue& json);

 private:
  struct User {
    std::string name;
    std::unordered_set<RoleId> roles;
  };

  std::unordered_map<UserId, User> users_;
  std::unordered_map<RoleId, std::string> roles_;
  uint32_t next_user_ = 1;
  uint32_t next_role_ = 1;
};

}  // namespace adept

#endif  // ADEPT_ORG_ORG_MODEL_H_
