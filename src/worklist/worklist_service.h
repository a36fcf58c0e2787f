// WorklistService: the one worklist — offers activated activities to the
// users holding their staff-assignment role.
//
// An AdeptCluster subscribes one service to the instance events of every
// shard (AdeptCluster::Worklist()); a standalone AdeptSystem builds its
// own on first use (AdeptSystem::worklist()). Either way it serves
// worklists to many concurrent actors. The paper's promise — all
// adaptation complexity "is hidden from users", who only ever see a
// consistent worklist — survives ad-hoc deletion, migration demotion, and
// bias-cancellation remaps because every retraction path funnels through
// the same item table.
//
// Lifecycle (see README.md for the full state machine):
//
//   Offer   node enters Activated with a staff-assignment role
//   Claim   one user reserves the offer (exactly-once: compare-and-swap
//           under the item's segment lock; losers get kFailedPrecondition)
//   Start   the claimer starts the activity through the cluster facade —
//           the engine event (under the owner shard's lock) flips the item
//   Complete / Release (back to offered) / Delegate (new owner)
//   Revoke  skip, deletion, demotion, or a migration that removed the
//           node retracts offered *and* claimed items
//
// Concurrency: the item table is internally sharded — items are hashed by
// (instance, node) into segments with one mutex each, and the segment
// index is encoded in the WorkItemId, so claims on unrelated items (and
// thus on different users) never contend. Per-role offer indexes and
// per-user assignment indexes are sharded the same way; OffersFor reads
// the role index instead of scanning the item table. Lock order:
// shard.mu (cluster) -> item segment mu -> index mu; index mutexes are
// leaves and never held while acquiring a segment.
//
// Durability: claim-lifecycle transitions (claim/start/release/delegate/
// close) are framed through a group-commit WalWriter ("<wal>.worklist").
// Claim() waits for its journal record to be durable before granting the
// claim (a granted claim survives a crash); transitions driven by engine
// events only enqueue (a crash may demote a just-started item back to
// claimed — never lose the owner). Offers carry no journal records: they
// are re-derived from recovered instance state, and Recover() then replays
// the compact claim journal on top (see Recover()). Claim records carry
// the item's activation epoch (completed runs of the node at offer time),
// so a claim whose async close record was lost in a crash can never be
// re-attached to a later loop iteration's fresh offer.
//
// The OrgModel is read under the service's locks but is not itself
// synchronized: populate users/roles before serving concurrent traffic.

#ifndef ADEPT_WORKLIST_WORKLIST_SERVICE_H_
#define ADEPT_WORKLIST_WORKLIST_SERVICE_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "core/adept_api.h"
#include "org/org_model.h"
#include "runtime/events.h"
#include "runtime/instance.h"
#include "storage/wal.h"
#include "storage/wal_writer.h"

namespace adept {

// A retracted or completed item leaves the table, so no state names it.
enum class WorkItemState {
  kOffered = 0,  // visible in role members' worklists
  kClaimed,      // reserved by one user, not yet started
  kStarted,      // activity execution began
};

struct WorkItem {
  WorkItemId id;
  InstanceId instance;
  NodeId node;
  RoleId role;
  WorkItemState state = WorkItemState::kOffered;
  UserId claimed_by;
  // Activation epoch: completed runs of the node when the item was
  // offered. Distinguishes loop iterations of the same (instance, node)
  // in the claim journal.
  uint64_t epoch = 0;
};

// The staff-assignment activity behind `node`, or nullptr when the node
// does not exist, is not an activity, or carries no role: the
// offer-eligibility rule.
const Node* OfferableActivity(const SchemaView& schema, NodeId node);

// Completed runs of `node` per the instance trace — the activation epoch
// recorded in offered items.
uint64_t ActivationEpoch(const ProcessInstance& instance, NodeId node);

struct WorklistServiceOptions {
  // Claim journal path; empty disables durability (claims die with the
  // process).
  std::string journal_path;
  // Durability level of the journal's group-commit writer.
  SyncMode sync = SyncMode::kFlush;
  // Internal segment count (rounded up to a power of two). More segments
  // = less contention between claims on unrelated items.
  int segments = 16;
};

struct WorklistStats {
  size_t offered = 0;
  size_t claimed = 0;
  size_t started = 0;
  size_t revoked_total = 0;    // lifetime retractions
  size_t completed_total = 0;  // lifetime completions
};

class WorklistService : public InstanceObserver {
 public:
  // Visits every live instance (the cluster implements this by locking
  // one shard at a time).
  using InstanceVisitor = std::function<void(const ProcessInstance&)>;
  using InstanceEnumerator = std::function<void(const InstanceVisitor&)>;

  // Fresh service: truncates any existing journal at the configured path.
  // `api` routes Start/Complete to wherever the instance lives; `org`
  // answers role-membership checks. Both must outlive the service.
  static Result<std::unique_ptr<WorklistService>> Create(
      const OrgModel* org, AdeptApi* api,
      const WorklistServiceOptions& options = {});

  // Rebuilds open work items after a crash: offers are derived from the
  // recovered instance state (`instances`), then the claim journal is
  // replayed on top — a claimed item resurfaces claimed by its owner, a
  // started item re-attaches to its Running node. The journal file is
  // parsed exactly once (the same scan seeds the reopened writer). The
  // caller attaches the returned service as an observer afterwards.
  static Result<std::unique_ptr<WorklistService>> Recover(
      const OrgModel* org, AdeptApi* api,
      const WorklistServiceOptions& options,
      const InstanceEnumerator& instances);

  ~WorklistService() override;
  WorklistService(const WorklistService&) = delete;
  WorklistService& operator=(const WorklistService&) = delete;

  // --- Claim lifecycle ------------------------------------------------------

  // Reserves an offered item for `user`. Exactly-once under concurrent
  // claimers: the state transition is a compare-and-swap under the item's
  // segment lock — exactly one caller wins, the rest get
  // kFailedPrecondition. kNotFound for unknown (or revoked-and-dropped)
  // items. The claim is durable (per the journal's SyncMode) when this
  // returns OK.
  Status Claim(WorkItemId item, UserId user);

  // Returns a claimed (not yet started) item to the offered pool.
  Status Release(WorkItemId item, UserId user);

  // Hands a claimed item from `from` to `to` (who must hold the role).
  Status Delegate(WorkItemId item, UserId from, UserId to);

  // Starts the claimed item's activity through the cluster facade; the
  // engine event (under the owner shard's lock) marks the item started.
  Status Start(WorkItemId item, UserId user);

  // Completes the started item's activity through the cluster facade.
  Status Complete(WorkItemId item, UserId user,
                  const std::vector<ProcessInstance::DataWrite>& writes = {});

  // --- Views ----------------------------------------------------------------

  // Items currently offered to `user` (union of the offer indexes of the
  // user's roles — no full-table scan).
  std::vector<WorkItem> OffersFor(UserId user) const;

  // Same, filtered by a query predicate (grammar: src/query/README.md)
  // evaluated against each offer's published instance snapshot during the
  // existing revalidation pass — no extra locks, no extra snapshot
  // fetches. E.g. OffersFor(nurse, "data.priority >= 3"). An offer whose
  // instance has no published snapshot this poll (mid-move during a
  // resize) is dropped from the filtered view — there is nothing to
  // evaluate the predicate against; it resurfaces next poll. Returns
  // kInvalidArgument (offset + caret span) on a malformed predicate.
  Result<std::vector<WorkItem>> OffersFor(UserId user,
                                          const std::string& predicate) const;

  // Items currently claimed or started by `user`.
  std::vector<WorkItem> AssignedTo(UserId user) const;

  Result<WorkItem> Get(WorkItemId item) const;

  WorklistStats Stats() const;

  // --- Checkpointing --------------------------------------------------------

  // Rewrites the claim journal as one record per live claim (claimed →
  // "claim", started → "start"), bounding the file at O(live claims)
  // instead of O(total claim history). Runs under quiescence — every item
  // segment lock is held — and swaps the file atomically (temp + rename),
  // so a crash mid-compaction keeps the full journal. AdeptCluster calls
  // this from SaveSnapshot(); safe (and a no-op) without a journal.
  Status CompactJournal();

  // --- Adaptation hooks -----------------------------------------------------

  // Reconciles the worklist with engine truth: revokes live items whose
  // node vanished from the (possibly remapped) schema or is no longer
  // Activated/Running, and offers Activated role-carrying activities
  // without a live item. Runs after a migration fan-out (bias
  // cancellation rewrites markings without events) and seeds a service
  // created over existing instances. Runs per instance under that
  // instance's shard lock (via `instances`), so it is exact even with
  // concurrent traffic.
  void Resync(const InstanceEnumerator& instances);

  // InstanceObserver (called under the owning shard's lock):
  void OnNodeStateChange(const ProcessInstance& instance, NodeId node,
                         NodeState from, NodeState to) override;

 private:
  using LiveKey = std::pair<uint64_t, uint32_t>;  // (instance, node)

  struct ItemSegment {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, WorkItem> items;  // by WorkItemId value
    std::map<LiveKey, WorkItemId> live;            // live item per (i, n)
    uint64_t next_seq = 0;
  };
  struct RoleSegment {
    mutable std::mutex mu;
    std::unordered_map<RoleId, std::set<WorkItemId>> offers;
  };
  struct UserSegment {
    mutable std::mutex mu;
    std::unordered_map<UserId, std::set<WorkItemId>> assigned;
  };
  struct InstanceSegment {
    mutable std::mutex mu;
    std::unordered_map<InstanceId, std::set<WorkItemId>> items;
  };

  WorklistService(const OrgModel* org, AdeptApi* api,
                  const WorklistServiceOptions& options);

  Status OpenJournal(bool fresh, const WalScan* prescan);

  size_t SegmentOfKey(InstanceId instance, NodeId node) const;
  size_t SegmentOfItem(WorkItemId item) const {
    return static_cast<size_t>(item.value()) & segment_mask_;
  }

  // Creates an item in `state` (segment lock must NOT be held). Updates
  // the role (offered only), user (claimed/started only), and instance
  // indexes. `epoch` is the node's activation epoch (completed runs at
  // offer time); journaled with claims so replay never attaches a stale
  // claim to a later loop iteration's offer. Returns the new id, or the
  // existing live item's id.
  WorkItemId CreateItem(InstanceId instance, NodeId node, RoleId role,
                        WorkItemState state, UserId user, uint64_t epoch);

  // Erases `item` from its segment and all indexes; `seg.mu` must be
  // held. Journals a close record when the item carried a claim.
  void EraseItemLocked(ItemSegment& seg, const WorkItem& item);

  void IndexOfferAdd(RoleId role, WorkItemId item);
  void IndexOfferRemove(RoleId role, WorkItemId item);
  void IndexUserAdd(UserId user, WorkItemId item);
  void IndexUserRemove(UserId user, WorkItemId item);
  void IndexInstanceAdd(InstanceId instance, WorkItemId item);
  void IndexInstanceRemove(InstanceId instance, WorkItemId item);

  // Fire-and-forget journal append (engine-event transitions). Like
  // every journal enqueue, it must run under the item's segment lock so
  // the journal's per-(instance, node) record order matches the real
  // transition order — replay keeps the last record per key, so an
  // inversion would let a stale release/close overwrite a durably
  // granted claim.
  void JournalAsync(const char* type, InstanceId instance, NodeId node,
                    UserId user = UserId::Invalid(), uint64_t epoch = 0);
  // Enqueues a record (segment lock held) and returns its LSN ticket
  // (0 when no journal is configured); callers WaitJournal() outside the
  // lock so the group-commit flush never blocks other claims.
  uint64_t JournalEnqueueLocked(const char* type, InstanceId instance,
                                NodeId node, UserId user = UserId::Invalid(),
                                uint64_t epoch = 0);
  Status WaitJournal(uint64_t lsn);

  // Copies the items named by `ids`, keeping those that satisfy `keep`.
  std::vector<WorkItem> SnapshotItems(
      const std::set<WorkItemId>& ids,
      const std::function<bool(const WorkItem&)>& keep) const;

  // Shared body of both OffersFor overloads: role-index union, item-table
  // recheck, snapshot revalidation, and (when `predicate` is non-null)
  // predicate evaluation against the same snapshot.
  std::vector<WorkItem> OffersForImpl(UserId user,
                                      const CompiledQuery* predicate) const;

  // Recovery: replays the scanned journal onto freshly derived offers.
  struct ActivityState {
    NodeState state = NodeState::kNotActivated;
    RoleId role;
    uint64_t epoch = 0;  // completed runs per the recovered trace
  };
  void ReplayJournal(
      const std::vector<WalRecord>& records,
      const std::map<LiveKey, ActivityState>& activity_states);

  const OrgModel* org_;
  AdeptApi* api_;
  WorklistServiceOptions options_;
  size_t segment_mask_ = 0;   // segment count - 1 (power of two)
  size_t segment_bits_ = 0;   // id = (seq << bits) | segment
  std::vector<std::unique_ptr<ItemSegment>> item_segments_;
  std::vector<std::unique_ptr<RoleSegment>> role_segments_;
  std::vector<std::unique_ptr<UserSegment>> user_segments_;
  std::vector<std::unique_ptr<InstanceSegment>> instance_segments_;
  std::unique_ptr<WalWriter> journal_;
  std::atomic<size_t> revoked_total_{0};
  std::atomic<size_t> completed_total_{0};
};

}  // namespace adept

#endif  // ADEPT_WORKLIST_WORKLIST_SERVICE_H_
