#include "worklist/worklist_service.h"

#include <algorithm>
#include <filesystem>

#include "model/node.h"

namespace adept {

namespace {

size_t RoundUpPow2(int n) {
  size_t p = 1;
  while (p < static_cast<size_t>(n < 1 ? 1 : n)) p <<= 1;
  return p;
}

size_t Log2(size_t pow2) {
  size_t bits = 0;
  while ((size_t{1} << bits) < pow2) ++bits;
  return bits;
}

// Claimed/started items carry a claim-ledger entry in the journal; pure
// offers do not (they are re-derived from instance state on recovery).
bool CarriesClaim(const WorkItem& item) {
  return item.claimed_by.valid() &&
         (item.state == WorkItemState::kClaimed ||
          item.state == WorkItemState::kStarted);
}

}  // namespace

const Node* OfferableActivity(const SchemaView& schema, NodeId node) {
  const Node* n = schema.FindNode(node);
  if (n == nullptr || n->type != NodeType::kActivity || !n->role.valid()) {
    return nullptr;
  }
  return n;
}

uint64_t ActivationEpoch(const ProcessInstance& instance, NodeId node) {
  return instance.completed_runs(node);
}

WorklistService::WorklistService(const OrgModel* org, AdeptApi* api,
                                 const WorklistServiceOptions& options)
    : org_(org), api_(api), options_(options) {
  size_t segments = RoundUpPow2(options.segments);
  segment_mask_ = segments - 1;
  segment_bits_ = Log2(segments);
  for (size_t i = 0; i < segments; ++i) {
    item_segments_.push_back(std::make_unique<ItemSegment>());
    role_segments_.push_back(std::make_unique<RoleSegment>());
    user_segments_.push_back(std::make_unique<UserSegment>());
    instance_segments_.push_back(std::make_unique<InstanceSegment>());
  }
}

WorklistService::~WorklistService() = default;

Status WorklistService::OpenJournal(bool fresh, const WalScan* prescan) {
  if (options_.journal_path.empty()) return Status::OK();
  WalWriterOptions writer_options;
  writer_options.sync = options_.sync;
  WalScan empty;
  if (fresh) {
    // A fresh service starts a fresh claim ledger — durably: discard any
    // stale journal up front instead of parsing it just to truncate.
    std::error_code ec;
    std::filesystem::remove(options_.journal_path, ec);
    if (ec) {
      return Status::Corruption("cannot discard stale worklist journal '" +
                                options_.journal_path + "': " + ec.message());
    }
    prescan = &empty;
  }
  ADEPT_ASSIGN_OR_RETURN(
      journal_,
      WalWriter::Open(options_.journal_path, writer_options, prescan));
  return Status::OK();
}

Result<std::unique_ptr<WorklistService>> WorklistService::Create(
    const OrgModel* org, AdeptApi* api,
    const WorklistServiceOptions& options) {
  std::unique_ptr<WorklistService> service(
      new WorklistService(org, api, options));
  ADEPT_RETURN_IF_ERROR(service->OpenJournal(/*fresh=*/true, nullptr));
  return service;
}

Result<std::unique_ptr<WorklistService>> WorklistService::Recover(
    const OrgModel* org, AdeptApi* api, const WorklistServiceOptions& options,
    const InstanceEnumerator& instances) {
  std::unique_ptr<WorklistService> service(
      new WorklistService(org, api, options));

  WalScan scan;
  if (!options.journal_path.empty()) {
    ADEPT_ASSIGN_OR_RETURN(scan, WriteAheadLog::Scan(options.journal_path));
  }

  // 1. Derive offers from recovered instance state, and remember the
  // current state of every role-carrying activity so the journal replay
  // can tell which claims are still meaningful.
  std::map<LiveKey, ActivityState> activity_states;
  instances([&](const ProcessInstance& instance) {
    for (const auto& [node, state] : instance.marking().node_states()) {
      const Node* n = OfferableActivity(instance.schema(), node);
      if (n == nullptr) continue;
      uint64_t epoch = ActivationEpoch(instance, node);
      activity_states[{instance.id().value(), node.value()}] = {
          state, n->role, epoch};
      if (state == NodeState::kActivated) {
        service->CreateItem(instance.id(), node, n->role,
                            WorkItemState::kOffered, UserId::Invalid(),
                            epoch);
      }
    }
  });

  // 2. Replay the claim journal on top of the derived offers.
  service->ReplayJournal(scan.records, activity_states);

  // 3. Reopen the writer off the same scan — one parse pass per recovery.
  ADEPT_RETURN_IF_ERROR(service->OpenJournal(/*fresh=*/false, &scan));
  return service;
}

void WorklistService::ReplayJournal(
    const std::vector<WalRecord>& records,
    const std::map<LiveKey, ActivityState>& activity_states) {
  struct Entry {
    WorkItemState state = WorkItemState::kOffered;
    UserId user;
    uint64_t epoch = 0;
    bool live = false;
  };
  std::map<LiveKey, Entry> entries;
  for (const WalRecord& record : records) {
    const JsonValue& v = record.value;
    const std::string& type = v.Get("t").as_string();
    LiveKey key{static_cast<uint64_t>(v.Get("i").as_int()),
                static_cast<uint32_t>(v.Get("n").as_int())};
    UserId user(static_cast<uint32_t>(v.Get("u").as_int()));
    uint64_t epoch = static_cast<uint64_t>(v.Get("e").as_int());
    Entry& e = entries[key];
    if (type == "claim" || type == "delegate") {
      e = {WorkItemState::kClaimed, user, epoch, true};
    } else if (type == "start") {
      e = {WorkItemState::kStarted, user, epoch, true};
    } else if (type == "release") {
      e = {WorkItemState::kOffered, UserId::Invalid(), 0, false};
    } else if (type == "close") {
      e = Entry{};  // claim cycle over; offers are derived, not replayed
    }
  }

  for (const auto& [key, entry] : entries) {
    if (!entry.live || !entry.user.valid()) continue;
    auto found = activity_states.find(key);
    if (found == activity_states.end()) continue;  // node/instance gone
    const ActivityState& current = found->second;
    // The epoch guard: a claim whose run already completed (its async
    // close record was lost in the crash) carries a smaller epoch than
    // the node's re-derived one — it must not steal the fresh offer of a
    // later loop iteration.
    if (entry.epoch != current.epoch) continue;
    InstanceId instance(key.first);
    NodeId node(key.second);
    if (current.state == NodeState::kActivated) {
      // The derived offer exists; attach the recovered claim to it. A
      // started entry at the same epoch means the run never made it into
      // the durable instance state: the claim survives (re-attached as
      // claimed), the start does not — the owner restarts the activity.
      size_t seg_index = SegmentOfKey(instance, node);
      ItemSegment& seg = *item_segments_[seg_index];
      std::lock_guard<std::mutex> lock(seg.mu);
      auto live = seg.live.find({key.first, key.second});
      if (live == seg.live.end()) continue;
      auto it = seg.items.find(live->second.value());
      if (it == seg.items.end() ||
          it->second.state != WorkItemState::kOffered) {
        continue;
      }
      it->second.state = WorkItemState::kClaimed;
      it->second.claimed_by = entry.user;
      IndexOfferRemove(it->second.role, it->second.id);
      IndexUserAdd(entry.user, it->second.id);
    } else if (current.state == NodeState::kRunning ||
               current.state == NodeState::kSuspended ||
               current.state == NodeState::kFailed) {
      // The activity is in flight: the owner's in-progress item survives
      // (a claimed entry whose start record was lost still owns the run).
      CreateItem(instance, node, current.role, WorkItemState::kStarted,
                 entry.user, current.epoch);
    }
    // Completed/Skipped/NotActivated: the work is over; nothing to keep.
  }
}

// --- Segmentation / item table -----------------------------------------------

size_t WorklistService::SegmentOfKey(InstanceId instance, NodeId node) const {
  uint64_t h = instance.value() * uint64_t{0x9E3779B97F4A7C15} ^
               (uint64_t{node.value()} * uint64_t{0xC2B2AE3D27D4EB4F});
  h ^= h >> 29;
  return static_cast<size_t>(h) & segment_mask_;
}

WorkItemId WorklistService::CreateItem(InstanceId instance, NodeId node,
                                       RoleId role, WorkItemState state,
                                       UserId user, uint64_t epoch) {
  size_t seg_index = SegmentOfKey(instance, node);
  ItemSegment& seg = *item_segments_[seg_index];
  std::lock_guard<std::mutex> lock(seg.mu);
  LiveKey key{instance.value(), node.value()};
  auto live = seg.live.find(key);
  if (live != seg.live.end()) return live->second;
  WorkItem item;
  item.id = WorkItemId((++seg.next_seq << segment_bits_) |
                       static_cast<uint64_t>(seg_index));
  item.instance = instance;
  item.node = node;
  item.role = role;
  item.state = state;
  item.claimed_by = user;
  item.epoch = epoch;
  seg.live.emplace(key, item.id);
  seg.items.emplace(item.id.value(), item);
  if (state == WorkItemState::kOffered) {
    IndexOfferAdd(role, item.id);
  } else if (user.valid()) {
    IndexUserAdd(user, item.id);
  }
  IndexInstanceAdd(instance, item.id);
  return item.id;
}

void WorklistService::EraseItemLocked(ItemSegment& seg, const WorkItem& item) {
  if (item.state == WorkItemState::kOffered) {
    IndexOfferRemove(item.role, item.id);
  }
  if (item.claimed_by.valid()) IndexUserRemove(item.claimed_by, item.id);
  IndexInstanceRemove(item.instance, item.id);
  if (CarriesClaim(item)) {
    JournalAsync("close", item.instance, item.node, UserId::Invalid(),
                 item.epoch);
  }
  seg.live.erase({item.instance.value(), item.node.value()});
  seg.items.erase(item.id.value());
}

// --- Index maintenance (leaf locks; called under the item's segment mu) ------

void WorklistService::IndexOfferAdd(RoleId role, WorkItemId item) {
  RoleSegment& seg =
      *role_segments_[std::hash<RoleId>()(role) & segment_mask_];
  std::lock_guard<std::mutex> lock(seg.mu);
  seg.offers[role].insert(item);
}

void WorklistService::IndexOfferRemove(RoleId role, WorkItemId item) {
  RoleSegment& seg =
      *role_segments_[std::hash<RoleId>()(role) & segment_mask_];
  std::lock_guard<std::mutex> lock(seg.mu);
  auto it = seg.offers.find(role);
  if (it == seg.offers.end()) return;
  it->second.erase(item);
  if (it->second.empty()) seg.offers.erase(it);
}

void WorklistService::IndexUserAdd(UserId user, WorkItemId item) {
  UserSegment& seg =
      *user_segments_[std::hash<UserId>()(user) & segment_mask_];
  std::lock_guard<std::mutex> lock(seg.mu);
  seg.assigned[user].insert(item);
}

void WorklistService::IndexUserRemove(UserId user, WorkItemId item) {
  UserSegment& seg =
      *user_segments_[std::hash<UserId>()(user) & segment_mask_];
  std::lock_guard<std::mutex> lock(seg.mu);
  auto it = seg.assigned.find(user);
  if (it == seg.assigned.end()) return;
  it->second.erase(item);
  if (it->second.empty()) seg.assigned.erase(it);
}

void WorklistService::IndexInstanceAdd(InstanceId instance, WorkItemId item) {
  InstanceSegment& seg =
      *instance_segments_[std::hash<InstanceId>()(instance) & segment_mask_];
  std::lock_guard<std::mutex> lock(seg.mu);
  seg.items[instance].insert(item);
}

void WorklistService::IndexInstanceRemove(InstanceId instance,
                                          WorkItemId item) {
  InstanceSegment& seg =
      *instance_segments_[std::hash<InstanceId>()(instance) & segment_mask_];
  std::lock_guard<std::mutex> lock(seg.mu);
  auto it = seg.items.find(instance);
  if (it == seg.items.end()) return;
  it->second.erase(item);
  if (it->second.empty()) seg.items.erase(it);
}

// --- Journal -----------------------------------------------------------------

namespace {
JsonValue JournalRecord(const char* type, InstanceId instance, NodeId node,
                        UserId user, uint64_t epoch) {
  JsonValue record = JsonValue::MakeObject();
  record.Set("t", JsonValue(type));
  record.Set("i", JsonValue(instance.value()));
  record.Set("n", JsonValue(node.value()));
  record.Set("u", JsonValue(user.valid() ? user.value() : 0));
  record.Set("e", JsonValue(epoch));
  return record;
}
}  // namespace

void WorklistService::JournalAsync(const char* type, InstanceId instance,
                                   NodeId node, UserId user, uint64_t epoch) {
  if (journal_ == nullptr) return;
  journal_->Enqueue(JournalRecord(type, instance, node, user, epoch));
}

uint64_t WorklistService::JournalEnqueueLocked(const char* type,
                                               InstanceId instance,
                                               NodeId node, UserId user,
                                               uint64_t epoch) {
  if (journal_ == nullptr) return 0;
  return journal_->Enqueue(JournalRecord(type, instance, node, user, epoch));
}

Status WorklistService::WaitJournal(uint64_t lsn) {
  if (journal_ == nullptr || lsn == 0) return Status::OK();
  return journal_->WaitDurable(lsn);
}

// --- Claim lifecycle ---------------------------------------------------------

Status WorklistService::Claim(WorkItemId item_id, UserId user) {
  ItemSegment& seg = *item_segments_[SegmentOfItem(item_id)];
  RoleId role;
  uint64_t lsn = 0;
  {
    std::lock_guard<std::mutex> lock(seg.mu);
    auto it = seg.items.find(item_id.value());
    if (it == seg.items.end()) return Status::NotFound("no such work item");
    WorkItem& item = it->second;
    // The compare-and-swap: exactly one concurrent claimer sees kOffered.
    if (item.state != WorkItemState::kOffered) {
      return Status::FailedPrecondition("work item is not offered");
    }
    if (!org_->UserHasRole(user, item.role)) {
      return Status::FailedPrecondition(
          "user does not hold the required role");
    }
    item.state = WorkItemState::kClaimed;
    item.claimed_by = user;
    IndexOfferRemove(item.role, item.id);
    IndexUserAdd(user, item.id);
    role = item.role;
    // Enqueued under the lock so the journal's record order for this
    // (instance, node) matches the transition order; never blocks.
    lsn = JournalEnqueueLocked("claim", item.instance, item.node, user,
                               item.epoch);
  }
  // Durability wait outside the segment lock: claims on other items (and
  // other users) proceed while the group-commit batch flushes.
  Status durable = WaitJournal(lsn);
  if (!durable.ok()) {
    // The claim was never granted: roll the in-memory state back (unless
    // an engine event already moved the item on).
    std::lock_guard<std::mutex> lock(seg.mu);
    auto it = seg.items.find(item_id.value());
    if (it != seg.items.end() &&
        it->second.state == WorkItemState::kClaimed &&
        it->second.claimed_by == user) {
      it->second.state = WorkItemState::kOffered;
      it->second.claimed_by = UserId::Invalid();
      IndexUserRemove(user, item_id);
      IndexOfferAdd(role, item_id);
    }
    return durable;
  }
  return Status::OK();
}

Status WorklistService::Release(WorkItemId item_id, UserId user) {
  ItemSegment& seg = *item_segments_[SegmentOfItem(item_id)];
  uint64_t lsn = 0;
  {
    std::lock_guard<std::mutex> lock(seg.mu);
    auto it = seg.items.find(item_id.value());
    if (it == seg.items.end()) return Status::NotFound("no such work item");
    WorkItem& item = it->second;
    if (item.state != WorkItemState::kClaimed || item.claimed_by != user) {
      return Status::FailedPrecondition("work item is not claimed by user");
    }
    item.state = WorkItemState::kOffered;
    item.claimed_by = UserId::Invalid();
    IndexUserRemove(user, item.id);
    IndexOfferAdd(item.role, item.id);
    lsn = JournalEnqueueLocked("release", item.instance, item.node);
  }
  // No rollback on journal failure: the release stands in memory; after a
  // crash the journal's last durable record wins (the user still owned
  // the claim), which only errs toward keeping work assigned.
  return WaitJournal(lsn);
}

Status WorklistService::Delegate(WorkItemId item_id, UserId from, UserId to) {
  ItemSegment& seg = *item_segments_[SegmentOfItem(item_id)];
  uint64_t lsn = 0;
  {
    std::lock_guard<std::mutex> lock(seg.mu);
    auto it = seg.items.find(item_id.value());
    if (it == seg.items.end()) return Status::NotFound("no such work item");
    WorkItem& item = it->second;
    if (item.state != WorkItemState::kClaimed || item.claimed_by != from) {
      return Status::FailedPrecondition("work item is not claimed by user");
    }
    if (!org_->UserHasRole(to, item.role)) {
      return Status::FailedPrecondition(
          "delegate does not hold the required role");
    }
    item.claimed_by = to;
    IndexUserRemove(from, item.id);
    IndexUserAdd(to, item.id);
    lsn = JournalEnqueueLocked("delegate", item.instance, item.node, to,
                               item.epoch);
  }
  return WaitJournal(lsn);
}

Status WorklistService::Start(WorkItemId item_id, UserId user) {
  ItemSegment& seg = *item_segments_[SegmentOfItem(item_id)];
  InstanceId instance;
  NodeId node;
  {
    std::lock_guard<std::mutex> lock(seg.mu);
    auto it = seg.items.find(item_id.value());
    if (it == seg.items.end()) return Status::NotFound("no such work item");
    const WorkItem& item = it->second;
    if (item.state != WorkItemState::kClaimed || item.claimed_by != user) {
      return Status::FailedPrecondition("claim the work item first");
    }
    instance = item.instance;
    node = item.node;
  }
  // The engine turn runs under the owner shard's lock; its Activated ->
  // Running event (same lock) marks the item started and journals it.
  return api_->StartActivity(instance, node);
}

Status WorklistService::Complete(
    WorkItemId item_id, UserId user,
    const std::vector<ProcessInstance::DataWrite>& writes) {
  ItemSegment& seg = *item_segments_[SegmentOfItem(item_id)];
  InstanceId instance;
  NodeId node;
  {
    std::lock_guard<std::mutex> lock(seg.mu);
    auto it = seg.items.find(item_id.value());
    if (it == seg.items.end()) return Status::NotFound("no such work item");
    const WorkItem& item = it->second;
    if (item.state != WorkItemState::kStarted || item.claimed_by != user) {
      return Status::FailedPrecondition("work item is not started by user");
    }
    instance = item.instance;
    node = item.node;
  }
  return api_->CompleteActivity(instance, node, writes);
}

// --- Views -------------------------------------------------------------------

std::vector<WorkItem> WorklistService::SnapshotItems(
    const std::set<WorkItemId>& ids,
    const std::function<bool(const WorkItem&)>& keep) const {
  std::vector<WorkItem> out;
  for (WorkItemId id : ids) {
    const ItemSegment& seg = *item_segments_[SegmentOfItem(id)];
    std::lock_guard<std::mutex> lock(seg.mu);
    auto it = seg.items.find(id.value());
    if (it != seg.items.end() && keep(it->second)) out.push_back(it->second);
  }
  return out;
}

std::vector<WorkItem> WorklistService::OffersFor(UserId user) const {
  return OffersForImpl(user, nullptr);
}

Result<std::vector<WorkItem>> WorklistService::OffersFor(
    UserId user, const std::string& predicate) const {
  ADEPT_ASSIGN_OR_RETURN(CompiledQuery compiled,
                         CompiledQuery::Compile(predicate));
  return OffersForImpl(user, &compiled);
}

std::vector<WorkItem> WorklistService::OffersForImpl(
    UserId user, const CompiledQuery* predicate) const {
  std::set<WorkItemId> candidates;
  for (RoleId role : org_->RolesOf(user)) {
    const RoleSegment& seg =
        *role_segments_[std::hash<RoleId>()(role) & segment_mask_];
    std::lock_guard<std::mutex> lock(seg.mu);
    auto it = seg.offers.find(role);
    if (it == seg.offers.end()) continue;
    candidates.insert(it->second.begin(), it->second.end());
  }
  // The index is advisory (it may trail a concurrent claim by a moment);
  // the item table is the truth, so re-check the state per item.
  std::vector<WorkItem> items =
      SnapshotItems(candidates, [](const WorkItem& item) {
        return item.state == WorkItemState::kOffered;
      });
  // Revalidate hits against the engine's published snapshots — the
  // lock-free read path, so the hottest worklist query never takes a
  // shard mutex. An offer whose node is no longer Activated, or whose
  // activation epoch belongs to an earlier loop iteration, is stale
  // (the retraction event will erase it momentarily); conversely a
  // snapshot that trails an in-flight mutation can only *hide* an offer
  // for one poll, never surface a wrong one. No snapshot (instance
  // mid-move during a resize) keeps the item — except under a predicate,
  // which has nothing to evaluate against and drops it for this poll.
  // The predicate reuses the snapshot this pass already fetched, so the
  // filtered view costs zero extra locks or lookups.
  std::vector<WorkItem> offers;
  offers.reserve(items.size());
  for (WorkItem& item : items) {
    std::shared_ptr<const InstanceSnapshot> snapshot =
        api_->SnapshotOf(item.instance);
    if (snapshot != nullptr) {
      if (snapshot->marking.node(item.node) != NodeState::kActivated) {
        continue;
      }
      const uint64_t* runs = snapshot->completed_runs.Find(item.node);
      uint64_t epoch = runs == nullptr ? 0 : *runs;
      if (epoch != item.epoch) continue;
      if (predicate != nullptr && !predicate->Matches(*snapshot)) continue;
    } else if (predicate != nullptr) {
      continue;
    }
    offers.push_back(std::move(item));
  }
  return offers;
}

std::vector<WorkItem> WorklistService::AssignedTo(UserId user) const {
  std::set<WorkItemId> candidates;
  {
    const UserSegment& seg =
        *user_segments_[std::hash<UserId>()(user) & segment_mask_];
    std::lock_guard<std::mutex> lock(seg.mu);
    auto it = seg.assigned.find(user);
    if (it != seg.assigned.end()) candidates = it->second;
  }
  return SnapshotItems(candidates, [user](const WorkItem& item) {
    return item.claimed_by == user &&
           (item.state == WorkItemState::kClaimed ||
            item.state == WorkItemState::kStarted);
  });
}

Result<WorkItem> WorklistService::Get(WorkItemId item_id) const {
  const ItemSegment& seg = *item_segments_[SegmentOfItem(item_id)];
  std::lock_guard<std::mutex> lock(seg.mu);
  auto it = seg.items.find(item_id.value());
  if (it == seg.items.end()) return Status::NotFound("no such work item");
  return it->second;
}

WorklistStats WorklistService::Stats() const {
  WorklistStats stats;
  for (const auto& seg_ptr : item_segments_) {
    const ItemSegment& seg = *seg_ptr;
    std::lock_guard<std::mutex> lock(seg.mu);
    for (const auto& [_, item] : seg.items) {
      switch (item.state) {
        case WorkItemState::kOffered:
          ++stats.offered;
          break;
        case WorkItemState::kClaimed:
          ++stats.claimed;
          break;
        case WorkItemState::kStarted:
          ++stats.started;
          break;
      }
    }
  }
  stats.revoked_total = revoked_total_.load(std::memory_order_relaxed);
  stats.completed_total = completed_total_.load(std::memory_order_relaxed);
  return stats;
}

// --- Checkpointing -----------------------------------------------------------

Status WorklistService::CompactJournal() {
  if (journal_ == nullptr) return Status::OK();
  // Quiesce the claim lifecycle: with every segment lock held no journal
  // record can be enqueued (all enqueues run under an item's segment
  // lock), so the live-claim sweep and the rewrite see the same state.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(item_segments_.size());
  for (auto& seg : item_segments_) locks.emplace_back(seg->mu);
  std::vector<JsonValue> records;
  for (const auto& seg : item_segments_) {
    for (const auto& [_, item] : seg->items) {
      if (!CarriesClaim(item)) continue;
      records.push_back(JournalRecord(
          item.state == WorkItemState::kStarted ? "start" : "claim",
          item.instance, item.node, item.claimed_by, item.epoch));
    }
  }
  return journal_->Rewrite(records);
}

// --- Event subscription ------------------------------------------------------

void WorklistService::OnNodeStateChange(const ProcessInstance& instance,
                                        NodeId node, NodeState from,
                                        NodeState to) {
  if (to == NodeState::kActivated && from != NodeState::kActivated) {
    const Node* n = OfferableActivity(instance.schema(), node);
    if (n == nullptr) return;
    CreateItem(instance.id(), node, n->role, WorkItemState::kOffered,
               UserId::Invalid(), ActivationEpoch(instance, node));
    return;
  }

  ItemSegment& seg = *item_segments_[SegmentOfKey(instance.id(), node)];
  std::lock_guard<std::mutex> lock(seg.mu);
  auto live = seg.live.find({instance.id().value(), node.value()});
  if (live == seg.live.end()) return;
  auto it = seg.items.find(live->second.value());
  if (it == seg.items.end()) return;
  WorkItem& item = it->second;

  if (to == NodeState::kRunning && from == NodeState::kActivated) {
    if (item.state == WorkItemState::kClaimed) {
      // The claimer (or a delegate) started the activity: their item
      // moves to started and stays on their assignment list.
      item.state = WorkItemState::kStarted;
      JournalAsync("start", item.instance, item.node, item.claimed_by,
                   item.epoch);
    } else if (item.state == WorkItemState::kOffered) {
      // Started directly through the engine without a claim: the offer
      // simply closes (no claim ledger entry to cancel).
      EraseItemLocked(seg, item);
    }
    return;
  }
  if (to == NodeState::kRunning || to == NodeState::kSuspended ||
      to == NodeState::kFailed) {
    return;  // retry/suspend/resume keep the owner's in-progress item
  }
  if (to == NodeState::kCompleted) {
    if (item.state == WorkItemState::kStarted ||
        item.state == WorkItemState::kClaimed) {
      completed_total_.fetch_add(1, std::memory_order_relaxed);
    }
    EraseItemLocked(seg, item);
    return;
  }
  // NotActivated / Skipped (ad-hoc deletion, demotion, dead path, loop
  // reset): retract the item — offered or claimed, exactly once.
  revoked_total_.fetch_add(1, std::memory_order_relaxed);
  EraseItemLocked(seg, item);
}

// --- Adaptation hooks --------------------------------------------------------

void WorklistService::Resync(const InstanceEnumerator& instances) {
  instances([&](const ProcessInstance& instance) {
    // Snapshot this instance's items (instance-index lock is a leaf; do
    // not hold it while touching segments).
    std::set<WorkItemId> ids;
    {
      InstanceSegment& iseg = *instance_segments_[
          std::hash<InstanceId>()(instance.id()) & segment_mask_];
      std::lock_guard<std::mutex> lock(iseg.mu);
      auto found = iseg.items.find(instance.id());
      if (found != iseg.items.end()) ids = found->second;
    }
    for (WorkItemId id : ids) {
      ItemSegment& seg = *item_segments_[SegmentOfItem(id)];
      std::lock_guard<std::mutex> lock(seg.mu);
      auto it = seg.items.find(id.value());
      if (it == seg.items.end()) continue;
      WorkItem& item = it->second;
      if (item.instance != instance.id()) continue;
      const Node* n = instance.schema().FindNode(item.node);
      NodeState state = n == nullptr ? NodeState::kNotActivated
                                     : instance.node_state(item.node);
      bool ok = false;
      switch (item.state) {
        case WorkItemState::kOffered:
          ok = state == NodeState::kActivated;
          break;
        case WorkItemState::kClaimed:
          // A claimed item whose node is already Running was started by
          // its owner concurrently; promote instead of revoking.
          if (state == NodeState::kRunning) {
            item.state = WorkItemState::kStarted;
            JournalAsync("start", item.instance, item.node, item.claimed_by,
                         item.epoch);
            ok = true;
          } else {
            ok = state == NodeState::kActivated;
          }
          break;
        case WorkItemState::kStarted:
          ok = state == NodeState::kRunning ||
               state == NodeState::kSuspended || state == NodeState::kFailed;
          break;
      }
      if (!ok) {
        revoked_total_.fetch_add(1, std::memory_order_relaxed);
        EraseItemLocked(seg, item);
      }
    }
    // Offer Activated role activities the remap left without an item.
    for (const auto& [node, state] : instance.marking().node_states()) {
      if (state != NodeState::kActivated) continue;
      const Node* n = OfferableActivity(instance.schema(), node);
      if (n == nullptr) continue;
      CreateItem(instance.id(), node, n->role, WorkItemState::kOffered,
                 UserId::Invalid(), ActivationEpoch(instance, node));
    }
  });
}

}  // namespace adept
