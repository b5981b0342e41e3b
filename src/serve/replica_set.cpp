#include "serve/replica_set.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "rpc/remote_replica.h"
#include "serve/feature_source.h"

namespace ppgnn::serve {

const char* replica_state_name(ReplicaState s) {
  switch (s) {
    case ReplicaState::kWarming:
      return "warming";
    case ReplicaState::kActive:
      return "active";
    case ReplicaState::kDraining:
      return "draining";
    case ReplicaState::kRetired:
      return "retired";
  }
  return "?";
}

FleetManager::FleetManager(FleetBuilder builder, std::size_t initial_replicas,
                           const FleetConfig& cfg)
    : builder_(std::make_unique<FleetBuilder>(std::move(builder))) {
  if (initial_replicas == 0) {
    throw std::invalid_argument("FleetManager: zero initial replicas");
  }
  auto sessions = builder_->build_n(initial_replicas);
  init(std::move(sessions), cfg);
}

FleetManager::FleetManager(
    std::vector<std::unique_ptr<InferenceSession>> sessions,
    const FleetConfig& cfg) {
  if (cfg.autoscale.enabled) {
    throw std::invalid_argument(
        "FleetManager: autoscaling needs a FleetBuilder (a fleet built from "
        "pre-made sessions has no recipe to spawn more)");
  }
  init(std::move(sessions), cfg);
}

FleetManager::FleetManager(RemoteSpawnFn spawn, std::size_t initial_replicas,
                           const FleetConfig& cfg)
    : remote_spawn_(std::move(spawn)) {
  if (!remote_spawn_) {
    throw std::invalid_argument("FleetManager: null remote spawn recipe");
  }
  if (initial_replicas == 0) {
    throw std::invalid_argument("FleetManager: zero initial replicas");
  }
  init_config(cfg);

  auto m = std::make_shared<Membership>();
  m->epoch = 0;
  for (std::size_t i = 0; i < initial_replicas; ++i) {
    auto remote = remote_spawn_(next_generation_);
    if (!remote) {
      // Retire the replicas already spawned before failing the build; the
      // handles' remotes SIGTERM + reap in their destructors.
      throw std::runtime_error(
          "FleetManager: remote replica spawn failed (see server log)");
    }
    auto h = make_remote_handle(std::move(remote));
    // Same loud config/deployment-mismatch failure as the local ctor; the
    // server advertises its serving precision in the HelloAck.
    if (static_cast<Precision>(h->remote->info().precision) !=
        cfg_.precision) {
      throw std::invalid_argument(
          "FleetManager: remote replica precision disagrees with config");
    }
    h->state.store(ReplicaState::kActive, std::memory_order_release);
    h->activated_at = started_at_;
    h->first_window_measured = true;  // cache lives server-side
    m->replicas.push_back(h);
    all_handles_.push_back(h);
    record_event(/*spawned=*/true, *h, m->epoch, m->replicas.size());
  }
  m->ring = ring_over(m->replicas);
  std::atomic_store(&membership_,
                    std::shared_ptr<const Membership>(std::move(m)));

  if (cfg_.autoscale.enabled) {
    autoscaler_ = std::make_unique<AutoscalePolicy>(cfg_.autoscale);
    controller_ = std::thread([this] { controller_loop(); });
  }
}

void FleetManager::init_config(const FleetConfig& cfg) {
  cfg_ = cfg;
  cfg_.clock = clock_or_real(cfg_.clock);
  // One fleet-level knob moves all policy-visible time: the batchers
  // inherit the fleet clock unless a caller pinned their own.
  if (!cfg_.batch.clock) cfg_.batch.clock = cfg_.clock;
  precision_ = cfg.precision;
  started_at_ = cfg_.clock->now();
  router_ = make_router(cfg_.policy);
  if (cfg_.tenants) {
    // Tenancy: one registry knob wires the whole tier — the front gate
    // charges quotas here, and every replica's batcher (local replicas
    // inherit cfg_.batch) composes batches by the same registry's weights.
    if (!cfg_.batch.tenants) cfg_.batch.tenants = cfg_.tenants;
    admission_ =
        std::make_unique<tenancy::TenantAdmission>(*cfg_.tenants, cfg_.clock);
    front_stats_ =
        std::make_unique<ServerStats>(cfg_.stats_window, cfg_.clock);
  }
}

void FleetManager::init(std::vector<std::unique_ptr<InferenceSession>> sessions,
                        const FleetConfig& cfg) {
  if (sessions.empty()) {
    throw std::invalid_argument("FleetManager: no sessions");
  }
  init_config(cfg);

  auto m = std::make_shared<Membership>();
  m->epoch = 0;
  for (auto& session : sessions) {
    if (!session) {
      throw std::invalid_argument("FleetManager: null session");
    }
    if (session->precision() != cfg_.precision) {
      throw std::invalid_argument(
          "FleetManager: session precision disagrees with config (build the "
          "fleet with a FleetBuilder at the configured precision)");
    }
    auto h = make_handle(std::move(session));
    h->state.store(ReplicaState::kActive, std::memory_order_release);
    h->activated_at = started_at_;
    h->first_window_measured = true;  // initial fleet: nothing to compare
    m->replicas.push_back(h);
    all_handles_.push_back(h);
    record_event(/*spawned=*/true, *h, m->epoch, m->replicas.size());
  }
  m->ring = ring_over(m->replicas);
  std::atomic_store(&membership_, std::shared_ptr<const Membership>(std::move(m)));

  if (cfg_.autoscale.enabled) {
    autoscaler_ = std::make_unique<AutoscalePolicy>(cfg_.autoscale);
    controller_ = std::thread([this] { controller_loop(); });
  }
}

FleetManager::~FleetManager() { stop(); }

std::shared_ptr<FleetManager::ReplicaHandle> FleetManager::make_handle(
    std::unique_ptr<InferenceSession> session) {
  auto h = std::make_shared<ReplicaHandle>();
  h->generation = next_generation_++;
  h->session = std::move(session);
  h->stats = std::make_unique<ServerStats>(cfg_.stats_window, cfg_.clock);
  h->batcher = std::make_unique<MicroBatcher>(*h->session, cfg_.batch,
                                              h->stats.get());
  return h;
}

std::shared_ptr<FleetManager::ReplicaHandle> FleetManager::make_remote_handle(
    std::shared_ptr<rpc::RemoteReplica> remote) {
  auto h = std::make_shared<ReplicaHandle>();
  h->generation = next_generation_++;
  h->remote = std::move(remote);
  // Stats are the CLIENT-side view (round-trip latency, wire-part
  // verdicts), recorded by the bridge on completion — the same windowed
  // signal surface the autoscaler reads for local replicas.
  h->stats = std::make_unique<ServerStats>(cfg_.stats_window, cfg_.clock);
  return h;
}

std::size_t FleetManager::depth_of(const ReplicaHandle& h) {
  return h.batcher ? h.batcher->queue_depth() : h.remote->inflight();
}

HashRing FleetManager::ring_over(
    const std::vector<std::shared_ptr<ReplicaHandle>>& replicas) {
  std::vector<std::uint64_t> generations;
  generations.reserve(replicas.size());
  for (const auto& h : replicas) generations.push_back(h->generation);
  return HashRing(generations);
}

std::shared_ptr<const FleetManager::Membership> FleetManager::current() const {
  auto m = std::atomic_load(&membership_);
  if (!m || m->replicas.empty()) {
    throw std::runtime_error("FleetManager: stopped");
  }
  return m;
}

void FleetManager::submit(ServeRequest req, CompletionQueue& cq) {
  if (req.nodes.empty()) {
    throw std::invalid_argument("FleetManager::submit: empty envelope");
  }
  if (admission_) {
    // Tenancy front gate, in contract order: clamp the claimed priority to
    // the tenant's ceiling, stamp the contract's default deadline onto
    // deadline-free requests, then charge the token bucket.  A refusal is
    // terminal HERE — the envelope answers kQuotaExceeded without ever
    // being routed, so it can never surface as kDraining (nothing to
    // re-route) nor pollute a replica's shed counters.
    const auto snap = cfg_.tenants->snapshot();
    // An id with no registered contract bills to the default tenant 0
    // BEFORE any bucket or stats slice is keyed on it: a caller minting
    // fresh ids must buy neither a fresh full bucket nor a fresh row.
    if (snap->contracts.count(req.tenant) == 0) req.tenant = 0;
    const tenancy::TenantContract& c = snap->of(req.tenant);
    if (c.priority_ceiling == Priority::kLow) req.priority = Priority::kLow;
    if (!req.has_deadline() && c.default_deadline_us > 0) {
      req.deadline =
          cfg_.clock->now() + std::chrono::microseconds(c.default_deadline_us);
    }
    if (!admission_->try_admit(req.tenant, req.nodes.size())) {
      front_stats_->record_quota_refused(req.tenant, 1);
      auto state = std::make_shared<RequestState>(std::move(req), &cq);
      const std::size_t parts = state->parts();
      for (std::uint32_t slot = 0; slot < parts; ++slot) {
        state->finish_part(slot, ServeStatus::kQuotaExceeded, nullptr, 0,
                           StageTimings{});
      }
      return;
    }
  }
  auto state = std::make_shared<RequestState>(std::move(req), &cq);
  std::vector<std::uint32_t> slots(state->parts());
  for (std::uint32_t i = 0; i < slots.size(); ++i) slots[i] = i;
  place_parts(state, std::move(slots));
}

void FleetManager::place_parts(const std::shared_ptr<RequestState>& state,
                               std::vector<std::uint32_t> slots) {
  const auto& nodes = state->request().nodes;
  // Route against one snapshot, submit, re-route only the sub-batches a
  // draining replica bounced — the retry's fresh snapshot no longer
  // contains the drained replica, so the loop terminates.  No lock is
  // shared with the scaling path: a resize publishes a fresh snapshot
  // instead of mutating this one.
  for (;;) {
    const auto m = std::atomic_load(&membership_);
    if (!m || m->replicas.empty()) {
      // Stopped fleet: submit never throws on admission outcomes — the
      // envelope answers kDraining so the caller can re-route at a higher
      // level (or give up), and the completion contract holds.
      for (const std::uint32_t slot : slots) {
        state->finish_part(slot, ServeStatus::kDraining, nullptr, 0,
                           StageTimings{});
      }
      return;
    }
    std::vector<SubBatch> groups;
    if (router_->policy() == RoutingPolicy::kCacheAffinity &&
        m->replicas.size() > 1) {
      // Ring-consistent split: every node keeps its cache_affinity home,
      // so a multi-node envelope hits each shard's warm cache instead of
      // dragging the whole request to one replica's cold one.
      groups = split_by_ring(nodes, slots, m->ring);
    } else {
      // Load-oblivious policies make one decision per envelope: splitting
      // round_robin traffic would just multiply dispatch overhead without
      // a cache to aim at.
      const QueueDepthFn depth = [&m](std::size_t i) {
        return depth_of(*m->replicas[i]);
      };
      RouteTargets targets;
      targets.count = m->replicas.size();
      targets.queue_depth = &depth;
      targets.ring = &m->ring;
      groups.push_back(
          SubBatch{router_->route(nodes[slots[0]], targets), slots});
    }
    std::vector<std::uint32_t> bounced;
    for (SubBatch& g : groups) {
      const auto& hp = m->replicas[g.member];
      hp->routed.fetch_add(g.slots.size(), std::memory_order_relaxed);
      if (hp->remote) {
        // Fire-and-forget over the wire; the bridge either finishes every
        // slot or fails them back into place_parts (see submit_remote).
        submit_remote(hp, state, std::move(g.slots));
        continue;
      }
      ReplicaHandle& h = *hp;
      RejectReason reason;
      try {
        reason = h.batcher->try_submit_parts(state, g.slots.data(),
                                             g.slots.size());
      } catch (const std::runtime_error&) {
        // stop() raced the snapshot load and this batcher is already
        // stopped (without the draining flag a retirement would set):
        // terminal for the whole fleet, so answer kDraining directly.
        for (const std::uint32_t slot : g.slots) {
          state->finish_part(slot, ServeStatus::kDraining, nullptr, 0,
                             StageTimings{});
        }
        continue;
      }
      if (reason == RejectReason::kDraining) {
        bounced.insert(bounced.end(), g.slots.begin(), g.slots.end());
      }
      // kNone: admitted.  kOverload / kDeadline: the batcher resolved the
      // parts itself (kShed / kDeadlineExceeded) — nothing left to do.
    }
    if (bounced.empty()) return;
    slots = std::move(bounced);
  }
}

void FleetManager::submit_remote(const std::shared_ptr<ReplicaHandle>& h,
                                 const std::shared_ptr<RequestState>& state,
                                 std::vector<std::uint32_t> slots) {
  // The bridge guarantees exactly one of: every slot finished, or the fail
  // handler invoked once with all of them.  The fail handler runs the
  // crash detector (transport loss and draining servers look identical
  // from here: this replica cannot take the work) and re-routes against a
  // snapshot that no longer contains it — the same terminating loop shape
  // as a local draining bounce.  May run inline or on the client's I/O
  // thread; place_parts is safe on both (one atomic load, no admin lock).
  h->remote->submit_parts(
      state, slots.data(), slots.size(), h->stats.get(),
      [this, h](const std::shared_ptr<RequestState>& st,
                std::vector<std::uint32_t> failed) {
        remove_dead_replica(h);
        place_parts(st, std::move(failed));
      });
}

void FleetManager::remove_dead_replica(const std::shared_ptr<ReplicaHandle>& h) {
  // Pre-check OUTSIDE admin_mu_: when the scaler is retiring this replica
  // it already unpublished it, and it may be blocking admin_mu_ held while
  // waiting on the very I/O thread this runs on — skipping the lock here
  // is what breaks that cycle (see the header).
  if (h->state.load(std::memory_order_acquire) != ReplicaState::kActive) {
    return;
  }
  std::lock_guard<std::mutex> lk(admin_mu_);
  if (stopped_) return;
  if (h->state.load(std::memory_order_acquire) != ReplicaState::kActive) {
    return;  // lost the race to a scaler or another failed call
  }
  const auto m = std::atomic_load(&membership_);
  auto next = std::make_shared<Membership>();
  next->epoch = m->epoch + 1;
  for (const auto& r : m->replicas) {
    if (r != h) next->replicas.push_back(r);
  }
  if (next->replicas.size() == m->replicas.size()) return;  // already gone
  next->ring = ring_over(next->replicas);
  h->state.store(ReplicaState::kRetired, std::memory_order_release);
  std::atomic_store(&membership_,
                    std::shared_ptr<const Membership>(std::move(next)));
  record_event(/*spawned=*/false, *h, m->epoch + 1, m->replicas.size() - 1);
  // An empty membership (last replica died) is survivable: envelopes
  // answer kDraining until a scale_up repopulates it.
}

ServeResponse FleetManager::infer_request(ServeRequest req) {
  CompletionQueue cq;
  submit(std::move(req), cq);
  ServeResponse r;
  // Every envelope produces exactly one response, so this terminates; the
  // loop just bounds each wait for signal-safety.
  while (!cq.wait_for(&r, std::chrono::milliseconds(100))) {
  }
  return r;
}

std::size_t FleetManager::warm_from_peers(ReplicaHandle& fresh,
                                          const Membership& current_members,
                                          const HashRing& next_ring) {
  if (cfg_.warm_keys == 0) return 0;
  if (!fresh.session) return 0;  // remote: warms server-side
  auto* dst = dynamic_cast<CachedSource*>(&fresh.session->features());
  if (!dst) return 0;
  // The fresh replica occupies the last slot of the next membership; under
  // cache_affinity only the rows the new ring assigns THERE are worth
  // copying (the rest stay home on their peers).  Other policies spread
  // every node everywhere, so any peer-hot row is a useful seed.
  const std::size_t new_index = current_members.replicas.size();
  const bool ring_filter = cfg_.policy == RoutingPolicy::kCacheAffinity;
  std::vector<std::pair<std::int64_t, std::vector<std::uint8_t>>> batch;
  std::unordered_set<std::int64_t> seen;
  for (const auto& peer : current_members.replicas) {
    if (!peer->session) continue;
    auto* src = dynamic_cast<CachedSource*>(&peer->session->features());
    if (!src) continue;
    for (auto& [row, bytes] : src->export_hot_payloads(cfg_.warm_keys)) {
      if (batch.size() >= cfg_.warm_keys) break;
      if (ring_filter && next_ring.lookup(row) != new_index) continue;
      if (!seen.insert(row).second) continue;
      batch.emplace_back(row, std::move(bytes));
    }
    if (batch.size() >= cfg_.warm_keys) break;
  }
  return dst->admit_payloads(batch);
}

std::size_t FleetManager::handoff_to_successors(ReplicaHandle& victim,
                                                const Membership& next) {
  if (cfg_.warm_keys == 0) return 0;
  if (!victim.session) return 0;  // remote: cache lives server-side
  auto* src = dynamic_cast<CachedSource*>(&victim.session->features());
  if (!src) return 0;
  // The victim is already unpublished: `next`'s ring is live, so every hot
  // row has exactly one new home.  Ship each row there (recency order —
  // export_hot_payloads yields hottest first) so the successor's first
  // window after the retirement starts warm instead of faulting the
  // victim's working set back in through misses.
  std::vector<std::vector<std::pair<std::int64_t, std::vector<std::uint8_t>>>>
      batches(next.replicas.size());
  for (auto& [row, bytes] : src->export_hot_payloads(cfg_.warm_keys)) {
    const std::size_t dst_index = next.ring.lookup(row);
    if (dst_index >= batches.size()) continue;
    // Remote successors warm server-side; no client-side cache to seed.
    if (!next.replicas[dst_index]->session) continue;
    batches[dst_index].emplace_back(row, std::move(bytes));
  }
  PendingHandoffMeasure pending;
  pending.victim_generation = victim.generation;
  pending.handed_at = cfg_.clock->now();
  std::size_t admitted = 0;
  for (std::size_t i = 0; i < batches.size(); ++i) {
    if (batches[i].empty()) continue;
    auto* dst = dynamic_cast<CachedSource*>(
        &next.replicas[i]->session->features());
    if (!dst) continue;
    admitted += dst->admit_payloads(batches[i]);
    pending.successors.emplace_back(next.replicas[i], dst->stats());
  }
  if (!pending.successors.empty()) {
    pending_handoffs_.push_back(std::move(pending));
  }
  return admitted;
}

std::uint64_t FleetManager::scale_up() {
  std::lock_guard<std::mutex> lk(admin_mu_);
  if (stopped_) throw std::runtime_error("FleetManager: stopped");
  if (!builder_ && !remote_spawn_) {
    throw std::logic_error(
        "FleetManager: fixed fleet has no FleetBuilder to spawn from");
  }
  const auto m = std::atomic_load(&membership_);
  // Build off the submit path: traffic keeps flowing against the current
  // snapshot while the new session loads shared weights and warms up (for
  // a remote replica: while the new server process loads its checkpoint —
  // the spawn returns only after the Hello handshake proves it serves).
  std::shared_ptr<ReplicaHandle> h;
  if (builder_) {
    h = make_handle(builder_->build(next_generation_));
  } else {
    auto remote = remote_spawn_(next_generation_);
    if (!remote) {
      throw std::runtime_error(
          "FleetManager: remote replica spawn failed (see server log)");
    }
    h = make_remote_handle(std::move(remote));
  }
  h->spawned_dynamic = true;

  auto next = std::make_shared<Membership>();
  next->epoch = m->epoch + 1;
  next->replicas = m->replicas;
  next->replicas.push_back(h);
  next->ring = ring_over(next->replicas);

  // Warming -> Active: pre-fill the private cache from peers before the
  // first request can arrive, and snapshot the cache counters so the
  // first-window hit rate (warm-up's report card) has a baseline.
  // (Remote replicas warm their caches server-side; nothing to seed here.)
  if (h->session) {
    h->warmed_keys = warm_from_peers(*h, *m, next->ring);
    if (auto* c = dynamic_cast<CachedSource*>(&h->session->features())) {
      h->cache_at_activation = c->stats();
    } else {
      h->first_window_measured = true;  // no cache, nothing to measure
    }
  } else {
    h->first_window_measured = true;
  }
  h->activated_at = cfg_.clock->now();
  h->state.store(ReplicaState::kActive, std::memory_order_release);

  all_handles_.push_back(h);
  std::atomic_store(&membership_, std::shared_ptr<const Membership>(next));
  record_event(/*spawned=*/true, *h, next->epoch, next->replicas.size());
  return h->generation;
}

std::uint64_t FleetManager::scale_down() {
  std::lock_guard<std::mutex> lk(admin_mu_);
  if (stopped_) throw std::runtime_error("FleetManager: stopped");
  const auto m = std::atomic_load(&membership_);
  if (m->replicas.size() <= 1) {
    throw std::logic_error("FleetManager: cannot scale below one replica");
  }
  // Retire the youngest replica (membership is in spawn order): the
  // longest-lived caches are the most specialized and the most worth
  // keeping, and under the ring the youngest's arcs flow back to exactly
  // the peers that donated them at its spawn.
  auto victim = m->replicas.back();
  victim->state.store(ReplicaState::kDraining, std::memory_order_release);

  auto next = std::make_shared<Membership>();
  next->epoch = m->epoch + 1;
  next->replicas.assign(m->replicas.begin(), m->replicas.end() - 1);
  next->ring = ring_over(next->replicas);
  // Unpublish first, then drain: after this store no fresh snapshot routes
  // here, so the drain only has to bounce the stragglers already holding
  // the old snapshot.
  std::atomic_store(&membership_, std::shared_ptr<const Membership>(next));
  // Hand the victim's hot rows to their new ring homes while the cache is
  // still intact — the inverse of spawn warm-up — so the survivors absorb
  // the victim's traffic without a cold-miss spike.
  victim->handoff_keys = handoff_to_successors(*victim, *next);
  if (victim->batcher) {
    victim->batcher->begin_drain();
    victim->batcher->stop();  // admitted work completes; dispatcher joins
  } else {
    // Remote drain: SIGTERM, the server answers admitted work and bounces
    // new arrivals kDraining, then exits and is reaped.  Stragglers that
    // outlive the grace fail into submit_remote's handler and re-route
    // (the Draining state set above makes remove_dead_replica skip the
    // admin lock we are holding — that's the deadlock-avoidance contract).
    victim->remote->retire();
  }
  victim->state.store(ReplicaState::kRetired, std::memory_order_release);
  record_event(/*spawned=*/false, *victim, next->epoch,
               next->replicas.size());
  return victim->generation;
}

void FleetManager::stop() {
  // Controller first (it may be mid-scale, holding admin_mu_ — which is
  // why this join happens before we take it).
  {
    std::lock_guard<std::mutex> lk(controller_mu_);
    controller_stop_ = true;
  }
  controller_cv_.notify_all();
  // Claim the thread under the lock so concurrent stop() calls (e.g. an
  // explicit stop racing the destructor) can't both join it.
  std::thread controller;
  {
    std::lock_guard<std::mutex> lk(controller_mu_);
    controller = std::move(controller_);
  }
  if (controller.joinable()) controller.join();

  std::vector<std::shared_ptr<ReplicaHandle>> handles;
  {
    std::lock_guard<std::mutex> lk(admin_mu_);
    stopped_ = true;
    handles = all_handles_;
    auto empty = std::make_shared<Membership>();
    const auto m = std::atomic_load(&membership_);
    empty->epoch = m ? m->epoch + 1 : 0;
    std::atomic_store(&membership_, std::shared_ptr<const Membership>(std::move(empty)));
  }
  for (auto& h : handles) {
    if (h->batcher) {
      h->batcher->stop();
    } else if (h->remote) {
      // Draining first: in-flight failures during retire() re-route via
      // remove_dead_replica, which must see a non-Active state and skip
      // the admin lock (the membership is already empty — re-routed work
      // answers kDraining, honoring the completion contract).
      h->state.store(ReplicaState::kDraining, std::memory_order_release);
      h->remote->retire();
    }
    h->state.store(ReplicaState::kRetired, std::memory_order_release);
  }
}

std::size_t FleetManager::num_replicas() const {
  const auto m = std::atomic_load(&membership_);
  return m ? m->replicas.size() : 0;
}

std::uint64_t FleetManager::epoch() const {
  const auto m = std::atomic_load(&membership_);
  return m ? m->epoch : 0;
}

std::size_t FleetManager::home_replica(std::int64_t node) const {
  return current()->ring.lookup(node);
}

ReplicaSnapshot FleetManager::snapshot_of(const ReplicaHandle& h) const {
  ReplicaSnapshot s;
  s.generation = h.generation;
  s.state = h.state.load(std::memory_order_acquire);
  s.routed = h.routed.load(std::memory_order_relaxed);
  s.queue_depth = depth_of(h);
  // Batch counters live with the batcher, which for a remote replica is in
  // the server process — zeros here, by design.
  s.batch = h.batcher ? h.batcher->counters() : BatchCounters{};
  s.admission = h.stats->admission();
  s.latency = h.stats->summary();
  return s;
}

ReplicaSnapshot FleetManager::replica_snapshot(std::size_t i) const {
  const auto m = std::atomic_load(&membership_);
  if (!m || i >= m->replicas.size()) {
    throw std::out_of_range("FleetManager::replica_snapshot");
  }
  return snapshot_of(*m->replicas[i]);
}

const InferenceSession& FleetManager::replica_session(std::size_t i) const {
  const auto m = std::atomic_load(&membership_);
  if (!m || i >= m->replicas.size()) {
    throw std::out_of_range("FleetManager::replica_session");
  }
  if (!m->replicas[i]->session) {
    throw std::logic_error(
        "FleetManager::replica_session: remote replica has no in-process "
        "session");
  }
  return *m->replicas[i]->session;
}

std::vector<ReplicaSnapshot> FleetManager::fleet_snapshot() const {
  std::lock_guard<std::mutex> lk(admin_mu_);
  std::vector<ReplicaSnapshot> out;
  out.reserve(all_handles_.size());
  for (const auto& h : all_handles_) out.push_back(snapshot_of(*h));
  return out;
}

void FleetManager::record_event(bool spawned, const ReplicaHandle& h,
                                std::uint64_t epoch,
                                std::size_t replicas_after) {
  FleetEvent e;
  e.t_seconds = std::chrono::duration<double>(
                    cfg_.clock->now() - started_at_)
                    .count();
  e.epoch = epoch;
  e.spawned = spawned;
  e.generation = h.generation;
  e.replicas_after = replicas_after;
  e.warmed_keys = h.warmed_keys;
  e.handoff_keys = h.handoff_keys;
  std::lock_guard<std::mutex> lk(events_mu_);
  events_.push_back(e);
}

std::vector<FleetEvent> FleetManager::events() const {
  std::lock_guard<std::mutex> lk(events_mu_);
  return events_;
}

LatencySummary FleetManager::aggregate_latency() const {
  ServerStats pooled;
  std::lock_guard<std::mutex> lk(admin_mu_);
  // Generation-keyed: each replica's history folds in exactly once no
  // matter how membership churned (see ServerStats::merge_once).
  for (const auto& h : all_handles_) {
    pooled.merge_once(*h->stats, h->generation);
  }
  return pooled.summary();
}

AdmissionCounters FleetManager::aggregate_admission() const {
  AdmissionCounters total;
  std::unordered_set<std::uint64_t> seen;
  std::lock_guard<std::mutex> lk(admin_mu_);
  for (const auto& h : all_handles_) {
    if (!seen.insert(h->generation).second) continue;
    const AdmissionCounters a = h->stats->admission();
    total.admitted += a.admitted;
    total.rejected += a.rejected;
    total.shed += a.shed;
  }
  return total;
}

StageGauges FleetManager::aggregate_stages() const {
  ServerStats pooled;
  std::lock_guard<std::mutex> lk(admin_mu_);
  for (const auto& h : all_handles_) {
    pooled.merge_once(*h->stats, h->generation);
  }
  return pooled.stages();
}

std::size_t FleetManager::aggregate_deadline_missed() const {
  std::lock_guard<std::mutex> lk(admin_mu_);
  std::unordered_set<std::uint64_t> seen;
  std::size_t total = 0;
  for (const auto& h : all_handles_) {
    if (!seen.insert(h->generation).second) continue;
    total += h->stats->deadline_missed();
  }
  return total;
}

std::vector<TenantStat> FleetManager::aggregate_tenants() const {
  ServerStats pooled;
  std::lock_guard<std::mutex> lk(admin_mu_);
  for (const auto& h : all_handles_) {
    pooled.merge_once(*h->stats, h->generation);
  }
  if (front_stats_) {
    // The front recorder holds what no replica can: quota refusals happen
    // before routing.  UINT64_MAX can never collide with a replica
    // generation (next_generation_ counts up from zero).
    pooled.merge_once(*front_stats_, UINT64_MAX);
  }
  return pooled.tenant_stats();
}

std::size_t FleetManager::quota_refused_total() const {
  return front_stats_ ? front_stats_->quota_refused_total() : 0;
}

std::size_t FleetManager::aggregate_batches() const {
  std::lock_guard<std::mutex> lk(admin_mu_);
  std::size_t n = 0;
  for (const auto& h : all_handles_) n += h->stats->batches();
  return n;
}

double FleetManager::aggregate_mean_batch_size() const {
  std::lock_guard<std::mutex> lk(admin_mu_);
  std::size_t requests = 0, batches = 0;
  for (const auto& h : all_handles_) {
    if (!h->batcher) continue;  // remote: batches happen server-side
    const BatchCounters c = h->batcher->counters();
    requests += c.requests;
    batches += c.batches;
  }
  return batches ? static_cast<double>(requests) /
                       static_cast<double>(batches)
                 : 0.0;
}

FleetSignals FleetManager::signals() const {
  FleetSignals s;
  const auto m = std::atomic_load(&membership_);
  if (!m) return s;
  s.replicas = m->replicas.size();
  s.batch_capacity =
      std::max<std::size_t>(1, s.replicas * cfg_.batch.max_batch_size);
  const auto now = cfg_.clock->now();
  AdmissionCounters pooled;
  double delay_sum = 0;
  std::size_t delay_n = 0;
  for (const auto& h : m->replicas) {
    const WindowStats w = h->stats->window(now);
    pooled.admitted += w.admission.admitted;
    pooled.rejected += w.admission.rejected;
    pooled.shed += w.admission.shed;
    delay_sum += w.mean_queue_delay_us *
                 static_cast<double>(w.queue_delay_samples);
    delay_n += w.queue_delay_samples;
    // Queued-only (in-service excluded): the idle decision must see work
    // *waiting*, not the batch every healthy replica keeps in service.
    // A remote replica's queue is server-side; wire calls in flight are
    // the closest client-visible proxy.
    s.queue_depth += h->batcher ? h->batcher->queued() : h->remote->inflight();
  }
  s.shed_rate = pooled.shed_rate();
  if (delay_n > 0) {
    s.mean_queue_delay_us = delay_sum / static_cast<double>(delay_n);
  }
  return s;
}

WindowStats FleetManager::window_stats() const {
  WindowStats w;
  const auto m = std::atomic_load(&membership_);
  if (!m) return w;
  const auto now = cfg_.clock->now();
  std::vector<double> samples;
  double delay_sum = 0;
  double span_seconds = 1.0;
  for (const auto& h : m->replicas) {
    const WindowStats r = h->stats->window(now);
    w.admission.admitted += r.admission.admitted;
    w.admission.rejected += r.admission.rejected;
    w.admission.shed += r.admission.shed;
    w.deadline_missed += r.deadline_missed;
    delay_sum += r.mean_queue_delay_us *
                 static_cast<double>(r.queue_delay_samples);
    w.queue_delay_samples += r.queue_delay_samples;
    const auto replica_samples = h->stats->windowed_latency_samples(now);
    samples.insert(samples.end(), replica_samples.begin(),
                   replica_samples.end());
    span_seconds =
        std::chrono::duration<double>(h->stats->window_span()).count();
  }
  if (w.queue_delay_samples > 0) {
    w.mean_queue_delay_us =
        delay_sum / static_cast<double>(w.queue_delay_samples);
  }
  w.latency.count = samples.size();
  if (!samples.empty()) {
    double sum = 0, mx = 0;
    for (const double v : samples) {
      sum += v;
      if (v > mx) mx = v;
    }
    w.latency.mean_us = sum / static_cast<double>(samples.size());
    w.latency.max_us = mx;
    w.latency.p50_us = percentile(samples, 50);
    w.latency.p95_us = percentile(samples, 95);
    w.latency.p99_us = percentile(samples, 99);
    w.latency.wall_seconds = span_seconds;
    w.latency.throughput_rps =
        static_cast<double>(samples.size()) / std::max(span_seconds, 1e-6);
  }
  return w;
}

std::size_t FleetManager::total_queue_depth() const {
  const auto m = std::atomic_load(&membership_);
  if (!m) return 0;
  std::size_t depth = 0;
  for (const auto& h : m->replicas) depth += depth_of(*h);
  return depth;
}

std::size_t FleetManager::idle_replicas() const {
  const auto m = std::atomic_load(&membership_);
  if (!m) return 0;
  std::size_t idle = 0;
  for (const auto& h : m->replicas) {
    if (depth_of(*h) == 0) ++idle;
  }
  return idle;
}

void FleetManager::measure_first_windows() {
  std::vector<std::pair<std::uint64_t, double>> measured;
  {
    std::lock_guard<std::mutex> lk(admin_mu_);
    const auto now = cfg_.clock->now();
    for (const auto& h : all_handles_) {
      if (!h->spawned_dynamic || h->first_window_measured) continue;
      if (h->state.load(std::memory_order_acquire) != ReplicaState::kActive) {
        continue;
      }
      if (now - h->activated_at < cfg_.stats_window) continue;
      auto* c = h->session
                    ? dynamic_cast<CachedSource*>(&h->session->features())
                    : nullptr;
      h->first_window_measured = true;
      if (!c) continue;
      const FeatureCacheStats st = c->stats();
      const auto accesses = st.accesses - h->cache_at_activation.accesses;
      const auto hits = st.hits - h->cache_at_activation.hits;
      const double rate =
          accesses > 0
              ? static_cast<double>(hits) / static_cast<double>(accesses)
              : 0.0;
      measured.emplace_back(h->generation, rate);
    }
  }
  if (measured.empty()) return;
  std::lock_guard<std::mutex> lk(events_mu_);
  for (const auto& [generation, rate] : measured) {
    for (auto it = events_.rbegin(); it != events_.rend(); ++it) {
      if (it->spawned && it->generation == generation) {
        it->first_window_hit_rate = rate;
        break;
      }
    }
  }
}

void FleetManager::measure_handoff_windows() {
  std::vector<std::pair<std::uint64_t, double>> measured;
  {
    std::lock_guard<std::mutex> lk(admin_mu_);
    const auto now = cfg_.clock->now();
    for (auto it = pending_handoffs_.begin();
         it != pending_handoffs_.end();) {
      if (now - it->handed_at < cfg_.stats_window) {
        ++it;
        continue;
      }
      // Pool the post-handoff access/hit deltas across every successor
      // that received rows: the question is "did the victim's working set
      // land warm?", and the answer lives in the successors' combined
      // first window, not any single cache.
      std::uint64_t accesses = 0, hits = 0;
      for (const auto& [succ, at_handoff] : it->successors) {
        auto* c = succ->session ? dynamic_cast<CachedSource*>(
                                      &succ->session->features())
                                : nullptr;
        if (!c) continue;
        const FeatureCacheStats st = c->stats();
        accesses += st.accesses - at_handoff.accesses;
        hits += st.hits - at_handoff.hits;
      }
      const double rate =
          accesses > 0
              ? static_cast<double>(hits) / static_cast<double>(accesses)
              : 0.0;
      measured.emplace_back(it->victim_generation, rate);
      it = pending_handoffs_.erase(it);
    }
  }
  if (measured.empty()) return;
  std::lock_guard<std::mutex> lk(events_mu_);
  for (const auto& [generation, rate] : measured) {
    for (auto it = events_.rbegin(); it != events_.rend(); ++it) {
      if (!it->spawned && it->generation == generation) {
        it->successor_first_window_hit_rate = rate;
        break;
      }
    }
  }
}

rpc::RpcStats FleetManager::aggregate_rpc_stats() const {
  rpc::RpcStats total;
  std::lock_guard<std::mutex> lk(admin_mu_);
  std::unordered_set<std::uint64_t> seen;
  for (const auto& h : all_handles_) {
    if (!h->remote) continue;
    if (!seen.insert(h->generation).second) continue;
    total.merge(h->remote->rpc_stats());
  }
  return total;
}

void FleetManager::controller_loop() {
  std::unique_lock<std::mutex> lk(controller_mu_);
  while (!controller_stop_) {
    controller_cv_.wait_for(lk, cfg_.autoscale.tick,
                            [this] { return controller_stop_; });
    if (controller_stop_) break;
    lk.unlock();
    measure_first_windows();
    measure_handoff_windows();
    const FleetSignals s = signals();
    const ScaleAction action =
        autoscaler_->on_tick(s, cfg_.clock->now());
    // Policy owns the bounds; mechanism re-checks them only to stay safe
    // against a manual scale racing the controller between tick and act.
    try {
      if (action == ScaleAction::kUp &&
          s.replicas < cfg_.autoscale.max_replicas) {
        scale_up();
      } else if (action == ScaleAction::kDown &&
                 s.replicas > cfg_.autoscale.min_replicas) {
        scale_down();
      }
    } catch (const std::exception&) {
      // stop() raced the decision, or a spawn failed (checkpoint vanished,
      // codec mismatch at warm-up) — a controller mishap must degrade to
      // "fleet stays its current size", never take down the process.
    }
    lk.lock();
  }
}

}  // namespace ppgnn::serve
