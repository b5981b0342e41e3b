// Multi-tenant serving (src/tenancy/): token-bucket admission, DWRR
// fair-share scheduling, the epoch-snapshot contract registry, and the
// fleet-front integration that turns a tenant id into an enforced SLO.
//
// Determinism is the load-bearing property: every bucket decision is a
// pure function of caller-supplied timestamps (no hidden clock reads), and
// every DWRR pick is integer-valued double arithmetic — so the threaded
// serving path and the single-threaded fleetsim replay produce the SAME
// admit/refuse and batch-composition sequences.  These tests drive the
// components with synthetic time exactly the way fleetsim does.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "core/precompute.h"
#include "core/sign.h"
#include "graph/dataset.h"
#include "serve/feature_source.h"
#include "serve/inference_session.h"
#include "serve/micro_batcher.h"
#include "serve/replica_set.h"
#include "serve/serve_api.h"
#include "tenancy/admission.h"
#include "tenancy/fair_share.h"
#include "tenancy/tenant.h"

namespace ppgnn::tenancy {
namespace {

using serve::Priority;
using serve::ServeStatus;

// --- TokenBucket: pure refill/burst arithmetic -----------------------------

TEST(TokenBucket_, RefillBurstAndClampAreExact) {
  TokenBucket b;
  b.level = 5.0;  // full burst
  const double rate = 10.0, burst = 5.0;

  // Spend the burst down to zero at a frozen clock: no refill happens.
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(b.try_take(0.0, rate, burst, 1.0)) << "take " << i;
  }
  EXPECT_FALSE(b.try_take(0.0, rate, burst, 1.0));

  // 0.2s at 10/s refills exactly 2 tokens — enough for cost 2, not 3.
  EXPECT_TRUE(b.try_take(0.2, rate, burst, 2.0));
  EXPECT_FALSE(b.try_take(0.2, rate, burst, 1.0));

  // A long idle period clamps at burst, never banks beyond it.
  EXPECT_TRUE(b.try_take(100.0, rate, burst, 5.0));
  EXPECT_FALSE(b.try_take(100.0, rate, burst, 1.0));
}

TEST(TokenBucket_, StaleTimestampNeverDrainsAndZeroRateIsUnmetered) {
  TokenBucket b;
  b.level = 1.0;
  b.last_refill_s = 10.0;
  // A timestamp BEHIND the last refill must refill nothing (and must not
  // drain): out-of-order arrivals across threads can present stale nows.
  EXPECT_TRUE(b.try_take(9.0, 10.0, 5.0, 1.0));
  EXPECT_FALSE(b.try_take(9.0, 10.0, 5.0, 1.0));
  EXPECT_DOUBLE_EQ(b.last_refill_s, 10.0);

  // rate == 0 is the unmetered contract: always admitted, never charged.
  TokenBucket u;
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(u.try_take(0.0, 0.0, 0.0, 1e9));
  }
}

// --- TenantAdmission: explicit-now determinism -----------------------------

TEST(TenantAdmission_, SameArrivalSequenceSameDecisionsBitForBit) {
  // The contract fleetsim relies on: two gates over the same registry fed
  // the same (tenant, parts, now) sequence make identical decisions.
  TenantRegistry reg;
  TenantContract c;
  c.rate_per_s = 50.0;
  c.burst = 10.0;
  reg.set_contract(1, c);
  c.rate_per_s = 5.0;
  c.burst = 2.0;
  reg.set_contract(2, c);

  TenantAdmission a(reg, nullptr), b(reg, nullptr);
  std::vector<bool> da, db;
  double now = 0.0;
  for (int i = 0; i < 500; ++i) {
    const TenantId t = 1 + (i % 2);
    const std::size_t parts = 1 + (i % 3);
    da.push_back(a.try_admit(t, parts, now));
    db.push_back(b.try_admit(t, parts, now));
    now += 0.0137;  // any fixed origin, only deltas matter
  }
  EXPECT_EQ(da, db);
  EXPECT_EQ(a.refused_total(), b.refused_total());
  EXPECT_GT(a.refused_total(), 0u);  // the sequence actually refused some
  EXPECT_DOUBLE_EQ(a.level(1, now), b.level(1, now));
  EXPECT_DOUBLE_EQ(a.level(2, now), b.level(2, now));
}

TEST(TenantAdmission_, FirstArrivalAfterContractInstallIsNeverRefused) {
  TenantRegistry reg;
  TenantContract c;
  c.rate_per_s = 1.0;  // effective burst 1
  reg.set_contract(7, c);
  TenantAdmission gate(reg, nullptr);
  // New buckets start at full burst: the first in-burst request lands.
  EXPECT_TRUE(gate.try_admit(7, 1, 0.0));
  EXPECT_FALSE(gate.try_admit(7, 1, 0.0));  // burst spent, no refill yet
  // An unconfigured tenant falls back to the unmetered default contract.
  EXPECT_TRUE(gate.try_admit(99, 1000, 0.0));
  EXPECT_EQ(gate.refused_total(), 1u);
}

// --- DWRR: weighted ratios, exact ------------------------------------------

// Drives the scheduler over simulated per-tenant backlogs and returns how
// many parts each tenant emitted in `pops` picks.
std::map<TenantId, std::size_t> drain(
    DwrrScheduler& s, std::map<TenantId, std::size_t> backlog,
    const std::map<TenantId, std::uint32_t>& weights, std::size_t pops) {
  for (const auto& [t, n] : backlog) {
    if (n > 0) s.arm(t);
  }
  const auto weight_of = [&](TenantId t) {
    const auto it = weights.find(t);
    return it == weights.end() ? 1u : it->second;
  };
  std::map<TenantId, std::size_t> emitted;
  for (std::size_t i = 0; i < pops && !s.empty(); ++i) {
    const TenantId t = s.next(weight_of);
    EXPECT_GT(backlog[t], 0u) << "scheduler picked a drained tenant";
    if (backlog[t] == 0) break;
    backlog[t] -= 1;
    emitted[t] += 1;
    s.note_popped(t, backlog[t] == 0);
  }
  return emitted;
}

TEST(Dwrr, TwoToOneWeightGivesExactlyTwoToOneThroughput) {
  DwrrScheduler s;
  const std::map<TenantId, std::uint32_t> w{{1, 2}, {2, 1}};
  // Both backlogged throughout: 300 picks must split exactly 200/100.
  const auto emitted = drain(s, {{1, 500}, {2, 500}}, w, 300);
  EXPECT_EQ(emitted.at(1), 200u);
  EXPECT_EQ(emitted.at(2), 100u);
}

TEST(Dwrr, SingleTenantDegeneratesToFifoAndDrainsClean) {
  DwrrScheduler s;
  const auto emitted = drain(s, {{3, 10}}, {}, 10);
  EXPECT_EQ(emitted.at(3), 10u);
  EXPECT_TRUE(s.empty());  // note_popped(now_empty) disarmed it
}

TEST(Dwrr, IdleTenantBanksNoCredit) {
  // Tenant 1 drains and goes idle; when it returns, it re-enters with a
  // zero deficit — no stored quantum from the idle period.  Equal weights
  // from reactivation on must therefore alternate 1:1, not let tenant 1
  // burst ahead.
  DwrrScheduler s;
  std::map<TenantId, std::size_t> backlog{{1, 2}, {2, 1000}};
  s.arm(1);
  s.arm(2);
  const auto weight_of = [](TenantId) { return 1u; };
  std::map<TenantId, std::size_t> emitted;
  const auto pop = [&] {
    const TenantId t = s.next(weight_of);
    backlog[t] -= 1;
    emitted[t] += 1;
    s.note_popped(t, backlog[t] == 0);
  };
  for (int i = 0; i < 4; ++i) pop();  // tenant 1's 2 parts drain here
  EXPECT_EQ(emitted[1], 2u);
  EXPECT_EQ(s.active_tenants(), 1u);

  backlog[1] = 100;  // back after the idle gap
  s.arm(1);
  emitted.clear();
  for (int i = 0; i < 100; ++i) pop();
  EXPECT_EQ(emitted[1], 50u);  // exactly fair share, no banked burst
  EXPECT_EQ(emitted[2], 50u);
}

// --- TenantRegistry: epoch snapshots under fire ----------------------------

TEST(TenantRegistryTest, ParseTenantMixAndDescribe) {
  std::vector<std::uint32_t> w;
  std::string err;
  ASSERT_TRUE(parse_tenant_mix("2,1,1", &w, &err)) << err;
  EXPECT_EQ(w, (std::vector<std::uint32_t>{2, 1, 1}));
  ASSERT_TRUE(parse_tenant_mix("", &w, &err));
  EXPECT_TRUE(w.empty());
  ASSERT_TRUE(parse_tenant_mix("0", &w, &err));  // clamped to >= 1
  EXPECT_EQ(w, (std::vector<std::uint32_t>{1}));
  EXPECT_FALSE(parse_tenant_mix("2,x", &w, &err));
  EXPECT_FALSE(err.empty());

  TenantContract c;
  c.rate_per_s = 100;
  c.weight = 2;
  EXPECT_FALSE(describe(c).empty());
}

TEST(TenantRegistryTest, SnapshotFlipMidStormHammerSeesOnlyWholeContracts) {
  // Readers spin on snapshot()/of() while a writer flips the contract
  // between two internally-consistent states.  A reader must only ever
  // observe one of the two whole contracts — never a torn mix — and a
  // held snapshot must stay frozen while the registry moves on.
  TenantRegistry reg;
  TenantContract fast;  // state A: rate 100 pairs with weight 2
  fast.rate_per_s = 100.0;
  fast.weight = 2;
  TenantContract slow;  // state B: rate 200 pairs with weight 4
  slow.rate_per_s = 200.0;
  slow.weight = 4;
  reg.set_contract(1, fast);

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> torn{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      std::uint64_t last_epoch = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto snap = reg.snapshot();
        if (snap->epoch < last_epoch) torn.fetch_add(1);  // epoch monotone
        last_epoch = snap->epoch;
        const TenantContract& c = snap->of(1);
        const bool whole = (c.rate_per_s == 100.0 && c.weight == 2) ||
                           (c.rate_per_s == 200.0 && c.weight == 4);
        if (!whole) torn.fetch_add(1);
      }
    });
  }
  const auto held = reg.snapshot();
  const std::uint64_t held_epoch = held->epoch;
  for (int i = 0; i < 1000; ++i) {
    reg.set_contract(1, (i % 2) ? fast : slow);
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(held->epoch, held_epoch);  // the held generation never mutated
  EXPECT_EQ(reg.epoch(), held_epoch + 1000);
}

// --- Fleet integration -----------------------------------------------------

struct Fixture {
  graph::Dataset ds;
  core::Preprocessed pre;

  Fixture() : ds(graph::make_dataset(graph::DatasetName::kPokecSim, 0.02)) {
    core::PrecomputeConfig pc;
    pc.hops = 2;
    pre = core::precompute(ds.graph, ds.features, pc);
  }

  std::unique_ptr<core::PpModel> make_model(std::uint64_t seed = 7) const {
    Rng rng(seed);
    core::SignConfig cfg;
    cfg.feat_dim = ds.feature_dim();
    cfg.hops = pre.num_hops();
    cfg.hidden = 16;
    cfg.classes = ds.num_classes;
    cfg.dropout = 0.f;
    return std::make_unique<core::Sign>(cfg, rng);
  }

  serve::FleetBuilder builder(const std::string& ckpt) const {
    return serve::FleetBuilder(
        ckpt, [this](std::size_t i) { return make_model(100 + i); },
        [this](std::size_t) {
          return std::make_unique<serve::MemorySource>(pre);
        });
  }

  std::string deploy(const char* name) const {
    const std::string ckpt = ::testing::TempDir() + "/" + name;
    auto trained = make_model(21);
    serve::save_deployed_model(*trained, ckpt);
    return ckpt;
  }
};

TEST(TenancyFleet, QuotaRefusalIsQuotaExceededAndNeverRetriedAsDraining) {
  const Fixture fx;
  const std::string ckpt = fx.deploy("tenancy_quota.ckpt");
  TenantRegistry reg;
  TenantContract c;
  c.rate_per_s = 1e-6;  // refill is negligible over the test's lifetime
  c.burst = 1.0;
  reg.set_contract(1, c);

  serve::FleetConfig fc;
  fc.batch.max_delay = std::chrono::microseconds(100);
  fc.tenants = &reg;
  serve::FleetManager fleet(fx.builder(ckpt), 1, fc);

  const auto ask = [&](std::uint32_t tenant) {
    serve::ServeRequest r;
    r.nodes = {0};
    r.tenant = tenant;
    return fleet.infer_request(std::move(r));
  };

  // Tenant 1's burst of 1 admits the first envelope and refuses the
  // second — with kQuotaExceeded, the contract answer, not kShed (which
  // would tell the autoscaler to scale) and not kDraining (which the
  // front would transparently re-route; a quota refusal must be final).
  EXPECT_EQ(ask(1).status, ServeStatus::kOk);
  const serve::ServeResponse refused = ask(1);
  EXPECT_EQ(refused.status, ServeStatus::kQuotaExceeded);
  for (const auto& row : refused.logits) EXPECT_TRUE(row.empty());
  // The default tenant is unmetered and unaffected.
  EXPECT_EQ(ask(0).status, ServeStatus::kOk);

  EXPECT_EQ(fleet.quota_refused_total(), 1u);
  // Quota refusals are invisible to the overload/autoscale signals: the
  // fleet shed nothing.
  EXPECT_EQ(fleet.aggregate_admission().rejected, 0u);

  bool saw_t1 = false;
  for (const auto& row : fleet.aggregate_tenants()) {
    if (row.tenant == 1) {
      saw_t1 = true;
      EXPECT_EQ(row.admitted, 1u);
      EXPECT_EQ(row.quota_refused, 1u);
    }
    if (row.tenant == 0) EXPECT_EQ(row.quota_refused, 0u);
  }
  EXPECT_TRUE(saw_t1);
  fleet.stop();
}

TEST(TenancyFleet, AggressorBlastingQuotaCannotCauseVictimRefusals) {
  // The test-scale isolation proof (bench_serving_latency section 9 is the
  // measured one): tenant 1 submits 10x its burst, tenant 2 stays inside
  // its identical contract.  The victim must see zero quota refusals and
  // full admission — the aggressor's storm lands on the aggressor alone.
  const Fixture fx;
  const std::string ckpt = fx.deploy("tenancy_iso.ckpt");
  TenantRegistry reg;
  TenantContract c;
  c.rate_per_s = 1e-6;  // ~no refill: the burst is the whole budget
  c.burst = 5.0;
  reg.set_contract(1, c);
  reg.set_contract(2, c);

  serve::FleetConfig fc;
  fc.batch.max_delay = std::chrono::microseconds(100);
  fc.tenants = &reg;
  serve::FleetManager fleet(fx.builder(ckpt), 1, fc);

  serve::CompletionQueue cq;
  std::size_t sent = 0;
  for (int i = 0; i < 50; ++i) {  // 10x the aggressor's burst of 5
    serve::ServeRequest r;
    r.id = sent++;
    r.nodes = {i % 8};
    r.tenant = 1;
    fleet.submit(std::move(r), cq);
    if (i % 10 == 0) {  // victim traffic interleaved mid-storm
      serve::ServeRequest v;
      v.id = sent++;
      v.nodes = {i % 8};
      v.tenant = 2;
      fleet.submit(std::move(v), cq);
    }
  }
  serve::ServeResponse resp;
  for (std::size_t i = 0; i < sent; ++i) {
    ASSERT_TRUE(cq.wait_for(&resp, std::chrono::milliseconds(5000)))
        << "lost response " << i << " of " << sent;
  }

  std::size_t aggressor_refused = 0, victim_refused = 0, victim_admitted = 0;
  for (const auto& row : fleet.aggregate_tenants()) {
    if (row.tenant == 1) aggressor_refused = row.quota_refused;
    if (row.tenant == 2) {
      victim_refused = row.quota_refused;
      victim_admitted = row.admitted;
    }
  }
  EXPECT_EQ(aggressor_refused, 45u);  // 50 sent, burst of 5 admitted
  EXPECT_EQ(victim_refused, 0u);
  EXPECT_EQ(victim_admitted, 5u);  // every victim envelope landed
  fleet.stop();
}

TEST(TenancyFleet, UnregisteredTenantIdsFoldIntoTheDefaultTenant) {
  // A caller minting a fresh tenant id per envelope must not mint a fresh
  // full token bucket (skipping its quota) nor a fresh stats row (growing
  // memory without bound): ids with no registered contract bill to the
  // default tenant 0.  Under a metered default contract and an injected
  // clock, 100k distinct unregistered ids must be refused envelope for
  // envelope exactly like one tenant sending the same load.
  const Fixture fx;
  const std::string ckpt = fx.deploy("tenancy_fold.ckpt");
  TenantRegistry reg;
  TenantContract metered;
  metered.rate_per_s = 10;  // 1 token per 100 sim-ms
  metered.burst = 5;
  reg.set_default(metered);
  reg.set_contract(1, TenantContract{});  // registered ids keep their own
  reg.set_contract(2, TenantContract{});
  const std::size_t registered = reg.snapshot()->contracts.size();

  constexpr std::size_t kEnvelopes = 100000;
  // Per-envelope status sequence plus the fleet's per-tenant rows for one
  // arm; `tenant_of(i)` picks envelope i's claimed tenant.
  const auto run = [&](auto tenant_of) {
    serve::SimClock clock;
    serve::FleetConfig fc;
    fc.batch.max_delay = std::chrono::microseconds(100);
    fc.clock = &clock;
    fc.tenants = &reg;
    serve::FleetManager fleet(fx.builder(ckpt), 1, fc);
    std::vector<ServeStatus> status(kEnvelopes);
    serve::CompletionQueue cq(
        [&status](serve::ServeResponse&& r) { status[r.id] = r.status; });
    for (std::size_t i = 0; i < kEnvelopes; ++i) {
      serve::ServeRequest r;
      r.id = i;
      r.nodes = {static_cast<std::int64_t>(i % 64)};
      r.tenant = tenant_of(i);
      fleet.submit(std::move(r), cq);
      clock.advance(std::chrono::milliseconds(1));
    }
    while (cq.delivered() < kEnvelopes) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    auto rows = fleet.aggregate_tenants();
    fleet.stop();
    return std::make_pair(std::move(status), std::move(rows));
  };

  const auto [minted, minted_rows] = run([](std::size_t i) {
    return static_cast<std::uint32_t>(1000 + i);  // never registered
  });
  const auto [single, single_rows] =
      run([](std::size_t) { return std::uint32_t{0}; });

  ASSERT_EQ(minted, single);
  const auto refused = static_cast<std::size_t>(
      std::count(minted.begin(), minted.end(), ServeStatus::kQuotaExceeded));
  // 100 sim-seconds at 10 parts/s plus the burst of 5 admits ~1005.
  EXPECT_GT(refused, kEnvelopes * 9 / 10);
  EXPECT_EQ(refused + static_cast<std::size_t>(std::count(
                          minted.begin(), minted.end(), ServeStatus::kOk)),
            kEnvelopes);
  EXPECT_LE(minted_rows.size(), registered + 1);
  ASSERT_EQ(minted_rows.size(), single_rows.size());
  for (std::size_t i = 0; i < minted_rows.size(); ++i) {
    EXPECT_EQ(minted_rows[i].tenant, single_rows[i].tenant);
    EXPECT_EQ(minted_rows[i].admitted, single_rows[i].admitted);
    EXPECT_EQ(minted_rows[i].quota_refused, single_rows[i].quota_refused);
  }
}

TEST(TenancyFleet, ContractFlipMidStormLosesNoEnvelope) {
  // The registry's epoch-snapshot guarantee, end to end: contracts flip
  // while submitter threads storm the fleet, and every envelope still
  // gets exactly one response with a legal status.
  const Fixture fx;
  const std::string ckpt = fx.deploy("tenancy_flip.ckpt");
  TenantRegistry reg;
  TenantContract metered;
  metered.rate_per_s = 200.0;
  metered.burst = 20.0;
  TenantContract open;  // unmetered
  reg.set_contract(1, metered);
  reg.set_contract(2, metered);

  serve::FleetConfig fc;
  fc.batch.max_delay = std::chrono::microseconds(100);
  fc.tenants = &reg;
  serve::FleetManager fleet(fx.builder(ckpt), 1, fc);

  constexpr int kThreads = 2, kPer = 150;
  serve::CompletionQueue cq;
  std::atomic<std::uint64_t> next_id{0};
  std::vector<std::thread> storm;
  for (int t = 0; t < kThreads; ++t) {
    storm.emplace_back([&, t] {
      for (int i = 0; i < kPer; ++i) {
        serve::ServeRequest r;
        r.id = next_id.fetch_add(1);
        r.nodes = {(t * kPer + i) % 16};
        r.tenant = 1 + static_cast<std::uint32_t>(i % 2);
        fleet.submit(std::move(r), cq);
      }
    });
  }
  for (int i = 0; i < 50; ++i) {  // flips race the storm
    reg.set_contract(1, (i % 2) ? open : metered);
    reg.set_contract(2, (i % 2) ? metered : open);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  for (auto& th : storm) th.join();

  serve::ServeResponse resp;
  for (int i = 0; i < kThreads * kPer; ++i) {
    ASSERT_TRUE(cq.wait_for(&resp, std::chrono::milliseconds(5000)))
        << "lost response " << i;
    EXPECT_TRUE(resp.status == ServeStatus::kOk ||
                resp.status == ServeStatus::kShed ||
                resp.status == ServeStatus::kQuotaExceeded)
        << "status " << static_cast<int>(resp.status);
  }
  EXPECT_FALSE(cq.poll(&resp));  // exactly one response per envelope
  fleet.stop();
}

// --- MicroBatcher: eviction is globally least-slack across tenants ---------

class SlowSource : public serve::FeatureSource {
 public:
  SlowSource(std::unique_ptr<serve::FeatureSource> inner,
             std::chrono::milliseconds delay)
      : inner_(std::move(inner)), delay_(delay) {}
  std::size_t num_rows() const override { return inner_->num_rows(); }
  std::size_t row_dim() const override { return inner_->row_dim(); }
  void gather(const std::vector<std::int64_t>& rows, Tensor& out) override {
    std::this_thread::sleep_for(delay_);
    inner_->gather(rows, out);
  }
  const char* kind() const override { return "slow"; }

 private:
  std::unique_ptr<serve::FeatureSource> inner_;
  std::chrono::milliseconds delay_;
};

TEST(TenancyBatcher, EvictionPicksGlobalLeastSlackAcrossTenantSubQueues) {
  // Regression for the sub-queue split: the eviction victim must be the
  // least-slack kLow part across EVERY tenant's sub-queue, not the head
  // of the first (lowest-id) tenant's queue.  Tenant 1's part here has
  // hours of slack; tenant 5's has seconds — evicting by sub-queue order
  // would kill the servable part and keep the urgent one waiting.
  const Fixture fx;
  auto session = std::make_unique<serve::InferenceSession>(
      fx.make_model(),
      std::make_unique<SlowSource>(std::make_unique<serve::MemorySource>(fx.pre),
                                   std::chrono::milliseconds(60)));
  serve::MicroBatchConfig cfg;
  cfg.max_batch_size = 1;  // first part dispatches alone, rest queue
  cfg.max_delay = std::chrono::microseconds(100);
  cfg.queue_capacity = 3;
  cfg.shed_budget = std::chrono::hours(1);  // never binds on its own
  serve::MicroBatcher batcher(*session, cfg);
  serve::CompletionQueue cq;

  const auto envelope = [&](std::uint64_t id, std::int64_t node, Priority pri,
                            std::uint32_t tenant,
                            std::chrono::steady_clock::time_point deadline) {
    serve::ServeRequest r;
    r.id = id;
    r.nodes = {node};
    r.priority = pri;
    r.tenant = tenant;
    r.deadline = deadline;
    return std::make_shared<serve::RequestState>(std::move(r), &cq);
  };
  const auto none = std::chrono::steady_clock::time_point::max();
  const std::uint32_t slot0 = 0;

  auto serving = envelope(0, 0, Priority::kHigh, 0, none);
  ASSERT_EQ(batcher.try_submit_parts(serving, &slot0, 1),
            serve::RejectReason::kNone);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));  // in service

  // Queue (capacity 3): one kHigh filler plus two kLow parts from
  // different tenants.  Tenant 1 enqueues FIRST and has the far deadline;
  // tenant 5's later part is the globally least-slack one.
  auto filler = envelope(1, 1, Priority::kHigh, 0, none);
  ASSERT_EQ(batcher.try_submit_parts(filler, &slot0, 1),
            serve::RejectReason::kNone);
  auto far = envelope(2, 2, Priority::kLow, 1,
                      serve::deadline_in(std::chrono::hours(2)));
  ASSERT_EQ(batcher.try_submit_parts(far, &slot0, 1),
            serve::RejectReason::kNone);
  auto near = envelope(3, 3, Priority::kLow, 5,
                       serve::deadline_in(std::chrono::seconds(30)));
  ASSERT_EQ(batcher.try_submit_parts(near, &slot0, 1),
            serve::RejectReason::kNone);

  // A kHigh arrival at full capacity must evict tenant 5's near-deadline
  // part (least slack), not tenant 1's far-deadline one.
  auto high = envelope(4, 4, Priority::kHigh, 0, none);
  ASSERT_EQ(batcher.try_submit_parts(high, &slot0, 1),
            serve::RejectReason::kNone);

  std::map<std::uint64_t, ServeStatus> status;
  serve::ServeResponse r;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(cq.wait_for(&r, std::chrono::milliseconds(5000)));
    status[r.id] = r.status;
  }
  EXPECT_EQ(status.at(3), ServeStatus::kShed);  // the true least-slack
  EXPECT_EQ(status.at(2), ServeStatus::kOk);    // far-deadline kLow served
  EXPECT_EQ(status.at(0), ServeStatus::kOk);
  EXPECT_EQ(status.at(1), ServeStatus::kOk);
  EXPECT_EQ(status.at(4), ServeStatus::kOk);
  batcher.stop();
}

}  // namespace
}  // namespace ppgnn::tenancy
