// The elastic serving fleet (src/serve/replica_set.h FleetManager,
// router.h HashRing, autoscale.h AutoscalePolicy, and the peer cache
// warm-up path in feature_source.h).
//
// Everything here is deterministic by construction: the ring tests are
// pure hashing, the policy test injects a synthetic clock and replays a
// staged signal trace, the drain and hammer tests assert completion
// counts and bit-identity rather than timings — so the suite is stable
// under sanitizer slowdown (the TSan CI leg runs it on every PR).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "core/precompute.h"
#include "core/sign.h"
#include "graph/dataset.h"
#include "loader/cache.h"
#include "loader/storage.h"
#include "serve/autoscale.h"
#include "serve/feature_source.h"
#include "serve/inference_session.h"
#include "serve/replica_set.h"
#include "serve/router.h"
#include "serve/server_stats.h"
#include "serve/workload.h"
#include "serve_client.h"

namespace ppgnn::serve {
namespace {

using test::infer_node;

std::string tmp_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

struct Fixture {
  graph::Dataset ds;
  core::Preprocessed pre;

  explicit Fixture(double scale = 0.02, std::size_t hops = 2)
      : ds(graph::make_dataset(graph::DatasetName::kPokecSim, scale)) {
    core::PrecomputeConfig pc;
    pc.hops = hops;
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

  FleetBuilder builder(const std::string& ckpt,
                       Precision precision = Precision::kFp32) const {
    return FleetBuilder(
        ckpt, [this](std::size_t i) { return make_model(100 + i); },
        [this](std::size_t) { return std::make_unique<MemorySource>(pre); },
        precision);
  }

  std::string deploy(const char* name,
                     Precision precision = Precision::kFp32) const {
    const std::string ckpt = tmp_path(name);
    auto trained = make_model(21);
    save_deployed_model(*trained, ckpt, precision);
    return ckpt;
  }
};

// --- Consistent-hash ring -------------------------------------------------

TEST(HashRing, GrowRemapsAtMostOneAndAHalfOverNPlusOne) {
  constexpr std::size_t kKeys = 20000;
  for (const std::size_t n : {std::size_t{2}, std::size_t{4},
                              std::size_t{8}}) {
    std::vector<std::uint64_t> gens;
    for (std::size_t g = 0; g < n; ++g) gens.push_back(g);
    const HashRing before(gens);
    gens.push_back(n);  // the spawned replica's generation
    const HashRing after(gens);
    std::size_t remapped = 0;
    for (std::int64_t key = 0; key < static_cast<std::int64_t>(kKeys);
         ++key) {
      const std::size_t a = before.lookup(key);
      const std::size_t b = after.lookup(key);
      if (a != b) {
        ++remapped;
        // Keys only ever move TO the new member — surviving members'
        // virtual nodes are fixed, so no key can hop between survivors.
        EXPECT_EQ(b, n) << "key " << key << " moved between survivors";
      }
    }
    const double frac = static_cast<double>(remapped) / kKeys;
    // E[frac] = 1/(n+1); the bound leaves ~4 sigma of vnode placement
    // variance.  Contrast mod-N rehashing, which remaps ~n/(n+1).
    EXPECT_LE(frac, 1.5 / static_cast<double>(n + 1)) << "n=" << n;
    EXPECT_GT(frac, 0.0) << "n=" << n;  // the new member owns something
  }
}

TEST(HashRing, ShrinkRestoresPriorAssignments) {
  // Retiring the member that a grow added must return every key to its
  // pre-grow owner — the property that makes spawn/retire cycles cheap
  // for the per-replica caches.
  const HashRing before({3, 7, 11});
  const HashRing grown({3, 7, 11, 15});
  const HashRing shrunk({3, 7, 11});
  for (std::int64_t key = 0; key < 5000; ++key) {
    EXPECT_EQ(before.lookup(key), shrunk.lookup(key));
  }
}

// --- Autoscale policy (synthetic clock, staged trace) ---------------------

TEST(AutoscalePolicy, StagedOverloadTriggersExactlyOneUpThenOneDown) {
  AutoscaleConfig cfg;
  cfg.enabled = true;
  cfg.min_replicas = 1;
  cfg.max_replicas = 4;
  cfg.scale_up_shed = 0.10;
  cfg.sustain = std::chrono::milliseconds(400);
  cfg.scale_down_idle = 0.90;
  cfg.idle_window = std::chrono::milliseconds(1000);
  cfg.cooldown = std::chrono::milliseconds(1500);
  cfg.tick = std::chrono::milliseconds(50);
  AutoscalePolicy policy(cfg);

  const auto t0 = std::chrono::steady_clock::time_point{};
  std::size_t replicas = 1;
  std::vector<std::pair<long, ScaleAction>> actions;  // (ms, action)
  for (long ms = 0; ms <= 6000; ms += 50) {
    FleetSignals s;
    s.replicas = replicas;
    s.batch_capacity = replicas;  // idle iff queue_depth <= replicas here
    if (ms < 1000) {
      // Busy but healthy: a backlog beyond one dispatch round, nothing
      // shed — neither overloaded nor idle.
      s.shed_rate = 0.0;
      s.queue_depth = 5;
    } else if (ms < 2000) {
      // Staged overload: shedding half of offered traffic.
      s.shed_rate = 0.5;
      s.queue_depth = 200;
    } else {
      // Load gone: queues empty.
      s.shed_rate = 0.0;
      s.queue_depth = 0;
    }
    const ScaleAction a =
        policy.on_tick(s, t0 + std::chrono::milliseconds(ms));
    if (a != ScaleAction::kNone) {
      actions.emplace_back(ms, a);
      replicas += a == ScaleAction::kUp ? 1 : -1;
    }
  }
  // Exactly one spawn (overload sustained past `sustain`), then exactly
  // one retire (idle evidence spanning idle_window, after the cooldown):
  // hysteresis, not oscillation.
  ASSERT_EQ(actions.size(), 2u);
  EXPECT_EQ(actions[0].second, ScaleAction::kUp);
  // First crossing at 1000ms; sustain 400ms => the 1400ms tick.
  EXPECT_EQ(actions[0].first, 1400);
  EXPECT_EQ(actions[1].second, ScaleAction::kDown);
  // Cooldown gates until 2900; idle evidence (cleared at the spawn) spans
  // a full window well before that, so the retire lands at 2900.
  EXPECT_EQ(actions[1].first, 2900);
  EXPECT_EQ(replicas, 1u);
}

TEST(AutoscalePolicy, RespectsBoundsAndBurstsDoNotSpawn) {
  AutoscaleConfig cfg;
  cfg.min_replicas = 1;
  cfg.max_replicas = 2;
  cfg.scale_up_shed = 0.10;
  cfg.sustain = std::chrono::milliseconds(400);
  cfg.cooldown = std::chrono::milliseconds(200);
  cfg.tick = std::chrono::milliseconds(50);
  AutoscalePolicy policy(cfg);
  const auto t0 = std::chrono::steady_clock::time_point{};

  // A 100ms shed burst (under `sustain`) must not buy a replica.
  for (long ms = 0; ms <= 1000; ms += 50) {
    FleetSignals s;
    s.replicas = 1;
    s.shed_rate = (ms == 500 || ms == 550) ? 0.9 : 0.0;
    s.queue_depth = 3;
    EXPECT_EQ(policy.on_tick(s, t0 + std::chrono::milliseconds(ms)),
              ScaleAction::kNone)
        << "at " << ms;
  }
  // Sustained overload at max_replicas must not spawn past the bound.
  for (long ms = 1050; ms <= 3000; ms += 50) {
    FleetSignals s;
    s.replicas = 2;  // already at max
    s.shed_rate = 0.9;
    s.queue_depth = 500;
    EXPECT_EQ(policy.on_tick(s, t0 + std::chrono::milliseconds(ms)),
              ScaleAction::kNone)
        << "at " << ms;
  }
}

// --- Drain: a resize never drops admitted work ----------------------------

TEST(FleetManager, DrainCompletesAdmittedHighWorkBitIdentical) {
  const Fixture fx;
  const std::string ckpt = fx.deploy("autoscale_drain.ckpt");
  // Reference: one session, same checkpoint.
  auto ref_model = fx.make_model(99);
  load_deployed_model(*ref_model, ckpt);
  InferenceSession reference(std::move(ref_model),
                             std::make_unique<MemorySource>(fx.pre));

  FleetConfig fc;
  fc.batch.max_delay = std::chrono::microseconds(200);
  FleetManager fleet(fx.builder(ckpt), 2, fc);
  ASSERT_EQ(fleet.num_replicas(), 2u);

  // Fill both replicas' queues with kHigh work, then retire one while the
  // work is in flight.  Every admitted envelope must be answered kOk —
  // with logits bit-identical to the fixed-fleet answer.
  CompletionQueue cq;
  for (std::int64_t node = 0; node < 60; ++node) {
    ServeRequest req;
    req.id = static_cast<std::uint64_t>(node);
    req.nodes = {node};
    fleet.submit(std::move(req), cq);
  }
  const std::uint64_t retired = fleet.scale_down();
  EXPECT_EQ(fleet.num_replicas(), 1u);
  for (int i = 0; i < 60; ++i) {
    ServeResponse r;
    ASSERT_TRUE(cq.wait_for(&r, std::chrono::seconds(30))) << "lost " << i;
    const auto node = static_cast<std::int64_t>(r.id);
    ASSERT_EQ(r.status, ServeStatus::kOk) << "node " << node;
    const auto& got = r.logits[0];
    const auto want = reference.infer_one(node);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t j = 0; j < want.size(); ++j) {
      EXPECT_EQ(got[j], want[j]) << "node " << node << " logit " << j;
    }
  }
  // The fleet keeps serving after the resize, still bit-identical.
  for (std::int64_t node = 60; node < 70; ++node) {
    const auto got = infer_node(fleet, node);
    const auto want = reference.infer_one(node);
    for (std::size_t j = 0; j < want.size(); ++j) {
      EXPECT_EQ(got[j], want[j]) << "node " << node;
    }
  }
  // The retirement is in the event log, and the retiree's stats stayed in
  // the fleet aggregate (answered count covers all 70 requests).
  const auto events = fleet.events();
  ASSERT_FALSE(events.empty());
  EXPECT_FALSE(events.back().spawned);
  EXPECT_EQ(events.back().generation, retired);
  EXPECT_EQ(fleet.aggregate_latency().count, 70u);
  EXPECT_EQ(fleet.aggregate_admission().admitted, 70u);
}

TEST(FleetManager, ScaleUpAtInt8SharesBlocksAndStaysDeterministic) {
  const Fixture fx;
  const std::string ckpt = fx.deploy("autoscale_int8.ckpt",
                                     Precision::kInt8);
  // Single int8 session: the determinism baseline.
  auto single =
      FleetBuilder(
          ckpt, [&](std::size_t) { return fx.make_model(55); },
          [&](std::size_t) { return std::make_unique<MemorySource>(fx.pre); },
          Precision::kInt8)
          .build_n(1);

  FleetConfig fc;
  fc.precision = Precision::kInt8;
  fc.batch.max_delay = std::chrono::microseconds(100);
  FleetManager fleet(fx.builder(ckpt, Precision::kInt8), 1, fc);
  const std::uint64_t spawned = fleet.scale_up();
  EXPECT_EQ(fleet.num_replicas(), 2u);
  EXPECT_GT(spawned, 0u);
  // Round-robin alternates replicas, so both the original and the spawned
  // replica answer — and every answer must be bit-identical to the single
  // int8 session (the spawned replica shares the same immutable quantized
  // block, not a re-quantization that could drift).
  for (std::int64_t node = 0; node < 40; ++node) {
    const auto got = infer_node(fleet, node);
    const auto want = single[0]->infer_one(node);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t j = 0; j < want.size(); ++j) {
      EXPECT_EQ(got[j], want[j]) << "node " << node << " logit " << j;
    }
  }
  EXPECT_EQ(fleet.replica_snapshot(0).routed + fleet.replica_snapshot(1).routed,
            40u);
  EXPECT_GT(fleet.replica_snapshot(1).routed, 0u);
}

// --- Peer cache warm-up ---------------------------------------------------

TEST(Warmup, WarmedSpawnFirstWindowHitRateAtLeastCold) {
  const Fixture fx;
  const std::string store_dir = tmp_path("warmup_store");
  loader::FeatureFileStore::create(store_dir, fx.pre.hop_features);
  const std::size_t nodes = fx.pre.num_nodes();
  const std::size_t row_bytes =
      (fx.pre.num_hops() + 1) * fx.pre.feat_dim() * sizeof(float);
  const std::size_t budget = (nodes / 10) * row_bytes;  // 10% of rows

  const auto make_cached = [&] {
    return std::make_unique<CachedSource>(
        std::make_unique<FileStoreSource>(loader::FeatureFileStore::open(
            store_dir, nodes, fx.pre.num_hops() + 1, fx.pre.feat_dim())),
        std::make_unique<loader::LruCache>(budget, row_bytes));
  };

  // A peer that has served the workload long enough for its LRU to
  // specialize on the hot set.
  auto peer = make_cached();
  ZipfWorkloadConfig wc;
  wc.num_nodes = nodes;
  wc.num_requests = 4000;
  wc.skew = 0.99;
  wc.seed = 5;
  const auto history = zipf_stream(wc);
  Tensor scratch;
  for (std::size_t i = 0; i < history.size(); i += 64) {
    const std::vector<std::int64_t> batch(
        history.begin() + i,
        history.begin() + std::min(history.size(), i + 64));
    peer->gather(batch, scratch);
  }

  // Two spawns: one seeded from the peer's hot rows, one cold.
  auto warm = make_cached();
  auto cold = make_cached();
  const auto exported = peer->export_hot_payloads(512);
  ASSERT_FALSE(exported.empty());
  const std::size_t admitted = warm->admit_payloads(exported);
  EXPECT_GT(admitted, 0u);
  EXPECT_EQ(admitted, exported.size());  // LRU admits everything offered

  // First window of live traffic after activation: same stream for both.
  wc.num_requests = 1500;
  wc.seed = 6;  // a fresh draw from the same popularity ranking
  const auto first_window = zipf_stream(wc);
  Tensor warm_out, cold_out;
  for (std::size_t i = 0; i < first_window.size(); i += 64) {
    const std::vector<std::int64_t> batch(
        first_window.begin() + i,
        first_window.begin() + std::min(first_window.size(), i + 64));
    warm->gather(batch, warm_out);
    cold->gather(batch, cold_out);
    // Caching must never change answers: warm and cold decode identical
    // bytes for identical requests.
    ASSERT_EQ(warm_out.rows(), cold_out.rows());
    for (std::size_t r = 0; r < warm_out.rows(); ++r) {
      for (std::size_t c = 0; c < warm_out.cols(); ++c) {
        ASSERT_EQ(warm_out.at(r, c), cold_out.at(r, c));
      }
    }
  }
  const double warm_rate = warm->stats().hit_rate();
  const double cold_rate = cold->stats().hit_rate();
  EXPECT_GE(warm_rate, cold_rate);
  EXPECT_GT(warm_rate, 0.0);
}

TEST(FleetManager, SpawnWarmsFromPeersUnderCacheAffinity) {
  const Fixture fx;
  const std::string ckpt = fx.deploy("autoscale_warm.ckpt");
  const std::string store_dir = tmp_path("warm_fleet_store");
  loader::FeatureFileStore::create(store_dir, fx.pre.hop_features);
  const std::size_t nodes = fx.pre.num_nodes();
  const std::size_t row_bytes =
      (fx.pre.num_hops() + 1) * fx.pre.feat_dim() * sizeof(float);

  FleetBuilder builder(
      ckpt, [&](std::size_t i) { return fx.make_model(100 + i); },
      [&](std::size_t) -> std::unique_ptr<FeatureSource> {
        return std::make_unique<CachedSource>(
            std::make_unique<FileStoreSource>(loader::FeatureFileStore::open(
                store_dir, nodes, fx.pre.num_hops() + 1, fx.pre.feat_dim())),
            std::make_unique<loader::LruCache>((nodes / 5) * row_bytes,
                                               row_bytes));
      });
  FleetConfig fc;
  fc.policy = RoutingPolicy::kCacheAffinity;
  fc.warm_keys = 256;
  fc.batch.max_delay = std::chrono::microseconds(100);
  FleetManager fleet(std::move(builder), 2, fc);

  // Populate the peers' caches with real traffic, then spawn.
  ZipfWorkloadConfig wc;
  wc.num_nodes = nodes;
  wc.num_requests = 1200;
  wc.skew = 0.99;
  wc.seed = 9;
  for (const auto node : zipf_stream(wc)) infer_node(fleet, node);
  fleet.scale_up();
  ASSERT_EQ(fleet.num_replicas(), 3u);
  const auto events = fleet.events();
  ASSERT_FALSE(events.empty());
  const auto& spawn = events.back();
  EXPECT_TRUE(spawn.spawned);
  // The spawn pulled peer-hot rows for its ring shard into its cache
  // before going Active.
  EXPECT_GT(spawn.warmed_keys, 0u);
  // And routing still answers through the grown fleet.
  for (std::int64_t node = 0; node < 10; ++node) {
    EXPECT_EQ(infer_node(fleet, node).size(),
              static_cast<std::size_t>(fx.ds.num_classes));
  }
}

TEST(MicroBatcherDrain, DrainOutranksStopForStragglers) {
  // A retired replica's batcher is draining AND stopped.  A straggler
  // routed by a pre-resize snapshot may arrive after the drain completed;
  // it must get the re-routable kDraining bounce (the FleetManager then
  // retries a fresh snapshot), never the "stopped" exception reserved for
  // a fleet that actually shut down.
  const Fixture fx;
  auto model = fx.make_model();
  InferenceSession session(std::move(model),
                           std::make_unique<MemorySource>(fx.pre));
  for (const long budget_us : {0L, 5000L}) {  // backpressure and shedding
    MicroBatchConfig cfg;
    cfg.max_delay = std::chrono::microseconds(100);
    cfg.shed_budget = std::chrono::microseconds(budget_us);
    MicroBatcher batcher(session, cfg);
    batcher.begin_drain();
    batcher.stop();
    CompletionQueue cq;
    ServeRequest req;
    req.nodes = {0};
    auto state = std::make_shared<RequestState>(std::move(req), &cq);
    const std::uint32_t slot = 0;
    EXPECT_EQ(batcher.try_submit_parts(state, &slot, 1),
              RejectReason::kDraining);
    // The bounce leaves the part to the caller's re-route: nothing was
    // answered on the batcher's side.
    EXPECT_EQ(cq.delivered(), 0u);
  }
}

// --- No submit lost across epoch swaps ------------------------------------

TEST(FleetManager, EightThreadHammerLosesNoSubmitAcrossResizes) {
  const Fixture fx;
  const std::string ckpt = fx.deploy("autoscale_hammer.ckpt");
  FleetConfig fc;
  fc.batch.max_delay = std::chrono::microseconds(100);
  FleetManager fleet(fx.builder(ckpt), 2, fc);

  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 300;
  std::atomic<std::size_t> answered{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      for (std::size_t i = 0; i < kPerThread; ++i) {
        // Backpressure mode: every submit must be admitted somewhere and
        // answered — a resize mid-flight may bounce it off a draining
        // replica, but the re-route must land it.
        const auto node =
            static_cast<std::int64_t>((t * kPerThread + i) % 100);
        const auto logits = infer_node(fleet, node);
        if (!logits.empty()) answered.fetch_add(1);
      }
    });
  }
  go.store(true);
  // Resize storm concurrent with the hammer: grow to 4, shrink to 1,
  // repeatedly — every transition publishes a new epoch.
  for (int cycle = 0; cycle < 3; ++cycle) {
    fleet.scale_up();
    fleet.scale_up();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    fleet.scale_down();
    fleet.scale_down();
    fleet.scale_down();  // down to 1
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    fleet.scale_up();    // back to 2 for the next cycle
  }
  for (auto& c : clients) c.join();

  EXPECT_EQ(answered.load(), kThreads * kPerThread);
  // Admissions across all generations (retired ones included) account for
  // every request exactly once: draining bounces are re-routes, not
  // losses, and not double counts.
  EXPECT_EQ(fleet.aggregate_admission().admitted, kThreads * kPerThread);
  EXPECT_EQ(fleet.aggregate_latency().count, kThreads * kPerThread);
  EXPECT_GT(fleet.epoch(), 0u);
  EXPECT_EQ(fleet.num_replicas(), 2u);
}

// --- ServerStats generation-keyed aggregation (regression) ----------------

TEST(ServerStats, MergeOnceFoldsEachGenerationExactlyOnce) {
  // The dynamic-membership hazard: replica gen 3 retires from slot 1 and
  // gen 9 spawns into the same slot.  Aggregation that walks both a
  // retired list and a membership list can meet gen 3 twice; keying by
  // generation makes the fold idempotent.
  ServerStats retired_gen3;
  for (int i = 1; i <= 50; ++i) retired_gen3.record(static_cast<double>(i));
  retired_gen3.record_admitted();
  retired_gen3.record_shed();
  ServerStats successor_gen9;
  for (int i = 51; i <= 100; ++i) {
    successor_gen9.record(static_cast<double>(i));
  }
  successor_gen9.record_admitted();

  ServerStats pooled;
  EXPECT_TRUE(pooled.merge_once(retired_gen3, 3));
  // The same generation arriving through a second bookkeeping path is a
  // no-op — this is the double-count regression.
  EXPECT_FALSE(pooled.merge_once(retired_gen3, 3));
  EXPECT_TRUE(pooled.merge_once(successor_gen9, 9));

  const auto s = pooled.summary();
  EXPECT_EQ(s.count, 100u);  // 150 with the double count
  EXPECT_DOUBLE_EQ(s.p50_us, 50.0);
  const auto adm = pooled.admission();
  EXPECT_EQ(adm.admitted, 2u);
  EXPECT_EQ(adm.shed, 1u);
}

TEST(ServerStats, WindowTracksRecentAdmissionAndQueueDelay) {
  ServerStats stats(std::chrono::milliseconds(200));
  stats.record_admitted();
  stats.record_rejected();
  stats.record_queue_delay(1000.0);
  stats.record_queue_delay(3000.0);
  stats.record(500.0);
  const auto w = stats.window();
  EXPECT_EQ(w.admission.admitted, 1u);
  EXPECT_EQ(w.admission.rejected, 1u);
  EXPECT_DOUBLE_EQ(w.shed_rate(), 0.5);
  EXPECT_EQ(w.queue_delay_samples, 2u);
  EXPECT_DOUBLE_EQ(w.mean_queue_delay_us, 2000.0);
  EXPECT_EQ(w.latency.count, 1u);
  // Cumulative counters are untouched by the window machinery.
  EXPECT_EQ(stats.admission().admitted, 1u);
  // Far in the future the window is empty while the lifetime counters
  // persist.
  const auto later =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  const auto w2 = stats.window(later);
  EXPECT_EQ(w2.admission.offered(), 0u);
  EXPECT_EQ(w2.latency.count, 0u);
  EXPECT_EQ(stats.admission().offered(), 2u);
}

}  // namespace
}  // namespace ppgnn::serve
