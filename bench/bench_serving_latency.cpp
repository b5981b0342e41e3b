// Serving extension — six experiments, one per serving claim:
//
//  1. Throughput vs. offered load, cache-on vs. cache-off (PR 1).  The
//     Section-4.1 inversion made visible: the same LRU policy that bought
//     nothing on the training stream (bench_ablation_caching) extends the
//     load a serving tier survives.
//
//  2. Replicas x routing policy.  N independent pipelines behind a
//     FleetManager, closed-loop clients pushing each config to saturation.
//     Reports per-config throughput, tail latency and aggregate cache hit
//     rate, plus the throughput scaling factor vs. one replica.  Scaling
//     tracks min(replicas, cores): each replica needs a core to itself to
//     add service capacity, so on a many-core box 4 replicas clear 2x+
//     while a single-core box shows the flat curve it should.
//     cache_affinity's hit-rate column is the policy's point: sharded
//     caches stop duplicating the same hot set — and since PR 4 the shard
//     map is a consistent-hash ring, so it survives fleet resizes.
//
//  3. Admission control at overload.  A paced open-loop client offers 2x
//     the single-replica saturation rate; the shed-budget sweep shows the
//     trade: with shedding off, queue delay grows to whatever the bounded
//     queue holds (p99 ~ capacity / service rate); with a budget, the p99
//     of *admitted* requests stays pinned near the budget and the overload
//     shows up as shed rate instead — and the kLow class absorbs nearly
//     all of it, which is what priority classes are for.
//
//  4. fp32 vs int8 serving.  Same byte budget, same workload, both
//     precisions: the int8 row codec stores ~4x smaller rows, so the cache
//     holds ~4x more of them (the capacity ratio and the resulting hit
//     rates are in the JSON), fewer misses reach the store (preads per
//     micro-batch, which also shows what batched read_rows coalescing
//     saves), and the accuracy columns (top-1 agreement, max |logit err|
//     vs fp32) price the precision loss — the accuracy-vs-latency tradeoff
//     measured, not assumed.
//
//  5. Autoscaling under a staged load ramp (0.5x -> 2.5x -> 0.5x of
//     single-replica saturation).  Three fleets drive the same trace:
//     fixed at the autoscaler's min (1), fixed at its max (4), and the
//     elastic fleet (min 1, max 4, shed-rate/idle hysteresis).  The claim
//     is two-sided and both sides are recorded: the elastic fleet answers
//     (nearly) like fixed-max — beating fixed-min on answered_rps, whose
//     single pipeline sheds most of the 2.5x phase — while provisioning
//     (nearly) like fixed-min — beating fixed-max on idle replica-seconds,
//     whose three extra dispatchers sit empty through both 0.5x phases.
//     The replica-count timeline (sampled + membership events, including
//     rows cache-warmed into each spawn and its first-window hit rate)
//     lands in the JSON.
//
//  6. Deadlines at 2x saturation (serving API v2).  Two eviction arms over
//     the same shed budget and offered stream: FIFO drop-head (the PR-2
//     baseline — blown requests are computed anyway and counted late) vs
//     deadline-aware (slack-ordered eviction, blown requests shed BEFORE
//     compute).  Two claims, one row each.  Uniform deadline: slack order
//     equals FIFO order there, so the row isolates the dispatch-time
//     shed, whose win is GOODPUT — the compute not burned on doomed
//     requests answers viable ones in time (more in-time answers, lower
//     admitted p99, and a fresher head-of-line that admits more).  Mixed
//     1x/5x deadlines: eviction ORDER now differs (FIFO kills requests
//     with slack while keeping doomed ones) and the aware arm must hold a
//     lower miss-per-admitted rate at equal-or-better admission — the
//     gated comparison, machine-relative by construction (both arms on
//     this machine, deadline scaled to its batch service time), in the
//     JSON as the "deadline_gate" record.
//
//  7. Cross-process overhead (src/rpc/).  The same closed-loop drive over
//     two fleets of two replicas each: one in-process (PR 2's threads),
//     one where each replica is a replica_server_cli child answering over
//     a Unix socket in ppgnn-wire (docs/wire-protocol.md).  Both serve
//     file-backed rows through the same LRU byte budget; the only change
//     is the process boundary, so the throughput ratio IS the RPC tax
//     (framing + codec + socket hops + one extra scheduler handoff).  The
//     "cross_process" JSON row records both rates and the overhead ratio;
//     the deploy gate is ratio <= 2x.
//
//  9. Tenant isolation (src/tenancy/).  Four equal contracts on one
//     replica; both arms run tenant 0 at its full contracted quota's
//     worth of ADMITTED load (arm A offers exactly quota, arm B blasts
//     10x and the bucket clips it back to quota), tenants 1-3 at half
//     quota throughout.  Load-matched arms isolate the enforcement
//     claim — blasting past your contract gains you nothing and costs
//     your neighbors nothing beyond what your contracted rate already
//     does.  Gated in the "tenant_isolation" record: no victim is
//     quota-refused, no victim's admitted p99 moves more than 10%, and
//     the aggressor IS refused (the buckets demonstrably fired).
//
// Every row also prints as one JSON line ("json: {...}"); --json=PATH
// additionally writes all records to PATH as a JSON array (the
// BENCH_serving.json artifact CI uploads).  --quick shrinks streams for
// CI-sized runs.
#include "common.h"
#include "loader/cache.h"
#include "loader/storage.h"
#include "serve/feature_source.h"
#include "serve/inference_session.h"
#include "serve/micro_batcher.h"
#include "serve/replica_set.h"
#include "serve/router.h"
#include "serve/server_stats.h"
#include "rpc/remote_replica.h"
#include "serve/testbed.h"
#include "serve/workload.h"
#include "tenancy/tenant.h"
#include "tensor/cpu_features.h"
#include "tensor/quant.h"
#include "tensor/rng.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <functional>
#include <memory>
#include <thread>

#include "serve/serve_api.h"

using namespace ppgnn;
using namespace ppgnn::bench;

namespace {

constexpr std::size_t kNodes = 20000;
constexpr std::size_t kFeatDim = 32;
constexpr std::size_t kClasses = 16;
constexpr std::size_t kHops = 2;

std::vector<std::string> g_records;  // every JSON line, for --json=PATH

void emit(const std::string& json) {
  std::printf("json: %s\n", json.c_str());
  g_records.push_back(json);
}

// The drive loops' client: single-node envelopes with at most `window`
// unreaped — past that it blocks reaping answers, like a client feeling
// admission control (refused envelopes are answered at once, so they only
// pass through the window).  Counts kOk answers per priority class, which
// rides in the envelope id's low bit.  One client per submitting thread.
class NodeClient {
 public:
  explicit NodeClient(std::size_t window) : window_(window) {}
  ~NodeClient() { drain(); }

  void submit(serve::FleetManager& fleet, std::int64_t node,
              serve::Priority pri = serve::Priority::kHigh) {
    fleet.submit(envelope(node, pri), cq_);
  }
  // Straight into one batcher (which, never drained, resolves every
  // refusal itself).
  void submit(serve::MicroBatcher& batcher, std::int64_t node) {
    const auto state = std::make_shared<serve::RequestState>(
        envelope(node, serve::Priority::kHigh), &cq_);
    const std::uint32_t slot = 0;
    batcher.try_submit_parts(state, &slot, 1);
  }
  void drain() {
    while (inflight_ > 0) reap();
  }
  std::size_t ok(serve::Priority pri) const {
    return ok_[static_cast<std::size_t>(pri)];
  }

 private:
  serve::ServeRequest envelope(std::int64_t node, serve::Priority pri) {
    while (inflight_ >= window_) reap();
    serve::ServeRequest req;
    req.id = (next_id_++ << 1) | static_cast<std::uint64_t>(pri);
    req.nodes = {node};
    req.priority = pri;
    ++inflight_;
    return req;
  }
  void reap() {
    serve::ServeResponse r;
    if (!cq_.wait_for(&r, std::chrono::milliseconds(100))) return;
    --inflight_;
    if (r.status == serve::ServeStatus::kOk) ++ok_[r.id & 1];
  }

  const std::size_t window_;
  serve::CompletionQueue cq_;
  std::size_t inflight_ = 0;
  std::uint64_t next_id_ = 0;
  std::size_t ok_[2] = {0, 0};
};

struct LoadPoint {
  double offered_rps = 0;
  double achieved_rps = 0;
  serve::LatencySummary latency;
  serve::FeatureCacheStats cache;
  std::uint64_t preads = 0;  // syscalls the store served this config with
};

// Drives `stream` at `offered_rps` through a fresh single session over
// `source`.  Bounded open loop: requests are submitted on schedule while
// fewer than 4096 are in flight (plus the batcher's own admission bound),
// so moderate overload shows up as queue latency; past the backpressure
// bound the driver throttles like a real client feeling admission control,
// and the achieved-rps column dropping below offered-rps is the overload
// signal.
LoadPoint drive(const serve::ServingTestbed& tb,
                std::unique_ptr<serve::FeatureSource> source,
                const std::vector<std::int64_t>& stream, double offered_rps,
                const loader::FeatureFileStore* store = nullptr) {
  auto* cached = dynamic_cast<serve::CachedSource*>(source.get());
  serve::InferenceSession session(tb.make_model(), std::move(source));
  serve::MicroBatchConfig mc;
  mc.max_batch_size = 128;
  mc.max_delay = std::chrono::microseconds(500);
  serve::ServerStats stats;
  serve::MicroBatcher batcher(session, mc, &stats);

  const auto interval =
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(1.0 / offered_rps));
  NodeClient client(4096);
  const auto t0 = std::chrono::steady_clock::now();
  auto next = t0;
  for (const auto node : stream) {
    std::this_thread::sleep_until(next);
    next += interval;
    client.submit(batcher, node);
  }
  client.drain();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  LoadPoint p;
  p.offered_rps = offered_rps;
  p.achieved_rps = static_cast<double>(stream.size()) / wall;
  p.latency = stats.summary();
  if (cached) p.cache = cached->stats();
  if (store) p.preads = store->preads();
  return p;
}

// Every cache in this bench gets the same byte budget — 5% of the fp32
// resident set — regardless of codec; int8's smaller stored rows then buy
// proportionally more resident rows, which is the capacity claim the
// precision section measures.
constexpr std::size_t kFp32RowBytes = (kHops + 1) * kFeatDim * sizeof(float);
constexpr std::size_t kCacheBudgetBytes = (kNodes / 20) * kFp32RowBytes;

// A FleetManager over file-backed, LRU-cached per-replica sources, plus
// the cache and store handles for hit-rate / syscall reporting.  Heap-
// allocated: the FleetBuilder inside the manager captures this struct's
// address and may build more sources at a scale-up long after make_fleet
// returned.
struct Fleet {
  std::unique_ptr<serve::FleetManager> set;
  std::vector<const serve::CachedSource*> caches;
  std::vector<const loader::FeatureFileStore*> stores;
  std::size_t cache_capacity_rows = 0;  // rows the byte budget holds

  double hit_rate() const {
    return serve::aggregate_cache_stats(caches).hit_rate();
  }
  std::uint64_t preads() const {
    std::uint64_t total = 0;
    for (const auto* s : stores) total += s->preads();
    return total;
  }
};

std::unique_ptr<Fleet> make_fleet(
    const serve::ServingTestbed& tb, const std::string& store_dir,
    const std::string& ckpt, std::size_t replicas,
    serve::RoutingPolicy policy,
    std::chrono::microseconds shed_budget = std::chrono::microseconds{0},
    serve::Precision precision = serve::Precision::kFp32,
    loader::RowCodec codec = loader::RowCodec::kFp32,
    serve::AutoscaleConfig autoscale = {}, bool deadline_aware = true,
    const tenancy::TenantRegistry* tenants = nullptr) {
  auto f = std::make_unique<Fleet>();
  Fleet* fp = f.get();  // stable address for the builder's source factory
  serve::FleetBuilder builder(
      ckpt, [&tb](std::size_t) { return tb.make_model(); },
      [fp, store_dir, codec](std::size_t)
          -> std::unique_ptr<serve::FeatureSource> {
        auto source = std::make_unique<serve::FileStoreSource>(
            loader::FeatureFileStore::open(store_dir, kNodes, kHops + 1,
                                           kFeatDim, codec));
        fp->stores.push_back(&source->store());
        const std::size_t stored_row_bytes = source->store().row_bytes();
        auto policy_ptr = std::make_unique<loader::LruCache>(
            kCacheBudgetBytes, stored_row_bytes);
        fp->cache_capacity_rows = policy_ptr->capacity();
        auto cached = std::make_unique<serve::CachedSource>(
            std::move(source), std::move(policy_ptr));
        fp->caches.push_back(cached.get());
        return cached;
      },
      precision);
  serve::FleetConfig fc;
  fc.policy = policy;
  fc.precision = precision;
  fc.batch.max_batch_size = 128;
  fc.batch.max_delay = std::chrono::microseconds(500);
  fc.batch.shed_budget = shed_budget;
  fc.batch.deadline_aware = deadline_aware;
  fc.autoscale = autoscale;
  fc.tenants = tenants;
  f->set = std::make_unique<serve::FleetManager>(std::move(builder),
                                                 replicas, fc);
  return f;
}

struct SaturationPoint {
  double achieved_rps = 0;
  serve::LatencySummary latency;
  double hit_rate = 0;
};

// Closed-loop saturation: `clients` threads keep `window` requests in
// flight each until the stream drains — the max-throughput measurement.
// This overload drives a bare FleetManager (the cross-process arm of
// section 7 has no in-process cache handles to report).
SaturationPoint drive_closed(serve::FleetManager& set,
                             const std::vector<std::int64_t>& stream,
                             std::size_t clients, std::size_t window) {
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  const std::size_t shard = (stream.size() + clients - 1) / clients;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const std::size_t lo = c * shard;
      const std::size_t hi = std::min(stream.size(), lo + shard);
      NodeClient client(window);
      for (std::size_t i = lo; i < hi; ++i) client.submit(set, stream[i]);
      client.drain();
    });
  }
  for (auto& t : threads) t.join();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  SaturationPoint p;
  p.achieved_rps = static_cast<double>(stream.size()) / wall;
  p.latency = set.aggregate_latency();
  return p;
}

SaturationPoint drive_closed(Fleet& fleet,
                             const std::vector<std::int64_t>& stream,
                             std::size_t clients, std::size_t window) {
  auto p = drive_closed(*fleet.set, stream, clients, window);
  p.hit_rate = fleet.hit_rate();
  return p;
}

// One tenant's offered rate in the multi-tenant isolation drive.
struct TenantLoad {
  std::uint32_t tenant = 0;
  double rps = 0;
};

// Paced open loop of single-node v2 envelopes, each tenant on its own
// arrival schedule, for `warmup + seconds` of wall time.  Every envelope
// goes through FleetManager::submit — the path the tenancy front gate
// (token buckets, priority ceiling, DWRR hand-off) actually guards — and
// every submission produces exactly one response.
//
// Latency is measured CLIENT-SIDE (submit -> completion) and only over
// kOk envelopes submitted after the warm-up cut: a freshly built fleet's
// first fraction of a second serves through a cold row cache, and at
// these offered rates that transient alone backs up the open loop enough
// to own the lifetime p99.  The isolation gate compares steady states,
// so the warm-up samples are discarded symmetrically in both arms.  The
// returned rows are the fleet's cumulative per-tenant merge (admission
// and refusal counters span warm-up too — refusal counts are what the
// gate checks and warming changes none of them) with the latency columns
// replaced by the steady-state client-side percentiles.
std::vector<serve::TenantStat> drive_tenant_mix(
    serve::FleetManager& fleet, const std::vector<std::int64_t>& stream,
    const std::vector<TenantLoad>& loads, double seconds, double warmup) {
  using Clock = std::chrono::steady_clock;
  serve::CompletionQueue cq;
  serve::ServeResponse resp;
  std::size_t inflight = 0;
  const auto t0 = Clock::now();
  const auto warm_end =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(warmup));
  const auto end =
      warm_end + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(seconds));
  std::vector<Clock::time_point> next(loads.size(), t0);
  std::vector<Clock::duration> interval(loads.size());
  for (std::size_t i = 0; i < loads.size(); ++i) {
    interval[i] = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / loads[i].rps));
  }
  // Submission bookkeeping indexed by envelope id: which load slot it
  // belongs to and when it left, so completions can be billed per tenant
  // without trusting any server-side clock.
  std::vector<std::uint32_t> sub_slot;
  std::vector<Clock::time_point> sub_when;
  std::vector<std::vector<double>> lat(loads.size());
  const auto account = [&](const serve::ServeResponse& r) {
    --inflight;
    if (r.status != serve::ServeStatus::kOk) return;
    if (sub_when[r.id] < warm_end) return;
    const double us = std::chrono::duration<double, std::micro>(
                          Clock::now() - sub_when[r.id])
                          .count();
    lat[sub_slot[r.id]].push_back(us);
  };
  std::size_t si = 0;
  while (true) {
    // Earliest-deadline tenant submits next; ties resolve to the lower
    // index, which is deterministic across runs.
    std::size_t k = 0;
    for (std::size_t j = 1; j < loads.size(); ++j) {
      if (next[j] < next[k]) k = j;
    }
    if (next[k] >= end) break;
    std::this_thread::sleep_until(next[k]);
    serve::ServeRequest req;
    req.id = si;
    req.nodes = {stream[si % stream.size()]};
    req.tenant = loads[k].tenant;
    sub_slot.push_back(static_cast<std::uint32_t>(k));
    sub_when.push_back(Clock::now());
    fleet.submit(std::move(req), cq);
    ++inflight;
    ++si;
    next[k] += interval[k];
    while (cq.poll(&resp)) account(resp);
    while (inflight > 4096) {
      if (cq.wait_for(&resp, std::chrono::milliseconds(100))) account(resp);
    }
  }
  while (inflight > 0) {
    if (cq.wait_for(&resp, std::chrono::milliseconds(100))) account(resp);
  }
  const auto pct = [](std::vector<double>& v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    return v[static_cast<std::size_t>(q * (static_cast<double>(v.size()) -
                                           1.0))];
  };
  auto rows = fleet.aggregate_tenants();
  for (auto& row : rows) {
    for (std::size_t k = 0; k < loads.size(); ++k) {
      if (loads[k].tenant != row.tenant) continue;
      row.samples = lat[k].size();
      row.p50_us = pct(lat[k], 0.50);
      row.p99_us = pct(lat[k], 0.99);
    }
  }
  return rows;
}

struct OverloadPoint {
  double offered_rps = 0;
  double answered_rps = 0;  // completed requests over wall time
  serve::LatencySummary admitted_latency;
  serve::AdmissionCounters admission;
  double shed_rate_high = 0;  // fraction of kHigh offered never answered
  double shed_rate_low = 0;
};

// Paced open loop at `offered_rps` with a kHigh/kLow traffic mix.
// Rejected and shed requests are dropped (a retrying client's first
// attempt); per-class survival is accounted from the kOk answers.
OverloadPoint drive_overload(Fleet& fleet,
                             const std::vector<std::int64_t>& stream,
                             double offered_rps, double low_frac) {
  const auto interval =
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(1.0 / offered_rps));
  std::size_t offered[2] = {0, 0};
  NodeClient client(4096);
  const auto t0 = std::chrono::steady_clock::now();
  auto next = t0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    std::this_thread::sleep_until(next);
    next += interval;
    const auto pri = static_cast<double>(i % 100) < low_frac * 100
                         ? serve::Priority::kLow
                         : serve::Priority::kHigh;
    ++offered[static_cast<std::size_t>(pri)];
    client.submit(*fleet.set, stream[i], pri);
  }
  client.drain();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  OverloadPoint p;
  p.offered_rps = offered_rps;
  p.admitted_latency = fleet.set->aggregate_latency();
  p.admission = fleet.set->aggregate_admission();
  p.answered_rps = static_cast<double>(p.admitted_latency.count) / wall;
  const auto survival = [&](serve::Priority pri) {
    const auto i = static_cast<std::size_t>(pri);
    return offered[i] ? 1.0 - static_cast<double>(client.ok(pri)) /
                                  static_cast<double>(offered[i])
                      : 0.0;
  };
  p.shed_rate_high = survival(serve::Priority::kHigh);
  p.shed_rate_low = survival(serve::Priority::kLow);
  return p;
}

struct DeadlinePoint {
  double offered_rps = 0;
  double answered_in_time_rps = 0;  // kOk responses over wall time
  serve::LatencySummary admitted_latency;
  serve::AdmissionCounters admission;  // parts, fleet-wide
  std::size_t offered = 0;
  std::size_t ok = 0;      // answered within deadline
  std::size_t missed = 0;  // kDeadlineExceeded: shed blown or answered late
  std::size_t shed = 0;    // kShed: refused/evicted with life left
  // Misses per ADMITTED request: of everything the door accepted, the
  // fraction that provably missed its deadline.  Door refusals are the
  // client's cue to re-route, not misses — and normalizing by offered
  // would let an arm look better just by refusing more at the door.
  // Admitted counts ride along in the table and JSON, because a lower
  // miss rate only means something at equal-or-better admission.
  double miss_rate() const {
    return admission.admitted ? static_cast<double>(missed) /
                                    static_cast<double>(admission.admitted)
                              : 0.0;
  }
};

// Paced open loop at `offered_rps`: every request is a single-node
// envelope stamped with deadline_of(i) at submit time, answered through a
// callback CompletionQueue (statuses counted on the dispatcher thread).
DeadlinePoint drive_deadline(
    Fleet& fleet, const std::vector<std::int64_t>& stream, double offered_rps,
    double low_frac,
    const std::function<std::chrono::steady_clock::duration(std::size_t)>&
        deadline_of) {
  const auto interval =
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(1.0 / offered_rps));
  std::atomic<std::size_t> ok{0}, missed{0}, shed{0};
  serve::CompletionQueue cq([&](serve::ServeResponse&& r) {
    switch (r.status) {
      case serve::ServeStatus::kOk:
        ok.fetch_add(1, std::memory_order_relaxed);
        break;
      case serve::ServeStatus::kDeadlineExceeded:
        missed.fetch_add(1, std::memory_order_relaxed);
        break;
      default:
        shed.fetch_add(1, std::memory_order_relaxed);
    }
  });
  const auto t0 = std::chrono::steady_clock::now();
  auto next = t0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    std::this_thread::sleep_until(next);
    next += interval;
    serve::ServeRequest req;
    req.id = i;
    req.nodes = {stream[i]};
    req.priority = static_cast<double>(i % 100) < low_frac * 100
                       ? serve::Priority::kLow
                       : serve::Priority::kHigh;
    req.deadline = serve::deadline_in(deadline_of(i));
    fleet.set->submit(std::move(req), cq);
  }
  // Every envelope delivers exactly one response; wait for the tail.
  while (cq.delivered() < stream.size()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  DeadlinePoint p;
  p.offered_rps = offered_rps;
  p.offered = stream.size();
  p.ok = ok.load();
  p.missed = missed.load();
  p.shed = shed.load();
  p.answered_in_time_rps = static_cast<double>(p.ok) / wall;
  p.admitted_latency = fleet.set->aggregate_latency();
  p.admission = fleet.set->aggregate_admission();
  return p;
}

// One point of the replica-count timeline section 5 records.
struct TimelineSample {
  double t_seconds = 0;
  std::size_t replicas = 0;
  std::size_t queue_depth = 0;
  std::size_t idle_replicas = 0;  // nothing queued, nothing in service
};

struct RampPoint {
  double offered_mean_rps = 0;
  double answered_rps = 0;
  serve::LatencySummary admitted_latency;
  serve::AdmissionCounters admission;
  std::size_t max_replicas_seen = 0;
  double replica_seconds = 0;       // integral of replica count over time
  double idle_replica_seconds = 0;  // share of it spent with empty queues
  std::vector<TimelineSample> timeline;
  std::vector<serve::FleetEvent> events;
};

// Staged open-loop ramp (serve::StagedRampPacer: 0.5x / 2.5x / 0.5x of
// `baseline_rps`, equal wall time each) totalling `stream.size()` offered
// requests.  Samples the replica count + fleet queue depth every 50ms for
// the timeline and the replica-seconds integrals.
RampPoint drive_ramp(Fleet& fleet, const std::vector<std::int64_t>& stream,
                     double baseline_rps) {
  const double total_seconds =
      static_cast<double>(stream.size()) /
      (serve::StagedRampPacer::kMeanMult * baseline_rps);
  serve::StagedRampPacer pacer(baseline_rps, total_seconds);

  RampPoint p;
  p.offered_mean_rps = serve::StagedRampPacer::kMeanMult * baseline_rps;
  NodeClient client(4096);
  const auto t0 = pacer.start();
  auto next_sample = t0;
  const auto sample_every = std::chrono::milliseconds(50);
  double last_sample_s = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= next_sample) {
      TimelineSample s;
      s.t_seconds = std::chrono::duration<double>(now - t0).count();
      s.replicas = fleet.set->num_replicas();
      s.queue_depth = fleet.set->total_queue_depth();
      s.idle_replicas = fleet.set->idle_replicas();
      p.max_replicas_seen = std::max(p.max_replicas_seen, s.replicas);
      const double dt = s.t_seconds - last_sample_s;
      p.replica_seconds += dt * static_cast<double>(s.replicas);
      // Idle integrates PER REPLICA: a fixed-max fleet at 0.5x load keeps
      // most dispatchers empty while one serves the hot shard — that
      // wasted provisioning is exactly what the elastic fleet avoids.
      p.idle_replica_seconds += dt * static_cast<double>(s.idle_replicas);
      last_sample_s = s.t_seconds;
      p.timeline.push_back(s);
      next_sample = now + sample_every;
    }
    if (!pacer.pace()) break;  // the trace is wall-time-bounded
    client.submit(*fleet.set, stream[i]);
  }
  client.drain();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  p.admitted_latency = fleet.set->aggregate_latency();
  p.admission = fleet.set->aggregate_admission();
  p.answered_rps =
      static_cast<double>(p.admitted_latency.count) / wall;
  p.events = fleet.set->events();
  return p;
}

std::string timeline_json(const RampPoint& p) {
  // Compact [t, replicas, queued, idle_replicas] rows; the queue depth and
  // idle count ride along so the artifact shows *why* the count moved.
  std::string out = "[";
  for (std::size_t i = 0; i < p.timeline.size(); ++i) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s[%.2f,%zu,%zu,%zu]", i ? "," : "",
                  p.timeline[i].t_seconds, p.timeline[i].replicas,
                  p.timeline[i].queue_depth, p.timeline[i].idle_replicas);
    out += buf;
  }
  out += "]";
  return out;
}

std::string events_json(const RampPoint& p) {
  std::string out = "[";
  for (std::size_t i = 0; i < p.events.size(); ++i) {
    const auto& e = p.events[i];
    char buf[224];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"t\":%.2f,\"action\":\"%s\",\"generation\":%llu,"
                  "\"replicas_after\":%zu,\"warmed_keys\":%zu,"
                  "\"first_window_hit_rate\":%.3f}",
                  i ? "," : "", e.t_seconds, e.spawned ? "spawn" : "retire",
                  static_cast<unsigned long long>(e.generation),
                  e.replicas_after, e.warmed_keys, e.first_window_hit_rate);
    out += buf;
  }
  out += "]";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--json=PATH]\n", argv[0]);
      return 2;
    }
  }
  header("Serving: load sweep, replica scaling, admission, autoscaling");

  // Shared offline artifacts — ServingTestbed: one preprocessing pass, one
  // on-disk store, one quick_train'd checkpoint every replica loads.
  serve::TestbedConfig tc;
  tc.nodes = kNodes;
  tc.feat_dim = kFeatDim;
  tc.classes = kClasses;
  tc.hops = kHops;
  tc.create_store = true;  // fp32 store; the int8 section writes its own
  const serve::ServingTestbed tb(tc);
  const std::string dir = tb.dir();
  const std::string ckpt = tb.checkpoint();
  // The int8 deployment artifact: same trained weights through the
  // quantized checkpoint section.
  const std::string ckpt_int8 = dir + "/model_int8.ckpt";
  {
    auto trained = tb.make_model();
    serve::load_deployed_model(*trained, ckpt);
    serve::save_deployed_model(*trained, ckpt_int8, serve::Precision::kInt8);
  }

  const auto make_stream = [&](std::size_t n, std::uint64_t seed = 31) {
    return tb.stream(n, seed);
  };

  // --- 1. Offered-load sweep, cache on/off (single replica). -------------
  header("1. throughput vs offered load, cache-on vs cache-off");
  std::printf("%-10s %-8s %12s %10s %10s %10s %10s\n", "offered/s", "cache",
              "achieved/s", "p50(us)", "p99(us)", "mean(us)", "hit rate");
  const std::vector<double> loads =
      quick ? std::vector<double>{5000.0, 20000.0}
            : std::vector<double>{2000.0, 5000.0, 10000.0, 20000.0, 50000.0};
  const double seconds_per_point = quick ? 0.6 : 1.5;
  for (const double offered : loads) {
    const auto stream =
        make_stream(static_cast<std::size_t>(offered * seconds_per_point));
    for (const bool with_cache : {false, true}) {
      auto file_source = tb.file_source();
      const auto* store = &file_source->store();
      std::unique_ptr<serve::FeatureSource> source = std::move(file_source);
      if (with_cache) {
        source = std::make_unique<serve::CachedSource>(
            std::move(source),
            std::make_unique<loader::LruCache>(kCacheBudgetBytes,
                                               kFp32RowBytes));
      }
      const auto p = drive(tb, std::move(source), stream, offered, store);
      std::printf("%-10.0f %-8s %12.0f %10.0f %10.0f %10.0f %9.1f%%\n",
                  p.offered_rps, with_cache ? "lru-5%" : "off",
                  p.achieved_rps, p.latency.p50_us, p.latency.p99_us,
                  p.latency.mean_us, 100 * p.cache.hit_rate());
      char buf[512];
      std::snprintf(buf, sizeof(buf),
                    "{\"section\":\"load_sweep\",\"offered_rps\":%.0f,"
                    "\"cache\":\"%s\",\"achieved_rps\":%.0f,"
                    "\"cache_hit_rate\":%.3f,\"preads\":%llu,"
                    "\"preads_uncoalesced\":%llu,\"latency\":%s}",
                    p.offered_rps, with_cache ? "lru" : "off",
                    p.achieved_rps, p.cache.hit_rate(),
                    static_cast<unsigned long long>(p.preads),
                    static_cast<unsigned long long>(
                        (with_cache ? p.cache.rows_read : stream.size()) *
                        (kHops + 1)),
                    p.latency.to_json().c_str());
      emit(buf);
    }
  }

  // --- 2. Replica x routing-policy saturation sweep. ----------------------
  header("2. replicas x routing policy (closed-loop saturation)");
  std::printf("%-9s %-15s %12s %10s %10s %10s %9s\n", "replicas", "policy",
              "achieved/s", "p50(us)", "p99(us)", "hit rate", "vs 1");
  const auto sat_stream = make_stream(quick ? 20000 : 60000);
  const std::size_t clients = 4, window = 512;
  double single_replica_rps = 0;
  double best_speedup_at4 = 0;
  for (const std::size_t replicas : {std::size_t{1}, std::size_t{2},
                                     std::size_t{4}}) {
    for (const auto policy : {serve::RoutingPolicy::kRoundRobin,
                              serve::RoutingPolicy::kLeastLoaded,
                              serve::RoutingPolicy::kCacheAffinity}) {
      if (replicas == 1 && policy != serve::RoutingPolicy::kRoundRobin) {
        continue;  // one replica routes identically under every policy
      }
      auto fleet = make_fleet(tb, tb.store_dir(), ckpt, replicas, policy);
      const auto p = drive_closed(*fleet, sat_stream, clients, window);
      fleet->set->stop();
      if (replicas == 1) single_replica_rps = p.achieved_rps;
      const double speedup =
          single_replica_rps > 0 ? p.achieved_rps / single_replica_rps : 0;
      if (replicas == 4) best_speedup_at4 = std::max(best_speedup_at4, speedup);
      std::printf("%-9zu %-15s %12.0f %10.0f %10.0f %9.1f%% %8.2fx\n",
                  replicas, serve::policy_name(policy), p.achieved_rps,
                  p.latency.p50_us, p.latency.p99_us, 100 * p.hit_rate,
                  speedup);
      char buf[512];
      std::snprintf(buf, sizeof(buf),
                    "{\"section\":\"replica_sweep\",\"replicas\":%zu,"
                    "\"policy\":\"%s\",\"achieved_rps\":%.0f,"
                    "\"speedup_vs_1\":%.2f,\"cache_hit_rate\":%.3f,"
                    "\"latency\":%s}",
                    replicas, serve::policy_name(policy), p.achieved_rps,
                    speedup, p.hit_rate, p.latency.to_json().c_str());
      emit(buf);
    }
  }
  {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"section\":\"scaling\",\"replicas\":4,"
                  "\"best_speedup_vs_1\":%.2f,\"cores\":%u}",
                  best_speedup_at4, std::thread::hardware_concurrency());
    emit(buf);
  }

  // --- 3. Admission control at 2x single-replica saturation. --------------
  header("3. shed-budget sweep at 2x single-replica saturation");
  const double overload_rps = 2.0 * single_replica_rps;
  const double low_frac = 0.75;
  std::printf("offered = %.0f req/s (2x saturation), %d%% kLow traffic\n",
              overload_rps, static_cast<int>(low_frac * 100));
  std::printf("%-12s %12s %12s %12s %10s %10s\n", "budget", "answered/s",
              "adm p50(us)", "adm p99(us)", "shed kLow", "shed kHigh");
  const auto overload_stream = make_stream(
      static_cast<std::size_t>(overload_rps * (quick ? 0.5 : 1.0)), 37);
  for (const long budget_ms : {-1L, 2L, 10L}) {  // -1 = shedding off
    auto fleet = make_fleet(
        tb, tb.store_dir(), ckpt, 1, serve::RoutingPolicy::kRoundRobin,
        std::chrono::microseconds(budget_ms < 0 ? 0 : budget_ms * 1000));
    const auto p = drive_overload(*fleet, overload_stream, overload_rps,
                                  low_frac);
    fleet->set->stop();
    char label[32];
    if (budget_ms < 0) {
      std::snprintf(label, sizeof(label), "off");
    } else {
      std::snprintf(label, sizeof(label), "%ldms", budget_ms);
    }
    std::printf("%-12s %12.0f %12.0f %12.0f %9.1f%% %9.1f%%\n", label,
                p.answered_rps, p.admitted_latency.p50_us,
                p.admitted_latency.p99_us, 100 * p.shed_rate_low,
                100 * p.shed_rate_high);
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\"section\":\"shedding\",\"shed_budget_ms\":%ld,"
                  "\"offered_rps\":%.0f,\"answered_rps\":%.0f,"
                  "\"admitted_p99_us\":%.0f,\"shed_rate_low\":%.3f,"
                  "\"shed_rate_high\":%.3f,\"admission\":%s,\"latency\":%s}",
                  budget_ms < 0 ? 0 : budget_ms, p.offered_rps,
                  p.answered_rps, p.admitted_latency.p99_us, p.shed_rate_low,
                  p.shed_rate_high, p.admission.to_json().c_str(),
                  p.admitted_latency.to_json().c_str());
    emit(buf);
  }

  // --- 4. fp32 vs int8: quantized weights + packed rows, same byte budget.
  header("4. precision: fp32 vs int8 (same cache byte budget)");
  const std::string int8_store_dir = dir + "/int8_store";
  loader::FeatureFileStore::create(int8_store_dir, tb.pre().hop_features,
                                   loader::RowCodec::kInt8);

  // Accuracy offline, on the workload's own node distribution: both
  // sessions resolve features from RAM so only the numeric path differs;
  // the quantized side deploys from the quantized checkpoint, as a fleet
  // would, so its error includes the checkpoint codec's share.
  serve::PrecisionDrift drift;
  {
    auto fp32_model = tb.make_model();
    serve::load_deployed_model(*fp32_model, ckpt);
    auto int8_model = tb.make_model();
    serve::load_deployed_model(*int8_model, ckpt_int8);
    core::quantize_int8(*int8_model);
    serve::InferenceSession ref(std::move(fp32_model), tb.memory_source());
    serve::InferenceSession quant(std::move(int8_model), tb.memory_source(),
                                  serve::Precision::kInt8);
    drift = serve::compare_precision(
        ref, quant,
        serve::first_unique(make_stream(quick ? 20000 : 60000), 2048,
                            kNodes));
  }

  std::printf("%-10s %12s %10s %10s %11s %12s %10s %10s\n", "precision",
              "achieved/s", "p99(us)", "hit rate", "cache rows", "row bytes",
              "preads", "vs fp32");
  double fp32_rps = 0, fp32_capacity = 0;
  for (const auto precision :
       {serve::Precision::kFp32, serve::Precision::kInt8}) {
    const bool int8 = precision == serve::Precision::kInt8;
    auto fleet = make_fleet(
        tb, int8 ? int8_store_dir : tb.store_dir(), int8 ? ckpt_int8 : ckpt,
        2, serve::RoutingPolicy::kCacheAffinity, std::chrono::microseconds{0},
        precision, int8 ? loader::RowCodec::kInt8 : loader::RowCodec::kFp32);
    const std::size_t store_row_bytes = fleet->stores[0]->row_bytes();
    const auto p = drive_closed(*fleet, sat_stream, clients, window);
    const std::uint64_t preads = fleet->preads();
    const std::size_t batches = fleet->set->aggregate_batches();
    fleet->set->stop();
    if (!int8) {
      fp32_rps = p.achieved_rps;
      fp32_capacity = static_cast<double>(fleet->cache_capacity_rows);
    }
    const double speedup = fp32_rps > 0 ? p.achieved_rps / fp32_rps : 1.0;
    const double capacity_ratio =
        fp32_capacity > 0
            ? static_cast<double>(fleet->cache_capacity_rows) / fp32_capacity
            : 1.0;
    std::printf("%-10s %12.0f %10.0f %9.1f%% %11zu %12zu %10llu %9.2fx\n",
                serve::precision_name(precision), p.achieved_rps,
                p.latency.p99_us, 100 * p.hit_rate,
                fleet->cache_capacity_rows, store_row_bytes,
                static_cast<unsigned long long>(preads), speedup);
    char buf[768];
    std::snprintf(
        buf, sizeof(buf),
        "{\"section\":\"precision\",\"precision\":\"%s\","
        "\"achieved_rps\":%.0f,\"speedup_vs_fp32\":%.2f,"
        "\"cache_hit_rate\":%.3f,\"cache_capacity_rows\":%zu,"
        "\"effective_cache_capacity_vs_fp32\":%.2f,"
        "\"store_row_bytes\":%zu,\"preads\":%llu,"
        "\"preads_per_batch\":%.2f,\"top1_agreement\":%.4f,"
        "\"max_logit_err\":%.5f,\"latency\":%s}",
        serve::precision_name(precision), p.achieved_rps, speedup,
        p.hit_rate, fleet->cache_capacity_rows, capacity_ratio,
        store_row_bytes, static_cast<unsigned long long>(preads),
        batches ? static_cast<double>(preads) / static_cast<double>(batches)
                : 0.0,
        int8 ? drift.top1_agreement : 1.0,
        int8 ? drift.max_logit_err : 0.0,
        p.latency.to_json().c_str());
    emit(buf);
  }
  std::printf("accuracy: %.2f%% top-1 agreement, max |logit err| %.4f "
              "(%zu-node sample)\n",
              100 * drift.top1_agreement, drift.max_logit_err,
              drift.sampled);

  // --- 5. Autoscaling under the staged ramp. ------------------------------
  header("5. autoscale: staged ramp 0.5x -> 2.5x -> 0.5x saturation");
  const std::size_t kMinReplicas = 1, kMaxReplicas = 4;
  serve::AutoscaleConfig as;
  as.enabled = true;
  as.min_replicas = kMinReplicas;
  as.max_replicas = kMaxReplicas;
  as.scale_up_shed = 0.10;
  as.scale_down_idle = 0.90;
  // Ramp phases are seconds long; keep the reaction path well inside one
  // phase: sustain within one stats window, cooldown shorter than a phase.
  as.sustain = std::chrono::milliseconds(300);
  as.idle_window = std::chrono::milliseconds(800);
  as.cooldown = std::chrono::milliseconds(1000);
  const auto shed_budget = std::chrono::milliseconds(2);
  // Phases must be long enough for the reaction path (sustain + spawn +
  // a stats window of its effect) to land well inside the 2.5x phase:
  // 2s phases are the floor, the full run uses 3s.
  const double ramp_seconds = quick ? 6.0 : 9.0;
  const auto ramp_stream = make_stream(
      static_cast<std::size_t>(ramp_seconds * serve::StagedRampPacer::kMeanMult *
                               single_replica_rps),
      53);
  std::printf("trace: %.0f -> %.0f -> %.0f req/s offered, %.1fs per phase\n",
              0.5 * single_replica_rps, 2.5 * single_replica_rps,
              0.5 * single_replica_rps, ramp_seconds / 3);
  std::printf("%-12s %12s %12s %10s %10s %12s %12s\n", "fleet",
              "answered/s", "adm p99(us)", "shed", "max repl", "repl-sec",
              "idle r-sec");

  struct RampConfig {
    const char* name;
    std::size_t replicas;
    bool autoscale;
  };
  double autoscale_answered = 0, fixed_min_answered = 0;
  double autoscale_idle = 0, fixed_max_idle = 0;
  for (const RampConfig rc : {RampConfig{"fixed-min(1)", kMinReplicas, false},
                              RampConfig{"fixed-max(4)", kMaxReplicas, false},
                              RampConfig{"autoscale", kMinReplicas, true}}) {
    serve::AutoscaleConfig cfg = as;
    cfg.enabled = rc.autoscale;
    auto fleet = make_fleet(tb, tb.store_dir(), ckpt, rc.replicas,
                            serve::RoutingPolicy::kCacheAffinity,
                            std::chrono::duration_cast<std::chrono::microseconds>(shed_budget),
                            serve::Precision::kFp32, loader::RowCodec::kFp32,
                            cfg);
    const auto p = drive_ramp(*fleet, ramp_stream, single_replica_rps);
    fleet->set->stop();
    if (rc.autoscale) {
      autoscale_answered = p.answered_rps;
      autoscale_idle = p.idle_replica_seconds;
    } else if (rc.replicas == kMinReplicas) {
      fixed_min_answered = p.answered_rps;
    } else {
      fixed_max_idle = p.idle_replica_seconds;
    }
    std::printf("%-12s %12.0f %12.0f %9.1f%% %10zu %12.1f %12.1f\n",
                rc.name, p.answered_rps, p.admitted_latency.p99_us,
                100 * p.admission.shed_rate(), p.max_replicas_seen,
                p.replica_seconds, p.idle_replica_seconds);
    // Everything the fleet simulator needs to re-run this arm offline
    // rides in the record: the measured service-rate anchors (baseline
    // rps, mean batch, dispatch gauge, hit rate), the workload shape
    // (nodes, skew, cache capacity), the machine (cores) and the full
    // policy constants — so fleetsim's calibration gate is a pure function
    // of BENCH_serving.json, with nothing re-derived from this source.
    const serve::StageGauges ramp_stages = fleet->set->aggregate_stages();
    std::string buf(2048 + 32 * p.timeline.size() + 224 * p.events.size(),
                    '\0');
    const int n = std::snprintf(
        buf.data(), buf.size(),
        "{\"section\":\"autoscale_trace\",\"fleet\":\"%s\","
        "\"autoscale\":%s,\"min_replicas\":%zu,\"max_replicas\":%zu,"
        "\"offered_mean_rps\":%.0f,\"answered_rps\":%.0f,"
        "\"admitted_p99_us\":%.0f,\"shed_rate\":%.3f,"
        "\"max_replicas_seen\":%zu,\"replica_seconds\":%.1f,"
        "\"idle_replica_seconds\":%.1f,\"admission\":%s,"
        "\"single_replica_rps\":%.0f,\"ramp_seconds\":%.1f,"
        "\"mean_batch\":%.2f,\"cache_hit_rate\":%.4f,"
        "\"cache_capacity_rows\":%zu,\"nodes\":%zu,\"skew\":%.2f,"
        "\"cores\":%u,\"max_batch_size\":%zu,\"max_delay_us\":%lld,"
        "\"shed_budget_ms\":%lld,\"stats_window_ms\":500,"
        "\"scale_up_shed\":%.2f,\"scale_down_idle\":%.2f,"
        "\"sustain_ms\":%lld,\"idle_window_ms\":%lld,\"cooldown_ms\":%lld,"
        "\"tick_ms\":%lld,\"warm_keys\":512,"
        "\"stages\":%s,\"events\":%s,\"timeline\":%s}",
        rc.name, rc.autoscale ? "true" : "false",
        rc.autoscale ? kMinReplicas : rc.replicas,
        rc.autoscale ? kMaxReplicas : rc.replicas, p.offered_mean_rps,
        p.answered_rps, p.admitted_latency.p99_us,
        p.admission.shed_rate(), p.max_replicas_seen, p.replica_seconds,
        p.idle_replica_seconds, p.admission.to_json().c_str(),
        single_replica_rps, ramp_seconds,
        fleet->set->aggregate_mean_batch_size(), fleet->hit_rate(),
        fleet->cache_capacity_rows, kNodes, tb.config().skew,
        std::thread::hardware_concurrency(),
        static_cast<std::size_t>(128),
        static_cast<long long>(500),
        static_cast<long long>(shed_budget.count()),
        as.scale_up_shed, as.scale_down_idle,
        static_cast<long long>(as.sustain.count()),
        static_cast<long long>(as.idle_window.count()),
        static_cast<long long>(as.cooldown.count()),
        static_cast<long long>(
            std::chrono::duration_cast<std::chrono::milliseconds>(as.tick)
                .count()),
        ramp_stages.to_json().c_str(), events_json(p).c_str(),
        timeline_json(p).c_str());
    buf.resize(n > 0 ? static_cast<std::size_t>(n) : 0);
    emit(buf);
  }
  std::printf("autoscale vs fixed-min answered: %.2fx; autoscale vs "
              "fixed-max idle replica-seconds: %.2fx\n",
              fixed_min_answered > 0 ? autoscale_answered / fixed_min_answered
                                     : 0.0,
              fixed_max_idle > 0 ? autoscale_idle / fixed_max_idle : 0.0);

  // --- 6. Deadline sweep at 2x saturation: slack vs FIFO eviction. --------
  header("6. deadlines at 2x saturation: slack-ordered vs FIFO eviction");
  // Both arms run the same 10ms shed budget and the same offered stream;
  // the FIFO arm is the PR-2 baseline (deadline_aware=false: head-of-queue
  // eviction, blown requests computed anyway and counted late), the slack
  // arm orders eviction by effective deadline and sheds blown requests
  // BEFORE compute.  The claim under test: at equal admitted throughput,
  // acting on deadlines lowers the miss rate — the compute saved on doomed
  // requests answers viable ones inside their budget instead.
  const double dl_offered = 2.0 * single_replica_rps;
  const double dl_low_frac = 0.75;
  // The deadline is machine-relative with a 10ms floor: on a Release box
  // one 128-row batch serves in ~1ms so the floor binds (the headline
  // 10ms number), while on a sanitizer leg — where a single batch can
  // take 25ms — a fixed 10ms would be below ONE service time and every
  // admitted request would miss under either policy, measuring nothing.
  const double batch_service_ms = 1000.0 * 128.0 / single_replica_rps;
  const long dl_deadline_ms =
      std::max(10L, static_cast<long>(8.0 * batch_service_ms));
  const auto dl_deadline = std::chrono::milliseconds(dl_deadline_ms);
  const auto dl_budget = dl_deadline;  // budget = deadline, both arms
  const auto dl_stream = make_stream(
      static_cast<std::size_t>(dl_offered * (quick ? 0.5 : 1.0)), 41);
  std::printf("offered = %.0f req/s (2x saturation), %d%% kLow, "
              "deadline = shed budget = %ldms (10ms floor, scaled to this "
              "machine's %.1fms batch service time)\n",
              dl_offered, static_cast<int>(dl_low_frac * 100),
              dl_deadline_ms, batch_service_ms);
  std::printf("%-10s %-12s %12s %12s %10s %10s %10s\n", "eviction",
              "deadline", "in-time/s", "adm p99(us)", "miss rate", "shed",
              "admitted");
  struct EvictionArm {
    const char* name;
    bool aware;
  };
  // [0] = uniform deadline, [1] = mixed.  The gate reads the MIXED row:
  // under a uniform deadline slack order equals FIFO order (identical
  // effective deadlines), so that row isolates the dispatch-time shed —
  // whose win is goodput and admitted p99, not miss-per-admitted (by
  // shedding blown work early it keeps the head-of-line fresh, admits
  // MORE, and the marginal admissions land near the deadline edge).
  // Heterogeneous deadlines are where eviction ORDER matters, and there
  // the aware arm must win the miss rate at equal-or-better admission.
  double fifo_miss[2] = {0, 0}, slack_miss[2] = {0, 0};
  std::size_t fifo_admitted[2] = {0, 0}, slack_admitted[2] = {0, 0};
  double fifo_in_time[2] = {0, 0}, slack_in_time[2] = {0, 0};
  double fifo_p99[2] = {0, 0}, slack_p99[2] = {0, 0};
  for (const bool mixed : {false, true}) {
    // A uniform deadline isolates the dispatch-time shed; the mixed
    // 1x/5x row adds heterogeneous slack, where FIFO eviction kills
    // requests that could still make it while keeping doomed ones.
    const auto deadline_of =
        [mixed, dl_deadline](std::size_t i)
        -> std::chrono::steady_clock::duration {
      if (mixed && i % 2 == 1) return 5 * dl_deadline;
      return dl_deadline;
    };
    char deadline_label[32];
    if (mixed) {
      std::snprintf(deadline_label, sizeof(deadline_label), "%ld/%ldms",
                    dl_deadline_ms, 5 * dl_deadline_ms);
    } else {
      std::snprintf(deadline_label, sizeof(deadline_label), "%ldms",
                    dl_deadline_ms);
    }
    for (const EvictionArm arm :
         {EvictionArm{"fifo", false}, EvictionArm{"slack", true}}) {
      auto fleet = make_fleet(
          tb, tb.store_dir(), ckpt, 1, serve::RoutingPolicy::kRoundRobin,
          std::chrono::duration_cast<std::chrono::microseconds>(dl_budget),
          serve::Precision::kFp32, loader::RowCodec::kFp32, {}, arm.aware);
      const auto p =
          drive_deadline(*fleet, dl_stream, dl_offered, dl_low_frac,
                         deadline_of);
      fleet->set->stop();
      std::printf("%-10s %-12s %12.0f %12.0f %9.1f%% %9.1f%% %10zu\n",
                  arm.name, deadline_label, p.answered_in_time_rps,
                  p.admitted_latency.p99_us, 100 * p.miss_rate(),
                  100 * p.admission.shed_rate(), p.admission.admitted);
      const std::size_t row = mixed ? 1 : 0;
      (arm.aware ? slack_miss : fifo_miss)[row] = p.miss_rate();
      (arm.aware ? slack_admitted : fifo_admitted)[row] =
          p.admission.admitted;
      (arm.aware ? slack_in_time : fifo_in_time)[row] =
          p.answered_in_time_rps;
      (arm.aware ? slack_p99 : fifo_p99)[row] = p.admitted_latency.p99_us;
      char buf[640];
      std::snprintf(
          buf, sizeof(buf),
          "{\"section\":\"deadline\",\"eviction\":\"%s\","
          "\"deadline\":\"%s\",\"deadline_ms\":%ld,\"offered_rps\":%.0f,"
          "\"answered_in_time_rps\":%.0f,\"admitted_p99_us\":%.0f,"
          "\"deadline_miss_rate\":%.4f,\"ok\":%zu,\"missed\":%zu,"
          "\"shed\":%zu,\"admission\":%s,\"latency\":%s}",
          arm.name, deadline_label, dl_deadline_ms, p.offered_rps,
          p.answered_in_time_rps, p.admitted_latency.p99_us, p.miss_rate(),
          p.ok, p.missed, p.shed, p.admission.to_json().c_str(),
          p.admitted_latency.to_json().c_str());
      emit(buf);
    }
  }
  // The machine-relative deadline gate: both arms measured on THIS
  // machine, same stream, same budget.  Gated on the mixed row (where
  // eviction order differs): miss-per-admitted must not regress AND
  // admitted throughput must hold within 10% — a miss rate bought by
  // refusing work at the door would not count.  The uniform row's claim
  // is goodput: dispatch-time shed answers more requests in time at a
  // lower admitted p99 (reported, not gated — its marginal admissions sit
  // at the deadline edge by construction).
  const bool deadline_gate_ok =
      slack_miss[1] <= fifo_miss[1] &&
      static_cast<double>(slack_admitted[1]) >=
          0.9 * static_cast<double>(fifo_admitted[1]);
  std::printf("deadline gate (mixed %ld/%ldms): slack miss %.1f%%/admitted "
              "vs fifo %.1f%% at %zu vs %zu admitted -> %s\n",
              dl_deadline_ms, 5 * dl_deadline_ms, 100 * slack_miss[1],
              100 * fifo_miss[1], slack_admitted[1], fifo_admitted[1],
              deadline_gate_ok ? "OK" : "REGRESSION");
  std::printf("dispatch-shed payoff (%ldms uniform): %.0f vs %.0f in-time "
              "req/s (%.2fx), adm p99 %.0f vs %.0f us\n",
              dl_deadline_ms, slack_in_time[0], fifo_in_time[0],
              fifo_in_time[0] > 0 ? slack_in_time[0] / fifo_in_time[0] : 0.0,
              slack_p99[0], fifo_p99[0]);
  {
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "{\"section\":\"deadline_gate\",\"deadline_ms\":%ld,"
        "\"fifo_miss_rate_mixed\":%.4f,\"slack_miss_rate_mixed\":%.4f,"
        "\"fifo_admitted_mixed\":%zu,\"slack_admitted_mixed\":%zu,"
        "\"fifo_in_time_rps_uniform\":%.0f,\"slack_in_time_rps_uniform\":%.0f,"
        "\"fifo_p99_uniform_us\":%.0f,\"slack_p99_uniform_us\":%.0f,"
        "\"ok\":%s}",
        dl_deadline_ms, fifo_miss[1], slack_miss[1], fifo_admitted[1],
        slack_admitted[1], fifo_in_time[0], slack_in_time[0], fifo_p99[0],
        slack_p99[0], deadline_gate_ok ? "true" : "false");
    emit(buf);
  }

  // --- 7. Cross-process serving overhead (src/rpc/). ----------------------
  header("7. in-process vs cross-process fleet (2 replicas, closed loop)");
  {
    // Same front (FleetManager), same closed-loop clients, same stream,
    // same file+LRU serving stack per replica.  The in-process arm batches
    // on threads in this process; the cross-process arm spawns two
    // replica_server_cli children next to this binary and answers over
    // Unix sockets in ppgnn-wire.  The ratio between the two rates is the
    // whole RPC tax; with the pooled writev fast path the deploy gate is
    // <= 1.5x (target 1.4x), and the record carries the transport counters
    // that justify it: frames coalesced per writev, bytes per syscall,
    // pool hit rate, allocations per frame.
    // Not shrunk under --quick: this section's record is GATED, and on a
    // small box the 20k-request window's pass-to-pass variance (the
    // in-process arm alone swings tens of percent) is wider than the
    // 1.4x-vs-1.5x margin being asserted.  The 60k window is the shortest
    // that measures the tax instead of the scheduler.
    const auto xp_stream = make_stream(60000, 43);
    // Discarded steady-state warmup, identical for both arms.  The gate
    // compares serving rates, not cold starts: by section 7 this process
    // has six sections of warm page cache and allocator arenas behind it,
    // while the cross arm's children are freshly exec'd (checkpoint load,
    // cold LRU) — timing from the first request hands the in-process arm
    // a head start that reads as transport tax.  A short untimed drive on
    // the same fleet instance warms both arms to the state the ratio is
    // meant to price.  Sized to cycle the whole key space once so the LRU
    // reaches its steady hit rate, not a half-warm transient.
    const auto warm_stream = make_stream(20000, 44);

    // Each arm runs three times and keeps its fastest pass.  The gate is a
    // RATIO of two absolute rates measured back to back on a shared host,
    // so a scheduler hiccup landing on any single pass moves the ratio by
    // more than the transport tax being measured; best-of-N strips that
    // worst-case interference from both sides symmetrically.
    SaturationPoint in_proc;
    for (int pass = 0; pass < 3; ++pass) {
      auto local = make_fleet(tb, tb.store_dir(), ckpt, 2,
                              serve::RoutingPolicy::kRoundRobin);
      drive_closed(*local, warm_stream, clients, window);
      const auto p = drive_closed(*local, xp_stream, clients, window);
      local->set->stop();
      if (p.achieved_rps > in_proc.achieved_rps) in_proc = p;
    }

    // The children rebuild the same stack server-side: file store plus an
    // LRU sized to this bench's byte budget (make_fleet's kCacheBudgetBytes)
    // and the same micro-batcher shape make_fleet configures.
    rpc::ReplicaSpawnConfig scfg;
    scfg.socket_dir = dir;
    scfg.log_path = dir + "/bench-replica.log";
    scfg.server_args = {
        "--checkpoint=" + ckpt,
        "--store=" + tb.store_dir(),
        "--nodes=" + std::to_string(kNodes),
        "--model=" + tc.model,
        "--hops=" + std::to_string(kHops),
        "--feat-dim=" + std::to_string(kFeatDim),
        "--hidden=" + std::to_string(tc.hidden),
        "--classes=" + std::to_string(kClasses),
        "--max-batch=128",
        "--max-delay-us=500",
        "--cache=lru",
        "--cache-mb=" +
            std::to_string(static_cast<double>(kCacheBudgetBytes) /
                           (1024.0 * 1024.0)),
    };
    serve::FleetConfig fc;
    fc.batch.max_batch_size = 128;
    fc.batch.max_delay = std::chrono::microseconds(500);
    SaturationPoint cross;
    rpc::RpcStats xp_rpc;  // transport counters from the winning pass
    for (int pass = 0; pass < 3; ++pass) {
      serve::FleetManager remote(
          [&scfg](std::size_t ordinal) {
            std::string err;
            auto rep = rpc::spawn_replica_process(scfg, ordinal, &err);
            if (!rep) {
              std::fprintf(stderr, "spawn replica %zu failed: %s\n", ordinal,
                           err.c_str());
            }
            return rep;
          },
          2, fc);
      drive_closed(remote, warm_stream, clients, window);
      const auto p = drive_closed(remote, xp_stream, clients, window);
      const rpc::RpcStats st = remote.aggregate_rpc_stats();
      remote.stop();
      if (p.achieved_rps > cross.achieved_rps) {
        cross = p;
        xp_rpc = st;
      }
    }

    const double ratio =
        cross.achieved_rps > 0 ? in_proc.achieved_rps / cross.achieved_rps
                               : 0.0;
    const bool within_gate = ratio > 0 && ratio <= 1.5;
    std::printf("%-14s %12s %10s %10s\n", "deployment", "achieved/s",
                "p50(us)", "p99(us)");
    std::printf("%-14s %12.0f %10.0f %10.0f\n", "in-process",
                in_proc.achieved_rps, in_proc.latency.p50_us,
                in_proc.latency.p99_us);
    std::printf("%-14s %12.0f %10.0f %10.0f\n", "cross-process",
                cross.achieved_rps, cross.latency.p50_us,
                cross.latency.p99_us);
    std::printf("cross-process gate: %.2fx of in-process throughput "
                "(<= 1.5x gated, 1.4x target) -> %s\n",
                ratio, within_gate ? "OK" : "REGRESSION");
    std::printf("rpc fast path: frames=%llu writev=%llu frames/writev=%.2f "
                "bytes/syscall=%.0f pool-hit=%.1f%% allocs/frame=%.4f\n",
                static_cast<unsigned long long>(xp_rpc.frames_sent),
                static_cast<unsigned long long>(xp_rpc.writev_calls),
                xp_rpc.frames_per_writev(), xp_rpc.bytes_per_syscall(),
                100 * xp_rpc.pool_hit_rate(), xp_rpc.allocs_per_frame());
    char buf[768];
    std::snprintf(buf, sizeof(buf),
                  "{\"section\":\"cross_process\",\"replicas\":2,"
                  "\"in_process_rps\":%.0f,\"cross_process_rps\":%.0f,"
                  "\"overhead_ratio\":%.2f,\"ok\":%s,"
                  "\"frames_per_writev\":%.2f,\"bytes_per_syscall\":%.0f,"
                  "\"pool_hit_rate\":%.4f,\"allocs_per_frame\":%.4f,"
                  "\"in_process_latency\":%s,\"cross_process_latency\":%s}",
                  in_proc.achieved_rps, cross.achieved_rps, ratio,
                  within_gate ? "true" : "false",
                  xp_rpc.frames_per_writev(), xp_rpc.bytes_per_syscall(),
                  xp_rpc.pool_hit_rate(), xp_rpc.allocs_per_frame(),
                  in_proc.latency.to_json().c_str(),
                  cross.latency.to_json().c_str());
    emit(buf);
  }

  // --- 8. kernel ladder: per-ISA GEMM table + end-to-end serving. --------
  header("8. kernel ladder: INT8 GEMM arms (PPGNN_ISA forces any arm)");
  {
    // The arm an unforced int8 deployment on this host dispatches to —
    // recorded per row as "active" so the fleetsim calibration knows
    // which table entry prices the serving runs above.
    const Isa dispatched_arm = active_isa();

    // Micro GEMM on the serving testbed's first Linear at a saturated
    // micro-batch: m=255 requests x (hops+1)*feat -> hidden.  This is the
    // acceptance shape (AVX2 >= 1.5x SSE2) and the rate CpuGemmSpec::
    // measured() feeds the capacity planner.
    const std::size_t gm = 255, gk = (kHops + 1) * kFeatDim, gn = 32;
    Rng grng(97);
    const Tensor gx = Tensor::normal({gm, gk}, grng, 0.1f, 1.f);
    const Tensor gw = Tensor::normal({gn, gk}, grng, 0.f, 1.f);
    const serve::Precision int8 = serve::Precision::kInt8;
    const auto ladder_stream = make_stream(quick ? 15000 : 40000, 47);

    std::printf("%-12s %10s %10s %12s %12s %12s %7s\n", "isa", "supported",
                "gops", "vs sse2", "serve rps", "vs sse2", "active");
    double sse2_gops = 0, sse2_rps = 0;
    for (std::size_t i = 0; i < kNumIsa; ++i) {
      const Isa arm = static_cast<Isa>(i);
      if (!isa_supported(arm)) {
        std::printf("%-12s %10s\n", isa_name(arm), "no");
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "{\"section\":\"kernel_ladder\",\"isa\":\"%s\","
                      "\"supported\":false,\"active\":false}",
                      isa_name(arm));
        emit(buf);
        continue;
      }

      // GEMM rate: quantize for this arm, time repeated dispatched calls.
      const QuantizedActs gxq = quantize_acts_per_row(gx);
      const QuantizedMatrix gwq = quantize_per_row(gw, arm);
      Tensor gc;
      gemm_s8_nt(gxq, gwq, gc);  // warm: packs, faults, pool spin-up
      const int reps = quick ? 200 : 800;
      const auto g0 = std::chrono::steady_clock::now();
      for (int r = 0; r < reps; ++r) gemm_s8_nt(gxq, gwq, gc);
      const double gsec =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        g0)
              .count();
      const double gops = 2.0 * static_cast<double>(gm) * gk * gn * reps /
                          gsec / 1e9;

      // End-to-end: the same int8 closed-loop drive as section 4, with
      // the override forcing every quantize in the fleet onto this arm.
      set_isa_override(arm);
      auto fleet =
          make_fleet(tb, int8_store_dir, ckpt_int8, 2,
                     serve::RoutingPolicy::kCacheAffinity,
                     std::chrono::microseconds{0}, int8,
                     loader::RowCodec::kInt8);
      const auto p = drive_closed(*fleet, ladder_stream, clients, window);
      fleet->set->stop();
      clear_isa_override();

      if (arm == Isa::kSse2) {
        sse2_gops = gops;
        sse2_rps = p.achieved_rps;
      }
      const double gops_vs = sse2_gops > 0 ? gops / sse2_gops : 0.0;
      const double rps_vs = sse2_rps > 0 ? p.achieved_rps / sse2_rps : 0.0;
      const bool active = arm == dispatched_arm;
      std::printf("%-12s %10s %10.1f %11.2fx %12.0f %11.2fx %7s\n",
                  isa_name(arm), "yes", gops, gops_vs, p.achieved_rps,
                  rps_vs, active ? "*" : "");
      char buf[512];
      std::snprintf(buf, sizeof(buf),
                    "{\"section\":\"kernel_ladder\",\"isa\":\"%s\","
                    "\"supported\":true,\"gemm_m\":%zu,\"gemm_k\":%zu,"
                    "\"gemm_n\":%zu,\"gemm_gops\":%.2f,"
                    "\"gemm_speedup_vs_sse2\":%.2f,\"serve_rps\":%.0f,"
                    "\"serve_speedup_vs_sse2\":%.2f,\"cache_hit_rate\":%.3f,"
                    "\"active\":%s}",
                    isa_name(arm), gm, gk, gn, gops, gops_vs,
                    p.achieved_rps, rps_vs, p.hit_rate,
                    active ? "true" : "false");
      emit(buf);
    }
    std::printf("dispatched arm on this host: %s\n",
                isa_name(dispatched_arm));
  }

  // --- 9. tenant isolation: a 10x-quota aggressor vs its neighbors. ------
  header("9. tenant isolation (src/tenancy/): 10x-quota aggressor");
  {
    // Four equal contracts on one replica, each entitled to 1/8 of this
    // machine's single-replica saturation (so all four within quota sit
    // far from overload — isolation is measured, not masked by shedding).
    // Arm A (fair): tenant 0 offers exactly its quota, tenants 1-3 offer
    // half theirs.  Arm B (storm): tenant 0 blasts 10x its quota while
    // tenants 1-3 keep arm A's rates.  The bucket clips the blast back to
    // the contracted rate, so both arms carry the same ADMITTED workload
    // (modulo the one-time burst, kept small below) — the comparison
    // isolates enforcement, not the load increase tenant 0's contract
    // already entitles it to.  The gated claim: the token buckets absorb
    // the blast at the fleet front, so no victim is ever quota-refused
    // and no victim's admitted p99 moves by more than 10% — and the
    // aggressor IS refused, proving the gate was actually exercised
    // rather than trivially idle.
    const double quota = single_replica_rps / 8.0;
    const double victim_rps = 0.5 * quota;
    const double iso_seconds = quick ? 2.0 : 4.0;
    // Each arm's first second is driven but discarded: it warms the
    // fresh fleet's row cache so the measured window compares steady
    // states (see drive_tenant_mix).
    const double iso_warmup = 1.0;
    const auto iso_stream = make_stream(20000, 53);

    tenancy::TenantRegistry registry;
    for (std::uint32_t t = 0; t < 4; ++t) {
      tenancy::TenantContract c;
      c.rate_per_s = quota;
      // A quarter-second of quota: deep enough that pacing jitter never
      // refuses an in-contract tenant, shallow enough that the storm
      // arm's one-time burst admission stays marginal next to rate x
      // seconds (keeping the two arms' admitted workloads comparable).
      c.burst = quota / 4.0;
      registry.set_contract(t, c);
    }

    const auto row_of = [](const std::vector<serve::TenantStat>& rows,
                           std::uint32_t t) -> const serve::TenantStat* {
      for (const auto& r : rows) {
        if (r.tenant == t) return &r;
      }
      return nullptr;
    };
    const auto run_arm = [&](bool storm) {
      auto fleet = make_fleet(tb, tb.store_dir(), ckpt, 1,
                              serve::RoutingPolicy::kRoundRobin,
                              std::chrono::microseconds{0},
                              serve::Precision::kFp32,
                              loader::RowCodec::kFp32, {}, true, &registry);
      std::vector<TenantLoad> loads;
      for (std::uint32_t t = 0; t < 4; ++t) {
        const double rps =
            t == 0 ? (storm ? 10.0 : 1.0) * quota : victim_rps;
        loads.push_back({t, rps});
      }
      auto rows = drive_tenant_mix(*fleet->set, iso_stream, loads,
                                   iso_seconds, iso_warmup);
      fleet->set->stop();
      return rows;
    };

    std::printf("contracts: 4 tenants x %.0f parts/s quota; victims offer "
                "%.0f/s, tenant 0 offers %.0f/s fair vs %.0f/s storm "
                "for %.0fs\n",
                quota, victim_rps, quota, 10.0 * quota, iso_seconds);
    std::vector<serve::TenantStat> fair, storm;
    double worst_ratio = 0;
    std::size_t victim_refused = 0, aggressor_refused = 0;
    bool iso_ok = false;
    // The ratio compares two back-to-back p99 measurements on a shared
    // host; retries strip transient scheduler noise, same policy as the
    // serve_cli gates (a real leak fails every time).
    for (int attempt = 0; attempt < 3 && !iso_ok; ++attempt) {
      if (attempt > 0) {
        std::printf("isolation gate missed; retrying once (loaded-machine "
                    "noise gets one second chance)\n");
      }
      fair = run_arm(false);
      storm = run_arm(true);
      worst_ratio = 0;
      victim_refused = 0;
      for (std::uint32_t t = 1; t < 4; ++t) {
        const auto* f = row_of(fair, t);
        const auto* s = row_of(storm, t);
        if (!f || !s || f->p99_us <= 0) {
          worst_ratio = 1e9;  // a missing victim row can never pass
          continue;
        }
        worst_ratio = std::max(worst_ratio, s->p99_us / f->p99_us);
        victim_refused += s->quota_refused;
      }
      const auto* ag = row_of(storm, 0);
      aggressor_refused = ag ? ag->quota_refused : 0;
      iso_ok = worst_ratio <= 1.10 && victim_refused == 0 &&
               aggressor_refused > 0;
    }

    std::printf("%-8s %-6s %10s %10s %10s %10s\n", "arm", "tenant",
                "admitted", "quota-ref", "p50(us)", "p99(us)");
    for (const auto* rows : {&fair, &storm}) {
      for (const auto& t : *rows) {
        std::printf("%-8s %-6u %10zu %10zu %10.0f %10.0f\n",
                    rows == &fair ? "fair" : "storm", t.tenant, t.admitted,
                    t.quota_refused, t.p50_us, t.p99_us);
      }
    }
    std::printf("isolation gate: worst victim p99 ratio %.3f (<= 1.10), "
                "victim quota refusals %zu (== 0), aggressor refused %zu "
                "(> 0) -> %s\n",
                worst_ratio, victim_refused, aggressor_refused,
                iso_ok ? "OK" : "REGRESSION");
    std::string rows_json = "[";
    for (std::size_t i = 0; i < storm.size(); ++i) {
      if (i) rows_json += ",";
      rows_json += storm[i].to_json();
    }
    rows_json += "]";
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\"section\":\"tenant_isolation\",\"tenants\":4,"
                  "\"quota_rps\":%.0f,\"aggressor_mult\":10,"
                  "\"victim_p99_ratio\":%.3f,\"victim_quota_refused\":%zu,"
                  "\"aggressor_quota_refused\":%zu,\"ok\":%s,"
                  "\"storm\":",
                  quota, worst_ratio, victim_refused, aggressor_refused,
                  iso_ok ? "true" : "false");
    emit(std::string(buf) + rows_json + "}");
  }

  std::printf(
      "\nExpected shape: (1) the cache-off p99 departs first as offered "
      "load approaches the store's service rate while ~60%% LRU hit rates "
      "buy the cached config headroom; (2) throughput scales with replicas "
      "up to the core count, and cache_affinity holds the highest hit rate "
      "because each replica's cache specializes on its key-space shard; "
      "(3) with a shed budget the admitted p99 stays near the budget at 2x "
      "overload — the excess becomes kLow shed rate, not queue delay; "
      "(4) the int8 codec's ~3.6x cache-capacity multiplier lifts the hit "
      "rate at the same byte budget, cutting preads and raising throughput, "
      "while top-1 agreement stays >= 99%%; (5) the elastic fleet rides the "
      "ramp — answering like fixed-max during the 2.5x phase (beating "
      "fixed-min on answered_rps) while idling like fixed-min through the "
      "0.5x phases (beating fixed-max on idle replica-seconds), with the "
      "spawn/retire timeline in the JSON; (6) shedding blown requests "
      "before compute returns their batch slots to requests that can "
      "still make it — more in-time answers at a lower admitted p99 under "
      "a uniform deadline, and under mixed deadlines slack-ordered "
      "eviction additionally beats FIFO's miss-per-admitted rate at "
      "equal-or-better admission; (7) the socket hop prices in at well "
      "under 2x — micro-batching amortizes the wire codec the same way it "
      "amortizes store reads, so the cross-process fleet keeps most of the "
      "in-process rate; (8) GEMM throughput climbs the kernel ladder — "
      "each arm at least ~1.5x the rung below on the serving shape, with "
      "every arm bit-identical to scalar — while the end-to-end gain "
      "compresses toward the store/cache share of the request; (9) the "
      "token buckets absorb a 10x-quota aggressor at the fleet front — "
      "its neighbors keep their admitted p99 within 10%% and are never "
      "quota-refused, while the aggressor's excess answers "
      "kQuotaExceeded without touching a replica.\n");

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    out << "[\n";
    for (std::size_t i = 0; i < g_records.size(); ++i) {
      out << "  " << g_records[i] << (i + 1 < g_records.size() ? "," : "")
          << "\n";
    }
    out << "]\n";
    std::printf("wrote %zu records to %s\n", g_records.size(),
                json_path.c_str());
  }
  return 0;
}
