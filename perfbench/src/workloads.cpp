#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>

#include "core/precompute.h"
#include "core/sign.h"
#include "core/trainer.h"
#include "decorators.h"
#include "graph/dataset.h"
#include "graph/generator.h"
#include "loader/cache.h"
#include "loader/storage.h"
#include "oracle.h"
#include "proc.h"
#include "rpc/buffer.h"
#include "rpc/remote_replica.h"
#include "serve/feature_source.h"
#include "serve/inference_session.h"
#include "serve/replica_set.h"
#include "slots.h"
#include "span_trace.h"
#include "stats.h"
#include "tenancy/tenant.h"
#include "tensor/cpu_features.h"
#include "tensor/rng.h"

namespace perfbench {

using namespace ppgnn;
using Clock = std::chrono::steady_clock;

namespace {

// Set-up is repeated and its median reported, so that a change which moves
// work into set-up shows against a steady number.
constexpr int kSetupRepeats = 5;
// Envelopes each closed-loop client keeps in flight.
constexpr std::size_t kWindow = 64;
// Length of a metered window: throughput, latency percentiles and CPU are
// taken per window and reported as medians over the whole windows.
constexpr double kMeterWindowS = 1.0;
// Request nodes drawn per run; the envelope stream cycles through them.
constexpr std::size_t kPoolNodes = 1 << 20;
// Capacity of a traced run's span buffer (about 48 bytes a span).
constexpr std::size_t kSpanCapacity = 100000;
// Model and graph seeds are fixed; only the request stream, the tenant
// assignment and the training shuffle follow the workload seed.
constexpr std::uint64_t kGraphSeed = 11;
constexpr std::uint64_t kTrainedModelSeed = 7;
constexpr std::uint64_t kDatasetSeed = 42;
constexpr std::uint64_t kTrainModelSeed = 1;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

Clock::time_point deadline_after(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

std::string num(double v) { return json_number(v); }

std::string json_list(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) s += (i ? "," : "") + num(v[i]);
  return s + "]";
}

// --- Serving deployment ---------------------------------------------------

// The serving deployment shared by both serving workloads: a 20k-node SBM
// graph with heavy-tailed hubs, 2-hop SIGN (32-dim features, hidden 32,
// 16 classes) trained for two epochs, its deployed checkpoint, and a
// FeatureFileStore in the serving precision's codec.  This is the recipe
// of serve::ServingTestbed, rebuilt here because the testbed writes its
// artifacts under /tmp and the benchmark keeps every file inside its own
// working directory.
struct ServeModelShape {
  std::size_t nodes = 20000;
  std::size_t feat_dim = 32;
  std::size_t classes = 16;
  std::size_t hops = 2;
  std::size_t hidden = 32;
  std::size_t train_epochs = 2;
};

std::unique_ptr<core::PpModel> make_sign_shell(const ServeModelShape& s,
                                               std::uint64_t seed) {
  Rng rng(seed);
  core::SignConfig sc;
  sc.feat_dim = s.feat_dim;
  sc.hops = s.hops;
  sc.hidden = s.hidden;
  sc.classes = s.classes;
  sc.mlp_layers = 2;
  sc.dropout = 0.f;
  return std::make_unique<core::Sign>(sc, rng);
}

struct Deployment {
  std::string dir;
  std::string checkpoint;
  std::string store_dir;
  std::size_t store_row_bytes = 0;
  double precompute_s = 0;  // the propagation step alone
};

Deployment build_deployment(const ServeModelShape& s, serve::Precision prec,
                            const std::string& dir) {
  std::filesystem::create_directories(dir);
  graph::SbmConfig sc;
  sc.num_nodes = s.nodes;
  sc.num_classes = s.classes;
  sc.avg_degree = 10.0;
  sc.degree_power = 1.6;
  sc.seed = kGraphSeed;
  const graph::SbmGraph sbm = graph::generate_sbm(sc);
  graph::FeatureConfig fc;
  fc.dim = s.feat_dim;
  const Tensor x = graph::generate_features(sbm.labels, s.classes, fc);
  core::PrecomputeConfig pc;
  pc.hops = s.hops;
  const core::Preprocessed pre = core::precompute(sbm.graph, x, pc);

  Deployment d;
  d.dir = dir;
  d.checkpoint = dir + "/model.ckpt";
  d.store_dir = dir + "/store";
  {
    auto trained = make_sign_shell(s, kTrainedModelSeed);
    core::quick_train(*trained, pre, sbm.labels, s.train_epochs);
    serve::save_deployed_model(*trained, d.checkpoint, prec);
  }
  const auto codec = prec == serve::Precision::kInt8 ? loader::RowCodec::kInt8
                                                     : loader::RowCodec::kFp32;
  const auto store =
      loader::FeatureFileStore::create(d.store_dir, pre.hop_features, codec);
  d.store_row_bytes = store.row_bytes();
  d.precompute_s = pre.preprocess_seconds;
  return d;
}

std::unique_ptr<serve::FileStoreSource> open_store(const ServeModelShape& s,
                                                   serve::Precision prec,
                                                   const Deployment& d) {
  const auto codec = prec == serve::Precision::kInt8 ? loader::RowCodec::kInt8
                                                     : loader::RowCodec::kFp32;
  return std::make_unique<serve::FileStoreSource>(loader::FeatureFileStore::open(
      d.store_dir, s.nodes, s.hops + 1, s.feat_dim, codec));
}

// --- Request stream -------------------------------------------------------

// A pool of envelopes drawn from the workload seed and replayed in order
// (cycling when a run outlasts it).
struct EnvelopePool {
  std::size_t nodes_per_env = 1;
  std::vector<std::int64_t> nodes;   // envelopes back to back
  std::vector<std::uint32_t> tenant;  // one per envelope
  std::size_t size() const { return tenant.size(); }
};

// Node popularity: node perm[r] has Zipf rank r.  The ranking is fixed, like
// the graph: under cache_affinity it decides how the hot nodes fall on the
// replicas, so a seed-dependent ranking would make the load split, not the
// program, the largest source of run-to-run spread.  (serve::zipf_stream
// draws the ranking from the same seed as the requests, hence this copy of
// its sampler.)
constexpr std::uint64_t kPopularitySeed = 31;

EnvelopePool make_pool(std::size_t num_nodes, double skew,
                       std::size_t nodes_per_env, std::size_t envelopes,
                       std::size_t tenants, std::uint64_t seed) {
  std::vector<std::int64_t> perm(num_nodes);
  std::iota(perm.begin(), perm.end(), std::int64_t{0});
  Rng(kPopularitySeed).shuffle(perm);
  std::vector<double> cdf(num_nodes);
  double total = 0;
  for (std::size_t r = 0; r < num_nodes; ++r) {
    total += std::pow(static_cast<double>(r + 1), -skew);
    cdf[r] = total;
  }
  EnvelopePool p;
  p.nodes_per_env = nodes_per_env;
  p.nodes.resize(envelopes * nodes_per_env);
  Rng rng(seed);
  for (auto& n : p.nodes) {
    const double u = rng.uniform() * total;
    const auto r = static_cast<std::size_t>(
        std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    n = perm[std::min(r, num_nodes - 1)];
  }
  Rng trng(seed ^ 0x7e7a47e5ULL);
  p.tenant.resize(envelopes);
  for (auto& t : p.tenant) {
    t = tenants ? static_cast<std::uint32_t>(trng.uniform_int(tenants)) : 0u;
  }
  return p;
}

// --- Closed-loop client ---------------------------------------------------

struct EnvelopeShape {
  serve::ResultMode mode = serve::ResultMode::kTopK;
  std::size_t topk = 3;
};

// What one closed-loop phase measured.
struct LoopStats {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t ok_nodes = 0;
  double wall_s = 0;
  std::vector<double> latency_us;  // every envelope, any status
  double max_gen_gap_ms = 0;
  double gen_self_ms = 0;  // generator time outside calls into the program
  // Traced phases only.
  double submit_us = 0, queue_us = 0, dispatch_us = 0, compute_us = 0;
  double front_self_us = 0, wire_us = 0;
  std::map<std::uint32_t, std::vector<double>> tenant_latency_us;
  // Metered phases only: one entry per whole window, and the summed peak
  // RSS read when the phase reached Meter::rss_at envelopes.
  struct Window {
    double nodes_per_s = 0, p50_us = 0, p99_us = 0, cpu_ms_per_knode = 0;
  };
  std::vector<Window> windows;
  double rss_mb = 0;

  double nodes_per_s() const { return wall_s > 0 ? ok_nodes / wall_s : 0; }
  double mean(double sum) const { return attempted ? sum / attempted : 0; }
};

// How a timed phase is sampled.  Throughput, latency percentiles and CPU
// are taken per window of kMeterWindowS, so a burst of host noise moves one
// window, not the run.  Peak RSS is read once, after a fixed number of
// envelopes: the program's stats grow with every request served, so a fixed
// amount of work gives a steady reading that still moves when that growth
// changes.
struct Meter {
  std::function<CpuSample()> cpu;
  std::size_t rss_at = 0;
  std::function<double()> rss;
};

// One generator thread keeps kWindow envelopes in flight against `fleet`:
// it submits until the window is full, then blocks for a completion, checks
// it against the oracle, and refills.  It stops submitting once `deadline`
// passes or `max_envelopes` were sent, then drains what is in flight.  A
// response whose id matches no envelope in flight means an envelope was
// lost: the run stops there.
// Latency runs from the submit call to the moment the client reaps the
// response.  With `spans`, every envelope also leaves a client span, its
// submit call, and the three StageTimings as child spans.
class ClosedLoop {
 public:
  ClosedLoop(serve::FleetManager& fleet, const AnswerOracle& oracle,
             const EnvelopePool& pool, EnvelopeShape shape)
      : fleet_(fleet), oracle_(oracle), pool_(pool), shape_(shape) {
    slots_.resize(ids_.window());
  }

  LoopStats run(Clock::time_point deadline, std::size_t max_envelopes,
                SpanBuffer* spans, const Meter* meter = nullptr) {
    LoopStats st;
    st.latency_us.reserve(1 << 20);
    std::size_t sent = 0;
    const auto t_begin = Clock::now();
    auto t_returned = t_begin;  // last return from a call into the program
    const auto note_gap = [&](Clock::time_point now) {
      const double gap_ms =
          std::chrono::duration<double, std::milli>(now - t_returned).count();
      st.max_gen_gap_ms = std::max(st.max_gen_gap_ms, gap_ms);
      st.gen_self_ms += gap_ms;
    };
    // The window being filled (metered phases).
    auto win_start = t_begin;
    std::uint64_t win_nodes = 0;
    std::vector<double> win_lat;
    CpuSample win_cpu = meter ? meter->cpu() : CpuSample{};
    const auto close_window = [&](Clock::time_point now) {
      const CpuSample cpu = meter->cpu();
      std::sort(win_lat.begin(), win_lat.end());
      LoopStats::Window w;
      w.nodes_per_s = static_cast<double>(win_nodes) /
                      seconds_between(win_start, now);
      w.p50_us = win_lat.empty() ? 0 : percentile_sorted(win_lat, 0.5);
      w.p99_us = tail(win_lat, 0.99).value;
      w.cpu_ms_per_knode =
          win_nodes ? (cpu - win_cpu).total_s() * 1e6 /
                          static_cast<double>(win_nodes)
                    : 0;
      st.windows.push_back(w);
      win_start = now;
      win_nodes = 0;
      win_lat.clear();
      win_cpu = cpu;
    };
    const auto reap = [&](serve::ServeResponse& r, Clock::time_point t_reap) {
      const std::size_t slot = ids_.release(r.id);
      if (slot == SlotTable::kNone) {
        throw std::runtime_error("response id " + std::to_string(r.id) +
                                 " matches no envelope in flight");
      }
      const Slot& s = slots_[slot];
      ++st.attempted;
      const double lat_us =
          std::chrono::duration<double, std::micro>(t_reap - s.t_submit)
              .count();
      st.latency_us.push_back(lat_us);
      if (oracle_.check(s.req, r)) {
        st.ok_nodes += s.req.nodes.size();
        win_nodes += s.req.nodes.size();
      } else {
        ++st.failed;
      }
      if (spans) trace_envelope(st, *spans, s, r, t_reap, lat_us);
      if (meter) {
        win_lat.push_back(lat_us);
        if (st.attempted == meter->rss_at) st.rss_mb = meter->rss();
        if (seconds_between(win_start, t_reap) >= kMeterWindowS) {
          close_window(t_reap);
        }
      }
    };

    for (;;) {
      while (!ids_.full() && sent < max_envelopes &&
             Clock::now() < deadline) {
        std::uint64_t id = 0;
        Slot& s = slots_[ids_.acquire(&id)];
        const std::size_t e = cursor_++ % pool_.size();
        s.req.id = id;
        s.req.nodes.assign(
            pool_.nodes.begin() +
                static_cast<std::ptrdiff_t>(e * pool_.nodes_per_env),
            pool_.nodes.begin() +
                static_cast<std::ptrdiff_t>((e + 1) * pool_.nodes_per_env));
        s.req.tenant = pool_.tenant[e];
        s.req.mode = shape_.mode;
        s.req.topk = shape_.topk;
        serve::ServeRequest copy = s.req;
        s.t_submit = Clock::now();
        note_gap(s.t_submit);
        fleet_.submit(std::move(copy), cq_);
        s.t_submit_end = Clock::now();
        t_returned = s.t_submit_end;
        ++sent;
      }
      if (ids_.in_flight() == 0) break;
      serve::ServeResponse r;
      note_gap(Clock::now());
      if (!cq_.wait_for(&r, std::chrono::seconds(60))) {
        throw std::runtime_error(std::to_string(ids_.in_flight()) +
                                 " envelopes unanswered after 60 s");
      }
      t_returned = Clock::now();
      reap(r, t_returned);
      for (;;) {
        note_gap(Clock::now());
        const bool got = cq_.poll(&r);
        t_returned = Clock::now();
        if (!got) break;
        reap(r, t_returned);
      }
    }
    st.wall_s = seconds_between(t_begin, Clock::now());
    // A run too short to reach the mark reads RSS at its end.
    if (meter && st.attempted < meter->rss_at) st.rss_mb = meter->rss();
    return st;
  }

 private:
  struct Slot {
    serve::ServeRequest req;
    Clock::time_point t_submit{};
    Clock::time_point t_submit_end{};
  };

  static std::int64_t ns_of(Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t.time_since_epoch())
        .count();
  }

  // The envelope's client span, its submit call, and the three stages laid
  // end to end after submit returns (StageTimings carry durations, not
  // start times; for split envelopes each is the max over parts).  The
  // front's self time is what the children leave uncovered: routing the
  // reply, merge, delivery and reaping, and on the socket path the wire.
  void trace_envelope(LoopStats& st, SpanBuffer& spans, const Slot& s,
                      const serve::ServeResponse& r, Clock::time_point t_reap,
                      double lat_us) {
    const std::int64_t t0 = ns_of(s.t_submit), t1 = ns_of(s.t_submit_end),
                       t_end = ns_of(t_reap);
    const std::uint32_t tid = thread_number();
    std::vector<Span> env(5);
    env[0] = {"client.envelope", spans.next_id(), 0, t0, t_end, tid};
    env[1] = {"serve.submit", spans.next_id(), env[0].id, t0, t1, tid};
    const double stage_us[3] = {r.timings.admission_wait_us,
                                r.timings.dispatch_delay_us,
                                r.timings.compute_us};
    const char* stage_name[3] = {"serve.queue_wait", "serve.dispatch",
                                 "serve.compute"};
    std::int64_t at = t1;
    for (int k = 0; k < 3; ++k) {
      const std::int64_t end =
          std::min(t_end, at + static_cast<std::int64_t>(stage_us[k] * 1e3));
      env[2 + k] = {stage_name[k], spans.next_id(), env[0].id, at, end, tid};
      at = end;
    }
    const auto self = self_times_ns(env);
    for (const Span& sp : env) spans.record(sp);
    const double submit_us = static_cast<double>(t1 - t0) / 1e3;
    st.submit_us += submit_us;
    st.queue_us += stage_us[0];
    st.dispatch_us += stage_us[1];
    st.compute_us += stage_us[2];
    st.front_self_us += static_cast<double>(self[0]) / 1e3;
    st.wire_us += lat_us - (stage_us[0] + stage_us[1] + stage_us[2]);
    st.tenant_latency_us[s.req.tenant].push_back(lat_us);
  }

  serve::FleetManager& fleet_;
  // Outlives every envelope submitted against it: the owner keeps this
  // loop alive until the fleet has stopped.
  serve::CompletionQueue cq_;
  const AnswerOracle& oracle_;
  const EnvelopePool& pool_;
  EnvelopeShape shape_;
  SlotTable ids_{kWindow};
  std::vector<Slot> slots_;  // indexed like ids_
  std::size_t cursor_ = 0;
};

// CPU of the front process plus the live replica children.
CpuSample all_cpu(const std::vector<pid_t>& children) {
  CpuSample c = self_cpu();
  for (const pid_t pid : children) c += process_cpu(pid);
  return c;
}

// --- Serving workloads ----------------------------------------------------

// Defaults are serve_hot_inproc's.
struct ServeSpec {
  serve::Precision precision = serve::Precision::kFp32;
  bool remote = false;
  double skew = 0.99;
  // Cache byte budget as a share of the store's rows, in its encoding
  // (fp32 when hot: the fp32 resident set).
  double cache_frac = 0.2;
  std::size_t nodes_per_env = 4;
  EnvelopeShape shape;
  std::size_t tenants = 0;  // 0 = untenanted
  std::size_t warmup_envelopes = 40000;
  // Envelopes into the timed phase at which peak RSS is read.  The
  // program's per-replica latency vectors grow by doubling; the marks put
  // every replica's sample count well between two doublings.
  std::size_t rss_at_envelopes = 300000;
};

// One replica's feature path as built in-process, kept for its counters.
struct LocalReplicaPath {
  const serve::CachedSource* cache = nullptr;
  const serve::FileStoreSource* store = nullptr;
};

// One set-up of a serving workload, live until destroyed.
struct ServeRig {
  Deployment dep;
  std::unique_ptr<tenancy::TenantRegistry> tenants;
  std::mutex paths_mu;  // guards paths and remotes, filled by fleet callbacks
  std::vector<LocalReplicaPath> paths;
  std::vector<std::shared_ptr<rpc::RemoteReplica>> remotes;
  // Declared before the fleet, so the fleet stops (and delivers whatever
  // is still in flight) while the loop's completion queue is alive.
  std::unique_ptr<ClosedLoop> loop;
  std::unique_ptr<serve::FleetManager> fleet;
  std::string replica_log;

  std::vector<pid_t> child_pids() {
    std::lock_guard<std::mutex> lk(paths_mu);
    std::vector<pid_t> v;
    for (const auto& r : remotes) v.push_back(r->pid());
    return v;
  }
};

// Sums "exiting ... (A admitted, S shed, B batches)" lines of the replica
// servers' shared log: batches and admitted parts over each process life.
void parse_replica_exit_lines(const std::string& log, double* admitted,
                              double* batches) {
  std::ifstream in(log);
  std::string line;
  *admitted = 0;
  *batches = 0;
  while (std::getline(in, line)) {
    const auto at = line.find(" exiting rc=");
    if (at == std::string::npos) continue;
    std::size_t a = 0, s = 0, b = 0;
    const auto paren = line.find('(', at);
    if (paren == std::string::npos) continue;
    if (std::sscanf(line.c_str() + paren, "(%zu admitted, %zu shed, %zu batches)",
                    &a, &s, &b) == 3) {
      *admitted += static_cast<double>(a);
      *batches += static_cast<double>(b);
    }
  }
}

RunResult run_serving(const RunArgs& args, const ServeSpec& spec) {
  const ServeModelShape shape;
  RunResult res;
  SpanBuffer spans(args.trace ? kSpanCapacity : 0);
  LayerProbe gather_probe("replica.gather");
  LayerProbe forward_probe("replica.forward");
  gather_probe.spans = &spans;
  forward_probe.spans = &spans;
  // In-process replicas get the timing decorators only in traced runs, so
  // the untraced run measures the program exactly as deployed.
  const bool decorate = args.trace && !spec.remote;

  const EnvelopePool pool =
      make_pool(shape.nodes, spec.skew, spec.nodes_per_env,
                kPoolNodes / spec.nodes_per_env, spec.tenants, args.seed);

  std::unique_ptr<AnswerOracle> oracle;
  std::string int8_arm;
  std::vector<double> setup_s, precompute_s;
  std::unique_ptr<ServeRig> rig;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    if (rig) {
      rig->fleet->stop();
      std::filesystem::remove_all(rig->dep.dir);
      rig.reset();
    }
    rig = std::make_unique<ServeRig>();
    ServeRig& r = *rig;
    const std::string dir = args.work_dir + "/setup" + std::to_string(rep);
    auto t_setup = Clock::now();
    r.dep = build_deployment(shape, spec.precision, dir);
    double setup = seconds_between(t_setup, Clock::now());
    precompute_s.push_back(r.dep.precompute_s);

    if (!oracle) {
      // Reference answers: one in-process session over the same
      // checkpoint, precision and store codec.  Not part of set-up time.
      serve::FleetBuilder ob(
          r.dep.checkpoint,
          [&shape](std::size_t) { return make_sign_shell(shape, 1); },
          [&](std::size_t) -> std::unique_ptr<serve::FeatureSource> {
            return open_store(shape, spec.precision, r.dep);
          },
          spec.precision);
      auto session = ob.build(0);
      oracle = std::make_unique<AnswerOracle>(AnswerOracle::compute(*session));
      int8_arm = isa_name(session->kernel_isa());
    }

    t_setup = Clock::now();
    serve::FleetConfig fc;
    fc.policy = serve::RoutingPolicy::kCacheAffinity;
    fc.precision = spec.precision;
    fc.batch.max_batch_size = 256;
    if (spec.tenants) {
      r.tenants = std::make_unique<tenancy::TenantRegistry>();
      for (std::uint32_t t = 0; t < spec.tenants; ++t) {
        tenancy::TenantContract c;
        c.weight = t == 0 ? 2 : 1;
        // Far above any reachable rate: the buckets run on every envelope
        // but never refuse one.
        c.rate_per_s = 1e9;
        c.burst = 1e9;
        r.tenants->set_contract(t, c);
      }
      fc.tenants = r.tenants.get();
    }
    const double cache_bytes =
        spec.cache_frac * static_cast<double>(shape.nodes) *
        static_cast<double>(r.dep.store_row_bytes);
    if (spec.remote) {
      rpc::ReplicaSpawnConfig scfg;
      scfg.socket_dir = dir;
      r.replica_log = dir + "/replica.log";
      scfg.log_path = r.replica_log;
      scfg.server_args = {
          "--checkpoint=" + r.dep.checkpoint,
          "--store=" + r.dep.store_dir,
          "--nodes=" + std::to_string(shape.nodes),
          "--model=SIGN",
          "--hops=" + std::to_string(shape.hops),
          "--feat-dim=" + std::to_string(shape.feat_dim),
          "--hidden=" + std::to_string(shape.hidden),
          "--classes=" + std::to_string(shape.classes),
          std::string("--precision=") + serve::precision_name(spec.precision),
          "--max-batch=256",
          "--cache=lru",
          "--cache-mb=" + num(cache_bytes / (1024.0 * 1024.0))};
      r.fleet = std::make_unique<serve::FleetManager>(
          [scfg, &r](std::size_t ordinal) {
            std::string err;
            auto rep = rpc::spawn_replica_process(scfg, ordinal, &err);
            if (!rep) {
              std::fprintf(stderr, "perfbench: spawn replica %zu: %s\n",
                           ordinal, err.c_str());
              return std::shared_ptr<rpc::RemoteReplica>();
            }
            std::lock_guard<std::mutex> lk(r.paths_mu);
            r.remotes.push_back(rep);
            return rep;
          },
          2, fc);
      if (r.child_pids().size() != 2) {
        throw std::runtime_error("could not spawn both replica processes");
      }
    } else {
      serve::FleetBuilder builder(
          r.dep.checkpoint,
          [&, decorate](std::size_t i) -> std::unique_ptr<core::PpModel> {
            auto m = make_sign_shell(shape, 1000 + i);
            if (!decorate) return m;
            return std::make_unique<TimedModel>(std::move(m), &forward_probe);
          },
          [&, decorate, cache_bytes](
              std::size_t) -> std::unique_ptr<serve::FeatureSource> {
            auto store = open_store(shape, spec.precision, r.dep);
            const std::size_t row_bytes = store->encoded_row_bytes();
            const serve::FileStoreSource* store_ptr = store.get();
            auto cached = std::make_unique<serve::CachedSource>(
                std::move(store),
                std::make_unique<loader::LruCache>(
                    static_cast<std::size_t>(cache_bytes), row_bytes));
            {
              std::lock_guard<std::mutex> lk(r.paths_mu);
              r.paths.push_back({cached.get(), store_ptr});
            }
            if (!decorate) return cached;
            return std::make_unique<TimedSource>(std::move(cached),
                                                 &gather_probe);
          },
          spec.precision);
      r.fleet = std::make_unique<serve::FleetManager>(std::move(builder), 2,
                                                      fc);
    }
    // Warm-up drive: fills the caches and the transport's buffer pools so
    // the timed phase starts in steady state.
    r.loop = std::make_unique<ClosedLoop>(*r.fleet, *oracle, pool, spec.shape);
    const LoopStats w =
        r.loop->run(Clock::time_point::max(), spec.warmup_envelopes, nullptr);
    setup += seconds_between(t_setup, Clock::now());
    setup_s.push_back(setup);
    res.attempted += w.attempted;
    res.failed += w.failed;
  }

  ServeRig& r = *rig;
  const std::vector<pid_t> kids = r.child_pids();
  ClosedLoop& loop = *r.loop;
  constexpr std::size_t kUnbounded = std::numeric_limits<std::size_t>::max();

  if (!args.trace) {
    Meter meter;
    meter.cpu = [&kids] { return all_cpu(kids); };
    meter.rss_at = spec.rss_at_envelopes;
    meter.rss = [&kids] {
      double mb = peak_rss_mb();
      for (const pid_t pid : kids) mb += peak_rss_mb(pid);
      return mb;
    };
    const LoopStats m =
        loop.run(deadline_after(args.seconds), kUnbounded, nullptr, &meter);
    res.attempted += m.attempted;
    res.failed += m.failed;
    if (m.windows.empty()) throw std::runtime_error("no whole window measured");
    std::vector<double> tput, p50, p99, cpu;
    for (const auto& w : m.windows) {
      tput.push_back(w.nodes_per_s);
      p50.push_back(w.p50_us / 1e3);
      p99.push_back(w.p99_us / 1e3);
      cpu.push_back(w.cpu_ms_per_knode);
    }
    res.put("nodes_per_s", median(tput));
    res.put("lat_p50_ms", median(p50));
    res.put("lat_p99_ms", median(p99));
    res.put("setup_s", median(setup_s));
    res.put("peak_rss_mb", m.rss_mb);
    res.put("cpu_ms_per_knode", median(cpu));
    std::vector<double> lat = m.latency_us;
    std::sort(lat.begin(), lat.end());
    res.note("latency_samples", num(static_cast<double>(lat.size())));
    res.note("windows", num(static_cast<double>(m.windows.size())));
    res.note("run_lat_p50_ms", num(percentile_sorted(lat, 0.5) / 1e3));
    res.note("run_lat_p99_ms", num(tail(lat, 0.99).value / 1e3));
    res.note("gen_max_gap_ms", num(m.max_gen_gap_ms));
    res.note("gen_self_frac", num(m.gen_self_ms / 1e3 / m.wall_s));
    res.note("window_nodes_per_s", json_list(tput));
  } else {
    // Untraced half, then traced half of the same fleet: the ratio of
    // their throughputs is the tracing overhead.
    const LoopStats plain =
        loop.run(deadline_after(args.seconds / 2), kUnbounded, nullptr);
    res.attempted += plain.attempted;
    res.failed += plain.failed;

    const auto g0 = gather_probe.totals();
    const auto f0 = forward_probe.totals();
    const std::size_t batches0 = r.fleet->aggregate_batches();
    std::uint64_t preads0 = 0;
    std::vector<const serve::CachedSource*> caches;
    {
      std::lock_guard<std::mutex> lk(r.paths_mu);
      for (const auto& p : r.paths) {
        caches.push_back(p.cache);
        preads0 += p.store->store().preads();
      }
    }
    const serve::FeatureCacheStats c0 = serve::aggregate_cache_stats(caches);
    const rpc::RpcStats rpc0 = r.fleet->aggregate_rpc_stats();
    const serve::StageGauges stages0 = r.fleet->aggregate_stages();
    gather_probe.recording = true;
    forward_probe.recording = true;
    const CpuSample cpu0 = all_cpu(kids);
    const LoopStats m =
        loop.run(deadline_after(args.seconds / 2), kUnbounded, &spans);
    const CpuSample cpu = all_cpu(kids) - cpu0;
    gather_probe.recording = false;
    forward_probe.recording = false;
    res.attempted += m.attempted;
    res.failed += m.failed;

    const double n = static_cast<double>(m.attempted);
    res.put("serve.submit_us", m.mean(m.submit_us));
    res.put("serve.front_self_us", m.mean(m.front_self_us));
    res.put("serve.queue_wait_us", m.mean(m.queue_us));
    res.put("serve.dispatch_us", m.mean(m.dispatch_us));
    res.put("serve.compute_us", m.mean(m.compute_us));

    // Remote batches live in the server processes: their exit lines give
    // the counts over each process life, read once the fleet has stopped.
    double batches = 0, batch_rows = 0;
    const auto g = gather_probe.totals();
    const auto f = forward_probe.totals();
    const double g_ns = static_cast<double>(g.busy_ns - g0.busy_ns);
    const double f_ns = static_cast<double>(f.busy_ns - f0.busy_ns);
    const double g_rows = static_cast<double>(g.rows - g0.rows);
    const double f_rows = static_cast<double>(f.rows - f0.rows);
    const double replica_s = m.wall_s * 2;
    if (!spec.remote) {
      batches = static_cast<double>(r.fleet->aggregate_batches() - batches0);
      batch_rows = batches > 0 ? f_rows / batches : 0;
      const auto c = serve::aggregate_cache_stats(caches);
      std::uint64_t preads = 0;
      for (const auto& p : r.paths) preads += p.store->store().preads();
      const double acc = static_cast<double>(c.accesses - c0.accesses);
      res.put("gather.us_per_row", g_rows ? g_ns / 1e3 / g_rows : 0);
      res.put("gather.busy_frac", g_ns / 1e9 / replica_s);
      res.put("cache.hit_rate",
              acc ? static_cast<double>(c.hits - c0.hits) / acc : 0);
      res.put("storage.preads_per_batch",
              batches ? static_cast<double>(preads - preads0) / batches : 0);
      const double ops = ops_per_row(*make_sign_shell(shape, 1));
      res.put("forward.us_per_row", f_rows ? f_ns / 1e3 / f_rows : 0);
      res.put("forward.busy_frac", f_ns / 1e9 / replica_s);
      res.put("forward.gop_per_s", f_ns ? ops * f_rows / f_ns : 0);
      // The ledger's sum check: traced gather + forward time per batch,
      // weighted by the rows each batch answers, over the compute stage
      // the responses report for each part.  (serve.compute_us is the
      // envelope's critical path, the max over its parts, so it runs
      // above any one part.)
      const double rw =
          static_cast<double>((g.row_ns - g0.row_ns) + (f.row_ns - f0.row_ns));
      const double per_row_us = g_rows ? rw / g_rows / 1e3 : 0;
      const serve::StageGauges stages = r.fleet->aggregate_stages();
      const double parts =
          static_cast<double>(stages.dispatched - stages0.dispatched);
      const double part_compute_us =
          parts ? (stages.compute_sum_us - stages0.compute_sum_us) / parts : 0;
      res.put("ledger.compute_cover",
              part_compute_us > 0 ? per_row_us / part_compute_us : 0);
    } else {
      const rpc::RpcStats s1 = r.fleet->aggregate_rpc_stats();
      const double frames = static_cast<double>(s1.frames_sent -
                                                rpc0.frames_sent);
      const double writevs = static_cast<double>(s1.writev_calls -
                                                 rpc0.writev_calls);
      const double enq = static_cast<double>(s1.frames_enqueued -
                                             rpc0.frames_enqueued);
      const double hits = static_cast<double>(s1.pool_hits - rpc0.pool_hits);
      const double misses =
          static_cast<double>(s1.pool_misses - rpc0.pool_misses);
      res.put("rpc.wire_us", m.mean(m.wire_us));
      res.put("rpc.frames_per_writev", writevs ? frames / writevs : 0);
      res.put("rpc.bytes_per_syscall",
              writevs ? static_cast<double>(s1.bytes_sent - rpc0.bytes_sent) /
                            writevs
                      : 0);
      res.put("rpc.pool_hit_rate",
              hits + misses ? hits / (hits + misses) : 0);
      res.put("rpc.allocs_per_frame",
              enq ? static_cast<double>(s1.buffer_allocs -
                                        rpc0.buffer_allocs) /
                        enq
                  : 0);
    }
    if (spec.tenants) {
      double best = 0, worst = 0;
      for (const auto& kv : m.tenant_latency_us) {
        std::vector<double> v = kv.second;
        std::sort(v.begin(), v.end());
        const Tail p = tail(v, 0.99);
        if (!p.ok) continue;
        best = best == 0 ? p.value : std::min(best, p.value);
        worst = std::max(worst, p.value);
      }
      res.put("tenancy.quota_refused",
              static_cast<double>(r.fleet->quota_refused_total()));
      res.put("tenancy.p99_spread", best > 0 ? worst / best : 0);
    }
    res.put("precompute.s", median(precompute_s));
    res.put("proc.cpu_user_s", cpu.user_s);
    res.put("proc.cpu_sys_s", cpu.sys_s);
    res.put("proc.ctx_switches", cpu.ctx_switches);
    res.put("gen.max_gap_ms", m.max_gen_gap_ms);
    res.put("trace.overhead_frac",
            plain.nodes_per_s() > 0 ? m.nodes_per_s() / plain.nodes_per_s()
                                    : 0);
    res.note("traced_envelopes", num(n));
    res.note("spans_recorded", num(static_cast<double>(spans.size())));
    res.note("spans_dropped", num(static_cast<double>(spans.dropped())));

    if (spec.remote) {
      r.fleet->stop();
      double admitted = 0;
      parse_replica_exit_lines(r.replica_log, &admitted, &batches);
      batch_rows = batches > 0 ? admitted / batches : 0;
    }
    res.put("serve.batch_rows", batch_rows);
    res.put("serve.batches", batches);
    if (!args.trace_path.empty() && !spans.write_chrome_json(args.trace_path)) {
      std::fprintf(stderr, "perfbench: could not write %s\n",
                   args.trace_path.c_str());
    }
  }

  res.note("precision", json_string(serve::precision_name(spec.precision)));
  res.int8_arm = int8_arm;
  res.note("setup_s_each", json_list(setup_s));
  rig->fleet->stop();
  res.note("reaped_children_cpu_s", num(reaped_children_cpu().total_s()));
  std::filesystem::remove_all(rig->dep.dir);
  return res;
}

// --- Training workload ----------------------------------------------------

// Epochs per train_pp call; evaluation runs once, at the end of each call.
constexpr std::size_t kTrainEpochs = 8;
// A call fails when its final test accuracy falls below this floor.
constexpr double kAccuracyFloor = 0.5;

RunResult run_train_storage(const RunArgs& args) {
  RunResult res;
  std::vector<double> setup_s, precompute_s;
  graph::Dataset ds;
  core::Preprocessed pre;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    // The previous set-up is freed first, so peak RSS never holds two.
    pre = {};
    ds = {};
    const auto t0 = Clock::now();
    ds = graph::make_dataset(graph::DatasetName::kProductsSim, 1.0,
                             kDatasetSeed);
    core::PrecomputeConfig pc;
    pc.hops = 3;
    pre = core::precompute(ds.graph, ds.features, pc);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    precompute_s.push_back(pre.preprocess_seconds);
  }

  core::PpTrainConfig tc;
  tc.epochs = kTrainEpochs;
  tc.batch_size = 512;
  tc.chunk_size = 512;
  tc.eval_every = kTrainEpochs;
  tc.mode = core::LoadingMode::kStorageChunk;
  tc.storage_dir = args.work_dir + "/train_store";
  tc.seed = args.seed;
  // The model keeps a reference to its Rng (dropout masks), so the
  // caller's Rng must outlive it.
  const auto make_model = [&ds](Rng& rng) {
    core::SignConfig sc;
    sc.feat_dim = ds.feature_dim();
    sc.hops = 3;
    sc.hidden = 64;
    sc.classes = ds.num_classes;
    sc.dropout = 0.3f;
    return std::make_unique<core::Sign>(sc, rng);
  };

  std::vector<double> first_losses;
  std::vector<double> epoch_ms;
  double wall = 0, load = 0, fwd = 0, bwd = 0, opt = 0, rows = 0;
  double final_loss = 0, final_acc = 0, ops = 0;
  // Per call: training rows per second of train_pp wall time, CPU per
  // thousand rows, and the median and slowest epoch; the run reports the
  // median of each over its calls, so a slow stretch of the host moves one
  // call, not the run.
  std::vector<double> call_rows_per_s, call_cpu_ms_per_krow;
  std::vector<double> call_p50_ms, call_max_ms;
  const CpuSample cpu0 = self_cpu();
  const auto t_end = deadline_after(args.seconds);
  do {
    Rng rng(kTrainModelSeed);
    auto model = make_model(rng);
    ops = ops_per_row(*model);
    const CpuSample call_cpu0 = self_cpu();
    const auto t0 = Clock::now();
    const core::PpTrainResult r = core::train_pp(*model, pre, ds, tc);
    const double call_wall = seconds_between(t0, Clock::now());
    const double call_cpu = (self_cpu() - call_cpu0).total_s();
    wall += call_wall;
    ++res.attempted;
    std::vector<double> losses, call_epoch_ms;
    bool ok = true;
    for (const auto& e : r.history.epochs) {
      losses.push_back(e.train_loss);
      ok = ok && std::isfinite(e.train_loss);
      call_epoch_ms.push_back(e.epoch_seconds * 1e3);
      load += e.data_loading_seconds;
      fwd += e.forward_seconds;
      bwd += e.backward_seconds;
      opt += e.optimizer_seconds;
    }
    const auto call_rows =
        static_cast<double>(r.train_rows * r.history.epochs.size());
    rows += call_rows;
    call_rows_per_s.push_back(call_rows / call_wall);
    call_cpu_ms_per_krow.push_back(call_cpu * 1e6 / call_rows);
    call_p50_ms.push_back(median(call_epoch_ms));
    call_max_ms.push_back(
        *std::max_element(call_epoch_ms.begin(), call_epoch_ms.end()));
    epoch_ms.insert(epoch_ms.end(), call_epoch_ms.begin(),
                    call_epoch_ms.end());
    final_acc = r.history.epochs.empty() ? 0 : r.history.epochs.back().test_acc;
    final_loss = losses.empty() ? 0 : losses.back();
    ok = ok && final_acc >= kAccuracyFloor;
    // Same seed, same arithmetic: every call repeats the first call's loss
    // sequence bit for bit.
    if (first_losses.empty()) {
      first_losses = losses;
    } else {
      ok = ok && losses.size() == first_losses.size() &&
           std::memcmp(losses.data(), first_losses.data(),
                       losses.size() * sizeof(double)) == 0;
    }
    if (!ok) ++res.failed;
  } while (Clock::now() < t_end);
  const CpuSample cpu = self_cpu() - cpu0;
  std::filesystem::remove_all(tc.storage_dir);

  if (!args.trace) {
    // An 8-epoch call has too few epochs for a p99 with ten samples beyond
    // it; its slowest epoch is the tail each call reports.
    res.put("nodes_per_s", median(call_rows_per_s));
    res.put("lat_p50_ms", median(call_p50_ms));
    res.put("lat_p99_ms", median(call_max_ms));
    res.put("setup_s", median(setup_s));
    res.put("peak_rss_mb", peak_rss_mb());
    res.put("cpu_ms_per_knode", median(call_cpu_ms_per_krow));
    res.note("epoch_ms", json_list(epoch_ms));
  } else {
    const double calls = static_cast<double>(res.attempted);
    res.put("train.load_wait_s", load / calls);
    res.put("train.forward_s", fwd / calls);
    res.put("train.backward_s", bwd / calls);
    res.put("train.optim_s", opt / calls);
    res.put("train.other_s", (wall - load - fwd - bwd - opt) / calls);
    res.put("precompute.s", median(precompute_s));
    res.put("train.final_loss", final_loss);
    res.put("forward.us_per_row", fwd * 1e6 / rows);
    res.put("forward.busy_frac", fwd / wall);
    res.put("forward.gop_per_s", ops * rows / fwd / 1e9);
    res.put("proc.cpu_user_s", cpu.user_s);
    res.put("proc.cpu_sys_s", cpu.sys_s);
    res.put("proc.ctx_switches", cpu.ctx_switches);
  }
  res.note("setup_s_each", json_list(setup_s));
  res.note("loss_sequence", json_list(first_losses));
  res.note("final_test_acc", num(final_acc));
  res.note("epochs_per_call", num(static_cast<double>(kTrainEpochs)));
  res.note("train_rows_per_call_epoch",
           num(static_cast<double>(ds.split.train.size())));
  res.int8_arm = "n/a (fp32 training)";
  return res;
}

}  // namespace

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const unsigned char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += static_cast<char>(c);
    } else if (c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += static_cast<char>(c);
    }
  }
  return out + "\"";
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "serve_hot_inproc", "serve_cold_rpc", "train_storage"};
  return names;
}

std::size_t pool_threads_for(const std::string& workload) {
  // Serving: two replica dispatchers plus the generator already take three
  // cores, so kernels run inline on each dispatcher.  Training: the
  // trainer thread and two pool workers, with the prefetch thread mostly
  // waiting on reads.
  return workload == "train_storage" ? 3 : 1;
}

RunResult run_workload(const RunArgs& args) {
  if (args.workload == "serve_hot_inproc") {
    return run_serving(args, ServeSpec{});
  }
  if (args.workload == "serve_cold_rpc") {
    ServeSpec s;
    s.precision = serve::Precision::kInt8;
    s.remote = true;
    s.skew = 0.0;
    s.cache_frac = 0.02;
    s.nodes_per_env = 16;
    s.shape = {serve::ResultMode::kFullLogits, 0};
    s.tenants = 4;
    s.warmup_envelopes = 10000;
    s.rss_at_envelopes = 80000;
    return run_serving(args, s);
  }
  if (args.workload == "train_storage") return run_train_storage(args);
  throw std::invalid_argument("unknown workload " + args.workload);
}

}  // namespace perfbench
