// serve_cli: online PP-GNN inference serving under heavy-tailed load.
//
// The end-to-end deployment flow the serving subsystem (src/serve/) exists
// for: preprocess a synthetic graph once (ServingTestbed), ship the model
// weights through an nn/serialize checkpoint (the deployment round trip),
// stand up an elastic fleet of InferenceSession replicas behind a
// FleetManager, and hammer them with a Zipf request stream.  Reports
// sustained throughput, p50/p95/p99 latency, per-replica routing/admission
// counters, and cache statistics when serving from the file-backed store.
//
// Replication and admission control:
//   --replicas=N          initial replica count (full pipeline each)
//   --policy=round_robin|least_loaded|cache_affinity
//   --shed-budget-ms=B    queue-delay budget; past it requests are shed
//                         with a retriable Rejected status (0 = off,
//                         blocking backpressure)
//   --low_frac=F          fraction of traffic marked sheddable (kLow)
//
// Autoscaling (the elastic-fleet mode):
//   --autoscale           drive a staged load ramp (0.5x -> 2.5x -> 0.5x of
//                         this machine's single-replica saturation) and let
//                         the FleetManager's controller spawn/retire
//                         replicas from the windowed shed-rate / idle
//                         signals.  Prints one status line per window:
//                         replica count, windowed shed rate, admitted p99.
//   --min-replicas/--max-replicas   autoscale bounds (default 1 / 4)
//   --scale-up-shed=R     spawn when windowed shed rate > R sustained
//                         (default 0.10)
//   --scale-down-idle=F   retire when >= F of ticks see empty queues
//                         (default 0.90)
//   A shed budget is required for the overload signal; --autoscale defaults
//   it to 2ms when unset.
//
// Serving API v2 (the measured path — every fixed-fleet run drives the
// ServeRequest/ServeResponse envelope through a CompletionQueue):
//   --batch-nodes=N       nodes per request envelope (default 1); under
//                         cache_affinity the fleet splits each envelope
//                         into ring-consistent sub-batches and merges
//   --deadline-ms=D       per-request deadline (0 = none); requests whose
//                         deadline is blown at dispatch are shed before
//                         compute, and the run reports the deadline-miss
//                         rate in the result block and JSON
//   --topk=K              answer top-k (class, score) pairs instead of
//                         full logits (0 = full logits)
//
// Multi-tenant serving (src/tenancy/, the v2 envelope path):
//   --tenants=N           tenant population; each envelope is stamped with
//                         a deterministic tenant id (envelope index mod N)
//                         and the fleet front enforces per-tenant contracts
//   --tenant-mix=W,W,..   DWRR fair-share weights, tiled across tenants
//                         ("2,1" with 4 tenants -> weights 2,1,2,1)
//   --tenant-rate=R       token-bucket quota, admitted parts/s per tenant
//                         (0 = unmetered; refusals answer kQuotaExceeded
//                         without touching a replica)
//   --tenant-burst=B      bucket depth in parts (0 = one second of quota)
//   The run prints a per-tenant table (admitted / shed / quota-refused /
//   p50 / p99) from the same aggregate_tenants() merge the cross-process
//   fleet uses, so isolation can be read off any run mode directly.
//
// Trace capture (feeds the fleet simulator, src/fleetsim/):
//   --trace-out=PATH      record every measured-run arrival (offset,
//                         priority, relative deadline, client id, nodes)
//                         to a ppgnn-trace v1 file that fleetsim_cli
//                         --trace=PATH replays offline.  Calibration runs
//                         are not recorded; a gate retry re-records, so
//                         the file always matches the final measured run.
//
// Cross-process serving (src/rpc/, docs/wire-protocol.md):
//   --remote-replicas=N   serve the measured run through N
//                         replica_server_cli PROCESSES (spawned next to
//                         this binary, one Unix socket each) instead of
//                         in-process replicas.  Calibration stays
//                         in-process, so --gate=relative reports the
//                         cross-process overhead directly.
//   --kill-one-mid-run    crash smoke: kill -9 one replica process
//                         mid-run and prove zero envelopes are lost (the
//                         fleet re-routes against the survivors).  Needs
//                         --remote-replicas >= 2.
//   --serve-log=PATH      append the replica servers' stdout/stderr here
//                         (CI uploads it when the smoke fails)
//
// Precision:
//   --precision=fp32|int8 int8 deploys a quantized checkpoint (~4x less
//                         weight data), quantizes every Linear per output
//                         channel (one immutable int8 copy shared by all
//                         replicas, spawned ones included), and — with
//                         --source=file — stores hop rows in the int8
//                         codec, so the same cache byte budget holds ~4x
//                         more rows.  The run reports top-1 agreement and
//                         max |logit error| against an fp32 reference, and
//                         the PASS/FAIL gate additionally requires >= 99%
//                         top-1 agreement at int8.
//
// The PASS/FAIL gate comes in two flavors.  --gate=absolute (default)
// requires --min_rps sustained (10k/s on the default 100k-node config).
// --gate=relative calibrates a single-replica baseline on this machine
// first and requires the measured run to hold >= 90% of it — the gate CI
// uses, since an absolute floor flakes on loaded shared runners where the
// machine itself is the variable.  Under --autoscale the relative gate is
// the interesting one: the ramp averages ~1.17x single-replica saturation,
// so a fleet stuck at min replicas sheds its way to ~0.67x and FAILS while
// a scaling fleet clears 0.9x.  Either gate re-measures once before
// failing (transient noise gets one retry; a real regression fails twice).
//
//   ./serve_cli [--nodes=100000] [--requests=200000] [--clients=4]
//               [--replicas=1] [--policy=round_robin] [--shed-budget-ms=0]
//               [--low_frac=0] [--gate=absolute|relative|none]
//               [--min_rps=10000] [--model=SIGN] [--hops=2] [--feat_dim=32]
//               [--hidden=32] [--max_batch=256] [--max_delay_us=200]
//               [--skew=0.99] [--source=memory|file] [--precision=fp32|int8]
//               [--cache=none|lru|static] [--cache_frac=0.05] [--window=512]
//               [--autoscale] [--min-replicas=1] [--max-replicas=4]
//               [--scale-up-shed=0.1] [--scale-down-idle=0.9]
//               [--trace-out=arrivals.trace]
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/pp_model.h"
#include "loader/cache.h"
#include "loader/storage.h"
#include "rpc/remote_replica.h"
#include "serve/feature_source.h"
#include "serve/inference_session.h"
#include "serve/replica_set.h"
#include "serve/router.h"
#include "serve/serve_api.h"
#include "serve/server_stats.h"
#include "serve/testbed.h"
#include "serve/trace.h"
#include "serve/workload.h"
#include "tenancy/tenant.h"

using namespace ppgnn;

namespace {

struct Args {
  std::size_t nodes = 100000;
  std::size_t requests = 200000;
  std::size_t clients = 4;
  std::size_t replicas = 1;
  std::string policy = "round_robin";
  double shed_budget_ms = 0.0;
  double low_frac = 0.0;
  std::string gate = "absolute";
  double min_rps = 10000.0;
  std::string model = "SIGN";
  std::size_t hops = 2;
  std::size_t feat_dim = 32;
  std::size_t hidden = 32;
  std::size_t classes = 16;
  std::size_t max_batch = 256;
  long max_delay_us = 200;
  double skew = 0.99;
  std::string source = "memory";
  std::string precision = "fp32";
  std::string cache = "none";
  double cache_frac = 0.05;
  std::size_t window = 512;  // in-flight requests per client
  std::size_t train_epochs = 2;
  // Serving API v2 envelope shape.
  std::size_t batch_nodes = 1;
  double deadline_ms = 0.0;  // 0 = no deadline
  std::size_t topk = 0;      // 0 = full logits
  // Autoscaling.
  bool autoscale = false;
  std::size_t min_replicas = 1;
  std::size_t max_replicas = 4;
  double scale_up_shed = 0.10;
  double scale_down_idle = 0.90;
  double ramp_seconds = 6.0;  // staged-trace wall time (2s per phase)
  std::string trace_out;      // record measured-run arrivals here ("" = off)
  // Cross-process serving (src/rpc/).
  std::size_t remote_replicas = 0;  // 0 = in-process replicas
  bool kill_one_mid_run = false;    // crash smoke (needs remote >= 2)
  std::string serve_log;            // replica servers' stdout/stderr
  // Multi-tenant serving (src/tenancy/).
  std::size_t tenants = 1;    // 1 = untenanted (everything tenant 0)
  std::string tenant_mix;     // DWRR weights, comma-separated, tiled
  double tenant_rate = 0.0;   // parts/s quota per tenant (0 = unmetered)
  double tenant_burst = 0.0;  // bucket depth (0 = one second of quota)
};

void usage(std::FILE* to) {
  std::fprintf(
      to,
      "serve_cli: online PP-GNN inference serving under heavy-tailed load\n"
      "\n"
      "Workload / deployment:\n"
      "  --nodes=N             graph size (default 100000)\n"
      "  --requests=N          request stream length (default 200000)\n"
      "  --clients=N           closed-loop client threads (default 4)\n"
      "  --window=N            in-flight envelopes per client (default 512)\n"
      "  --skew=S              Zipf skew of the stream (default 0.99)\n"
      "  --model=SGC|SIGN      architecture (default SIGN)\n"
      "  --hops=K --feat-dim=D --hidden=H --classes=C   model shape\n"
      "  --train-epochs=N      deployment-prep training (default 2)\n"
      "  --precision=fp32|int8 deployed checkpoint precision\n"
      "  --source=memory|file  feature residency (file = FeatureFileStore)\n"
      "  --cache=none|lru|static  row cache over the file store\n"
      "  --cache-frac=F        cache budget as a fraction of the fp32\n"
      "                        resident set (default 0.05)\n"
      "\n"
      "Fleet / admission:\n"
      "  --replicas=N          fixed fleet size (default 1)\n"
      "  --policy=round_robin|least_loaded|cache_affinity\n"
      "  --max-batch=N --max-delay-us=U   micro-batcher knobs\n"
      "  --shed-budget-ms=B    admission queue-delay budget (0 = block)\n"
      "  --low-frac=F          fraction of traffic marked sheddable kLow\n"
      "\n"
      "Envelopes (serving API v2, the measured path):\n"
      "  --batch-nodes=N       nodes per request envelope (default 1)\n"
      "  --deadline-ms=D       per-request deadline (0 = none)\n"
      "  --topk=K              top-k results instead of full logits\n"
      "\n"
      "Cross-process serving (src/rpc/, docs/wire-protocol.md):\n"
      "  --remote-replicas=N   serve through N replica_server_cli\n"
      "                        processes over Unix sockets (0 = in-process)\n"
      "  --kill-one-mid-run    kill -9 one replica mid-run; prove zero\n"
      "                        envelopes lost (needs --remote-replicas>=2)\n"
      "  --serve-log=PATH      append replica server output here\n"
      "\n"
      "Multi-tenant serving (src/tenancy/):\n"
      "  --tenants=N           tenant population (1 = untenanted)\n"
      "  --tenant-mix=W,W,..   DWRR weights, tiled across tenants\n"
      "  --tenant-rate=R       admitted-parts/s quota (0 = unmetered)\n"
      "  --tenant-burst=B      bucket depth in parts (0 = 1s of quota)\n"
      "\n"
      "Autoscaling:\n"
      "  --autoscale           staged 0.5x->2.5x->0.5x ramp, elastic fleet\n"
      "  --min-replicas=N --max-replicas=N   bounds (default 1 / 4)\n"
      "  --scale-up-shed=R --scale-down-idle=F   controller thresholds\n"
      "  --ramp-seconds=S      ramp wall time (default 6)\n"
      "\n"
      "Gate / output:\n"
      "  --gate=absolute|relative|none   PASS/FAIL criterion\n"
      "  --min-rps=R           absolute-gate floor (default 10000)\n"
      "  --trace-out=PATH      record arrivals for fleetsim_cli --trace\n"
      "  --help                this text\n");
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage(stdout);
      std::exit(0);
    }
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "bad arg: %s (use --key=value or --flag)\n",
                   arg.c_str());
      std::exit(2);
    }
    // Accept --key=value, --key value, and bare boolean --flag; accept
    // --shed-budget-ms and --shed_budget_ms alike.
    const auto eq = arg.find('=');
    std::string k, v;
    if (eq != std::string::npos) {
      k = arg.substr(2, eq - 2);
      v = arg.substr(eq + 1);
    } else {
      k = arg.substr(2);
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        v = argv[++i];
      } else {
        v = "1";  // bare boolean flag
      }
    }
    std::replace(k.begin(), k.end(), '-', '_');
    try {
    if (k == "nodes") a.nodes = std::stoul(v);
    else if (k == "requests") a.requests = std::stoul(v);
    else if (k == "clients") a.clients = std::stoul(v);
    else if (k == "replicas") a.replicas = std::stoul(v);
    else if (k == "policy") a.policy = v;
    else if (k == "shed_budget_ms") a.shed_budget_ms = std::stod(v);
    else if (k == "low_frac") a.low_frac = std::stod(v);
    else if (k == "gate") a.gate = v;
    else if (k == "min_rps") a.min_rps = std::stod(v);
    else if (k == "model") a.model = v;
    else if (k == "hops") a.hops = std::stoul(v);
    else if (k == "feat_dim") a.feat_dim = std::stoul(v);
    else if (k == "hidden") a.hidden = std::stoul(v);
    else if (k == "classes") a.classes = std::stoul(v);
    else if (k == "max_batch") a.max_batch = std::stoul(v);
    else if (k == "max_delay_us") a.max_delay_us = std::stol(v);
    else if (k == "skew") a.skew = std::stod(v);
    else if (k == "source") a.source = v;
    else if (k == "precision") a.precision = v;
    else if (k == "cache") a.cache = v;
    else if (k == "cache_frac") a.cache_frac = std::stod(v);
    else if (k == "window") a.window = std::stoul(v);
    else if (k == "train_epochs") a.train_epochs = std::stoul(v);
    else if (k == "batch_nodes") a.batch_nodes = std::stoul(v);
    else if (k == "deadline_ms") a.deadline_ms = std::stod(v);
    else if (k == "topk") a.topk = std::stoul(v);
    else if (k == "autoscale") a.autoscale = v != "0";
    else if (k == "min_replicas") a.min_replicas = std::stoul(v);
    else if (k == "max_replicas") a.max_replicas = std::stoul(v);
    else if (k == "scale_up_shed") a.scale_up_shed = std::stod(v);
    else if (k == "scale_down_idle") a.scale_down_idle = std::stod(v);
    else if (k == "ramp_seconds") a.ramp_seconds = std::stod(v);
    else if (k == "trace_out") a.trace_out = v;
    else if (k == "remote_replicas") a.remote_replicas = std::stoul(v);
    else if (k == "kill_one_mid_run") a.kill_one_mid_run = v != "0";
    else if (k == "serve_log") a.serve_log = v;
    else if (k == "tenants") a.tenants = std::stoul(v);
    else if (k == "tenant_mix") a.tenant_mix = v;
    else if (k == "tenant_rate") a.tenant_rate = std::stod(v);
    else if (k == "tenant_burst") a.tenant_burst = std::stod(v);
    else {
      std::fprintf(stderr, "unknown flag: --%s\n", k.c_str());
      usage(stderr);
      std::exit(2);
    }
    } catch (const std::exception&) {
      std::fprintf(stderr, "bad value for --%s: %s\n", k.c_str(), v.c_str());
      std::exit(2);
    }
  }
  if (a.nodes == 0 || a.requests == 0 || a.clients == 0 || a.max_batch == 0 ||
      a.window == 0 || a.replicas == 0) {
    std::fprintf(stderr,
                 "nodes, requests, clients, replicas, max_batch and window "
                 "must be positive\n");
    std::exit(2);
  }
  serve::RoutingPolicy p;
  if (!serve::parse_policy(a.policy, &p)) {
    std::fprintf(stderr,
                 "unknown --policy=%s "
                 "(round_robin|least_loaded|cache_affinity)\n",
                 a.policy.c_str());
    std::exit(2);
  }
  if (a.gate != "absolute" && a.gate != "relative" && a.gate != "none") {
    std::fprintf(stderr, "unknown --gate=%s (absolute|relative|none)\n",
                 a.gate.c_str());
    std::exit(2);
  }
  serve::Precision prec;
  if (!serve::parse_precision(a.precision, &prec)) {
    std::fprintf(stderr, "unknown --precision=%s (fp32|int8)\n",
                 a.precision.c_str());
    std::exit(2);
  }
  if (a.low_frac < 0 || a.low_frac > 1) {
    std::fprintf(stderr, "--low_frac must be in [0,1]\n");
    std::exit(2);
  }
  if (a.shed_budget_ms < 0) {
    std::fprintf(stderr, "--shed-budget-ms must be >= 0 (0 disables)\n");
    std::exit(2);
  }
  if (a.batch_nodes == 0) {
    std::fprintf(stderr, "--batch-nodes must be >= 1\n");
    std::exit(2);
  }
  if (a.deadline_ms < 0) {
    std::fprintf(stderr, "--deadline-ms must be >= 0 (0 = none)\n");
    std::exit(2);
  }
  if (a.autoscale &&
      (a.batch_nodes > 1 || a.deadline_ms > 0 || a.topk > 0)) {
    std::fprintf(stderr,
                 "--batch-nodes/--deadline-ms/--topk drive the fixed-fleet "
                 "envelope path; drop --autoscale to use them\n");
    std::exit(2);
  }
  if (a.remote_replicas > 0 && a.autoscale) {
    std::fprintf(stderr,
                 "--remote-replicas drives the fixed-fleet envelope path; "
                 "drop --autoscale to use it\n");
    std::exit(2);
  }
  if (a.remote_replicas > 0 && a.cache == "static") {
    std::fprintf(stderr,
                 "--cache=static is not available server-side; use "
                 "--cache=lru with --remote-replicas\n");
    std::exit(2);
  }
  if (a.tenants == 0) {
    std::fprintf(stderr, "--tenants must be >= 1 (1 = untenanted)\n");
    std::exit(2);
  }
  if (a.tenant_rate < 0 || a.tenant_burst < 0) {
    std::fprintf(stderr, "--tenant-rate/--tenant-burst must be >= 0\n");
    std::exit(2);
  }
  {
    std::vector<std::uint32_t> w;
    std::string err;
    if (!tenancy::parse_tenant_mix(a.tenant_mix, &w, &err)) {
      std::fprintf(stderr, "bad --tenant-mix: %s\n", err.c_str());
      std::exit(2);
    }
  }
  if (a.autoscale && a.tenants > 1) {
    std::fprintf(stderr,
                 "--tenants drives the fixed-fleet envelope path; drop "
                 "--autoscale to use it\n");
    std::exit(2);
  }
  if (a.kill_one_mid_run && a.remote_replicas < 2) {
    std::fprintf(stderr,
                 "--kill-one-mid-run needs --remote-replicas >= 2 (a "
                 "survivor must be left to re-route onto)\n");
    std::exit(2);
  }
  if (a.autoscale) {
    if (a.min_replicas == 0 || a.max_replicas < a.min_replicas) {
      std::fprintf(stderr,
                   "--autoscale needs 1 <= min-replicas <= max-replicas\n");
      std::exit(2);
    }
    if (a.ramp_seconds < 3.0) {
      std::fprintf(stderr,
                   "--ramp-seconds must be >= 3 (the hysteresis needs a "
                   "phase to react within)\n");
      std::exit(2);
    }
    if (a.shed_budget_ms == 0) {
      a.shed_budget_ms = 2.0;  // the autoscaler needs the overload signal
    }
  }
  return a;
}

struct RunResult {
  double rps = 0;             // completed requests over wall time
  serve::LatencySummary latency;       // admitted requests only
  serve::AdmissionCounters admission;  // fleet-wide
  serve::StageGauges stages;           // per-stage means + shed waits
  std::size_t deadline_missed = 0;     // server-side miss count
  // Client-side envelope accounting (v2 path).
  std::size_t envelopes = 0;
  std::size_t envelopes_ok = 0;
  std::size_t envelopes_missed = 0;  // status kDeadlineExceeded
  std::size_t envelopes_shed = 0;    // status kShed
  std::size_t envelopes_quota = 0;   // status kQuotaExceeded
  // Per-tenant slices (fleet merge + front quota ledger); empty untenanted.
  std::vector<serve::TenantStat> tenants;
  std::size_t quota_refused_parts = 0;  // front-gate refusals, in parts
  double deadline_miss_rate() const {
    return envelopes ? static_cast<double>(envelopes_missed) /
                           static_cast<double>(envelopes)
                     : 0.0;
  }
  double mean_batch = 0;
  double cache_hit_rate = 0;
  std::size_t cache_capacity_rows = 0;  // per-replica rows the byte budget holds
  bool any_cache = false;
  std::uint64_t preads = 0;  // syscalls into the file store (file source)
  // Client-side transport counters, all-zero unless remote (rpc/buffer.h).
  rpc::RpcStats rpc;
  std::vector<serve::ReplicaSnapshot> replicas;
  // Autoscale runs only.
  std::size_t max_replicas_seen = 0;
  double replica_seconds = 0;       // provisioned capacity integral
  double idle_replica_seconds = 0;  // provisioned while queues sat empty
  std::vector<serve::FleetEvent> events;
};

// Source/cache wiring shared by every run mode: one private source per
// replica; raw pointers retained for stats only (reads happen after the
// fleet stops — the controller thread that could mutate these lists via a
// spawn is joined by then).
struct SourceFactory {
  const Args& a;
  const serve::ServingTestbed& tb;
  std::vector<const serve::CachedSource*> caches;
  std::vector<const loader::FeatureFileStore*> stores;
  std::size_t cache_capacity_rows = 0;
  std::size_t budget_bytes = 0;

  SourceFactory(const Args& args, const serve::ServingTestbed& testbed)
      : a(args), tb(testbed) {
    // The cache byte budget is always denominated in fp32 row bytes
    // (cache_frac of the fp32 resident set), so int8's smaller stored rows
    // buy proportionally more resident rows — the capacity claim under
    // test.
    const std::size_t fp32_row_bytes =
        (tb.pre().num_hops() + 1) * tb.pre().feat_dim() * sizeof(float);
    budget_bytes =
        std::max<std::size_t>(1, static_cast<std::size_t>(
            static_cast<double>(a.nodes) * a.cache_frac)) * fp32_row_bytes;
  }

  std::unique_ptr<serve::FeatureSource> operator()(std::size_t) {
    if (a.source == "memory") return tb.memory_source();
    auto file = tb.file_source();
    stores.push_back(&file->store());
    const std::size_t stored_row_bytes = file->store().row_bytes();
    if (a.cache == "none") return file;
    std::unique_ptr<loader::RowCache> policy;
    std::vector<std::int64_t> warm_rows;
    if (a.cache == "lru") {
      policy = std::make_unique<loader::LruCache>(budget_bytes,
                                                  stored_row_bytes);
    } else {  // "static", validated in main
      warm_rows = serve::zipf_hot_set(tb.workload(0),
                                      budget_bytes / stored_row_bytes);
      policy = std::make_unique<loader::StaticCache>(warm_rows,
                                                     stored_row_bytes);
    }
    cache_capacity_rows = policy->capacity();
    auto c = std::make_unique<serve::CachedSource>(std::move(file),
                                                   std::move(policy));
    if (!warm_rows.empty()) c->warm(warm_rows);
    caches.push_back(c.get());
    return c;
  }
};

serve::FleetConfig fleet_config(const Args& a, bool with_autoscale,
                                const tenancy::TenantRegistry* tenants =
                                    nullptr) {
  serve::FleetConfig fc;
  fc.tenants = tenants;
  serve::parse_policy(a.policy, &fc.policy);
  serve::parse_precision(a.precision, &fc.precision);
  fc.batch.max_batch_size = a.max_batch;
  fc.batch.max_delay = std::chrono::microseconds(a.max_delay_us);
  fc.batch.shed_budget = std::chrono::microseconds(
      static_cast<long>(a.shed_budget_ms * 1000.0));
  fc.stats_window = std::chrono::milliseconds(250);
  if (with_autoscale) {
    fc.autoscale.enabled = true;
    fc.autoscale.min_replicas = a.min_replicas;
    fc.autoscale.max_replicas = a.max_replicas;
    fc.autoscale.scale_up_shed = a.scale_up_shed;
    fc.autoscale.scale_down_idle = a.scale_down_idle;
    // Reaction path sized to seconds-long ramp phases: sustain within one
    // stats window, cooldown well under a phase so the fleet can take a
    // second step while the overload still stands.
    fc.autoscale.sustain = std::chrono::milliseconds(300);
    fc.autoscale.idle_window = std::chrono::milliseconds(800);
    fc.autoscale.cooldown = std::chrono::milliseconds(1000);
  }
  return fc;
}

void finish_result(RunResult& r, serve::FleetManager& fleet,
                   const SourceFactory& sf, double wall) {
  r.latency = fleet.aggregate_latency();
  r.admission = fleet.aggregate_admission();
  r.stages = fleet.aggregate_stages();
  r.deadline_missed = fleet.aggregate_deadline_missed();
  r.mean_batch = fleet.aggregate_mean_batch_size();
  r.rps = static_cast<double>(r.latency.count) / wall;
  // Full fleet history (retired replicas included), read under the fleet's
  // admin lock — indexed per-active-replica reads would race the
  // controller retiring a replica between the size check and the access.
  r.replicas = fleet.fleet_snapshot();
  r.events = fleet.events();
  r.rpc = fleet.aggregate_rpc_stats();
  r.tenants = fleet.aggregate_tenants();
  r.quota_refused_parts = fleet.quota_refused_total();
  fleet.stop();
  if (!sf.caches.empty()) {
    r.any_cache = true;
    r.cache_hit_rate = serve::aggregate_cache_stats(sf.caches).hit_rate();
    r.cache_capacity_rows = sf.cache_capacity_rows;
  }
  for (const auto* s : sf.stores) r.preads += s->preads();
}

// replica_server_cli flags that reproduce this run's per-replica serving
// stack (model, store, batching, cache) in a child process.
std::vector<std::string> remote_server_args(const Args& a,
                                            const serve::ServingTestbed& tb,
                                            std::size_t cache_budget_bytes) {
  std::vector<std::string> v = {
      "--checkpoint=" + tb.checkpoint(),
      "--store=" + tb.store_dir(),
      "--nodes=" + std::to_string(a.nodes),
      "--model=" + a.model,
      "--hops=" + std::to_string(a.hops),
      "--feat-dim=" + std::to_string(a.feat_dim),
      "--hidden=" + std::to_string(a.hidden),
      "--classes=" + std::to_string(a.classes),
      "--precision=" + a.precision,
      "--max-batch=" + std::to_string(a.max_batch),
      "--max-delay-us=" + std::to_string(a.max_delay_us)};
  if (a.shed_budget_ms > 0) {
    v.push_back("--shed-budget-ms=" + std::to_string(a.shed_budget_ms));
  }
  if (a.source == "file" && a.cache == "lru") {
    v.push_back("--cache=lru");
    v.push_back("--cache-mb=" +
                std::to_string(static_cast<double>(cache_budget_bytes) /
                               (1024.0 * 1024.0)));
  }
  return v;
}

// Closed-loop saturation run over a fixed fleet of `replicas` pipelines,
// driven through the v2 envelope API: each client groups its stream shard
// into --batch-nodes envelopes, stamps the --deadline-ms deadline at
// submit time, and reaps merged responses from its own CompletionQueue.
// Self-contained so the relative gate can run it twice (1-replica
// calibration, then the real config).
//
// With `remote`, the same run is served by `replicas` replica_server_cli
// PROCESSES (fork/exec'd next to this binary, one Unix socket each) behind
// the identical FleetManager front — the measured delta against an
// in-process run of the same shape IS the wire + process-boundary
// overhead.  --kill-one-mid-run additionally SIGKILLs the first replica
// once the storm is up; the run completing at all proves re-routing lost
// nothing (a lost envelope would hang its client's drain loop forever).
RunResult run_serving(const Args& a, const serve::ServingTestbed& tb,
                      std::size_t replicas,
                      const std::vector<std::int64_t>& stream,
                      const std::string& trace_path = {},
                      bool remote = false,
                      const tenancy::TenantRegistry* tenants = nullptr) {
  SourceFactory sf(a, tb);
  std::vector<std::shared_ptr<rpc::RemoteReplica>> spawned;
  std::mutex spawned_mu;
  std::unique_ptr<serve::FleetManager> fleet_ptr;
  if (remote) {
    rpc::ReplicaSpawnConfig scfg;
    scfg.socket_dir = tb.dir();
    scfg.log_path = a.serve_log;
    scfg.server_args = remote_server_args(a, tb, sf.budget_bytes);
    fleet_ptr = std::make_unique<serve::FleetManager>(
        [scfg, &spawned, &spawned_mu](std::size_t ordinal) {
          std::string err;
          auto r = rpc::spawn_replica_process(scfg, ordinal, &err);
          if (!r) {
            std::fprintf(stderr, "spawn replica %zu: %s\n", ordinal,
                         err.c_str());
            return std::shared_ptr<rpc::RemoteReplica>();
          }
          std::lock_guard<std::mutex> lk(spawned_mu);
          spawned.push_back(r);
          return r;
        },
        replicas, fleet_config(a, /*with_autoscale=*/false, tenants));
  } else {
    fleet_ptr = std::make_unique<serve::FleetManager>(
        tb.fleet_builder([&sf](std::size_t i) { return sf(i); }), replicas,
        fleet_config(a, /*with_autoscale=*/false, tenants));
  }
  serve::FleetManager& fleet = *fleet_ptr;

  const auto groups = serve::ServingTestbed::group_stream(stream,
                                                          a.batch_nodes);
  const auto deadline_budget =
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(a.deadline_ms));
  std::atomic<std::size_t> n_ok{0}, n_missed{0}, n_shed{0}, n_quota{0},
      n_total{0};
  const auto t0 = std::chrono::steady_clock::now();
  std::unique_ptr<serve::TraceRecorder> rec;
  if (!trace_path.empty()) rec = std::make_unique<serve::TraceRecorder>(t0);
  const auto deadline_budget_us =
      static_cast<std::uint64_t>(a.deadline_ms * 1000.0);
  std::vector<std::thread> clients;
  const std::size_t shard = (groups.size() + a.clients - 1) / a.clients;
  for (std::size_t c = 0; c < a.clients; ++c) {
    clients.emplace_back([&, c] {
      const std::size_t lo = c * shard;
      const std::size_t hi = std::min(groups.size(), lo + shard);
      // Closed-loop client: keep up to `window` envelopes in flight.
      // Every submitted envelope produces exactly one response (shed and
      // missed ones included), so reaping is just counting statuses — a
      // real retrying client would resubmit the kShed ones.
      serve::CompletionQueue cq;
      std::size_t inflight = 0, ok = 0, missed = 0, shed = 0, quota = 0;
      const auto count = [&](const serve::ServeResponse& resp) {
        --inflight;
        switch (resp.status) {
          case serve::ServeStatus::kOk:
            ++ok;
            break;
          case serve::ServeStatus::kDeadlineExceeded:
            ++missed;
            break;
          case serve::ServeStatus::kQuotaExceeded:
            // Contract refusal, not overload: a real client backs off to
            // its quota instead of retrying (retry storms are the failure
            // mode quotas exist to stop).
            ++quota;
            break;
          default:
            ++shed;
        }
      };
      serve::ServeResponse resp;
      for (std::size_t i = lo; i < hi; ++i) {
        while (inflight >= a.window) {
          if (cq.wait_for(&resp, std::chrono::milliseconds(100))) {
            count(resp);
          }
        }
        serve::ServeRequest req;
        req.id = i;
        req.nodes = groups[i];
        // Deterministic tenant assignment (envelope index mod population):
        // reproducible across runs and identically recoverable from a
        // recorded trace, unlike the old client-thread-index placeholder.
        req.tenant = a.tenants > 1
                         ? static_cast<std::uint32_t>(i % a.tenants)
                         : 0;
        req.priority = (a.low_frac > 0 &&
                        static_cast<double>(i % 100) < a.low_frac * 100)
                           ? serve::Priority::kLow
                           : serve::Priority::kHigh;
        if (a.deadline_ms > 0) req.deadline = serve::deadline_in(deadline_budget);
        if (a.topk > 0) {
          req.mode = serve::ResultMode::kTopK;
          req.topk = a.topk;
        }
        if (rec) {
          rec->note(std::chrono::steady_clock::now(), req.nodes,
                    req.priority, deadline_budget_us, req.tenant);
        }
        fleet.submit(std::move(req), cq);
        ++inflight;
        while (cq.poll(&resp)) count(resp);
      }
      while (inflight > 0) {
        if (cq.wait_for(&resp, std::chrono::milliseconds(100))) count(resp);
      }
      n_ok.fetch_add(ok);
      n_missed.fetch_add(missed);
      n_shed.fetch_add(shed);
      n_quota.fetch_add(quota);
      n_total.fetch_add(hi > lo ? hi - lo : 0);
    });
  }
  // Crash injection: once the storm is up, kill -9 the first replica.
  // No SIGTERM, no drain — the fleet only learns from the dead socket.
  std::shared_ptr<rpc::RemoteReplica> victim;
  std::thread killer;
  if (remote && a.kill_one_mid_run) {
    {
      std::lock_guard<std::mutex> lk(spawned_mu);
      victim = spawned.front();
    }
    killer = std::thread([victim] {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      std::printf("crash smoke: kill -9 replica pid %d\n",
                  static_cast<int>(victim->pid()));
      std::fflush(stdout);
      victim->kill_now();
    });
  }
  for (auto& t : clients) t.join();
  if (killer.joinable()) killer.join();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  RunResult r;
  r.envelopes = n_total.load();
  r.envelopes_ok = n_ok.load();
  r.envelopes_missed = n_missed.load();
  r.envelopes_shed = n_shed.load();
  r.envelopes_quota = n_quota.load();
  finish_result(r, fleet, sf, wall);
  if (remote) {
    // stop() already drained the children; retire() returns each child's
    // stored exit code (0 = clean drain, 137 = the SIGKILLed victim).
    std::lock_guard<std::mutex> lk(spawned_mu);
    std::printf("cross-process: %zu replica process(es);", spawned.size());
    for (const auto& rep : spawned) std::printf(" rc=%d", rep->retire());
    std::printf("\n");
    if (r.rpc.frames_sent > 0) {
      std::printf("rpc fast path: frames=%llu writev=%llu "
                  "frames/writev=%.2f bytes/syscall=%.0f pool-hit=%.1f%% "
                  "allocs/frame=%.4f\n",
                  static_cast<unsigned long long>(r.rpc.frames_sent),
                  static_cast<unsigned long long>(r.rpc.writev_calls),
                  r.rpc.frames_per_writev(), r.rpc.bytes_per_syscall(),
                  100 * r.rpc.pool_hit_rate(), r.rpc.allocs_per_frame());
    }
    if (victim) {
      const std::size_t answered = r.envelopes_ok + r.envelopes_missed +
                                   r.envelopes_shed + r.envelopes_quota;
      std::printf("crash smoke: %zu/%zu envelopes answered after the kill "
                  "(%zu ok, %zu missed, %zu shed) — %s\n",
                  answered, r.envelopes, r.envelopes_ok, r.envelopes_missed,
                  r.envelopes_shed,
                  answered == r.envelopes ? "zero lost" : "ENVELOPES LOST");
    }
  }
  if (rec) {
    rec->save(trace_path);
    std::printf("trace: %zu arrivals -> %s\n", rec->size(),
                trace_path.c_str());
  }
  return r;
}

// Staged-ramp autoscale run: a paced open-loop client offers
// 0.5x -> 2.5x -> 0.5x of `baseline_rps` while the fleet's controller
// reacts to the windowed signals.  One status line per stats window.
// The trace is denominated in WALL TIME (--ramp-seconds), not request
// count: the hysteresis needs phases measured in seconds to react inside,
// so the stream is sized to the measured baseline instead of the other
// way around.
RunResult run_autoscale(const Args& a, const serve::ServingTestbed& tb,
                        double baseline_rps,
                        const std::string& trace_path = {}) {
  SourceFactory sf(a, tb);
  const serve::FleetConfig fc = fleet_config(a, /*with_autoscale=*/true);
  serve::FleetManager fleet(
      tb.fleet_builder([&sf](std::size_t i) { return sf(i); }),
      a.min_replicas, fc);

  const double total_seconds = a.ramp_seconds;
  const auto stream = tb.stream(
      static_cast<std::size_t>(serve::StagedRampPacer::kMeanMult *
                               baseline_rps * total_seconds) +
          1,
      53);
  serve::StagedRampPacer pacer(baseline_rps, total_seconds);
  std::printf("\n[autoscale ramp] %.0f -> %.0f -> %.0f req/s offered, "
              "%.1fs per phase, replicas %zu..%zu\n",
              pacer.rate_at(0), pacer.rate_at(pacer.phase_seconds() * 1.5),
              pacer.rate_at(total_seconds), pacer.phase_seconds(),
              a.min_replicas, a.max_replicas);
  std::printf("%-8s %-9s %10s %12s %12s %12s\n", "t(s)", "replicas",
              "offered/s", "win shed", "win p99(us)", "queue");

  RunResult r;
  std::unique_ptr<serve::TraceRecorder> rec;
  if (!trace_path.empty()) {
    rec = std::make_unique<serve::TraceRecorder>(pacer.start());
  }
  // Open loop: at most 4096 envelopes unreaped (refusals are answered at
  // once); the statuses themselves are read off the fleet's stats.
  serve::CompletionQueue cq;
  std::size_t inflight = 0;
  serve::ServeResponse resp;
  const auto reap = [&] {
    if (cq.wait_for(&resp, std::chrono::milliseconds(100))) --inflight;
  };
  const auto t0 = pacer.start();
  auto next_status = t0 + fc.stats_window;
  auto next_sample = t0;
  const auto sample_every = std::chrono::milliseconds(50);
  double last_sample_s = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= next_sample) {
      // Integrate provisioned capacity (replica-seconds) and its idle
      // share (replicas with nothing queued and nothing in service) for
      // the efficiency comparison against fixed-max fleets.
      const double t_s = std::chrono::duration<double>(now - t0).count();
      const std::size_t n = fleet.num_replicas();
      r.max_replicas_seen = std::max(r.max_replicas_seen, n);
      const double dt = t_s - last_sample_s;
      r.replica_seconds += dt * static_cast<double>(n);
      r.idle_replica_seconds +=
          dt * static_cast<double>(fleet.idle_replicas());
      last_sample_s = t_s;
      next_sample = now + sample_every;
    }
    if (now >= next_status) {
      const auto w = fleet.window_stats();
      std::printf("%-8.1f %-9zu %10.0f %11.1f%% %12.0f %12zu\n",
                  std::chrono::duration<double>(now - t0).count(),
                  fleet.num_replicas(),
                  static_cast<double>(w.admission.offered()) /
                      std::chrono::duration<double>(fc.stats_window).count(),
                  100 * w.shed_rate(), w.latency.p99_us,
                  fleet.total_queue_depth());
      std::fflush(stdout);
      next_status = now + fc.stats_window;
    }
    if (!pacer.pace()) break;  // the trace is wall-time-bounded
    const auto pri = (a.low_frac > 0 &&
                      static_cast<double>(i % 100) < a.low_frac * 100)
                         ? serve::Priority::kLow
                         : serve::Priority::kHigh;
    if (rec) {
      rec->note(std::chrono::steady_clock::now(), {stream[i]}, pri,
                /*deadline_us=*/0, /*tenant=*/0);
    }
    serve::ServeRequest req;
    req.id = i;
    req.nodes = {stream[i]};
    req.priority = pri;
    fleet.submit(std::move(req), cq);
    ++inflight;
    while (inflight > 4096) reap();
  }
  while (inflight > 0) reap();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  finish_result(r, fleet, sf, wall);
  if (rec) {
    rec->save(trace_path);
    std::printf("trace: %zu arrivals -> %s\n", rec->size(),
                trace_path.c_str());
  }
  return r;
}

// Top-1 agreement and max |logit error| of the quantized model against the
// fp32 reference, on the workload's own node distribution (first
// `sample_n` stream entries, deduplicated).  Both sessions resolve
// features from RAM so the comparison isolates the numeric path; the
// quantized side goes through the same artifact the fleet deploys from,
// so the reported error includes the checkpoint codec's share.
serve::PrecisionDrift measure_drift(const serve::ServingTestbed& tb,
                                    const std::vector<std::int64_t>& stream,
                                    std::size_t sample_n) {
  auto fp32_model = tb.make_model(7);
  serve::load_deployed_model(*fp32_model, tb.checkpoint_fp32());
  auto int8_model = tb.make_model(7);
  serve::load_deployed_model(*int8_model, tb.checkpoint());
  core::quantize_int8(*int8_model);
  serve::InferenceSession ref(std::move(fp32_model), tb.memory_source());
  serve::InferenceSession quant(std::move(int8_model), tb.memory_source(),
                                serve::Precision::kInt8);
  return serve::compare_precision(
      ref, quant,
      serve::first_unique(stream, sample_n, tb.config().nodes));
}

void print_result(const char* label, const RunResult& r) {
  std::printf("\n[%s]\n", label);
  std::printf("%-12s %12s %10s %10s %10s %10s %10s\n", "answered", "req/s",
              "p50(us)", "p95(us)", "p99(us)", "mean(us)", "batch");
  std::printf("%-12zu %12.0f %10.0f %10.0f %10.0f %10.0f %10.1f\n",
              r.latency.count, r.rps, r.latency.p50_us, r.latency.p95_us,
              r.latency.p99_us, r.latency.mean_us, r.mean_batch);
  if (r.admission.rejected + r.admission.shed > 0) {
    std::printf("admission: %zu admitted, %zu rejected, %zu shed "
                "(shed rate %.1f%%)\n",
                r.admission.admitted, r.admission.rejected, r.admission.shed,
                100 * r.admission.shed_rate());
  }
  if (r.stages.dispatched > 0) {
    std::printf("stages: admission %.0fus, dispatch %.0fus, compute %.0fus",
                r.stages.mean_admission_us(), r.stages.mean_dispatch_us(),
                r.stages.mean_compute_us());
    if (r.stages.shed_waits > 0) {
      // Shed requests report the wait their clients paid, not zeros.
      std::printf("; shed waited %.0fus (%zu)",
                  r.stages.mean_shed_wait_us(), r.stages.shed_waits);
    }
    std::printf("\n");
  }
  if (r.deadline_missed > 0 || r.envelopes_missed > 0) {
    std::printf("deadlines: %zu/%zu envelopes missed (%.1f%% miss rate, "
                "%zu parts server-side)\n",
                r.envelopes_missed, r.envelopes, 100 * r.deadline_miss_rate(),
                r.deadline_missed);
  }
  if (r.replicas.size() > 1) {
    std::printf("%-8s %6s %-9s %10s %10s %10s %10s %10s\n", "replica",
                "gen", "state", "routed", "batches", "admitted", "shed",
                "p99(us)");
    for (std::size_t i = 0; i < r.replicas.size(); ++i) {
      const auto& s = r.replicas[i];
      std::printf("%-8zu %6llu %-9s %10zu %10zu %10zu %10zu %10.0f\n", i,
                  static_cast<unsigned long long>(s.generation),
                  serve::replica_state_name(s.state), s.routed,
                  s.batch.batches, s.admission.admitted,
                  s.admission.rejected + s.admission.shed, s.latency.p99_us);
    }
  }
  if (!r.events.empty() && r.max_replicas_seen > 0) {
    std::printf("fleet timeline:");
    for (const auto& e : r.events) {
      std::printf(" [%.1fs %s gen %llu -> %zu]", e.t_seconds,
                  e.spawned ? "+" : "-",
                  static_cast<unsigned long long>(e.generation),
                  e.replicas_after);
      if (e.spawned && e.warmed_keys > 0) {
        std::printf(" warmed %zu rows", e.warmed_keys);
        if (e.first_window_hit_rate >= 0) {
          std::printf(" (first-window hit %.1f%%)",
                      100 * e.first_window_hit_rate);
        }
      }
      if (!e.spawned && e.handoff_keys > 0) {
        std::printf(" handed off %zu rows", e.handoff_keys);
        if (e.successor_first_window_hit_rate >= 0) {
          std::printf(" (successor first-window hit %.1f%%)",
                      100 * e.successor_first_window_hit_rate);
        }
      }
    }
    std::printf("\nreplica-seconds: %.1f provisioned, %.1f idle\n",
                r.replica_seconds, r.idle_replica_seconds);
  }
  if (!r.tenants.empty()) {
    std::printf("%-8s %10s %10s %10s %12s %10s %10s\n", "tenant", "admitted",
                "shed", "quota-ref", "samples", "p50(us)", "p99(us)");
    for (const auto& t : r.tenants) {
      std::printf("%-8u %10zu %10zu %10zu %12zu %10.0f %10.0f\n", t.tenant,
                  t.admitted, t.rejected + t.shed, t.quota_refused, t.samples,
                  t.p50_us, t.p99_us);
    }
    if (r.quota_refused_parts > 0 || r.envelopes_quota > 0) {
      std::printf("quota: %zu envelope(s) refused kQuotaExceeded "
                  "(%zu parts) at the fleet front — contract enforcement, "
                  "not overload; excluded from shed rate\n",
                  r.envelopes_quota, r.quota_refused_parts);
    }
  }
  if (r.any_cache) {
    std::printf("cache: %.1f%% aggregate hit rate across replicas "
                "(%zu rows per replica in budget)\n",
                100 * r.cache_hit_rate, r.cache_capacity_rows);
  }
  if (r.preads > 0) {
    std::printf("storage: %llu preads (batched read_rows coalesces "
                "duplicate/adjacent rows)\n",
                static_cast<unsigned long long>(r.preads));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);

  // --- Offline: graph, features, preprocessing, quick_train, deployment
  // checkpoints (+ file store at int8's codec when --source=file) — all
  // shared with bench_serving_latency through ServingTestbed. ------------
  std::printf("=== serve_cli: online PP-GNN serving ===\n");
  serve::Precision prec = serve::Precision::kFp32;
  serve::parse_precision(a.precision, &prec);
  if (a.source != "memory" && a.source != "file") {
    std::fprintf(stderr, "unknown --source=%s (memory|file)\n",
                 a.source.c_str());
    return 2;
  }
  if (a.source == "file" && a.cache != "none" && a.cache != "lru" &&
      a.cache != "static") {
    std::fprintf(stderr, "unknown --cache=%s (none|lru|static)\n",
                 a.cache.c_str());
    return 2;
  }
  serve::TestbedConfig tc;
  tc.nodes = a.nodes;
  tc.feat_dim = a.feat_dim;
  tc.classes = a.classes;
  tc.hops = a.hops;
  tc.hidden = a.hidden;
  tc.model = a.model;
  tc.train_epochs = a.train_epochs;
  tc.precision = prec;
  // Replica server processes always load features from the on-disk store
  // (there is no sharing a memory source across a process boundary).
  tc.create_store = a.source == "file" || a.remote_replicas > 0;
  tc.skew = a.skew;
  const serve::ServingTestbed tb(tc);
  std::printf("graph: %zu nodes, %zu edges; precompute: %zu hops in %.2fs "
              "(%.1f MB expanded)\n",
              tb.sbm().graph.num_nodes(), tb.sbm().graph.num_edges(),
              tb.pre().num_hops(), tb.pre().preprocess_seconds,
              static_cast<double>(tb.pre().total_bytes()) / (1024 * 1024));
  const auto file_bytes = [](const std::string& p) -> long {
    struct stat st{};
    return ::stat(p.c_str(), &st) == 0 ? static_cast<long>(st.st_size) : 0;
  };
  std::printf("model: %s via %s checkpoint %s (%ld bytes%s)\n",
              a.model.c_str(), serve::precision_name(prec),
              tb.checkpoint().c_str(), file_bytes(tb.checkpoint()),
              prec == serve::Precision::kInt8
                  ? (" vs " + std::to_string(file_bytes(tb.checkpoint_fp32())) +
                     " fp32").c_str()
                  : "");
  std::printf("serving: %zu replicas%s, policy=%s, shed_budget=%.1fms, "
              "source=%s cache=%s precision=%s\n",
              a.remote_replicas
                  ? a.remote_replicas
                  : (a.autoscale ? a.min_replicas : a.replicas),
              a.remote_replicas ? " (cross-process)"
                                : (a.autoscale ? " (autoscaling)" : ""),
              a.policy.c_str(), a.shed_budget_ms, a.source.c_str(),
              a.source == "file" ? a.cache.c_str() : "n/a",
              serve::precision_name(prec));
  if (prec == serve::Precision::kInt8) {
    std::printf("kernel: int8 GEMM arm=%s (best supported=%s; PPGNN_ISA "
                "forces)\n",
                isa_name(active_isa()), isa_name(best_supported_isa()));
  }
  if (!a.autoscale) {
    std::printf("envelope: %zu node(s)/request, deadline=%s, results=%s\n",
                a.batch_nodes,
                a.deadline_ms > 0
                    ? (std::to_string(a.deadline_ms) + "ms").c_str()
                    : "none",
                a.topk > 0 ? ("top-" + std::to_string(a.topk)).c_str()
                           : "full logits");
  }

  // --- Tenant contracts (src/tenancy/).  Built once here and passed by
  // pointer so the registry outlives every fleet in the run; calibration
  // stays untenanted (the machine baseline must not be quota-shaped).
  tenancy::TenantRegistry registry;
  const bool tenanted = a.tenants > 1 || a.tenant_rate > 0;
  const tenancy::TenantRegistry* reg = tenanted ? &registry : nullptr;
  if (tenanted) {
    std::vector<std::uint32_t> weights;
    std::string werr;
    tenancy::parse_tenant_mix(a.tenant_mix, &weights, &werr);  // pre-checked
    std::printf("tenants: %zu contract(s)\n", a.tenants);
    for (std::uint32_t t = 0; t < a.tenants; ++t) {
      tenancy::TenantContract c;
      c.rate_per_s = a.tenant_rate;
      c.burst = a.tenant_burst;
      c.weight = weights.empty() ? 1 : weights[t % weights.size()];
      registry.set_contract(t, c);
      std::printf("  tenant %u: %s\n", t, tenancy::describe(c).c_str());
    }
  }

  const auto stream = tb.stream(a.requests);

  // --- Gate: absolute floor, machine-relative, or none.  Both gating
  // modes re-measure once before failing.  Autoscale runs always need the
  // calibration (the ramp is denominated in this machine's single-replica
  // saturation). --------------------------------------------------------
  double baseline_rps = 0;
  if (a.gate == "relative" || a.autoscale) {
    // Calibrate this machine: same stream, one replica, default policy.
    const auto base = run_serving(a, tb, 1, stream);
    baseline_rps = base.rps;
    print_result("calibration: 1 replica", base);
  }

  const bool remote = a.remote_replicas > 0;
  const std::size_t fleet_size = remote ? a.remote_replicas : a.replicas;
  RunResult r =
      a.autoscale
          ? run_autoscale(a, tb, baseline_rps, a.trace_out)
          : run_serving(a, tb, fleet_size, stream, a.trace_out, remote, reg);
  print_result("measured", r);

  // Accuracy column: at int8 the gate also bounds top-1 disagreement
  // against the fp32 reference (>= 99% agreement on a workload sample).
  serve::PrecisionDrift acc;
  if (prec == serve::Precision::kInt8) {
    acc = measure_drift(tb, stream, std::min<std::size_t>(a.nodes, 2048));
    std::printf("\naccuracy vs fp32: %.2f%% top-1 agreement, max |logit "
                "err| %.4f (%zu-node sample)\n",
                100 * acc.top1_agreement, acc.max_logit_err, acc.sampled);
  }
  const double kMinAgreement = 0.99;
  const bool acc_ok = prec != serve::Precision::kInt8 ||
                      acc.top1_agreement >= kMinAgreement;

  // Relative-gate floor.  Fixed fleets must hold 90% of the calibrated
  // single-replica rate.  Autoscaled ramps answer a trace averaging
  // ~1.17x saturation, but what a fleet can PHYSICALLY answer through the
  // 2.5x phase is capped by the cores replicas can spread onto — so the
  // floor is machine-relative twice over: denominated in the calibrated
  // baseline AND in the core budget.  A fleet stuck at min replicas caps
  // at ~ (0.5 + 1.0 + 0.5)/3 = 0.67x of baseline regardless of cores, so
  // on multi-core machines the floor (0.75 x the core-capped trace mean)
  // sits well above it; on a single-core box elastic and stuck fleets are
  // physically indistinguishable and the floor degrades to a sanity
  // check.
  const double cores =
      std::max(1u, std::thread::hardware_concurrency());
  const double capacity_mult =
      (0.5 + std::min(2.5, std::max(1.0, cores - 1)) + 0.5) / 3.0;
  const double rel_factor =
      a.autoscale ? 0.75 * capacity_mult : 0.9;
  const auto gate_ok = [&](const RunResult& res) {
    if (!acc_ok) return false;  // wrong answers fail regardless of speed
    if (a.gate == "none") return true;
    if (a.gate == "relative") return res.rps >= rel_factor * baseline_rps;
    return res.rps >= a.min_rps;
  };
  bool ok = gate_ok(r);
  // Retry only throughput misses: those are machine noise, while the
  // accuracy comparison is deterministic and would fail identically.
  if (!ok && acc_ok) {
    std::printf("\ngate missed; retrying once (loaded-machine noise gets "
                "one second chance)\n");
    if (a.gate == "relative" || a.autoscale) {
      // Recalibrate too: if a co-tenant landed load after the first
      // calibration, a stale idle-machine baseline would fail both
      // attempts no matter how healthy the measured run is.
      const auto base = run_serving(a, tb, 1, stream);
      baseline_rps = base.rps;
      print_result("calibration (retry): 1 replica", base);
    }
    r = a.autoscale
            ? run_autoscale(a, tb, baseline_rps, a.trace_out)
            : run_serving(a, tb, fleet_size, stream, a.trace_out, remote,
                          reg);
    print_result("measured (retry)", r);
    ok = gate_ok(r);
  }

  std::string tenants_json = "[";
  for (std::size_t i = 0; i < r.tenants.size(); ++i) {
    if (i) tenants_json += ",";
    tenants_json += r.tenants[i].to_json();
  }
  tenants_json += "]";
  std::printf("\njson: {\"requests\":%zu,\"replicas\":%zu,\"policy\":\"%s\","
              "\"precision\":\"%s\",\"autoscale\":%s,"
              "\"remote_replicas\":%zu,\"crash_injected\":%s,"
              "\"batch_nodes\":%zu,\"deadline_ms\":%.1f,\"topk\":%zu,"
              "\"tenants_n\":%zu,\"quota_refused\":%zu,"
              "\"envelopes_quota\":%zu,\"tenants\":%s,"
              "\"envelopes\":%zu,\"deadline_miss_rate\":%.4f,"
              "\"deadline_missed\":%zu,"
              "\"max_replicas_seen\":%zu,\"replica_seconds\":%.1f,"
              "\"idle_replica_seconds\":%.1f,\"throughput_rps\":%.0f,"
              "\"baseline_rps\":%.0f,\"top1_agreement\":%.4f,"
              "\"max_logit_err\":%.5f,\"preads\":%llu,"
              "\"cache_capacity_rows\":%zu,"
              "\"latency\":%s,\"admission\":%s,\"stages\":%s,"
              "\"mean_batch\":%.1f}\n",
              stream.size(),
              remote ? a.remote_replicas
                     : (a.autoscale ? a.min_replicas : a.replicas),
              a.policy.c_str(), serve::precision_name(prec),
              a.autoscale ? "true" : "false", a.remote_replicas,
              a.kill_one_mid_run ? "true" : "false", a.batch_nodes,
              a.deadline_ms,
              a.topk, a.tenants, r.quota_refused_parts, r.envelopes_quota,
              tenants_json.c_str(),
              r.envelopes, r.deadline_miss_rate(), r.deadline_missed,
              r.max_replicas_seen,
              r.replica_seconds, r.idle_replica_seconds, r.rps, baseline_rps,
              acc.top1_agreement, acc.max_logit_err,
              static_cast<unsigned long long>(r.preads),
              r.cache_capacity_rows, r.latency.to_json().c_str(),
              r.admission.to_json().c_str(), r.stages.to_json().c_str(),
              r.mean_batch);
  // The status line carries the deadline-miss rate whenever a deadline
  // was in force — a PASS that misses half its deadlines should say so.
  char miss_note[64] = "";
  if (a.deadline_ms > 0) {
    std::snprintf(miss_note, sizeof(miss_note), ", deadline-miss %.1f%%",
                  100 * r.deadline_miss_rate());
  }
  if (!acc_ok) {
    std::printf("FAIL: int8 top-1 agreement %.2f%% below the %.0f%% bound\n",
                100 * acc.top1_agreement, 100 * kMinAgreement);
  } else if (a.gate == "relative") {
    std::printf("%s: %s sustained %.0f req/s vs single-replica baseline "
                "%.0f (relative gate: >= %.0f%%)%s\n",
                ok ? "PASS" : "FAIL",
                a.autoscale ? "autoscaled ramp" : "measured run", r.rps,
                baseline_rps, 100 * rel_factor, miss_note);
  } else if (a.gate == "absolute") {
    std::printf("%s: sustained %.0f req/s (absolute gate: %.0f req/s)%s\n",
                ok ? "PASS" : "FAIL", r.rps, a.min_rps, miss_note);
  } else {
    std::printf("PASS: gate disabled (sustained %.0f req/s)%s\n", r.rps,
                miss_note);
  }
  return ok ? 0 : 1;
}
