// perfbench: the repository benchmark's binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR [--trace-out FILE] [--commit SHA]
//
// Runs one workload (workloads.h) and prints two JSON lines: a record of
// the run (fingerprint plus per-workload facts), then, last, the result:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones of a separate traced run, with 0 for a layer the
// workload does not exercise.  Exits non-zero, printing no result, when
// the workload cannot run.
#include <signal.h>
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "proc.h"
#include "tensor/cpu_features.h"
#include "workloads.h"

namespace {

using perfbench::json_number;
using perfbench::json_string;

// Every metric the benchmark reports, in print order.
struct MetricSpec {
  const char* name;
  const char* unit;
};

const std::vector<MetricSpec> kEndToEnd = {
    {"nodes_per_s", "1/s"},  {"lat_p50_ms", "ms"},
    {"lat_p99_ms", "ms"},    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},  {"cpu_ms_per_knode", "ms"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"serve.submit_us", "us"},
    {"serve.front_self_us", "us"},
    {"serve.queue_wait_us", "us"},
    {"serve.dispatch_us", "us"},
    {"serve.compute_us", "us"},
    {"serve.batch_rows", "rows"},
    {"serve.batches", "count"},
    {"gather.us_per_row", "us"},
    {"gather.busy_frac", "frac"},
    {"cache.hit_rate", "frac"},
    {"storage.preads_per_batch", "count"},
    {"forward.us_per_row", "us"},
    {"forward.busy_frac", "frac"},
    {"forward.gop_per_s", "Gop/s"},
    {"ledger.compute_cover", "frac"},
    {"rpc.wire_us", "us"},
    {"rpc.frames_per_writev", "count"},
    {"rpc.bytes_per_syscall", "B"},
    {"rpc.pool_hit_rate", "frac"},
    {"rpc.allocs_per_frame", "count"},
    {"tenancy.quota_refused", "count"},
    {"tenancy.p99_spread", "ratio"},
    {"train.load_wait_s", "s"},
    {"train.forward_s", "s"},
    {"train.backward_s", "s"},
    {"train.optim_s", "s"},
    {"train.other_s", "s"},
    {"precompute.s", "s"},
    {"train.final_loss", "loss"},
    {"proc.cpu_user_s", "s"},
    {"proc.cpu_sys_s", "s"},
    {"proc.ctx_switches", "count"},
    {"gen.max_gap_ms", "ms"},
    {"trace.overhead_frac", "frac"},
};

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --work-dir DIR [--trace-out FILE] "
               "[--commit SHA]\n",
               msg.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) != 0) usage_error("bad argument " + a);
    a = a.substr(2);
    const auto eq = a.find('=');
    if (eq != std::string::npos) {
      kv[a.substr(0, eq)] = a.substr(eq + 1);
    } else if (i + 1 < argc) {
      kv[a] = argv[++i];
    } else {
      usage_error("missing value for --" + a);
    }
  }
  perfbench::RunArgs args;
  std::string commit = "unknown";
  try {
    for (const auto& [k, v] : kv) {
      if (k == "workload") args.workload = v;
      else if (k == "seed") args.seed = std::stoull(v);
      else if (k == "seconds") args.seconds = std::stod(v);
      else if (k == "trace") args.trace = std::stoi(v) != 0;
      else if (k == "work-dir") args.work_dir = v;
      else if (k == "trace-out") args.trace_path = v;
      else if (k == "commit") commit = v;
      else usage_error("unknown flag --" + k);
    }
  } catch (const std::exception&) {
    usage_error("bad value");
  }
  bool known = false;
  for (const auto& w : perfbench::workload_names()) known |= w == args.workload;
  if (!known) usage_error("unknown --workload '" + args.workload + "'");
  if (!(args.seconds > 0)) usage_error("--seconds must be positive");
  if (args.work_dir.empty()) usage_error("--work-dir is required");
  ::mkdir(args.work_dir.c_str(), 0755);

  // Pinned before the first kernel call creates the thread pool; replica
  // processes inherit it.
  const std::size_t threads = perfbench::pool_threads_for(args.workload);
  ::setenv("PPGNN_NUM_THREADS", std::to_string(threads).c_str(), 1);
  ::signal(SIGPIPE, SIG_IGN);

  perfbench::RunResult r;
  try {
    r = perfbench::run_workload(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }

  std::map<std::string, perfbench::Metric> got;
  for (const auto& m : r.metrics) got[m.name] = m;
  const auto& wanted = args.trace ? kPerLayer : kEndToEnd;
  std::string metrics = "{";
  for (std::size_t i = 0; i < wanted.size(); ++i) {
    const auto it = got.find(wanted[i].name);
    if (!args.trace && it == got.end()) {
      std::fprintf(stderr, "perfbench: %s did not measure %s\n",
                   args.workload.c_str(), wanted[i].name);
      return 1;
    }
    const double v = it == got.end() ? 0.0 : it->second.value;
    metrics += std::string(i ? ", " : "") + json_string(wanted[i].name) +
               ": {\"value\": " + json_number(v) +
               ", \"unit\": " + json_string(wanted[i].unit) + "}";
  }
  metrics += "}";

  std::string record =
      "{\"fingerprint\": {\"workload\": " + json_string(args.workload) +
      ", \"seed\": " + std::to_string(args.seed) +
      ", \"seconds\": " + json_number(args.seconds) +
      ", \"trace\": " + (args.trace ? "1" : "0") +
      ", \"nproc\": " + std::to_string(perfbench::online_cpus()) +
      ", \"cpu_model\": " + json_string(perfbench::cpu_model()) +
      ", \"active_isa\": " + json_string(ppgnn::isa_name(ppgnn::active_isa())) +
      ", \"int8_arm\": " + json_string(r.int8_arm) +
      ", \"PPGNN_NUM_THREADS\": " + std::to_string(threads) +
      ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
      ", \"commit\": " + json_string(commit) + "}, \"info\": {";
  for (std::size_t i = 0; i < r.info.size(); ++i) {
    record += std::string(i ? ", " : "") + json_string(r.info[i].first) +
              ": " + r.info[i].second;
  }
  record += "}}";
  std::printf("%s\n", record.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              r.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  std::fflush(stdout);
  return 0;
}
