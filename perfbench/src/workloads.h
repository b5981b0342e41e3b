// The benchmark's workloads.  Each one builds its inputs from the
// workload seed, sets up the system through the program's public calls,
// measures for a fixed number of seconds, checks every answer, and returns
// its metrics by name.  main.cpp prints them.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;    // scratch directory for this run's artifacts
  std::string trace_path;  // Chrome trace-event output of a traced run
};

// A metric's unit is not carried here: main.cpp prints each metric with
// the unit of its table, which run.py checks against BENCHMARK.json.
struct Metric {
  std::string name;
  double value = 0;
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  // The INT8 GEMM kernel arm the serving sessions dispatch (fingerprint).
  std::string int8_arm;
  // Extra facts for the record line: key -> JSON value text.
  std::vector<std::pair<std::string, std::string>> info;

  void put(const std::string& name, double value) {
    metrics.push_back({name, value});
  }
  void note(const std::string& key, const std::string& json_value) {
    info.emplace_back(key, json_value);
  }
};

const std::vector<std::string>& workload_names();

// PPGNN_NUM_THREADS for a workload: sized so the program's hot-path
// threads (replica dispatchers or the trainer, kernel pool workers, the
// load generator) fit in the machine's cores.
std::size_t pool_threads_for(const std::string& workload);

// Runs one workload; throws std::invalid_argument for an unknown name.
RunResult run_workload(const RunArgs& args);

// JSON string literal for `s` (quotes, backslashes and control bytes
// escaped).
std::string json_string(const std::string& s);
// JSON number with every digit of `v`; null when not finite.
std::string json_number(double v);

}  // namespace perfbench
