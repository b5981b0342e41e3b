#include "proc.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <fstream>
#include <sstream>
#include <string>

namespace perfbench {

namespace {

double tv_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

CpuSample from_rusage(int who) {
  rusage ru{};
  ::getrusage(who, &ru);
  return {tv_seconds(ru.ru_utime), tv_seconds(ru.ru_stime),
          static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw)};
}

std::string proc_path(pid_t pid, const char* leaf) {
  return pid == 0 ? std::string("/proc/self/") + leaf
                  : "/proc/" + std::to_string(pid) + "/" + leaf;
}

// Value of a "Key:   123 kB"-style line of /proc/<pid>/status, or -1.
double status_field(pid_t pid, const std::string& key) {
  std::ifstream in(proc_path(pid, "status"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) == 0 && line.size() > key.size() &&
        line[key.size()] == ':') {
      return std::stod(line.substr(key.size() + 1));
    }
  }
  return -1;
}

}  // namespace

CpuSample self_cpu() { return from_rusage(RUSAGE_SELF); }
CpuSample reaped_children_cpu() { return from_rusage(RUSAGE_CHILDREN); }

CpuSample process_cpu(pid_t pid) {
  std::ifstream in(proc_path(pid, "stat"));
  std::string stat;
  if (!std::getline(in, stat)) return {};
  // Fields after the parenthesised command name, which may hold spaces.
  const auto close = stat.rfind(')');
  if (close == std::string::npos) return {};
  std::istringstream rest(stat.substr(close + 2));
  std::string field;
  double utime = 0, stime = 0;
  // rest starts at field 3 (state); utime and stime are fields 14 and 15.
  for (int f = 3; f <= 15 && rest >> field; ++f) {
    if (f == 14) utime = std::stod(field);
    if (f == 15) stime = std::stod(field);
  }
  const double hz = static_cast<double>(::sysconf(_SC_CLK_TCK));
  const double vol = status_field(pid, "voluntary_ctxt_switches");
  const double invol = status_field(pid, "nonvoluntary_ctxt_switches");
  return {utime / hz, stime / hz,
          (vol > 0 ? vol : 0) + (invol > 0 ? invol : 0)};
}

double peak_rss_mb(pid_t pid) {
  const double kb = status_field(pid, "VmHWM");
  return kb > 0 ? kb / 1024.0 : 0;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

unsigned online_cpus() {
  // The CPUs this process may run on, as nproc(1) counts them.
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  const int n = CPU_COUNT(&set);
  return n > 0 ? static_cast<unsigned>(n) : 1u;
}

}  // namespace perfbench
