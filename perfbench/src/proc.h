// Process accounting across the front process and its replica children:
// peak resident set, CPU time and context switches, read from getrusage
// and /proc — plus the run fingerprint every result carries.
#pragma once

#include <sys/types.h>

#include <string>

namespace perfbench {

struct CpuSample {
  double user_s = 0;
  double sys_s = 0;
  double ctx_switches = 0;  // voluntary + involuntary

  CpuSample operator-(const CpuSample& o) const {
    return {user_s - o.user_s, sys_s - o.sys_s,
            ctx_switches - o.ctx_switches};
  }
  CpuSample& operator+=(const CpuSample& o) {
    user_s += o.user_s;
    sys_s += o.sys_s;
    ctx_switches += o.ctx_switches;
    return *this;
  }
  double total_s() const { return user_s + sys_s; }
};

// CPU of this process so far (getrusage RUSAGE_SELF).
CpuSample self_cpu();
// CPU of every child already reaped (getrusage RUSAGE_CHILDREN).
CpuSample reaped_children_cpu();
// CPU of a live process from /proc/<pid>/stat and /proc/<pid>/status
// (clock-tick resolution); zeros when the process is gone.
CpuSample process_cpu(pid_t pid);

// Peak resident set (VmHWM) of a live process in MiB; 0 when unreadable.
// pid 0 reads this process.
double peak_rss_mb(pid_t pid = 0);

// Run fingerprint fields.
std::string cpu_model();
unsigned online_cpus();  // as nproc(1) counts them

}  // namespace perfbench
