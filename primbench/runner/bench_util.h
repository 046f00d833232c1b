// Shared plumbing of the benchmark runner: clocks, order statistics,
// process counters, the result line, and the metric catalogue every workload
// reports against.
#ifndef PRIMBENCH_RUNNER_BENCH_UTIL_H_
#define PRIMBENCH_RUNNER_BENCH_UTIL_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace primbench {

/// Command line of one benchmark run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Test hook: makes one correctness check fail once the workload's
  /// processes are up, so the tests can show the failure path tears them
  /// down too.
  bool fail_check = false;
  /// Directory (inside the checkout) for checkpoints and server logs.
  std::string work_dir;
  /// The prim_serve binary to start for serving workloads.
  std::string serve_binary;
};

/// Monotonic seconds.
double NowS();
/// Monotonic seconds at process start (first call happens in main()).
double ProcessStartS();

double Median(std::vector<double> v);
/// Nearest-rank percentile, p in [0, 100].
double Percentile(std::vector<double> v, double p);

/// getrusage(RUSAGE_SELF) snapshot.
struct CpuCounters {
  double user_s = 0.0;
  double sys_s = 0.0;
  long minflt = 0;
};
CpuCounters SelfCpu();

/// Peak resident set (VmHWM) of `pid` (0 = this process) in MB; -1 if the
/// status file cannot be read.
double PeakRssMb(pid_t pid);
/// utime + stime of `pid` from /proc/<pid>/stat in seconds; -1 on failure.
double ProcessCpuSeconds(pid_t pid);

/// Outcome of one run: operation counts, the correctness verdict and the
/// metrics in the order they were set.
class Result {
 public:
  void Set(const std::string& name, double value);
  bool Has(const std::string& name) const;
  /// Records a failed correctness check (the run stays alive so every
  /// process still gets torn down) and logs it to stderr.
  void CheckFailed(const std::string& what);
  bool correct() const { return correct_; }

  int64_t attempted = 0;
  int64_t failed = 0;

  /// The result line: the end-to-end metrics (trace off) or the per-layer
  /// metrics (trace on). Per-layer metrics the workload did not reach are
  /// reported as 0.
  std::string Json(bool trace) const;
  /// The end-to-end metrics as a JSON object, for the traced run's stderr
  /// report (tracing overhead is the gap to an untraced run).
  std::string EndToEndJson() const;

 private:
  bool correct_ = true;
  std::map<std::string, double> values_;
};

/// One metric of the catalogue in BENCHMARK.json.
struct MetricSpec {
  std::string name;
  std::string unit;
};
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

/// Sentinel for a per-layer number the program no longer exposes (a STATS
/// key a later version removed): reported, never counted as a failure.
inline constexpr double kMissing = -1.0;

}  // namespace primbench

#endif  // PRIMBENCH_RUNNER_BENCH_UTIL_H_
