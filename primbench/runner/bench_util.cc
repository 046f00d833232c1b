#include "bench_util.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace primbench {

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessStartS() {
  static const double start = NowS();
  return start;
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50.0); }

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const size_t index =
      static_cast<size_t>(std::clamp(rank, 1.0, static_cast<double>(v.size())));
  return v[index - 1];
}

CpuCounters SelfCpu() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  CpuCounters out;
  out.user_s = usage.ru_utime.tv_sec + usage.ru_utime.tv_usec * 1e-6;
  out.sys_s = usage.ru_stime.tv_sec + usage.ru_stime.tv_usec * 1e-6;
  out.minflt = usage.ru_minflt;
  return out;
}

double PeakRssMb(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      if (fields >> kb) return kb / 1024.0;
    }
  }
  return -1.0;
}

double ProcessCpuSeconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // The command name is parenthesised and may hold spaces: fields restart
  // after the last ')'. utime and stime are fields 14 and 15.
  const size_t close = text.rfind(')');
  if (close == std::string::npos) return -1.0;
  std::istringstream fields(text.substr(close + 2));
  std::string skip;
  for (int f = 3; f < 14; ++f) fields >> skip;
  double utime = 0.0, stime = 0.0;
  if (!(fields >> utime >> stime)) return -1.0;
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

void Result::Set(const std::string& name, double value) {
  values_[name] = value;
}

bool Result::Has(const std::string& name) const {
  return values_.count(name) > 0;
}

void Result::CheckFailed(const std::string& what) {
  if (correct_) std::fprintf(stderr, "primbench: CHECK FAILED: %s\n", what.c_str());
  correct_ = false;
}

namespace {

std::string FormatValue(double v) {
  if (!std::isfinite(v)) v = kMissing;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string MetricsObject(const std::vector<MetricSpec>& specs,
                          const std::map<std::string, double>& values) {
  std::string out = "{";
  for (size_t m = 0; m < specs.size(); ++m) {
    const auto it = values.find(specs[m].name);
    const double v = it == values.end() ? 0.0 : it->second;
    if (m > 0) out += ", ";
    out += "\"" + specs[m].name + "\": {\"value\": " +
           FormatValue(v) + ", \"unit\": \"" + specs[m].unit + "\"}";
  }
  return out + "}";
}

}  // namespace

std::string Result::Json(bool trace) const {
  const std::vector<MetricSpec>& specs =
      trace ? PerLayerMetrics() : EndToEndMetrics();
  return "{\"correct\": " + std::string(correct_ ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) +
         ", \"metrics\": " + MetricsObject(specs, values_) + "}";
}

std::string Result::EndToEndJson() const {
  return MetricsObject(EndToEndMetrics(), values_);
}

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"job_s", "s"},
      {"p50_ms", "ms"},
      {"peak_rss_mb", "MB"},
  };
  return specs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> s = {
        // Workload-level figures behind the role metrics.
        {"fit_s", "s"},
        {"epoch_ms", "ms"},
        {"macro_f1", "1"},
        {"encode_ms", "ms"},
        {"classify_p50_ms", "ms"},
        {"topk_p50_ms", "ms"},
        {"p99_ms", "ms"},
        {"max_rps", "req/s"},
        {"mutate_p50_ms", "ms"},
        {"compact_ms", "ms"},
        {"reload_ms", "ms"},
        // train: per-epoch time of each step phase.
        {"train.assemble_ms", "ms"},
        {"train.forward_ms", "ms"},
        {"train.loss_ms", "ms"},
        {"train.backward_ms", "ms"},
        {"train.step_ms", "ms"},
        {"train.eval_ms", "ms"},
    };
    // nn: the op profiler's rows, per epoch.
    static const char* const kOps[] = {"MatMul",         "FusedGammaSegSum",
                                       "FusedAttnScore", "SegmentSoftmax",
                                       "Tanh",           "Gather"};
    for (const char* op : kOps) {
      const std::string prefix = std::string("nn.") + op;
      s.push_back({prefix + ".ms", "ms"});
      s.push_back({prefix + ".bwd.ms", "ms"});
      s.push_back({prefix + ".gflops", "GFLOP/s"});
    }
    const std::vector<MetricSpec> rest = {
        // Process counters per epoch (common/parallel's thread overhead and
        // allocation churn).
        {"proc.cpu_util", "1"},
        {"proc.sys_s", "s"},
        {"proc.minflt", "count"},
        // Set-up.
        {"data.generate_s", "s"},
        {"train.prepare_s", "s"},
        {"io.save_ms", "ms"},
        {"io.load_ms", "ms"},
        // serve: numbers the server reports over STATS and /proc.
        {"serve.classify_handler_us", "us"},
        {"serve.topk_handler_us", "us"},
        {"serve.net.classify_p50_ms", "ms"},
        {"serve.net.topk_p50_ms", "ms"},
        {"serve.net.addrel_p50_ms", "ms"},
        {"serve.cache_hit_ratio", "1"},
        {"serve.coalesced_share", "1"},
        {"serve.overlay_edges", "count"},
        {"serve.compactions", "count"},
        {"serve.cpu_ms_per_req", "ms"},
        // The load generator's own health.
        {"loadgen.lag_p99_ms", "ms"},
    };
    s.insert(s.end(), rest.begin(), rest.end());
    return s;
  }();
  return specs;
}

}  // namespace primbench
