// primbench_runner: runs one benchmark workload and prints its result line.
//
//   primbench_runner --workload <train-small|train-paper|serve-read|serve-mutate>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    --work-dir <dir> --serve-binary <prim_serve>
//                    [--fail-check 1]
//
// The last line of stdout is one JSON object: correct, attempted, failed and
// the metrics (end-to-end with --trace 0, per-layer with --trace 1). The
// traced run also writes its own end-to-end figures to stderr as
// "primbench: traced end-to-end {...}" so the tracing overhead can be read
// off against an untraced run. Exit status: 0 when every check passed, 1
// when a check failed, 2 on a usage error.
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench_util.h"
#include "server_process.h"
#include "workloads.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "primbench_runner: %s\nusage: primbench_runner --workload "
               "<train-small|train-paper|serve-read|serve-mutate> --seed <n> "
               "--seconds <s> --trace <0|1> --work-dir <dir> --serve-binary "
               "<path> [--fail-check 1]\n",
               message);
  return 2;
}

bool ParseUnsigned(const char* text, unsigned long long* out) {
  char* end = nullptr;
  *out = std::strtoull(text, &end, 10);
  return end != text && *end == '\0' && text[0] != '-';
}

}  // namespace

int main(int argc, char** argv) {
  primbench::ProcessStartS();
  primbench::Options options;
  for (int a = 1; a + 1 < argc; a += 2) {
    const std::string flag = argv[a];
    const char* value = argv[a + 1];
    unsigned long long number = 0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--serve-binary") {
      options.serve_binary = value;
    } else if (!ParseUnsigned(value, &number)) {
      return Usage(("bad value for " + flag).c_str());
    } else if (flag == "--seed") {
      options.seed = number;
    } else if (flag == "--seconds") {
      if (number < 1 || number > 600) return Usage("--seconds must be 1..600");
      options.seconds = static_cast<int>(number);
    } else if (flag == "--trace") {
      options.trace = number != 0;
    } else if (flag == "--fail-check") {
      options.fail_check = number != 0;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("flags take one value each");
  if (options.work_dir.empty()) return Usage("--work-dir is required");
  mkdir(options.work_dir.c_str(), 0755);

  void (*run)(const primbench::Options&, primbench::Result*) = nullptr;
  if (options.workload == "train-small") run = primbench::RunTrainSmall;
  if (options.workload == "train-paper") run = primbench::RunTrainPaper;
  if (options.workload == "serve-read") run = primbench::RunServeRead;
  if (options.workload == "serve-mutate") run = primbench::RunServeMutate;
  if (run == nullptr) return Usage("unknown workload");

  primbench::InstallTeardownSignalHandlers();
  primbench::Result result;
  try {
    run(options, &result);
  } catch (const std::exception& e) {
    result.CheckFailed(std::string("exception: ") + e.what());
  }
  if (!primbench::NoChildrenLeft()) {
    std::fprintf(stderr, "primbench: a child process outlived its workload\n");
    return 1;
  }
  for (const primbench::MetricSpec& spec : primbench::EndToEndMetrics())
    if (!result.Has(spec.name))
      result.CheckFailed("end-to-end metric " + spec.name + " was not measured");
  if (result.attempted < 1) result.CheckFailed("no operation was attempted");
  if (options.trace)
    std::fprintf(stderr, "primbench: traced end-to-end %s\n",
                 result.EndToEndJson().c_str());
  std::printf("%s\n", result.Json(options.trace).c_str());
  std::fflush(stdout);
  return result.correct() ? 0 : 1;
}
