// The four benchmark workloads. Each fills `result` with every end-to-end
// metric (and, when options.trace is set, the per-layer metrics it reaches)
// and records failed correctness checks in it rather than aborting, so its
// processes are always torn down before the result line is printed.
#ifndef PRIMBENCH_RUNNER_WORKLOADS_H_
#define PRIMBENCH_RUNNER_WORKLOADS_H_

#include "bench_util.h"

namespace primbench {

void RunTrainSmall(const Options& options, Result* result);
void RunTrainPaper(const Options& options, Result* result);
void RunServeRead(const Options& options, Result* result);
void RunServeMutate(const Options& options, Result* result);

}  // namespace primbench

#endif  // PRIMBENCH_RUNNER_WORKLOADS_H_
