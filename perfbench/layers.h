// Metric tables: the end-to-end metrics of an untraced run and the per-layer
// metrics of a traced one.  Names and units here must match BENCHMARK.json;
// run.py checks that they do.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// Virtual-time end-to-end metrics of one repetition: ops_per_mcycle and the
// exact latency percentiles.  Host metrics are medians over repetitions and
// are added by the caller.
std::vector<Metric> VirtualMetrics(const RunResult& run);

// Per-layer metrics of one traced repetition.  Host cost per unit of
// simulated work (the sim.* rows) is taken from `untraced`, the repetition
// run without spans, so tracing overhead does not leak into it.
std::vector<Metric> LayerMetrics(const RunResult& traced, const RunResult& untraced);

// The highest of p50/p90/p99/p99.9/p99.99 with at least ten samples beyond
// it, as a fraction; 0 when there are fewer than twenty samples.
double HighestResolvedPercentile(size_t samples);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
