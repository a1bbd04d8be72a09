// The three workloads.  Each call is one repetition: a fresh kernel, its
// set-up, the measured phase, and the correctness gate, all from `seed`.
// With `trace` the benchmark's spans around each call into a module are
// recorded; nothing else changes.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

// Closed loop at 16 CPUs: terminals dial in through the front-end demux, log
// in, run commands against a shared library and a home segment, log out and
// think.  One op is one terminal transaction.
RunResult RunRushHour(uint64_t seed, bool trace);
// Batch at 4 CPUs with asynchronous paging: more processes than virtual
// processors sweep or randomly touch a working set twice primary memory.
// One op is one user memory reference.
RunResult RunFaultStorm(uint64_t seed, bool trace);
// Closed loop at 16 CPUs over a directory tree: Zipf-popular searches,
// initiates and listings with ~5% namespace writes.  One op is one naming
// call.
RunResult RunNameChurn(uint64_t seed, bool trace);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
