// The repository benchmark.
//
//   perfbench --workload <rush_hour|fault_storm|name_churn> --seed <n>
//             --seconds <s> --trace <0|1> [--spans <file>]
//
// Repeats the workload (fresh kernel, set-up, measured phase, correctness
// gate) with the same seed until `seconds` have passed and at least three
// repetitions ran.  Every repetition must produce the same digest of its
// virtual-time outputs.  With --trace 0 the last line reports the end-to-end
// metrics; with --trace 1 untraced and traced repetitions alternate, their
// digests must agree, and the last line reports the per-layer metrics of the
// traced ones plus the host overhead of tracing.  Exits nonzero when any
// correctness check fails.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "layers.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr size_t kMinRepetitions = 3;
constexpr size_t kMaxRepetitions = 64;

struct Workload {
  const char* name;
  RunResult (*run)(uint64_t seed, bool trace);
};

constexpr Workload kWorkloads[] = {
    {"rush_hour", RunRushHour},
    {"fault_storm", RunFaultStorm},
    {"name_churn", RunNameChurn},
};

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void PrintResult(bool correct, const RunResult& run, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              correct ? "true" : "false", run.attempted, run.failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

// Writes the first kMaxWrittenSpans spans as CSV (the longest runs record
// millions; the prefix is enough to inspect any request end to end).
constexpr size_t kMaxWrittenSpans = 100000;

void WriteSpans(const char* path, const std::vector<Span>& spans) {
  FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write spans to %s\n", path);
    return;
  }
  std::fprintf(f, "index,name,layer,parent,request,host_start_ns,host_end_ns,v_start,v_end\n");
  for (size_t i = 0; i < spans.size() && i < kMaxWrittenSpans; ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "%zu,%s,%s,%d,%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 "\n",
                 i, s.name, LayerName(s.layer), s.parent, s.request, s.host_start, s.host_end,
                 s.v_start, s.v_end);
  }
  std::fclose(f);
}

// Median of each metric across repetitions (metric lists share one order).
std::vector<Metric> MedianMetrics(const std::vector<std::vector<Metric>>& reps) {
  std::vector<Metric> out = reps.front();
  for (size_t m = 0; m < out.size(); ++m) {
    std::vector<double> values;
    for (const auto& rep : reps) {
      values.push_back(rep[m].value);
    }
    out[m].value = Median(std::move(values));
  }
  return out;
}

struct RepTimes {
  double setup_s = 0;
  double measure_s = 0;
  double calibration_s = 0;  // host-speed probe, mean of before and after
  double traced_s = 0;       // the paired traced repetition's measured phase
  double speed() const { return calibration_s / kCalibrationReferenceSeconds; }
};

// A repetition fails the run when its own gate failed or when its virtual
// outputs differ from the first repetition's.
std::string Check(const RunResult& run, const RunResult& first) {
  if (!run.error.empty()) {
    return run.error;
  }
  if (run.digest != first.digest) {
    return "repetitions of one seed disagree in virtual time";
  }
  return "";
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <rush_hour|fault_storm|name_churn> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <file>]\n");
  return 2;
}

int Main(int argc, char** argv) {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  double seconds = -1;
  int trace = -1;
  const char* spans_path = nullptr;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    if (std::strcmp(flag, "--workload") == 0) {
      for (const Workload& w : kWorkloads) {
        if (std::strcmp(w.name, value) == 0) {
          workload = &w;
        }
      }
    } else if (std::strcmp(flag, "--seed") == 0) {
      seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      seconds = std::strtod(value, nullptr);
    } else if (std::strcmp(flag, "--trace") == 0) {
      trace = std::atoi(value);
    } else if (std::strcmp(flag, "--spans") == 0) {
      spans_path = value;
    } else {
      return Usage();
    }
  }
  if (workload == nullptr || seconds < 0 || (trace != 0 && trace != 1) || argc % 2 != 1) {
    return Usage();
  }

  // Every repetition leaves its host times; only the first keeps its samples
  // and counters.  Peak memory is read as the first repetition ends, so it
  // is one repetition's peak, whatever the number of repetitions a host
  // fits into `seconds`.
  const uint64_t wall_start = HostNs();
  double peak_rss_mb = 0;
  RunResult first;
  std::vector<RepTimes> reps;
  std::vector<std::vector<Metric>> layer_reps;
  std::string error;
  while (true) {
    const double probe_before = CalibrationSeconds();
    RunResult run = workload->run(seed, false);
    if (reps.empty()) {
      peak_rss_mb = PeakRssMiB();
    }
    const double probe_after = CalibrationSeconds();
    if (reps.empty()) {
      first = run;
    }
    error = Check(run, first);
    RepTimes times{run.setup_s, run.measure_s, (probe_before + probe_after) / 2, 0};
    if (error.empty() && trace == 1) {
      const RunResult traced = workload->run(seed, true);
      error = Check(traced, first);
      if (error.empty()) {
        layer_reps.push_back(LayerMetrics(traced, run));
        times.traced_s = traced.measure_s;
        if (spans_path != nullptr && layer_reps.size() == 1) {
          WriteSpans(spans_path, traced.spans);
        }
      }
    }
    reps.push_back(times);
    const double elapsed = static_cast<double>(HostNs() - wall_start) / 1e9;
    if (!error.empty() || reps.size() >= kMaxRepetitions ||
        (reps.size() >= kMinRepetitions && elapsed >= seconds)) {
      break;
    }
  }

  const std::vector<Metric> virt = VirtualMetrics(first);
  std::printf("perfbench workload=%s seed=%" PRIu64 " trace=%d repetitions=%zu\n",
              workload->name, seed, trace, reps.size() + layer_reps.size());
  std::printf("digest %016" PRIx64 " (counters and virtual metrics; %s across repetitions)\n",
              first.digest, error.empty() ? "identical" : "NOT identical");
  std::printf("virtual ops=%" PRIu64 " attempted=%" PRIu64 " failed=%" PRIu64
              " fail_ratio=%g makespan=%" PRIu64 " cycles=%" PRIu64 " idle_cpu_cycles=%" PRIu64
              "\n",
              first.ops, first.attempted, first.failed,
              first.attempted == 0 ? 0.0 : static_cast<double>(first.failed) / first.attempted,
              first.makespan, first.vcycles, first.idle_cpu_cycles);
  for (const Metric& m : virt) {
    std::printf("virtual %s=%.17g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const double resolved = HighestResolvedPercentile(first.latencies.size());
  std::printf("latency samples=%zu p90=%" PRIu64 " p99.9=%" PRIu64
              " highest percentile with >=10 samples beyond: p%g = %" PRIu64 " cyc\n",
              first.latencies.size(), Percentile(first.latencies, 0.90),
              Percentile(first.latencies, 0.999), resolved * 100,
              Percentile(first.latencies, resolved));
  // Every kernel counter that moved in the measured phase (part of the
  // digest), then each repetition's host times.
  for (const auto& [name, value] : first.delta) {
    if (value != 0) {
      std::printf("counter %s=%" PRIu64 "\n", name.c_str(), value);
    }
  }
  for (const RepTimes& rep : reps) {
    std::printf("rep setup_s=%.6f measure_s=%.6f calibration_s=%.6f traced_s=%.6f\n",
                rep.setup_s, rep.measure_s, rep.calibration_s, rep.traced_s);
  }
  if (!error.empty()) {
    std::fprintf(stderr, "correctness gate failed: %s\n", error.c_str());
  }

  std::vector<Metric> metrics;
  if (trace == 0) {
    // Host times in seconds of the reference machine (see CalibrationSeconds).
    std::vector<double> setup;
    std::vector<double> rate;
    std::vector<double> raw_setup;
    std::vector<double> raw_rate;
    for (const RepTimes& rep : reps) {
      raw_setup.push_back(rep.setup_s);
      raw_rate.push_back(static_cast<double>(first.ops) / rep.measure_s);
      setup.push_back(raw_setup.back() / rep.speed());
      rate.push_back(raw_rate.back() * rep.speed());
    }
    std::vector<double> probes;
    for (const RepTimes& rep : reps) {
      probes.push_back(rep.calibration_s);
    }
    std::printf("host unscaled: setup_s=%.6f host_ops_per_s=%.1f probe_s=%.6f (reference %.3f)\n",
                Median(raw_setup), Median(raw_rate), Median(probes),
                kCalibrationReferenceSeconds);
    metrics.push_back({"setup_s", Median(setup), "s"});
    metrics.push_back({"host_ops_per_s", Median(rate), "ops/s"});
    metrics.push_back({"peak_rss_mb", peak_rss_mb, "MiB"});
    metrics.insert(metrics.end(), virt.begin(), virt.end());
  } else if (!layer_reps.empty()) {
    std::vector<double> plain_s;
    std::vector<double> traced_s;
    for (size_t i = 0; i < layer_reps.size(); ++i) {
      plain_s.push_back(reps[i].measure_s);
      traced_s.push_back(reps[i].traced_s);
    }
    metrics = MedianMetrics(layer_reps);
    metrics.push_back(
        {"trace.host_overhead", Median(traced_s) / Median(plain_s) - 1, "ratio"});
  }
  PrintResult(error.empty(), first, metrics);
  return error.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
