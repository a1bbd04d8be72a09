#include "layers.h"

#include <array>
#include <cstring>

namespace perfbench {
namespace {

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// The gate operations the workloads call directly, by span name.
constexpr const char* kGateOps[] = {"search",         "initiate", "terminate", "list_names",
                                    "create_segment", "rename",   "delete",    "set_acl",
                                    "read",           "write"};

struct SpanStats {
  std::vector<uint64_t> cycles;  // virtual cycles per span
  std::vector<uint64_t> host;    // host ns per span
  uint64_t cycles_total = 0;
  uint64_t host_total = 0;

  void Add(const Span& span) {
    cycles.push_back(span.v_end - span.v_start);
    host.push_back(span.host_end - span.host_start);
    cycles_total += cycles.back();
    host_total += host.back();
  }
  double HostMedian() const {
    std::vector<double> values(host.begin(), host.end());
    return Median(std::move(values));
  }
};

}  // namespace

double HighestResolvedPercentile(size_t samples) {
  double best = 0;
  for (double p : {0.5, 0.9, 0.99, 0.999, 0.9999}) {
    if (static_cast<double>(samples) * (1 - p) >= 10) {
      best = p;
    }
  }
  return best;
}

std::vector<Metric> VirtualMetrics(const RunResult& run) {
  return {
      {"ops_per_mcycle", Ratio(static_cast<double>(run.ops) * 1e6, run.makespan), "ops/Mcyc"},
      {"lat_p50_cyc", static_cast<double>(Percentile(run.latencies, 0.50)), "cyc"},
      {"lat_p99_cyc", static_cast<double>(Percentile(run.latencies, 0.99)), "cyc"},
  };
}

std::vector<Metric> LayerMetrics(const RunResult& traced, const RunResult& untraced) {
  const Counters& d = traced.delta;
  auto c = [&](std::string_view name) { return static_cast<double>(Get(d, name)); };
  const double vcycles = static_cast<double>(traced.vcycles);

  // Spans by name, and self time (duration minus children) by layer.
  std::map<std::string, SpanStats, std::less<>> by_name;
  std::array<uint64_t, static_cast<size_t>(Layer::kCount)> self_host{};
  std::array<uint64_t, static_cast<size_t>(Layer::kCount)> self_cycles{};
  std::vector<uint64_t> child_host(traced.spans.size(), 0);
  std::vector<uint64_t> child_cycles(traced.spans.size(), 0);
  uint64_t root_host = 0;
  uint64_t root_cycles = 0;
  SpanStats gates_all;
  for (size_t i = 0; i < traced.spans.size(); ++i) {
    const Span& span = traced.spans[i];
    by_name[span.name].Add(span);
    if (span.layer == Layer::kGates) {
      gates_all.Add(span);
    }
    const uint64_t host = span.host_end - span.host_start;
    const uint64_t cycles = span.v_end - span.v_start;
    if (span.parent < 0) {
      root_host += host;
      root_cycles += cycles;
    } else {
      child_host[static_cast<size_t>(span.parent)] += host;
      child_cycles[static_cast<size_t>(span.parent)] += cycles;
    }
  }
  // Children close before their parent, so every child total is complete
  // once the loop above has run.
  for (size_t i = 0; i < traced.spans.size(); ++i) {
    const Span& span = traced.spans[i];
    const size_t layer = static_cast<size_t>(span.layer);
    const uint64_t host = span.host_end - span.host_start;
    const uint64_t cycles = span.v_end - span.v_start;
    self_host[layer] += host > child_host[i] ? host - child_host[i] : 0;
    self_cycles[layer] += cycles > child_cycles[i] ? cycles - child_cycles[i] : 0;
  }
  auto stats = [&](std::string_view name) -> const SpanStats& {
    static const SpanStats kEmpty;
    auto it = by_name.find(name);
    return it == by_name.end() ? kEmpty : it->second;
  };
  auto pct = [&](std::string_view name, double p) {
    return static_cast<double>(Percentile(stats(name).cycles, p));
  };

  std::vector<Metric> out;
  // net: the front-end demux and the terminal protocol.
  const double frames = c("net.demux_frames");
  const SpanStats& tty = stats("tty.line");
  out.push_back({"net.frames", frames, "count"});
  out.push_back({"net.drop_ratio", Ratio(c("net.demux_drops"), frames + c("net.demux_drops")),
                 "ratio"});
  out.push_back({"net.cyc_per_frame", Ratio(tty.cycles_total, frames), "cyc"});
  out.push_back({"net.host_ns_per_frame", Ratio(tty.host_total, frames), "ns"});
  // answering: session establishment and teardown.
  const double phases = c("answering.phase_auth_cycles") + c("answering.phase_process_cycles") +
                        c("answering.phase_homedir_cycles") +
                        c("answering.phase_accounting_cycles");
  const double session_cycles = stats("login").cycles_total + stats("logout").cycles_total;
  out.push_back({"answering.login_cyc_p50", pct("login", 0.50), "cyc"});
  out.push_back({"answering.login_cyc_p99", pct("login", 0.99), "cyc"});
  out.push_back({"answering.logout_cyc_p50", pct("logout", 0.50), "cyc"});
  out.push_back({"answering.login_host_us", stats("login").HostMedian() / 1e3, "us"});
  out.push_back({"answering.auth_share", Ratio(c("answering.phase_auth_cycles"), phases),
                 "ratio"});
  out.push_back({"answering.table_spin_share",
                 Ratio(c("answering.session_lock_spin_cycles"), session_cycles), "ratio"});
  out.push_back({"answering.skel_hit_ratio",
                 Ratio(c("answering.skel_hits"),
                       c("answering.skel_hits") + c("answering.skel_misses")),
                 "ratio"});
  // fs: user-ring path walking.
  out.push_back({"fs.walk_cyc_p50", pct("walk", 0.50), "cyc"});
  out.push_back({"fs.walk_cyc_p99", pct("walk", 0.99), "cyc"});
  out.push_back({"fs.walk_host_ns", stats("walk").HostMedian(), "ns"});
  out.push_back({"fs.read_write_ratio",
                 Ratio(static_cast<double>(traced.walker_reads),
                       static_cast<double>(std::max<uint64_t>(traced.walker_writes, 1))),
                 "ratio"});
  // kernel gates, directory and known segment managers.
  for (const char* op : kGateOps) {
    out.push_back({std::string("gates.") + op + "_cyc_p50", pct(op, 0.50), "cyc"});
    out.push_back({std::string("gates.") + op + "_cyc_p99", pct(op, 0.99), "cyc"});
  }
  out.push_back({"gates.host_ns_per_call",
                 Ratio(gates_all.host_total, static_cast<double>(gates_all.host.size())), "ns"});
  out.push_back({"dir.read_spin_share", Ratio(c("dir.read_spin_cycles"), vcycles), "ratio"});
  out.push_back({"dir.write_spin_share", Ratio(c("dir.write_spin_cycles"), vcycles), "ratio"});
  out.push_back({"dir.revocation_cyc_per_write",
                 Ratio(c("dir.revocation_cycles"), c("dir.write_sections")), "cyc"});
  out.push_back({"ksm.read_spin_share", Ratio(c("ksm.read_spin_cycles"), vcycles), "ratio"});
  // page frame manager and disk.
  const double faults = c("pfm.faults_serviced");
  out.push_back({"pfm.faults_per_kref", Ratio(faults * 1000, c("hw.translations")), "count"});
  out.push_back({"pfm.inline_eviction_ratio",
                 Ratio(c("pfm.inline_evictions"), c("pfm.evictions")), "ratio"});
  out.push_back({"pfm.prefetch_hit_ratio",
                 Ratio(c("pfm.prefetch_hits"), c("pfm.prefetch_issued")), "ratio"});
  out.push_back({"pfm.writebacks_per_fault", Ratio(c("pfm.writebacks"), faults), "ratio"});
  const double disk_io = c("disk.reads") + c("disk.writes");
  out.push_back({"disk.io_per_fault", Ratio(disk_io, faults), "ratio"});
  out.push_back({"disk.io_per_kref", Ratio(disk_io * 1000, c("hw.translations")), "count"});
  out.push_back({"disk.batch_size",
                 Ratio(c("disk.batched_records"), c("disk.batch_dispatches")), "count"});
  out.push_back({"gates.locked_descriptor_waits", c("gates.locked_descriptor_waits"), "count"});
  // hw: descriptor associative memory and the interconnect.
  out.push_back({"hw.assoc_hit_ratio",
                 Ratio(c("hw.assoc_hits"), c("hw.assoc_hits") + c("hw.assoc_misses")), "ratio"});
  out.push_back({"hw.connect_cycles_share", Ratio(c("hw.connect_cycles"), vcycles), "ratio"});
  // uproc, vproc, sync: scheduling.
  const double quanta = static_cast<double>(SumMatching(d, "smp.cpu", ".quanta"));
  out.push_back({"uproc.idle_share",
                 Ratio(static_cast<double>(traced.idle_cpu_cycles),
                       static_cast<double>(traced.makespan) * traced.cpus),
                 "ratio"});
  out.push_back({"sched.spin_share",
                 Ratio(c("runq.lock_spin_cycles") + c("sched.list_lock_spin_cycles"), vcycles),
                 "ratio"});
  out.push_back({"runq.steals_per_kquanta", Ratio(c("runq.steals") * 1000, quanta), "count"});
  out.push_back({"sched.migration_cycles_share",
                 Ratio(c("sched.proc_migration_cycles") + c("vproc.vp_migration_cycles"), vcycles),
                 "ratio"});
  // The benchmark's own job releases (fault_storm) are eventcount advances
  // too; only the kernel's count.
  out.push_back({"sync.advances_per_fault",
                 Ratio(c("sync.advances") - static_cast<double>(traced.bench_advances), faults),
                 "ratio"});
  // sim: the simulator's own host cost per unit of simulated work.
  const double host_ns = untraced.measure_s * 1e9;
  out.push_back({"sim.host_ns_per_ref",
                 Ratio(host_ns, static_cast<double>(Get(untraced.delta, "hw.translations"))),
                 "ns"});
  out.push_back({"sim.host_ns_per_quantum",
                 Ratio(host_ns,
                       static_cast<double>(SumMatching(untraced.delta, "smp.cpu", ".quanta"))),
                 "ns"});
  out.push_back({"sim.vcyc_per_host_s",
                 Ratio(static_cast<double>(untraced.vcycles), untraced.measure_s), "cyc/s"});
  // Self time by layer, as shares of the root spans' totals.
  for (size_t layer = 0; layer < self_host.size(); ++layer) {
    const std::string name = LayerName(static_cast<Layer>(layer));
    out.push_back({"self." + name + "_host_share",
                   Ratio(static_cast<double>(self_host[layer]), static_cast<double>(root_host)),
                   "ratio"});
    out.push_back({"self." + name + "_cyc_share",
                   Ratio(static_cast<double>(self_cycles[layer]),
                         static_cast<double>(root_cycles)),
                   "ratio"});
  }
  return out;
}

}  // namespace perfbench
