#include "src/net/kernel_stack.h"

namespace mks {

Frame TrafficGenerator::NextFrame() {
  Frame frame;
  frame.subchannel = SubchannelId(static_cast<uint16_t>(rng_.NextBelow(subchannels_)));
  const double kind = rng_.NextDouble();
  if (kind < 0.05) {
    frame.type = frame_type::kOpen;
  } else if (kind < 0.07) {
    frame.type = frame_type::kClose;
  } else {
    frame.type = frame_type::kData;
    frame.seq = next_seq_[frame.subchannel.value]++;
    const uint32_t words = static_cast<uint32_t>(1 + rng_.NextBelow(8));
    for (uint32_t i = 0; i < words; ++i) {
      frame.payload.push_back(rng_.Next() & 0x7f7f7f7fULL);
    }
  }
  return frame;
}

namespace {
// Per-frame protocol work, in optimized-equivalent cycles.
constexpr Cycles kParseCost = 12;
constexpr Cycles kDeliverCost = 6;
constexpr Cycles kAckCost = 8;
}  // namespace

uint64_t InKernelNetworkStack::PumpArpanetFrame(const Frame& frame) {
  // Full NCP-style handling, inside the kernel, as optimized code.
  cost_->Charge(CodeStyle::kOptimized, kParseCost);
  NcpConnection& conn = connections_[frame.subchannel];
  switch (frame.type) {
    case frame_type::kOpen:
      conn.open = true;
      conn.next_seq = 0;
      break;
    case frame_type::kClose:
      conn.open = false;
      break;
    case frame_type::kData: {
      if (!conn.open) {
        conn.open = true;  // implicit open, as the historical NCP tolerated
      }
      if (frame.seq != conn.next_seq) {
        ++conn.out_of_order;
        metrics_->Inc(id_out_of_order_);
        return 1;
      }
      ++conn.next_seq;
      cost_->Charge(CodeStyle::kOptimized, kDeliverCost);
      conn.delivered.push_back(frame);
      Frame ack;
      ack.subchannel = frame.subchannel;
      ack.type = frame_type::kAck;
      ack.seq = frame.seq;
      cost_->Charge(CodeStyle::kOptimized, kAckCost);
      acks_.push_back(std::move(ack));
      break;
    }
    default:
      break;
  }
  return 1;
}

uint64_t InKernelNetworkStack::PumpFrontEndFrame(const Frame& frame) {
  cost_->Charge(CodeStyle::kOptimized, kParseCost);
  TerminalLine& line = lines_[frame.subchannel];
  for (Word w : frame.payload) {
    const char c = static_cast<char>(w & 0x7f);
    cost_->Charge(CodeStyle::kOptimized, 1);  // per-character canonicalization
    ++line.echoes;                            // full-duplex echo from the kernel
    if (c == '\n') {
      line.lines.push_back(line.partial_line);
      line.partial_line.clear();
    } else {
      line.partial_line.push_back(c);
    }
  }
  return 1;
}

uint64_t InKernelNetworkStack::PumpAll() {
  uint64_t processed = 0;
  if (arpanet_ != nullptr) {
    while (auto frame = arpanet_->Poll()) {
      processed += PumpArpanetFrame(*frame);
      metrics_->Inc(id_kernel_frames_);
    }
  }
  if (front_end_ != nullptr) {
    while (auto frame = front_end_->Poll()) {
      processed += PumpFrontEndFrame(*frame);
      metrics_->Inc(id_kernel_frames_);
    }
  }
  for (MultiplexedChannel* channel : extra_nets_) {
    while (auto frame = channel->Poll()) {
      // The copied handler pattern: same parse/deliver skeleton again.
      cost_->Charge(CodeStyle::kOptimized, kParseCost);
      NcpConnection& conn = extra_connections_[frame->subchannel];
      if (frame->type == frame_type::kData && frame->seq == conn.next_seq) {
        ++conn.next_seq;
        cost_->Charge(CodeStyle::kOptimized, kDeliverCost);
        conn.delivered.push_back(*frame);
      }
      metrics_->Inc(id_kernel_frames_);
      ++processed;
    }
  }
  return processed;
}

std::optional<Frame> InKernelNetworkStack::ReceiveArpanet(SubchannelId sub) {
  auto it = connections_.find(sub);
  if (it == connections_.end() || it->second.delivered.empty()) {
    return std::nullopt;
  }
  Frame f = std::move(it->second.delivered.front());
  it->second.delivered.pop_front();
  return f;
}

std::optional<std::string> InKernelNetworkStack::ReadTerminalLine(SubchannelId line_id) {
  auto it = lines_.find(line_id);
  if (it == lines_.end() || it->second.lines.empty()) {
    return std::nullopt;
  }
  std::string line = std::move(it->second.lines.front());
  it->second.lines.pop_front();
  return line;
}

}  // namespace mks
