#include "src/net/demux.h"

namespace mks {

namespace {
constexpr Cycles kRouteCost = 3;  // the kernel's entire per-frame work
constexpr Cycles kParseCost = 12;
constexpr Cycles kDeliverCost = 6;
constexpr Cycles kAckCost = 8;
}  // namespace

void GenericDemux::Ring::Push(Frame&& frame) {
  const uint32_t held = static_cast<uint32_t>(size());
  if (held == slots_.size()) {
    std::vector<Frame> grown(slots_.empty() ? 1 : 2 * slots_.size());
    for (uint32_t i = 0; i < held; ++i) {
      grown[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    }
    slots_.swap(grown);
    head_ = 0;
    tail_ = held;
  }
  slots_[tail_++ & (slots_.size() - 1)] = std::move(frame);
}

std::optional<Frame> GenericDemux::Ring::Pop() {
  if (head_ == tail_) {
    return std::nullopt;
  }
  return std::move(slots_[head_++ & (slots_.size() - 1)]);
}

void GenericDemux::AttachChannel(MultiplexedChannel* channel) {
  channels_.push_back(channel);
  if (FindLane(channel->id()) == nullptr) {  // one channel id, one set of queues
    lanes_.push_back(Lane{channel->id(), {}});
  }
}

GenericDemux::Lane* GenericDemux::FindLane(ChannelId channel) {
  for (Lane& lane : lanes_) {
    if (lane.channel == channel) {
      return &lane;
    }
  }
  return nullptr;
}

size_t GenericDemux::ring_slots() const {
  size_t slots = 0;
  for (const Lane& lane : lanes_) {
    for (const Ring& ring : lane.rings) {
      slots += ring.slots();
    }
  }
  return slots;
}

uint64_t GenericDemux::Pump() {
  uint64_t routed = 0;
  for (MultiplexedChannel* channel : channels_) {
    std::vector<Ring>& rings = FindLane(channel->id())->rings;
    while (auto frame = channel->Poll()) {
      // Structured (auditable) code, but tiny: route by (channel, sub).
      cost_->Charge(CodeStyle::kStructured, kRouteCost);
      const uint16_t sub = frame->subchannel.value;
      if (sub >= rings.size()) {
        rings.resize(static_cast<size_t>(sub) + 1);
      }
      Ring& ring = rings[sub];
      if (ring.size() >= queue_capacity_) {
        ++dropped_;
        metrics_->Inc(id_demux_drops_);
        continue;
      }
      ring.Push(std::move(*frame));
      metrics_->Inc(id_demux_frames_);
      ++routed;
    }
  }
  return routed;
}

std::optional<Frame> GenericDemux::ReadSubchannel(ChannelId channel, SubchannelId sub) {
  // A gate crossing: the user-domain protocol module calling into the
  // kernel's one remaining network entry point.
  cost_->Charge(CodeStyle::kOptimized, Costs::kGateCall);
  Lane* lane = FindLane(channel);
  if (lane == nullptr || sub.value >= lane->rings.size()) {
    return std::nullopt;
  }
  return lane->rings[sub.value].Pop();
}

uint64_t NcpProtocolUser::PumpSubchannel(SubchannelId sub) {
  uint64_t processed = 0;
  while (auto frame = demux_->ReadSubchannel(channel_, sub)) {
    // The identical protocol logic as the in-kernel handler, now charged as
    // user-domain structured code.
    cost_->Charge(CodeStyle::kStructured, kParseCost);
    if (sub.value >= connections_.size()) {
      connections_.resize(static_cast<size_t>(sub.value) + 1);
    }
    NcpConnection& conn = connections_[sub.value];
    switch (frame->type) {
      case frame_type::kOpen:
        conn.open = true;
        conn.next_seq = 0;
        break;
      case frame_type::kClose:
        conn.open = false;
        break;
      case frame_type::kData: {
        if (!conn.open) {
          conn.open = true;
        }
        if (frame->seq != conn.next_seq) {
          ++conn.out_of_order;
          metrics_->Inc(id_out_of_order_);
          break;
        }
        ++conn.next_seq;
        cost_->Charge(CodeStyle::kStructured, kDeliverCost);
        conn.delivered.push_back(*frame);
        Frame ack;
        ack.subchannel = sub;
        ack.type = frame_type::kAck;
        ack.seq = frame->seq;
        cost_->Charge(CodeStyle::kStructured, kAckCost);
        acks_.push_back(std::move(ack));
        break;
      }
      default:
        break;
    }
    metrics_->Inc(id_user_frames_);
    ++processed;
  }
  return processed;
}

std::optional<Frame> NcpProtocolUser::Receive(SubchannelId sub) {
  if (sub.value >= connections_.size() || connections_[sub.value].delivered.empty()) {
    return std::nullopt;
  }
  std::deque<Frame>& delivered = connections_[sub.value].delivered;
  Frame f = std::move(delivered.front());
  delivered.pop_front();
  return f;
}

uint64_t TerminalProtocolUser::PumpLine(SubchannelId line_id) {
  uint64_t processed = 0;
  while (auto frame = demux_->ReadSubchannel(channel_, line_id)) {
    cost_->Charge(CodeStyle::kStructured, kParseCost);
    if (line_id.value >= lines_.size()) {
      lines_.resize(static_cast<size_t>(line_id.value) + 1);
    }
    TerminalLine& line = lines_[line_id.value];
    for (Word w : frame->payload) {
      const char c = static_cast<char>(w & 0x7f);
      cost_->Charge(CodeStyle::kStructured, 1);
      ++line.echoes;
      if (c == '\n') {
        line.lines.push_back(line.partial_line);
        line.partial_line.clear();
      } else {
        line.partial_line.push_back(c);
      }
    }
    metrics_->Inc(id_user_frames_);
    ++processed;
  }
  return processed;
}

std::optional<std::string> TerminalProtocolUser::ReadLine(SubchannelId line_id) {
  if (line_id.value >= lines_.size() || lines_[line_id.value].lines.empty()) {
    return std::nullopt;
  }
  std::deque<std::string>& lines = lines_[line_id.value].lines;
  std::string line = std::move(lines.front());
  lines.pop_front();
  return line;
}

}  // namespace mks
