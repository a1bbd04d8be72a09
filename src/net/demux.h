// The redesigned network configuration [Ciccarelli, 1977]: a small,
// network-independent demultiplexer is all that remains in the kernel; the
// protocol interpretation (NCP, terminal canonicalization/echo) moves to
// unprivileged user-domain modules.
//
// The kernel part only routes: frame in, bounded per-subchannel queue out.
// It neither parses payloads nor knows what an "ACK" is, so attaching a new
// network adds a channel registration, not a code body — the kernel "only
// grows slightly as new networks are attached".
#ifndef MKS_NET_DEMUX_H_
#define MKS_NET_DEMUX_H_

#include "src/net/kernel_stack.h"

namespace mks {

// --- the kernel-resident part ---
class GenericDemux {
 public:
  GenericDemux(CostModel* cost, Metrics* metrics, size_t queue_capacity = 64)
      : cost_(cost),
        metrics_(metrics),
        id_demux_drops_(metrics->Intern("net.demux_drops")),
        id_demux_frames_(metrics->Intern("net.demux_frames")),
        queue_capacity_(queue_capacity) {}

  void AttachChannel(MultiplexedChannel* channel);

  // Routes every pending frame to its subchannel queue.  Returns frames
  // routed; overflowing queues count drops (backpressure is the user
  // module's problem, not the kernel's).
  uint64_t Pump();

  // The single gate user-domain protocol modules call.
  std::optional<Frame> ReadSubchannel(ChannelId channel, SubchannelId sub);

  uint64_t dropped() const { return dropped_; }
  size_t attached_networks() const { return channels_.size(); }
  // Frame slots allocated across every ring: host memory, not a model figure.
  size_t ring_slots() const;

 private:
  // One subchannel's bounded queue: a ring with one producer (Pump) and one
  // consumer (ReadSubchannel), as in a shared-memory driver framework's
  // per-client queues.  The storage doubles to the occupancy the ring has
  // seen, so an idle subchannel holds no frames and a busy one at most
  // queue_capacity rounded up to a power of two.
  class Ring {
   public:
    size_t size() const { return tail_ - head_; }
    size_t slots() const { return slots_.size(); }
    void Push(Frame&& frame);
    std::optional<Frame> Pop();

   private:
    std::vector<Frame> slots_;  // power-of-two size
    uint32_t head_ = 0;         // free-running; slot = counter & (size - 1)
    uint32_t tail_ = 0;
  };
  // The rings of one channel id, indexed by subchannel number.
  struct Lane {
    ChannelId channel{};
    std::vector<Ring> rings;
  };

  Lane* FindLane(ChannelId channel);

  CostModel* cost_;
  Metrics* metrics_;
  MetricId id_demux_drops_;
  MetricId id_demux_frames_;
  size_t queue_capacity_;
  std::vector<MultiplexedChannel*> channels_;
  std::vector<Lane> lanes_;
  uint64_t dropped_ = 0;
};

// --- user-domain protocol modules ---

class NcpProtocolUser {
 public:
  NcpProtocolUser(CostModel* cost, Metrics* metrics, GenericDemux* demux, ChannelId channel)
      : cost_(cost),
        metrics_(metrics),
        id_out_of_order_(metrics->Intern("net.out_of_order")),
        id_user_frames_(metrics->Intern("net.user_frames")),
        demux_(demux),
        channel_(channel) {}

  // Drains one subchannel through the kernel gate, running the same NCP
  // logic as the baseline handler — but in the user domain.
  uint64_t PumpSubchannel(SubchannelId sub);

  std::optional<Frame> Receive(SubchannelId sub);
  const std::deque<Frame>& acks_sent() const { return acks_; }

 private:
  CostModel* cost_;
  Metrics* metrics_;
  MetricId id_out_of_order_;
  MetricId id_user_frames_;
  GenericDemux* demux_;
  ChannelId channel_;
  std::vector<NcpConnection> connections_;  // indexed by subchannel
  std::deque<Frame> acks_;
};

class TerminalProtocolUser {
 public:
  TerminalProtocolUser(CostModel* cost, Metrics* metrics, GenericDemux* demux, ChannelId channel)
      : cost_(cost),
        metrics_(metrics),
        id_user_frames_(metrics->Intern("net.user_frames")),
        demux_(demux),
        channel_(channel) {}

  uint64_t PumpLine(SubchannelId line);
  std::optional<std::string> ReadLine(SubchannelId line);

 private:
  CostModel* cost_;
  Metrics* metrics_;
  MetricId id_user_frames_;
  GenericDemux* demux_;
  ChannelId channel_;
  std::vector<TerminalLine> lines_;  // indexed by subchannel
};

}  // namespace mks

#endif  // MKS_NET_DEMUX_H_
