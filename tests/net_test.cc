// Tests for the network subsystem: the in-kernel per-network handlers and
// the generic demultiplexer + user-domain protocol configuration must agree
// on protocol outcomes; only the structure (and cost) differs.
#include <gtest/gtest.h>

#include "src/net/demux.h"

namespace mks {
namespace {

struct NetFixture {
  Clock clock;
  CostModel cost{&clock};
  Metrics metrics;
};

Frame DataFrame(uint16_t sub, uint32_t seq, FramePayload payload) {
  Frame f;
  f.subchannel = SubchannelId(sub);
  f.type = frame_type::kData;
  f.seq = seq;
  f.payload = std::move(payload);
  return f;
}

TEST(NetBaseline, OrderedDeliveryAndAcks) {
  NetFixture fx;
  MultiplexedChannel arpanet(ChannelId(0), "arpanet");
  InKernelNetworkStack stack(&fx.cost, &fx.metrics);
  stack.AttachArpanet(&arpanet);
  arpanet.Inject(DataFrame(3, 0, {1}));
  arpanet.Inject(DataFrame(3, 1, {2}));
  arpanet.Inject(DataFrame(3, 3, {9}));  // out of order: dropped
  EXPECT_EQ(stack.PumpAll(), 3u);
  auto f0 = stack.ReceiveArpanet(SubchannelId(3));
  auto f1 = stack.ReceiveArpanet(SubchannelId(3));
  auto f2 = stack.ReceiveArpanet(SubchannelId(3));
  ASSERT_TRUE(f0.has_value());
  ASSERT_TRUE(f1.has_value());
  EXPECT_FALSE(f2.has_value());
  EXPECT_EQ(stack.acks_sent().size(), 2u);
  EXPECT_EQ(fx.metrics.Get("net.out_of_order"), 1u);
}

TEST(NetBaseline, TerminalLinesAssembleAndEcho) {
  NetFixture fx;
  MultiplexedChannel fep(ChannelId(1), "front_end");
  InKernelNetworkStack stack(&fx.cost, &fx.metrics);
  stack.AttachFrontEnd(&fep);
  Frame f;
  f.subchannel = SubchannelId(7);
  f.type = frame_type::kData;
  for (char c : std::string("ls\nwho\n")) {
    f.payload.push_back(static_cast<Word>(c));
  }
  fep.Inject(f);
  stack.PumpAll();
  auto line1 = stack.ReadTerminalLine(SubchannelId(7));
  auto line2 = stack.ReadTerminalLine(SubchannelId(7));
  ASSERT_TRUE(line1.has_value());
  ASSERT_TRUE(line2.has_value());
  EXPECT_EQ(*line1, "ls");
  EXPECT_EQ(*line2, "who");
}

TEST(NetDemux, RoutesWithoutInterpretingAndUserProtocolAgrees) {
  NetFixture fx;
  MultiplexedChannel arpanet(ChannelId(0), "arpanet");
  GenericDemux demux(&fx.cost, &fx.metrics);
  demux.AttachChannel(&arpanet);
  NcpProtocolUser ncp(&fx.cost, &fx.metrics, &demux, ChannelId(0));

  arpanet.Inject(DataFrame(3, 0, {1}));
  arpanet.Inject(DataFrame(3, 1, {2}));
  arpanet.Inject(DataFrame(3, 3, {9}));
  EXPECT_EQ(demux.Pump(), 3u);
  EXPECT_EQ(ncp.PumpSubchannel(SubchannelId(3)), 3u);
  ASSERT_TRUE(ncp.Receive(SubchannelId(3)).has_value());
  ASSERT_TRUE(ncp.Receive(SubchannelId(3)).has_value());
  EXPECT_FALSE(ncp.Receive(SubchannelId(3)).has_value());
  EXPECT_EQ(ncp.acks_sent().size(), 2u);
}

TEST(NetDemux, TerminalProtocolInUserDomain) {
  NetFixture fx;
  MultiplexedChannel fep(ChannelId(1), "front_end");
  GenericDemux demux(&fx.cost, &fx.metrics);
  demux.AttachChannel(&fep);
  TerminalProtocolUser terminal(&fx.cost, &fx.metrics, &demux, ChannelId(1));
  Frame f;
  f.subchannel = SubchannelId(2);
  for (char c : std::string("print notes\n")) {
    f.payload.push_back(static_cast<Word>(c));
  }
  fep.Inject(f);
  demux.Pump();
  terminal.PumpLine(SubchannelId(2));
  auto line = terminal.ReadLine(SubchannelId(2));
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(*line, "print notes");
}

TEST(NetDemux, BoundedQueuesDropUnderOverload) {
  NetFixture fx;
  MultiplexedChannel arpanet(ChannelId(0), "arpanet");
  GenericDemux demux(&fx.cost, &fx.metrics, /*queue_capacity=*/4);
  demux.AttachChannel(&arpanet);
  for (uint32_t i = 0; i < 10; ++i) {
    arpanet.Inject(DataFrame(1, i, {i}));
  }
  demux.Pump();
  EXPECT_EQ(demux.dropped(), 6u);
}

TEST(NetDemux, AttachingAThirdNetworkIsJustARegistration) {
  NetFixture fx;
  MultiplexedChannel a(ChannelId(0), "arpanet");
  MultiplexedChannel b(ChannelId(1), "front_end");
  MultiplexedChannel c(ChannelId(2), "third_net");
  GenericDemux demux(&fx.cost, &fx.metrics);
  demux.AttachChannel(&a);
  demux.AttachChannel(&b);
  demux.AttachChannel(&c);
  EXPECT_EQ(demux.attached_networks(), 3u);
  c.Inject(DataFrame(0, 0, {1}));
  EXPECT_EQ(demux.Pump(), 1u);
  // The same frame is readable through the one generic gate.
  EXPECT_TRUE(demux.ReadSubchannel(ChannelId(2), SubchannelId(0)).has_value());
}

TEST(Net, BothConfigurationsDeliverTheSamePayloads) {
  NetFixture fx;
  TrafficGenerator gen(99, 4);
  std::vector<Frame> trace;
  for (int i = 0; i < 200; ++i) {
    trace.push_back(gen.NextFrame());
  }

  // Baseline.
  MultiplexedChannel wire1(ChannelId(0), "arpanet");
  InKernelNetworkStack stack(&fx.cost, &fx.metrics);
  stack.AttachArpanet(&wire1);
  for (const Frame& f : trace) {
    wire1.Inject(f);
  }
  stack.PumpAll();

  // New design.
  MultiplexedChannel wire2(ChannelId(0), "arpanet");
  GenericDemux demux(&fx.cost, &fx.metrics, /*queue_capacity=*/512);
  demux.AttachChannel(&wire2);
  NcpProtocolUser ncp(&fx.cost, &fx.metrics, &demux, ChannelId(0));
  for (const Frame& f : trace) {
    wire2.Inject(f);
  }
  demux.Pump();
  for (uint16_t sub = 0; sub < 4; ++sub) {
    ncp.PumpSubchannel(SubchannelId(sub));
  }

  for (uint16_t sub = 0; sub < 4; ++sub) {
    while (true) {
      auto from_kernel = stack.ReceiveArpanet(SubchannelId(sub));
      auto from_user = ncp.Receive(SubchannelId(sub));
      ASSERT_EQ(from_kernel.has_value(), from_user.has_value()) << "sub " << sub;
      if (!from_kernel.has_value()) {
        break;
      }
      EXPECT_EQ(from_kernel->seq, from_user->seq);
      EXPECT_EQ(from_kernel->payload, from_user->payload);
    }
  }
}

// The demux rings: per-subchannel FIFO order, the drop at exactly
// queue_capacity, channel separation, wraparound, spilled payloads, and
// reads of empty subchannels.

TEST(NetDemuxRing, EachSubchannelIsFifo) {
  NetFixture fx;
  MultiplexedChannel wire(ChannelId(0), "arpanet");
  GenericDemux demux(&fx.cost, &fx.metrics);
  demux.AttachChannel(&wire);
  for (uint32_t i = 0; i < 6; ++i) {
    wire.Inject(DataFrame(static_cast<uint16_t>(i % 2), i, {i}));
  }
  EXPECT_EQ(demux.Pump(), 6u);
  for (uint16_t sub = 0; sub < 2; ++sub) {
    for (uint32_t i = sub; i < 6; i += 2) {
      auto f = demux.ReadSubchannel(ChannelId(0), SubchannelId(sub));
      ASSERT_TRUE(f.has_value());
      EXPECT_EQ(f->seq, i);
      EXPECT_EQ(f->payload, FramePayload({i}));
    }
    EXPECT_FALSE(demux.ReadSubchannel(ChannelId(0), SubchannelId(sub)).has_value());
  }
}

TEST(NetDemuxRing, DropsExactlyAtQueueCapacity) {
  NetFixture fx;
  MultiplexedChannel wire(ChannelId(0), "arpanet");
  GenericDemux demux(&fx.cost, &fx.metrics, /*queue_capacity=*/5);
  demux.AttachChannel(&wire);
  for (uint32_t i = 0; i < 5; ++i) {
    wire.Inject(DataFrame(1, i, {i}));
  }
  EXPECT_EQ(demux.Pump(), 5u);
  EXPECT_EQ(demux.dropped(), 0u);
  wire.Inject(DataFrame(1, 5, {5}));
  EXPECT_EQ(demux.Pump(), 0u);
  EXPECT_EQ(demux.dropped(), 1u);
  EXPECT_EQ(fx.metrics.Get("net.demux_drops"), 1u);
  EXPECT_EQ(fx.metrics.Get("net.demux_frames"), 5u);
  // Reading one frame makes room for exactly one more.
  ASSERT_TRUE(demux.ReadSubchannel(ChannelId(0), SubchannelId(1)).has_value());
  wire.Inject(DataFrame(1, 6, {6}));
  wire.Inject(DataFrame(1, 7, {7}));
  EXPECT_EQ(demux.Pump(), 1u);
  EXPECT_EQ(fx.metrics.Get("net.demux_drops"), 2u);
}

TEST(NetDemuxRing, SameSubchannelOnTwoChannelsStaysSeparate) {
  NetFixture fx;
  MultiplexedChannel a(ChannelId(0), "arpanet");
  MultiplexedChannel b(ChannelId(3), "front_end");
  GenericDemux demux(&fx.cost, &fx.metrics);
  demux.AttachChannel(&a);
  demux.AttachChannel(&b);
  a.Inject(DataFrame(4, 0, {10}));
  b.Inject(DataFrame(4, 0, {20}));
  b.Inject(DataFrame(4, 1, {21}));
  EXPECT_EQ(demux.Pump(), 3u);
  auto from_a = demux.ReadSubchannel(ChannelId(0), SubchannelId(4));
  ASSERT_TRUE(from_a.has_value());
  EXPECT_EQ(from_a->payload, FramePayload({10}));
  EXPECT_FALSE(demux.ReadSubchannel(ChannelId(0), SubchannelId(4)).has_value());
  for (Word w : {Word{20}, Word{21}}) {
    auto from_b = demux.ReadSubchannel(ChannelId(3), SubchannelId(4));
    ASSERT_TRUE(from_b.has_value());
    EXPECT_EQ(from_b->payload, FramePayload({w}));
  }
  EXPECT_FALSE(demux.ReadSubchannel(ChannelId(3), SubchannelId(4)).has_value());
}

TEST(NetDemuxRing, WrapsPastQueueCapacityInTotal) {
  NetFixture fx;
  MultiplexedChannel wire(ChannelId(0), "arpanet");
  GenericDemux demux(&fx.cost, &fx.metrics, /*queue_capacity=*/4);
  demux.AttachChannel(&wire);
  // Bursts of 3 into a ring of capacity 4, drained between bursts: 30
  // frames in order through one ring, none dropped.
  uint32_t next_read = 0;
  for (uint32_t i = 0; i < 30; ++i) {
    wire.Inject(DataFrame(2, i, {i, i + 1}));
    if (i % 3 == 2) {
      EXPECT_EQ(demux.Pump(), 3u);
      while (auto f = demux.ReadSubchannel(ChannelId(0), SubchannelId(2))) {
        EXPECT_EQ(f->seq, next_read);
        EXPECT_EQ(f->payload, FramePayload({next_read, next_read + 1}));
        ++next_read;
      }
    }
  }
  EXPECT_EQ(next_read, 30u);
  EXPECT_EQ(demux.dropped(), 0u);
  EXPECT_LE(demux.ring_slots(), 4u);
}

TEST(NetDemuxRing, LongPayloadRoundTrips) {
  NetFixture fx;
  MultiplexedChannel fep(ChannelId(1), "front_end");
  GenericDemux demux(&fx.cost, &fx.metrics);
  demux.AttachChannel(&fep);
  TerminalProtocolUser terminal(&fx.cost, &fx.metrics, &demux, ChannelId(1));
  const std::string text = "print notes.txt -line_length 80 -no_header";
  ASSERT_EQ(text.size(), 42u);
  Frame f;
  f.subchannel = SubchannelId(9);
  for (char c : text + "\n") {
    f.payload.push_back(static_cast<Word>(c));
  }
  ASSERT_GT(f.payload.size(), FramePayload::kInlineWords);
  const FramePayload sent = f.payload;
  fep.Inject(std::move(f));
  demux.Pump();
  auto routed = demux.ReadSubchannel(ChannelId(1), SubchannelId(9));
  ASSERT_TRUE(routed.has_value());
  EXPECT_EQ(routed->payload, sent);
  fep.Inject(*routed);
  demux.Pump();
  EXPECT_EQ(terminal.PumpLine(SubchannelId(9)), 1u);
  auto line = terminal.ReadLine(SubchannelId(9));
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(*line, text);
}

TEST(NetDemuxRing, EmptyAndUnseenSubchannelsReadNothingAndAllocateNoRing) {
  NetFixture fx;
  MultiplexedChannel wire(ChannelId(0), "arpanet");
  GenericDemux demux(&fx.cost, &fx.metrics);
  demux.AttachChannel(&wire);
  EXPECT_FALSE(demux.ReadSubchannel(ChannelId(0), SubchannelId(200)).has_value());
  EXPECT_FALSE(demux.ReadSubchannel(ChannelId(7), SubchannelId(0)).has_value());
  EXPECT_EQ(demux.ring_slots(), 0u);
  wire.Inject(DataFrame(5, 0, {1}));
  demux.Pump();
  ASSERT_TRUE(demux.ReadSubchannel(ChannelId(0), SubchannelId(5)).has_value());
  EXPECT_FALSE(demux.ReadSubchannel(ChannelId(0), SubchannelId(5)).has_value());
  EXPECT_FALSE(demux.ReadSubchannel(ChannelId(0), SubchannelId(4)).has_value());
  EXPECT_FALSE(demux.ReadSubchannel(ChannelId(0), SubchannelId(6)).has_value());
  EXPECT_EQ(demux.ring_slots(), 1u);
}

}  // namespace
}  // namespace mks
