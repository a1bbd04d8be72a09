// The multiplexed-communication substrate.
//
// Two multiplexed streams were attached to historical Multics — the ARPANET
// and the local front-end processor with its terminals.  A channel delivers
// frames tagged with a subchannel (host connection or terminal line); the
// protocol machinery above decides what a frame means.
#ifndef MKS_NET_CHANNEL_H_
#define MKS_NET_CHANNEL_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <initializer_list>
#include <optional>
#include <string>
#include <vector>

#include "src/common/ids.h"
#include "src/common/rng.h"
#include "src/hw/machine.h"

namespace mks {

// A frame's words.  Up to kInlineWords live inside the frame itself, so the
// frames the front end and the traffic generator build (at most 8 words)
// never touch the heap; a longer payload moves wholesale into `spill_`.
// Vector-like for the callers: push_back, iteration, size, ==.
class FramePayload {
 public:
  static constexpr size_t kInlineWords = 8;
  using value_type = Word;
  using iterator = const Word*;
  using const_iterator = const Word*;

  FramePayload() = default;
  FramePayload(std::initializer_list<Word> words) {
    for (Word w : words) {
      push_back(w);
    }
  }

  void push_back(Word w) {
    if (spill_.empty() && inline_size_ < kInlineWords) {
      inline_[inline_size_++] = w;
      return;
    }
    if (spill_.empty()) {
      spill_.assign(inline_, inline_ + kInlineWords);
    }
    spill_.push_back(w);
  }
  size_t size() const { return spill_.empty() ? inline_size_ : spill_.size(); }
  const Word* begin() const { return spill_.empty() ? inline_ : spill_.data(); }
  const Word* end() const { return begin() + size(); }

  friend bool operator==(const FramePayload& a, const FramePayload& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  Word inline_[kInlineWords] = {};
  uint8_t inline_size_ = 0;  // words in inline_ while nothing has spilled
  std::vector<Word> spill_;  // every word, once there are more than kInlineWords
};

struct Frame {
  SubchannelId subchannel{};
  uint16_t type = 0;  // protocol-specific: data / ack / control
  uint32_t seq = 0;
  FramePayload payload;
};

// Frame types shared by the toy protocols.
namespace frame_type {
inline constexpr uint16_t kData = 0;
inline constexpr uint16_t kAck = 1;
inline constexpr uint16_t kOpen = 2;
inline constexpr uint16_t kClose = 3;
}  // namespace frame_type

class MultiplexedChannel {
 public:
  explicit MultiplexedChannel(ChannelId id, std::string name)
      : id_(id), name_(std::move(name)) {}

  ChannelId id() const { return id_; }
  const std::string& name() const { return name_; }

  void Inject(Frame frame) { wire_.push_back(std::move(frame)); }
  std::optional<Frame> Poll() {
    if (wire_.empty()) {
      return std::nullopt;
    }
    Frame f = std::move(wire_.front());
    wire_.pop_front();
    return f;
  }
  size_t pending() const { return wire_.size(); }

 private:
  ChannelId id_;
  std::string name_;
  std::deque<Frame> wire_;
};

// Synthesizes a plausible frame mix for a channel: ordered data on a set of
// subchannels with occasional control frames.
class TrafficGenerator {
 public:
  TrafficGenerator(uint64_t seed, uint16_t subchannels) : rng_(seed), subchannels_(subchannels) {
    next_seq_.assign(subchannels, 0);
  }

  Frame NextFrame();

 private:
  Rng rng_;
  uint16_t subchannels_;
  std::vector<uint32_t> next_seq_;
};

}  // namespace mks

#endif  // MKS_NET_CHANNEL_H_
