// Posted device completions for the discrete simulation.
//
// Asynchronous device activity (a demand page read) is modelled by posting
// an opaque cookie that falls due at a future simulated time.  The scheduler
// releases what has fallen due as the clock advances, and can fast-forward
// the clock to the next due time when every process is blocked (the machine
// would be idle); the device's consumer then takes the released cookies.
//
// One FIFO suffices: the only producer posts at the global clock plus a
// constant latency, and the clock never moves backward, so posting order is
// due order (Post asserts it).  Entries due at the same cycle keep posting
// order.
#ifndef MKS_SIM_EVENT_QUEUE_H_
#define MKS_SIM_EVENT_QUEUE_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <deque>

#include "src/sim/clock.h"

namespace mks {

class EventQueue {
 public:
  void Post(Cycles due, uint64_t cookie) {
    assert(entries_.empty() || entries_.back().due <= due);
    entries_.push_back(Entry{due, cookie});
  }

  // Releases every entry due at or before `now`; returns the number released.
  size_t RunDue(Cycles now) {
    const size_t before = released_;
    while (released_ < entries_.size() && entries_[released_].due <= now) {
      ++released_;
    }
    return released_ - before;
  }

  // Hands the oldest released entry's cookie to the consumer; false when
  // nothing released is left.
  bool TakeReleased(uint64_t* cookie) {
    if (released_ == 0) {
      return false;
    }
    *cookie = entries_.front().cookie;
    entries_.pop_front();
    --released_;
    return true;
  }

  // Nothing left to fall due (released entries may still await TakeReleased).
  bool empty() const { return released_ == entries_.size(); }
  // Every entry not yet taken, released or not.
  size_t size() const { return entries_.size(); }

  // Earliest due time not yet released; only valid when not empty.
  Cycles next_due() const { return entries_[released_].due; }

 private:
  struct Entry {
    Cycles due;
    uint64_t cookie;
  };

  std::deque<Entry> entries_;
  size_t released_ = 0;  // entries_[0, released_) have fallen due
};

}  // namespace mks

#endif  // MKS_SIM_EVENT_QUEUE_H_
