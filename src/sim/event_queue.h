// Discrete-event simulation core: a time-ordered event queue.
//
// Events are closures scheduled at absolute simulation times; ties are
// broken by insertion order so runs are fully deterministic. The memory
// system simulator (src/memory) schedules fault arrivals and read
// operations through this queue's heap.
//
// Beside the heap the queue holds one recurring event, the owner's tick
// (the memory systems' scrub pass). The tick runs at its due time and
// returns its next due time. It is ordered against heap events by
// (when, seq) like any other event and takes a fresh seq each time it is
// re-armed, after it has run, so events run in exactly the order they
// would if each occurrence were scheduled with schedule_at from the end of
// the previous one. Its cost per occurrence is one comparison with the heap
// top instead of a heap push and pop of a std::function.
#ifndef RSMEM_SIM_EVENT_QUEUE_H
#define RSMEM_SIM_EVENT_QUEUE_H

#include <cstdint>
#include <functional>
#include <vector>

namespace rsmem::sim {

using EventAction = std::function<void()>;
// A tick returns its next due time (>= now); a non-finite value stops it.
using TickAction = std::function<double()>;

class EventQueue {
 public:
  EventQueue() = default;

  double now() const { return now_; }
  // Both count an armed tick as a pending event.
  bool empty() const { return heap_.empty() && !tick_armed_; }
  std::size_t pending() const { return heap_.size() + (tick_armed_ ? 1 : 0); }

  // Schedules `action` at absolute time `when` (>= now). Throws
  // std::invalid_argument for events in the past or non-finite times.
  void schedule_at(double when, EventAction action);
  // Schedules relative to the current time.
  void schedule_in(double delay, EventAction action);

  // Arms the tick: `tick` first runs at `first` (finite, >= now; otherwise
  // std::invalid_argument) and then at every time it returns, until it
  // returns a non-finite time. A queue has at most one tick for its
  // lifetime (std::logic_error on a second call). A returned time before
  // now throws std::invalid_argument and stops the tick; so does any
  // exception the tick throws.
  void set_tick(double first, TickAction tick);

  // Runs events in time order until the queue is empty or the next event is
  // later than `until`; the clock ends at exactly `until`.
  void run_until(double until);

  // Runs a single event if one is pending; returns false otherwise.
  bool step();

 private:
  struct Entry {
    double when;
    std::uint64_t seq;  // insertion order
    EventAction action;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  // True when the armed tick precedes every heap event under (when, seq).
  bool tick_is_next() const {
    if (!tick_armed_) return false;
    if (heap_.empty()) return true;
    const Entry& top = heap_.front();
    return tick_when_ != top.when ? tick_when_ < top.when : tick_seq_ < top.seq;
  }
  void run_tick();
  void run_heap_top();

  // A binary heap under Later: the earliest (when, seq) is at the front.
  // Entries are moved in and out, so an action is never copied.
  std::vector<Entry> heap_;
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  TickAction tick_;
  double tick_when_ = 0.0;
  std::uint64_t tick_seq_ = 0;
  bool tick_armed_ = false;  // false while the tick runs and once it stopped
};

}  // namespace rsmem::sim

#endif  // RSMEM_SIM_EVENT_QUEUE_H
