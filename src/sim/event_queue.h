// Discrete-event simulation core: a time-ordered event queue.
//
// Events are closures scheduled at absolute simulation times; ties are
// broken by insertion order so runs are fully deterministic. The memory
// system simulator (src/memory) schedules fault arrivals, scrubbing passes
// and read operations through this queue.
#ifndef RSMEM_SIM_EVENT_QUEUE_H
#define RSMEM_SIM_EVENT_QUEUE_H

#include <cstdint>
#include <functional>
#include <vector>

namespace rsmem::sim {

using EventAction = std::function<void()>;

class EventQueue {
 public:
  EventQueue() = default;

  double now() const { return now_; }
  bool empty() const { return heap_.empty(); }
  std::size_t pending() const { return heap_.size(); }

  // Schedules `action` at absolute time `when` (>= now). Throws
  // std::invalid_argument for events in the past or non-finite times.
  void schedule_at(double when, EventAction action);
  // Schedules relative to the current time.
  void schedule_in(double delay, EventAction action);

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

  // A binary heap under Later: the earliest (when, seq) is at the front.
  // Entries are moved in and out, so an action is never copied.
  std::vector<Entry> heap_;
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace rsmem::sim

#endif  // RSMEM_SIM_EVENT_QUEUE_H
