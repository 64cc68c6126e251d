#include "sim/event_queue.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rsmem::sim {

void EventQueue::schedule_at(double when, EventAction action) {
  if (!std::isfinite(when) || when < now_) {
    throw std::invalid_argument(
        "EventQueue::schedule_at: time must be finite and >= now");
  }
  if (!action) {
    throw std::invalid_argument("EventQueue::schedule_at: empty action");
  }
  heap_.push_back(Entry{when, next_seq_++, std::move(action)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void EventQueue::schedule_in(double delay, EventAction action) {
  schedule_at(now_ + delay, std::move(action));
}

void EventQueue::set_tick(double first, TickAction tick) {
  if (tick_) {
    throw std::logic_error("EventQueue::set_tick: the tick is already set");
  }
  if (!std::isfinite(first) || first < now_) {
    throw std::invalid_argument(
        "EventQueue::set_tick: time must be finite and >= now");
  }
  if (!tick) {
    throw std::invalid_argument("EventQueue::set_tick: empty tick");
  }
  tick_ = std::move(tick);
  tick_when_ = first;
  tick_seq_ = next_seq_++;
  tick_armed_ = true;
}

void EventQueue::reset() {
  heap_.clear();
  now_ = 0.0;
  next_seq_ = 0;
  tick_ = nullptr;
  tick_when_ = 0.0;
  tick_seq_ = 0;
  tick_armed_ = false;
}

void EventQueue::run_tick() {
  now_ = tick_when_;
  tick_armed_ = false;
  const double next = tick_();
  if (!std::isfinite(next)) return;
  if (next < now_) {
    throw std::invalid_argument(
        "EventQueue: the tick returned a time before now");
  }
  // Re-armed after the tick ran: the seq a schedule_at from its end takes.
  tick_when_ = next;
  tick_seq_ = next_seq_++;
  tick_armed_ = true;
}

void EventQueue::run_heap_top() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Entry next = std::move(heap_.back());
  heap_.pop_back();
  now_ = next.when;
  next.action();
}

bool EventQueue::step() {
  if (tick_is_next()) {
    run_tick();
  } else if (!heap_.empty()) {
    run_heap_top();
  } else {
    return false;
  }
  return true;
}

void EventQueue::run_until(double until) {
  if (until < now_) {
    throw std::invalid_argument("EventQueue::run_until: until < now");
  }
  for (;;) {
    if (tick_is_next()) {
      if (tick_when_ > until) break;
      run_tick();
    } else if (!heap_.empty() && heap_.front().when <= until) {
      run_heap_top();
    } else {
      break;
    }
  }
  now_ = until;
}

}  // namespace rsmem::sim
