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

bool EventQueue::step() {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Entry next = std::move(heap_.back());
  heap_.pop_back();
  now_ = next.when;
  next.action();
  return true;
}

void EventQueue::run_until(double until) {
  if (until < now_) {
    throw std::invalid_argument("EventQueue::run_until: until < now");
  }
  while (!heap_.empty() && heap_.front().when <= until) step();
  now_ = until;
}

}  // namespace rsmem::sim
