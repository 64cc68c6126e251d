// Scrubbing schedule policies.
//
// The physical system scrubs PERIODICALLY every Tsc (paper Section 2); the
// Markov models approximate that by an exponential transition of rate 1/Tsc
// (Section 5). Both policies are provided so the Monte-Carlo simulator can
// (a) mirror the real system and (b) exactly match the chains' assumption
// when cross-validating them.
//
// A memory system hands its scrub pass to arm(): scrub passes run as the
// event queue's tick (sim::EventQueue::set_tick), never as heap events.
#ifndef RSMEM_MEMORY_SCRUBBER_H
#define RSMEM_MEMORY_SCRUBBER_H

#include <cmath>
#include <limits>

#include "sim/event_queue.h"
#include "sim/rng.h"

namespace rsmem::memory {

enum class ScrubPolicy : std::uint8_t {
  kNone,         // never scrub
  kPeriodic,     // deterministic period Tsc (the real hardware behaviour)
  kExponential,  // exponential inter-scrub times, rate 1/Tsc (Markov match)
};

class Scrubber {
 public:
  // `period_hours` is Tsc; ignored for kNone. Throws std::invalid_argument
  // if a scrubbing policy is requested with a non-positive period.
  Scrubber(ScrubPolicy policy, double period_hours, sim::Rng rng);
  // An armed tick holds this scrubber's address.
  Scrubber(const Scrubber&) = delete;
  Scrubber& operator=(const Scrubber&) = delete;

  ScrubPolicy policy() const { return policy_; }
  double period_hours() const { return period_hours_; }

  // Time of the first scrub after `now`; +infinity when disabled.
  double next_after(double now);

  // Arms `queue`'s tick with this schedule: `pass` runs at every scrub time
  // after the queue's now. The tick runs at the time it last returned, so
  // `due_` is the queue's clock when the next time is drawn. Does nothing
  // when the policy never scrubs. The scrubber must outlive the queue's
  // runs (the memory systems own both).
  template <typename Pass>
  void arm(sim::EventQueue& queue, Pass pass) {
    due_ = next_after(queue.now());
    if (!std::isfinite(due_)) return;
    queue.set_tick(due_, [this, pass] {
      pass();
      return due_ = next_after(due_);
    });
  }

 private:
  ScrubPolicy policy_;
  double period_hours_;
  sim::Rng rng_;
  double due_ = 0.0;  // the tick's current due time
};

}  // namespace rsmem::memory

#endif  // RSMEM_MEMORY_SCRUBBER_H
