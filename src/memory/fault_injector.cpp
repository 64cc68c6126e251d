#include "memory/fault_injector.h"

#include <cmath>
#include <stdexcept>

namespace rsmem::memory {

FaultInjector::FaultInjector(const FaultRates& rates, sim::Rng rng,
                             sim::EventQueue& queue, MemoryModule& module)
    : rates_(rates), rng_(rng), queue_(queue), module_(module) {
  const auto finite_non_negative = [](double x) {
    return x >= 0.0 && std::isfinite(x);
  };
  if (!finite_non_negative(rates.seu_rate_per_bit_hour) ||
      !finite_non_negative(rates.perm_rate_per_symbol_hour) ||
      !finite_non_negative(rates.detection_latency_hours)) {
    throw std::invalid_argument(
        "FaultInjector: rates must be finite and non-negative");
  }
  if (!(rates.mbu_probability >= 0.0 && rates.mbu_probability <= 1.0)) {
    throw std::invalid_argument(
        "FaultInjector: mbu_probability outside [0,1]");
  }
  if (rates.mbu_probability > 0.0 &&
      (rates.mbu_span_bits < 2 ||
       rates.mbu_span_bits > module.n() * module.m())) {
    throw std::invalid_argument(
        "FaultInjector: mbu_span_bits must be in [2, n*m]");
  }
  if (!(rates.perm_weibull_shape > 0.0) ||
      !std::isfinite(rates.perm_weibull_shape)) {
    throw std::invalid_argument(
        "FaultInjector: perm_weibull_shape must be finite and positive");
  }
  reset(rng);
}

void FaultInjector::reset(sim::Rng rng) {
  rng_ = rng;
  started_ = false;
  seu_injected_ = 0;
  permanent_injected_ = 0;
  if (rates_.perm_weibull_shape != 1.0 &&
      rates_.perm_rate_per_symbol_hour > 0.0) {
    // Module-total wearout process: n symbols, each with per-symbol
    // cumulative hazard (rate*t)^beta; the superposition is Weibull with
    // scale eta' = (1/rate) * n^(-1/beta).
    const double beta = rates_.perm_weibull_shape;
    const double eta = 1.0 / rates_.perm_rate_per_symbol_hour *
                       std::pow(static_cast<double>(module_.n()), -1.0 / beta);
    wearout_.emplace(beta, eta, rng_.split(0x57EA));
  }
}

void FaultInjector::start() {
  if (started_) return;
  started_ = true;
  schedule_next_seu();
  schedule_next_permanent();
}

void FaultInjector::schedule_next_seu() {
  const double total_rate = rates_.seu_rate_per_bit_hour *
                            static_cast<double>(module_.n()) *
                            static_cast<double>(module_.m());
  if (total_rate <= 0.0) return;
  const double delay = rng_.exponential(total_rate);
  queue_.schedule_in(delay, [this] {
    if (rates_.mbu_probability > 0.0 &&
        rng_.bernoulli(rates_.mbu_probability)) {
      // Burst upset: flip `span` adjacent bits in linear bit order; the
      // burst may straddle a symbol boundary.
      const unsigned total_bits = module_.n() * module_.m();
      const unsigned span = rates_.mbu_span_bits;
      const unsigned start =
          static_cast<unsigned>(rng_.uniform_int(total_bits - span + 1));
      for (unsigned i = 0; i < span; ++i) {
        const unsigned pos = start + i;
        module_.flip_bit(pos / module_.m(), pos % module_.m());
      }
    } else {
      const unsigned symbol =
          static_cast<unsigned>(rng_.uniform_int(module_.n()));
      const unsigned bit =
          static_cast<unsigned>(rng_.uniform_int(module_.m()));
      module_.flip_bit(symbol, bit);
    }
    ++seu_injected_;
    schedule_next_seu();
  });
}

void FaultInjector::schedule_next_permanent() {
  const double total_rate = rates_.perm_rate_per_symbol_hour *
                            static_cast<double>(module_.n());
  if (total_rate <= 0.0) return;
  const double delay =
      wearout_ ? wearout_->next_after(queue_.now()) - queue_.now()
               : rng_.exponential(total_rate);
  queue_.schedule_in(delay, [this] {
    const unsigned symbol =
        static_cast<unsigned>(rng_.uniform_int(module_.n()));
    const unsigned bit = static_cast<unsigned>(rng_.uniform_int(module_.m()));
    const bool level = rng_.bernoulli(0.5);
    if (rates_.detection_latency_hours == 0.0) {
      module_.stick_bit(symbol, bit, level, /*detected=*/true);
    } else {
      module_.stick_bit(symbol, bit, level, /*detected=*/false);
      queue_.schedule_in(rates_.detection_latency_hours, [this, symbol, bit] {
        // Re-assert the stuck bit as detected (level unchanged by passing
        // the currently observed value through stick_bit would be wrong, so
        // mark the whole module: by this time the tester has scanned it).
        (void)symbol;
        (void)bit;
        module_.detect_all_faults();
      });
    }
    ++permanent_injected_;
    schedule_next_permanent();
  });
}

}  // namespace rsmem::memory
