#include "models/detection_model.h"

#include <stdexcept>
#include <utility>

#include "markov/solver_workspace.h"

namespace rsmem::models {

using markov::PackedState;

namespace {
constexpr unsigned kFieldBits = 16;
constexpr PackedState kFieldMask = (PackedState{1} << kFieldBits) - 1;
}  // namespace

DetectionModel::DetectionModel(const DetectionParams& params)
    : params_(params) {
  if (params_.k == 0 || params_.k >= params_.n) {
    throw std::invalid_argument("DetectionModel: require 0 < k < n");
  }
  if (params_.m < 2 || params_.m > 16 ||
      params_.n > (1u << params_.m) - 1u) {
    throw std::invalid_argument("DetectionModel: require n <= 2^m - 1");
  }
  if (params_.seu_rate_per_bit_hour < 0.0 ||
      params_.erasure_rate_per_symbol_hour < 0.0 ||
      params_.detection_rate_per_hour < 0.0 ||
      params_.scrub_rate_per_hour < 0.0) {
    throw std::invalid_argument("DetectionModel: rates must be non-negative");
  }
}

PackedState DetectionModel::pack(const DetectionState& s) {
  return static_cast<PackedState>(s.eu) |
         (static_cast<PackedState>(s.ed) << kFieldBits) |
         (static_cast<PackedState>(s.re) << (2 * kFieldBits));
}

DetectionState DetectionModel::unpack(PackedState p) {
  DetectionState s;
  s.eu = static_cast<unsigned>(p & kFieldMask);
  s.ed = static_cast<unsigned>((p >> kFieldBits) & kFieldMask);
  s.re = static_cast<unsigned>((p >> (2 * kFieldBits)) & kFieldMask);
  return s;
}

PackedState DetectionModel::initial_state() const {
  return pack(DetectionState{});
}

void DetectionModel::for_each_transition(
    PackedState state, const markov::TransitionSink& emit) const {
  const DetectionState s = unpack(state);
  const double lambda_bits =
      static_cast<double>(params_.m) * params_.seu_rate_per_bit_hour;
  const double lambda_e = params_.erasure_rate_per_symbol_hour;
  const double delta = params_.detection_rate_per_hour;
  const double sigma = params_.scrub_rate_per_hour;
  const unsigned touched = s.eu + s.ed + s.re;
  const unsigned untouched = params_.n - touched;

  // SEU on an untouched symbol.
  if (lambda_bits > 0.0 && untouched > 0) {
    DetectionState t = s;
    ++t.re;
    emit(lambda_bits * untouched, pack(t));
  }
  // Permanent fault on an untouched symbol: arrives UNDETECTED.
  if (lambda_e > 0.0 && untouched > 0) {
    DetectionState t = s;
    ++t.eu;
    emit(lambda_e * untouched, pack(t));
  }
  // Permanent fault on an SEU-hit symbol: the transient damage is subsumed
  // by the (still unlocated) permanent fault.
  if (lambda_e > 0.0 && s.re > 0) {
    DetectionState t = s;
    --t.re;
    ++t.eu;
    emit(lambda_e * s.re, pack(t));
  }
  // Location/detection: an unlocated fault becomes an erasure. This can
  // bring an unrecoverable word BACK into the correctable region (nothing
  // was overwritten while it was unreadable).
  if (delta > 0.0 && s.eu > 0) {
    DetectionState t = s;
    --t.eu;
    ++t.ed;
    emit(delta * s.eu, pack(t));
  }
  // Scrubbing clears transient errors, but only if the scrub's own decode
  // succeeds; from an unrecoverable state it rewrites nothing.
  if (sigma > 0.0 && s.re > 0 && recoverable(s)) {
    DetectionState t = s;
    t.re = 0;
    emit(sigma, pack(t));
  }
}

markov::StateSpace DetectionModel::build() const {
  return markov::build_state_space(*this);
}

std::vector<double> DetectionModel::fail_probability(
    const markov::StateSpace& space, std::span<const double> times_hours,
    const markov::TransientSolver& solver) const {
  markov::check_query_times(times_hours);
  std::vector<double> result;
  result.reserve(times_hours.size());
  markov::SolverWorkspace ws;
  std::vector<double> pi = space.chain.initial_distribution();
  std::vector<double> next(pi.size());
  double t_prev = 0.0;
  for (const double t : times_hours) {
    if (t > t_prev) {
      solver.solve_into(space.chain, pi, t - t_prev, ws, next);
      std::swap(pi, next);
      t_prev = t;
    }
    double unrecoverable_mass = 0.0;
    for (std::size_t i = 0; i < space.size(); ++i) {
      if (!recoverable_packed(space.states[i])) unrecoverable_mass += pi[i];
    }
    result.push_back(unrecoverable_mass);
  }
  return result;
}

}  // namespace rsmem::models
