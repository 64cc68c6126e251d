// Experiment drivers for the paper's evaluation section.
//
// Each figure of the paper is a family of BER(t) curves produced by sweeping
// one parameter. These helpers run the Markov analysis for a sweep and
// return labeled series ready for the table/plot emitters; the bench
// binaries (bench/) are thin wrappers around them. Rates are accepted in
// the paper's units (per DAY, scrub periods in SECONDS).
#ifndef RSMEM_ANALYSIS_EXPERIMENT_H
#define RSMEM_ANALYSIS_EXPERIMENT_H

#include <span>
#include <string>
#include <vector>

#include "models/ber.h"

namespace rsmem::analysis {

enum class Arrangement : std::uint8_t { kSimplex, kDuplex };

const char* to_string(Arrangement a);

struct Series {
  std::string label;
  std::vector<double> x;  // time axis
  std::vector<double> y;  // BER
};

struct CodeSpec {
  unsigned n = 18;
  unsigned k = 16;
  unsigned m = 8;
};

// Sweep execution: chains come from the process-wide ChainCache, each
// point solves through a per-thread SolverWorkspace with dense step
// operators on the evenly spaced grid, and points are distributed by
// parallel_for_indexed (analysis/campaign.h) over the process-wide
// workers. Results are deterministic -- identical for every thread
// count, since each point is computed independently and written to its
// own slot -- and agree with per-point build-and-solve to solver accuracy
// (<= 1e-12 relative).
struct SweepOptions {
  unsigned threads = 0;  // 0 = hardware concurrency
};

// Figs. 5 & 6: one curve per SEU rate (per bit per day); no permanent
// faults, no scrubbing; x axis in hours.
std::vector<Series> seu_rate_sweep(Arrangement arrangement, CodeSpec code,
                                   std::span<const double> seu_per_bit_day,
                                   double t_end_hours, std::size_t points,
                                   const SweepOptions& options = {});

// Fig. 7: one curve per scrubbing period (seconds) at a fixed SEU rate;
// x axis in hours.
std::vector<Series> scrub_period_sweep(Arrangement arrangement, CodeSpec code,
                                       double seu_per_bit_day,
                                       std::span<const double> periods_seconds,
                                       double t_end_hours, std::size_t points,
                                       const SweepOptions& options = {});

// Figs. 8-10: one curve per permanent-fault (erasure) rate (per symbol per
// day); no SEUs, no scrubbing; x axis in MONTHS.
std::vector<Series> permanent_rate_sweep(
    Arrangement arrangement, CodeSpec code,
    std::span<const double> erasure_per_symbol_day, double t_end_months,
    std::size_t points, const SweepOptions& options = {});

}  // namespace rsmem::analysis

#endif  // RSMEM_ANALYSIS_EXPERIMENT_H
