// The four workloads of the benchmark. Each fills `result` with its
// end-to-end metrics (untraced run) or its per-layer metrics and stage
// table (traced run), counts every operation it attempted and failed, and
// records known-answer mismatches. `tracer` is enabled only on traced runs.
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "common.h"

namespace perfbench {

void run_figures(const Options& options, Tracer& tracer, Result& result);
void run_mc_duplex_scrub(const Options& options, Tracer& tracer,
                         Result& result);
void run_mc_clean_screen(const Options& options, Tracer& tracer,
                         Result& result);
void run_serve_mixed(const Options& options, Tracer& tracer, Result& result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H
