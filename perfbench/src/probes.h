// Kernel probes of the rs and gf layers at one code and plane width. Every
// traced run takes them, so the layers' speed is on record beside the
// workloads that lean on them and the ones that bypass them.
#ifndef PERFBENCH_PROBES_H
#define PERFBENCH_PROBES_H

#include <cstddef>
#include <utility>
#include <vector>

#include "common.h"
#include "rs/reed_solomon.h"
#include "sim/rng.h"

namespace perfbench {

struct Probes {
  double decode_batch_mbps = 0.0;  // clean plane through the syndrome screen
  double encode_batch_mbps = 0.0;
  double mul_rows_acc_mbps = 0.0;  // fused GF row kernel, rows x width bytes
  double decode_word_us = 0.0;     // one workspace decode
};

// Probes `params` on planes of `width` words. The per-word decode runs on
// words damaged at the given (corrupted, erased) weights, or on a clean
// word when `weights` is empty.
Probes run_probes(const rsmem::rs::CodeParams& params, std::size_t width,
                  const std::vector<std::pair<unsigned, unsigned>>& weights,
                  rsmem::sim::Rng& rng);

// Adds the rs.* / gf.* probe metrics to a traced result.
void add_probe_metrics(const Probes& probes, Result& result);

// Adds "<stage>_share" (the stage's part of the total per operation) for
// every row of the stage table but `unattributed`.
void add_stage_shares(Result& result);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H
