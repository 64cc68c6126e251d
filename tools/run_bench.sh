#!/usr/bin/env sh
# Benchmark snapshot driver.
#
# Configures/builds the `bench` preset, runs the codec microbenchmarks with
# google-benchmark's JSON reporter, and records the result as
# BENCH_codec.json at the repo root so the codec perf trajectory is tracked
# in-tree. Also runs bench_mc_vs_markov for the end-to-end Monte-Carlo
# throughput numbers (its PASS/FAIL lines gate the >= 1.5x codec speedup),
# bench_markov_throughput, which snapshots the Markov sweep-engine numbers
# as BENCH_markov.json, and `rsmem_cli loadgen --self-host`, which snapshots
# the rsmem-serve latency/cache numbers as BENCH_serve.json. Finally replays
# the paper-figure benches under the bench preset so the snapshot reflects a
# green figure suite.
#
# Every required binary is checked for existence up front: a missing bench
# binary fails the whole run loudly (non-zero exit, nothing written) rather
# than leaving a partial BENCH_*.json snapshot behind.
#
# Release-build guard: the run refuses to start from a non-Release build
# tree and deletes any BENCH_codec.json whose embedded rsmem_build_type is
# not "release", so debug numbers can never be recorded as the trajectory.
# The SIMD plane selfcheck (>= 2x encode-plane speedup where a PSHUFB
# backend is selected) gates the snapshot as well.
#
# Usage: tools/run_bench.sh [--backend-sweep] [extra google-benchmark args...]
#
# Extra arguments are forwarded to bench_codec_throughput verbatim.
# `--backend-sweep` makes it register the RS(36,16) x4096 encode/decode
# plane cases once per backend the host CPU supports (scalar at minimum,
# ssse3/avx2/gfni where available), so the BENCH_codec.json snapshot
# records the whole backend ladder next to the host's cpu_flags context.
# After the snapshot passes the release guard, bench_mc_vs_markov merges
# its campaign-throughput numbers (thread scaling, batched-vs-per-word
# planes, each tagged with the selected gf backend) into BENCH_codec.json
# as a top-level `mc_campaign` object.
set -eu

ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
BUILD="$ROOT/build-bench"

cmake --preset bench -S "$ROOT" >/dev/null
cmake --build "$BUILD" \
    --target bench_codec_throughput bench_mc_vs_markov \
             bench_markov_throughput rsmem_cli \
             bench_fig5_simplex_seu bench_fig6_duplex_seu \
             bench_fig7_duplex_scrubbing bench_fig8_simplex_perm \
             bench_fig9_duplex_perm bench_fig10_rs3616_perm \
    -j "$(nproc)"

# Verify ALL required binaries before running ANY of them, so a botched
# build cannot write a partial benchmark snapshot.
MISSING=0
for bin in \
    "$BUILD/bench/bench_codec_throughput" \
    "$BUILD/bench/bench_mc_vs_markov" \
    "$BUILD/bench/bench_markov_throughput" \
    "$BUILD/tools/rsmem_cli"; do
    if [ ! -x "$bin" ]; then
        echo "error: required bench binary missing: $bin" >&2
        MISSING=1
    fi
done
if [ "$MISSING" -ne 0 ]; then
    echo "error: bench binaries missing after build; refusing to write a" \
         "partial BENCH_*.json snapshot" >&2
    exit 1
fi

# Guard against recording debug-build numbers: the bench preset pins
# CMAKE_BUILD_TYPE=Release, but a stale or hand-edited build tree could
# differ, and google-benchmark's own library_build_type reflects how the
# SYSTEM libbenchmark was compiled (often debug on distro packages), not
# how rsmem was. Check the cache before running anything, and re-check the
# binary's self-reported rsmem_build_type after writing the snapshot.
if ! grep -q '^CMAKE_BUILD_TYPE:[^=]*=Release$' "$BUILD/CMakeCache.txt"; then
    echo "error: $BUILD is not a Release build; refusing to record" \
         "benchmark numbers from it" >&2
    exit 1
fi

# The >= 2x SIMD encode-plane contract (enforced only where a PSHUFB
# backend is selected; record-only otherwise). Runs before the snapshot so
# a kernel-layer regression fails the run without touching BENCH_codec.json.
"$BUILD/bench/bench_codec_throughput" --plane-selfcheck

"$BUILD/bench/bench_codec_throughput" \
    --benchmark_format=json \
    --benchmark_out="$ROOT/BENCH_codec.json" \
    --benchmark_out_format=json \
    "$@"

if ! grep -q '"rsmem_build_type": "release"' "$ROOT/BENCH_codec.json"; then
    echo "error: BENCH_codec.json reports a non-release rsmem build;" \
         "removing the snapshot" >&2
    rm -f "$ROOT/BENCH_codec.json"
    exit 1
fi

# Runs AFTER the release guard above: the merge rewrites BENCH_codec.json
# through the canonical service serializer, and must only ever extend a
# snapshot that already passed the build-type check.
"$BUILD/bench/bench_mc_vs_markov" --campaign-json "$ROOT/BENCH_codec.json"

"$BUILD/bench/bench_markov_throughput" --out "$ROOT/BENCH_markov.json"

# rsmem-serve snapshot: self-hosted loadgen over the real wire protocol --
# 8 concurrent clients replaying the paper's duplex scrubbing sweep (4
# distinct cache keys), recording latency percentiles, cache hit rate, and
# the hot-query speedup. --shard-sweep appends an open-loop shard-scaling
# section (1/2/4 shards, same mix) to the JSON snapshot; the speedup column
# is only meaningful on hosts with >= 4 cores, so it is recorded, not
# asserted. See docs/SERVICE.md.
"$BUILD/tools/rsmem_cli" loadgen --clients 8 --requests 40 --distinct 4 \
    --shard-sweep 1,2,4 \
    --json "$ROOT/BENCH_serve.json"

ctest --test-dir "$BUILD" -R 'shape\.bench_fig' --output-on-failure \
    -j "$(nproc)"

echo "wrote $ROOT/BENCH_codec.json"
echo "wrote $ROOT/BENCH_markov.json"
echo "wrote $ROOT/BENCH_serve.json"
