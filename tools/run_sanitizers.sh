#!/usr/bin/env sh
# Sanitizer sweep: one build per sanitizer.
#
# asan (asan preset): the full tier-1 suite minus the mc_heavy label, the
# adversarial injection campaign, the chaos battery and the serve-churn
# chaos campaign, then the SIMD codec differential suite (`codec` label)
# once as built, where the suite forces every compiled vector backend in
# turn, and once per backend this host supports with RSMEM_GF_BACKEND
# pinned. The RSMEM_GF_BACKEND=scalar run is the scalar control: every
# codec call that does not force a backend runs the original loops.
# tsan (tsan preset): the mc_heavy differential suites that exercise the
# parallel campaign engine, the `campaign` suite (the campaign engine and
# parallel_for_indexed on the process-wide workers: nested calls,
# concurrent callers, exceptions), a multi-threaded injection campaign, the
# rsmem-serve `service` suite (including the scheduler's submit-vs-stop
# race), a loadgen smoke run (sharded server + concurrent open-loop
# clients + clean shutdown over real sockets), the chaos battery and the
# serve-churn chaos campaign.
# Either pass can be selected alone with `asan` / `tsan`
# as the first argument; the default runs both. Exits non-zero on the first
# failing pass, so this is CI-gate friendly.
#
# Usage: tools/run_sanitizers.sh [asan|tsan|all]
set -eu

ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
MODE="${1:-all}"
JOBS="$(nproc 2>/dev/null || echo 2)"

run_asan() {
    echo "== Address+UB sanitizers: tier-1 suite =="
    cmake --preset asan -S "$ROOT" >/dev/null
    cmake --build "$ROOT/build-asan" -j "$JOBS"
    # abort_on_error makes an ASan report fail the ctest run instead of
    # only printing; detect_leaks covers the workspace/arena paths.
    ASAN_OPTIONS="abort_on_error=1:detect_leaks=1" \
        ctest --test-dir "$ROOT/build-asan" -LE mc_heavy --output-on-failure
    # The adversarial campaign allocates/frees whole systems per scenario:
    # drive it end to end under ASan as well.
    ASAN_OPTIONS="abort_on_error=1:detect_leaks=1" \
        "$ROOT/build-asan/tools/rsmem_cli" inject --preset paper-duplex \
        > /dev/null
    # Chaos battery under ASan: the fault-injection shim slices/corrupts
    # frames at the syscall boundary and the snapshot reader parses
    # adversarial bytes -- both are exactly where a heap overrun would live.
    ASAN_OPTIONS="abort_on_error=1:detect_leaks=1" \
        ctest --test-dir "$ROOT/build-asan" -L chaos --output-on-failure
    ASAN_OPTIONS="abort_on_error=1:detect_leaks=1" \
        "$ROOT/build-asan/tools/rsmem_cli" chaos --preset serve-churn \
        --requests 8 --distinct 2 > /dev/null

    echo "== Address+UB sanitizers: SIMD codec kernels (vector backends) =="
    # The codec differential suite again, explicitly: the SIMD kernels do
    # unaligned vector loads and tail handling that ASan/UBSan must see
    # under every compiled backend (the suite forces each in turn), and then
    # ONCE PER SUPPORTED BACKEND with RSMEM_GF_BACKEND pinned, so the
    # process-wide dispatch path itself (env parse, CPUID gate, first-use
    # selection) runs under ASan for every backend this host can execute —
    # scalar at minimum, the vector backends where the CPU allows.
    ASAN_OPTIONS="abort_on_error=1:detect_leaks=1" \
        ctest --test-dir "$ROOT/build-asan" -L codec --output-on-failure
    backends=$("$ROOT/build-asan/tools/rsmem_cli" version \
        | sed -n 's/^gf backends supported://p')
    echo "asan codec loop over backends:$backends"
    for b in $backends; do
        echo "== Address+UB sanitizers: codec suite, RSMEM_GF_BACKEND=$b =="
        RSMEM_GF_BACKEND="$b" \
            ASAN_OPTIONS="abort_on_error=1:detect_leaks=1" \
            ctest --test-dir "$ROOT/build-asan" -L codec --output-on-failure
    done
}

run_tsan() {
    echo "== ThreadSanitizer: parallel campaign suites =="
    cmake --preset tsan -S "$ROOT" >/dev/null
    cmake --build "$ROOT/build-tsan" -j "$JOBS"
    TSAN_OPTIONS="halt_on_error=1" \
        ctest --test-dir "$ROOT/build-tsan" -L mc_heavy --output-on-failure
    # parallel_for_indexed's shared workers: callers and helpers share one
    # job counter, nest, and race from several threads at once.
    TSAN_OPTIONS="halt_on_error=1" \
        ctest --test-dir "$ROOT/build-tsan" -L campaign --output-on-failure
    # Multi-threaded campaign run: scenario shards on 4 workers.
    TSAN_OPTIONS="halt_on_error=1" \
        "$ROOT/build-tsan/tools/rsmem_cli" inject --preset paper-duplex \
        --threads 4 > /dev/null

    echo "== ThreadSanitizer: rsmem-serve suites =="
    # The service e2e suite: real sockets, concurrent clients, sharded
    # dispatch, scheduler drain/overload paths and submitters racing
    # stop() -- exactly the code where a data race would hide.
    TSAN_OPTIONS="halt_on_error=1" \
        ctest --test-dir "$ROOT/build-tsan" -L service --output-on-failure
    # Service smoke: self-hosted sharded server + concurrent open-loop
    # clients + clean shutdown, end to end over the wire under TSan.
    TSAN_OPTIONS="halt_on_error=1" \
        "$ROOT/build-tsan/tools/rsmem_cli" loadgen --clients 4 \
        --requests 10 --distinct 2 --threads 2 --shards 2 --open-loop \
        > /dev/null
    # Chaos battery under TSan: hedged attempts race two lanes on separate
    # threads, the idle reaper and watchdog poke connections from the
    # acceptor thread, and the campaign drives server churn -- the exact
    # surfaces where a lock-ordering or lifetime race would hide.
    TSAN_OPTIONS="halt_on_error=1" \
        ctest --test-dir "$ROOT/build-tsan" -L chaos --output-on-failure
    TSAN_OPTIONS="halt_on_error=1" \
        "$ROOT/build-tsan/tools/rsmem_cli" chaos --preset serve-churn \
        --requests 8 --distinct 2 > /dev/null
}

case "$MODE" in
    asan) run_asan ;;
    tsan) run_tsan ;;
    all)  run_asan; run_tsan ;;
    *) echo "usage: tools/run_sanitizers.sh [asan|tsan|all]" >&2; exit 2 ;;
esac

echo "sanitizer sweep ($MODE): PASS"
