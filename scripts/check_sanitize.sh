#!/usr/bin/env bash
# Sanitizer gate.
#
#   scripts/check_sanitize.sh [build-dir] [sanitizer]
#
# Configures a dedicated build tree with ALBERTA_SANITIZE=<sanitizer>
# (default: thread) and runs tests under it:
#
#   address, undefined  the full ctest suite
#   thread              every test binary that drives an Executor with
#                       more than one job:
#     test_serve          wire protocol, queue semantics, daemon e2e
#     test_serve_stress   deterministic schedule vs reference model,
#                         true multi-producer/multi-consumer stress
#     test_scheduler      suite scheduler through the shared executor
#     test_executor       the worker pool itself
#     test_engine         engines built with several jobs
#     test_persistent_cache  concurrent engines on one cache directory
#     test_fdo            profile and optimized runs through an engine
#     test_obs            counters bumped from executor threads
#     test_work_counters  cold and warm Table II on a default-sized pool
#     test_deepsjeng      characterization on a default-sized pool
#
# Any sanitizer report fails the script (TSan already exits non-zero
# by default; halt_on_error makes ASan/UBSan match). The sanitizer
# build lives in its own directory so it never disturbs the primary
# build's incremental state.
set -euo pipefail

cd "$(dirname "$0")/.."
SANITIZER="${2:-thread}"
BUILD_DIR="${1:-build-${SANITIZER}san}"

case "$SANITIZER" in
    thread | address | undefined) ;;
    *)
        echo "check_sanitize: unknown sanitizer '$SANITIZER'" \
             "(expected thread, address, or undefined)" >&2
        exit 2
        ;;
esac

export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"
export ASAN_OPTIONS="halt_on_error=1 ${ASAN_OPTIONS:-}"
export UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1 ${UBSAN_OPTIONS:-}"

cmake -B "$BUILD_DIR" -S . -DALBERTA_SANITIZE="$SANITIZER"

if [ "$SANITIZER" != thread ]; then
    cmake --build "$BUILD_DIR" -j"$(nproc)"
    (cd "$BUILD_DIR" && ctest --output-on-failure -j"$(nproc)")
    echo "check_sanitize: OK ($SANITIZER clean, full ctest suite)"
    exit 0
fi

THREAD_TESTS=(test_serve test_serve_stress test_scheduler test_executor
    test_engine test_persistent_cache test_fdo test_obs
    test_work_counters test_deepsjeng)
cmake --build "$BUILD_DIR" -j"$(nproc)" --target "${THREAD_TESTS[@]}"
for test in "${THREAD_TESTS[@]}"; do
    echo "== $SANITIZER sanitizer: $test =="
    "$BUILD_DIR/tests/$test"
done

echo "check_sanitize: OK ($SANITIZER clean)"
