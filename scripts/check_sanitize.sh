#!/usr/bin/env bash
# Sanitizer gate.
#
#   scripts/check_sanitize.sh [build-dir] [sanitizer]
#
# Configures a dedicated build tree with ALBERTA_SANITIZE=<sanitizer>
# (default: thread), builds the whole tree and runs the full ctest
# suite under it, `ctest -j$(nproc)`: tests are discovered one gtest
# case at a time, so they overlap.
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
cmake --build "$BUILD_DIR" -j"$(nproc)"
(cd "$BUILD_DIR" && ctest --output-on-failure -j"$(nproc)")
echo "check_sanitize: OK ($SANITIZER clean, full ctest suite)"
