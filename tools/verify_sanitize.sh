#!/usr/bin/env bash
# Sanitizer leg of the tier-1 verify path: configures a dedicated build tree
# with MICROREC_SANITIZE=address,undefined and runs the whole test suite
# under ASan+UBSan, so a test cannot drop out of the leg by moving between
# suites.
# Usage:
#   tools/verify_sanitize.sh [build-dir] [ctest -R regex]
# The optional regex narrows the run to matching ctest names (Suite.Test,
# e.g. "HotCache") for a quicker local loop.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-"$repo/build-asan"}"
filter="${2:-}"

cmake -B "$build" -S "$repo" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DMICROREC_SANITIZE=address,undefined \
  -DMICROREC_BUILD_BENCHES=OFF \
  -DMICROREC_BUILD_EXAMPLES=OFF >/dev/null
cmake --build "$build" -j "$(nproc)"

# halt_on_error makes UBSan findings fail the run instead of just logging.
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}"
# --no-tests=error guards against a filter that silently matches nothing.
ctest_args=(--test-dir "$build" --output-on-failure --no-tests=error
            -j "$(nproc)")
if [[ -n "$filter" ]]; then
  ctest_args+=(-R "$filter")
fi
ctest "${ctest_args[@]}"
echo "sanitizer verify OK (${filter:-full suite})"
