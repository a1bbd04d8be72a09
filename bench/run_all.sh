#!/usr/bin/env bash
# Runs every bench_perf_* binary and collects their machine-readable result
# lines (one JSON object per line, emitted via bench_util.h's EmitJson) into
# a single JSON-lines file.
#
# Usage: bench/run_all.sh [build-dir] [output-file]
#
# The default output name derives from the PR being collected: set PR=<n> in
# the environment (or pass an explicit output file) — the file is BENCH_pr<n>.json,
# written at the repo root.  When PR is unset, it defaults to the latest
# entry in CHANGES.md, so the script stays correct as the stack grows.
set -u

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-${ROOT}/build}"
if [ -z "${PR:-}" ]; then
  PR="$(sed -n 's/^- PR \([0-9][0-9]*\):.*/\1/p' "${ROOT}/CHANGES.md" | tail -1)"
  PR="${PR:-0}"
fi
OUT="${2:-${ROOT}/BENCH_pr${PR}.json}"
BENCH_DIR="${BUILD_DIR}/bench"

if [ ! -d "${BENCH_DIR}" ]; then
  echo "error: ${BENCH_DIR} not found; build first (cmake -B ${BUILD_DIR} -S . && cmake --build ${BUILD_DIR} -j)" >&2
  exit 2
fi

: > "${OUT}"
failures=0
# The expected set derives from the sources, not from what happens to be in
# the build directory — a bench that failed to build (or was never built)
# must fail the collection loudly, not silently thin the result file.
for src in "${ROOT}"/bench/bench_perf_*.cc; do
  name="$(basename "${src}" .cc)"
  bench="${BENCH_DIR}/${name}"
  if [ ! -x "${bench}" ]; then
    echo "FAILED (missing binary): ${name} — rebuild ${BUILD_DIR}" >&2
    failures=$((failures + 1))
    continue
  fi
  echo "--- ${name}"
  # The google-benchmark binaries accept the min-time flag; the plain ones
  # ignore unknown argv entirely (their main() takes no flags).
  case "${name}" in
    bench_perf_eventcounts|bench_perf_linker|bench_perf_name_manager)
      output="$("${bench}" --benchmark_min_time=0.05s 2>&1)" ;;
    *)
      output="$("${bench}" 2>&1)" ;;
  esac
  status=$?
  if [ ${status} -ne 0 ]; then
    echo "FAILED (exit ${status}): ${name}" >&2
    echo "${output}" | tail -5 >&2
    failures=$((failures + 1))
  fi
  echo "${output}" | grep '^{' >> "${OUT}" || true
done

# The repository's own size census (lines, gate entry points, config fields),
# so compare_bench.py flags growth in it like any other cost.
echo "--- self_census"
if ! python3 "${ROOT}/bench/self_census.py" "${ROOT}" >> "${OUT}"; then
  echo "FAILED: self_census" >&2
  failures=$((failures + 1))
fi

# A result row that advanced virtual time but reports zero simulated
# throughput means the host-throughput wiring is broken (the PR 6 eventcounts
# row slipped through exactly this way before sim_cycles_advanced existed).
# Rows without host fields (MKS_BENCH_NO_HOST=1) and genuinely host-level
# benches (sim_cycles_advanced 0) are exempt.
while IFS= read -r line; do
  case "${line}" in
    *'"sim_cycles_per_host_sec": 0'*)
      adv="$(printf '%s' "${line}" | sed -n 's/.*"sim_cycles_advanced": \([0-9]*\).*/\1/p')"
      if [ -n "${adv}" ] && [ "${adv}" -gt 0 ]; then
        echo "FAILED (zero sim_cycles_per_host_sec after advancing ${adv} cycles): ${line}" >&2
        failures=$((failures + 1))
      fi
      ;;
  esac
done < "${OUT}"

echo
echo "collected $(wc -l < "${OUT}") result lines into ${OUT}"
exit "${failures}"
