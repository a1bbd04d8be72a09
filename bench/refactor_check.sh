#!/usr/bin/env bash
# Byte-identity check for a change that must not move virtual time.
#
# Runs every bench_* binary of two builds, once bare and once with each
# flag its Usage comment lists (flags that take a value are skipped), each
# run in its own empty directory with MKS_BENCH_NO_HOST=1, then diffs the two
# trees: stdout+stderr and exit status, *.trace.json and *.prof.folded.
# Only host-timing lines are masked: simcore's host_ms / cyc_per_host_sec /
# host_ns_per_ref and its "host ms" summary lines, and the google-benchmark
# report and *_ns fields of bench_perf_eventcounts, _linker and _name_manager.
#
# Usage: bench/refactor_check.sh PARENT_BUILD CHANGE_BUILD [WORK_DIR]
#   JOBS=<n> sets the parallel runs (default 4).
# Exit status: 0 identical, 1 any other difference, 2 usage error or a
# missing binary.
set -u

if [ $# -lt 2 ]; then
  sed -n '2,16s/^# \{0,1\}//p' "$0" >&2
  exit 2
fi
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
PARENT="$(cd "$1" && pwd)" || exit 2
CHANGE="$(cd "$2" && pwd)" || exit 2
WORK="${3:-$(mktemp -d)}"
JOBS="${JOBS:-4}"
rm -rf "${WORK}/parent" "${WORK}/change"
mkdir -p "${WORK}/parent" "${WORK}/change"

GBENCH='^bench_perf_(eventcounts|linker|name_manager)$'

# One line per run: "<name>" or "<name> <flag>".
runs() {
  for src in "${ROOT}"/bench/bench_*.cc; do
    name="$(basename "${src}" .cc)"
    echo "${name}"
    sed -n 's|^// Usage: [^ ]*||p' "${src}" | grep -o '\[--[a-z-]*\]' | tr -d '[]' |
      sed "s|^|${name} |"
  done
}

missing=0
while read -r name _; do
  for build in "${PARENT}" "${CHANGE}"; do
    if [ ! -x "${build}/bench/${name}" ]; then
      echo "missing binary: ${build}/bench/${name}" >&2
      missing=1
    fi
  done
done < <(runs | sort -u)
[ ${missing} -eq 0 ] || exit 2

run_one() {  # build side name [flag]
  local dir="${WORK}/$2/$3${4:+_${4#--}}"
  mkdir -p "${dir}"
  (cd "${dir}" && MKS_BENCH_NO_HOST=1 "$1/bench/$3" ${4:-} > out.txt 2>&1
   echo "exit $?" >> out.txt)
  if [[ "$3" =~ ${GBENCH} ]]; then
    sed -i -E -e '/^BM_|^-{20,}$|^Benchmark +Time|^[0-9]{4}-[0-9]{2}-[0-9]{2}T|^Running |^Run on |^CPU Caches:|^  L[0-9] |^Load Average:|^\*\*\*WARNING\*\*\*/d' \
      -e 's/"([a-z0-9_]+_ns)": [0-9.e+-]+/"\1": HOST/g' "${dir}/out.txt"
  elif [ "$3" = bench_perf_simcore ]; then
    sed -i -E -e 's/"(host_ms|cyc_per_host_sec|host_ns_per_ref)": [0-9.e+-]+/"\1": HOST/g' \
      -e 's/ in [0-9.]+ host ms -> .*/ in HOST/' "${dir}/out.txt"
  fi
}
export -f run_one
export WORK GBENCH

{
  runs | sed "s|^|${PARENT} parent |"
  runs | sed "s|^|${CHANGE} change |"
} | xargs -P "${JOBS}" -L 1 bash -c 'run_one "$@"' _

if diff -r "${WORK}/parent" "${WORK}/change"; then
  echo "refactor_check: identical ($(runs | wc -l) runs per build, ${WORK})"
  exit 0
fi
echo "refactor_check: outputs differ (${WORK})" >&2
exit 1
