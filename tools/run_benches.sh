#!/usr/bin/env bash
#
# Builds the Release tree and runs every experiment bench, collecting the
# BENCH_*.json documents into one artifact directory. This is the script CI
# runs to accumulate the bench trajectory; it is equally usable locally:
#
#   tools/run_benches.sh                 # build + run everything -> bench_artifacts/
#   tools/run_benches.sh out/            # custom artifact directory
#   BENCHES="bench_preprocessing" tools/run_benches.sh   # subset
#
# Environment knobs:
#   BUILD_DIR   build tree to use/create          (default: build-bench)
#   BENCHES     space-separated bench executables (default: all JSON benches)
#   CR_THREADS  forwarded to the benches' executor
set -euo pipefail

repo_root=$(cd "$(dirname "$0")/.." && pwd)
build_dir=${BUILD_DIR:-"$repo_root/build-bench"}
artifact_dir=${1:-"$repo_root/bench_artifacts"}

# The benches that write BENCH_*.json documents (the others only print
# tables; add them via BENCHES= when their output is wanted in the log).
default_benches="bench_table1_name_independent bench_table2_labeled \
bench_preprocessing bench_audit bench_internet"
benches=${BENCHES:-$default_benches}

cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
cmake --build "$build_dir" -j"$(nproc)"

mkdir -p "$artifact_dir"
cd "$build_dir/bench"

for bench in $benches; do
  echo "=== $bench ==="
  "./$bench"
done

# Every bench writes its JSON next to itself; validate and collect them.
for json in BENCH_*.json; do
  [ -e "$json" ] || { echo "no BENCH_*.json produced" >&2; exit 1; }
  python3 -m json.tool "$json" > /dev/null
  cp "$json" "$artifact_dir/"
done

# The Internet-degradation table (EXPERIMENTS.md E12): every family must
# carry all four schemes and a row-free doubling estimate that materialized
# zero metric rows, and the traffic section needs the adversarial shapes
# with latency percentiles and a deterministic overload shed rate.
if [ -e BENCH_internet.json ]; then
  python3 - <<'EOF'
import json
doc = json.load(open("BENCH_internet.json"))
families = doc["families"]
assert sum(f["internet_like"] for f in families) >= 3, "need >= 3 internet-like families"
for fam in families:
    assert fam["doubling"]["backend"] == "rowfree"
    assert fam["doubling"]["rows_materialized"] == 0, fam["family"]
    assert len(fam["schemes"]) == 4, fam["family"]
    for scheme in fam["schemes"]:
        st = scheme["stretch"]
        assert st["max"] >= st["p99"] >= 0 and st["avg"] >= 1
        assert scheme["storage_vs_sp"] > 0
shapes = doc["traffic"]["shapes"]
assert len(shapes) >= 2, "need >= 2 adversarial traffic shapes"
assert {s["shape"] for s in shapes} >= {"zipf", "incast", "worst"}
for shape in shapes:
    assert shape["p999_us"] >= shape["p99_us"] >= 0
    assert shape["overload"]["shed"] > 0 and shape["overload"]["shed_rate"] > 0
EOF
  cp BENCH_internet.json "$repo_root/BENCH_internet.json"
fi

echo "artifacts in $artifact_dir:"
ls -l "$artifact_dir"
