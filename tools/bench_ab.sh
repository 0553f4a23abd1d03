#!/usr/bin/env bash
# Same-session A/B of the repository benchmark between two git refs.
#
#   tools/bench_ab.sh [-w workload] [-n pairs] [-S seed] BASE CHANGE
#
# Extracts each ref (`git archive`) into its own directory under a fresh temp
# dir, builds perfbench there once, then alternates `perfbench/run.py` runs of
# one workload: pair i runs BASE first when i is odd and CHANGE first when i is
# even, so a drift in host load lands on both sides. Every run lasts BASE's
# BENCHMARK.json run_seconds, so both sides and the benchmark itself measure
# the same span. Defaults: field_track, 10 pairs, seed 1.
#
# Prints every run, then for each end-to-end metric of BASE's BENCHMARK.json
# both medians, each side's interquartile range (IQR), the relative change and
# the number of pairs CHANGE won. Each metric is judged against its `bound`:
# WORSE when CHANGE's median is worse than BASE's by more than bound x BASE's
# median; UNRESOLVED when BASE's own IQR is wider than that, because such a
# run-to-run spread cannot tell a change inside the bound from noise (unless
# every CHANGE run beats every BASE run).
#
# Exit status: 0 when every metric is within its bound, 1 when one is worse,
# 2 when a checkout could not be built or a run failed its output checks,
# 3 when none is worse but one is unresolved.
# A ref may be anything `git rev-parse` accepts; to measure uncommitted work,
# stage it and pass the commit that `git stash create` prints.
set -euo pipefail

usage() {
  sed -n '2,4p' "$0" | sed 's/^# \{0,1\}//' >&2
  exit 2
}

workload=field_track
pairs=10
seed=1
while getopts "w:n:S:h" opt; do
  case "$opt" in
    w) workload=$OPTARG ;;
    n) pairs=$OPTARG ;;
    S) seed=$OPTARG ;;
    *) usage ;;
  esac
done
shift $((OPTIND - 1))
[ $# -eq 2 ] || usage

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
base=$(git -C "$root" rev-parse --verify "$1^{commit}")
change=$(git -C "$root" rev-parse --verify "$2^{commit}")

tmp=$(mktemp -d "${TMPDIR:-/tmp}/bench_ab.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
runs="$tmp/runs.tsv"
: >"$runs"

checkout() {  # <side> <commit>
  mkdir -p "$tmp/$1"
  git -C "$root" archive "$2" | tar -x -C "$tmp/$1"
  echo "bench_ab: building $1 ($2)" >&2
  if ! (cd "$tmp/$1" &&
        python3 perfbench/run.py --workload "$workload" --seed "$seed" \
          --seconds 0.5 --trace 0 >"$tmp/$1.build.log" 2>&1); then
    tail -20 "$tmp/$1.build.log" >&2
    echo "bench_ab: $1 failed to build or run" >&2
    exit 2
  fi
}

run() {  # <side> <pair>
  local line
  line=$(cd "$tmp/$1" &&
         python3 perfbench/run.py --workload "$workload" --seed "$seed" \
           --seconds "$seconds" --trace 0 | tail -1) || true
  printf '%s\t%s\t%s\n' "$1" "$2" "$line" >>"$runs"
}

checkout base "$base"
checkout change "$change"
seconds=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
          "$tmp/base/BENCHMARK.json")
for ((i = 1; i <= pairs; ++i)); do
  echo "bench_ab: pair $i/$pairs" >&2
  if ((i % 2 == 1)); then
    run base "$i"
    run change "$i"
  else
    run change "$i"
    run base "$i"
  fi
done

python3 - "$runs" "$tmp/base/BENCHMARK.json" "$workload" "$seed" "$seconds" <<'EOF'
import json
import statistics
import sys

runs_path, spec_path, workload, seed, seconds = sys.argv[1:]
metrics = json.load(open(spec_path))["end_to_end"]
values = {"base": {}, "change": {}}  # side -> pair -> {metric: value}
broken = []
for row in open(runs_path):
    side, pair, line = row.rstrip("\n").split("\t", 2)
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        broken.append(f"{side} pair {pair}: no result line")
        continue
    if not result["correct"]:
        broken.append(f"{side} pair {pair}: {result['failed']} output check(s) failed")
    values[side][int(pair)] = {m: v["value"] for m, v in result["metrics"].items()}

print(f"bench_ab: {workload}, seed {seed}, {seconds} s per run")
names = [m["name"] for m in metrics]
print("pair  side    " + "  ".join(f"{n:>14}" for n in names))
for pair in sorted(set(values["base"]) | set(values["change"])):
    for side in ("base", "change"):
        got = values[side].get(pair)
        if got is not None:
            print(f"{pair:>4}  {side:<6}  " + "  ".join(f"{got[n]:>14.6g}" for n in names))

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

worse, unresolved = [], []
print()
print(f"{'metric':<12} {'better':<7} {'base median':>12} {'base IQR':>10} "
      f"{'change median':>14} {'change IQR':>11} {'change':>8} {'wins':>6} {'bound':>6}")
for m in metrics:
    name, higher, bound = m["name"], m["better"] == "higher", m["bound"]
    a = [v[name] for v in values["base"].values()]
    b = [v[name] for v in values["change"].values()]
    if not a or not b:
        continue
    ma, mb = statistics.median(a), statistics.median(b)
    qa, qb = quartiles(a), quartiles(b)
    iqr_a, iqr_b = qa[1] - qa[0], qb[1] - qb[0]
    common = sorted(set(values["base"]) & set(values["change"]))
    wins = sum(1 for p in common
               if (values["change"][p][name] > values["base"][p][name]) == higher
               and values["change"][p][name] != values["base"][p][name])
    rel = (mb - ma) / ma if ma else 0.0
    print(f"{name:<12} {m['better']:<7} {ma:>12.6g} {iqr_a:>10.3g} {mb:>14.6g} "
          f"{iqr_b:>11.3g} {rel:>+8.1%} {wins:>3}/{len(common)} {bound:>6.0%}")
    allowed = bound * abs(ma)
    separated = min(b) > max(a) if higher else max(b) < min(a)
    if (mb < ma - allowed) if higher else (mb > ma + allowed):
        worse.append(f"{name}: change median {mb:.6g} is worse than base median "
                     f"{ma:.6g} by more than the {bound:.0%} bound")
    elif iqr_a > allowed and not separated:
        unresolved.append(f"{name}: base IQR {iqr_a:.3g} is wider than the "
                          f"{bound:.0%} bound ({allowed:.3g})")
for line in broken:
    print(f"RUN FAILED: {line}")
for line in worse:
    print(f"WORSE: {line}")
for line in unresolved:
    print(f"UNRESOLVED: {line}")
if broken:
    sys.exit(2)
sys.exit(1 if worse else 3 if unresolved else 0)
EOF
