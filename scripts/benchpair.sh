#!/usr/bin/env bash
# Interleaved same-seed benchmark pairs: this checkout against a parent.
#
#   scripts/benchpair.sh PARENT WORKLOAD SEED...
#   make bench-pair PARENT=<commit> WORKLOAD=hub3_paced SEEDS="101 102 103"
#
# PARENT is a commit, checked out in a git worktree under $TMPDIR (removed
# on exit), or a directory that already holds a checkout. The change side
# is this checkout as it stands, uncommitted edits included. For each seed
# both sides run `bash bench/run.sh --workload WORKLOAD --seed SEED` with
# the window BENCHMARK.json names, the parent first on odd pairs and the
# change first on even ones, so a drift of the host splits evenly. Each
# pair prints every end-to-end metric of BENCHMARK.json side by side,
# with the run's correct flag and its failed count. Nothing under bench/
# is edited; each side builds into its own .bench_build/.
set -euo pipefail

if [ $# -lt 3 ]; then
	echo "usage: $0 PARENT WORKLOAD SEED..." >&2
	exit 2
fi
parent="$1" workload="$2"
shift 2

here="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
tmp="$(mktemp -d "${TMPDIR:-/tmp}/benchpair.XXXXXX")"
worktree=""
cleanup() {
	if [ -n "$worktree" ]; then
		git -C "$here" worktree remove --force "$worktree" || true
	fi
	rm -rf "$tmp"
}
trap cleanup EXIT

if [ -d "$parent" ]; then
	base="$(cd "$parent" && pwd)"
else
	worktree="$tmp/parent"
	git -C "$here" worktree add --detach --quiet "$worktree" "$parent"
	base="$worktree"
fi
seconds="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$here/BENCHMARK.json")"

# run SIDE DIR SEED: one pass, its JSON result line kept as $tmp/SIDE.json.
run() {
	echo "  $1: bench/run.sh --workload $workload --seed $3 --seconds $seconds" >&2
	bash "$2/bench/run.sh" --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0 \
		>"$tmp/$1.out" 2>"$tmp/$1.err" || {
		echo "  $1 did not run; last lines of its stderr:" >&2
		tail -n 20 "$tmp/$1.err" >&2
		exit 1
	}
	tail -n 1 "$tmp/$1.out" >"$tmp/$1.json"
}

pair=0
for seed in "$@"; do
	pair=$((pair + 1))
	if [ $((pair % 2)) -eq 1 ]; then
		order="parent change"
	else
		order="change parent"
	fi
	echo "pair $pair: $workload seed $seed, ${order// / first, then }" >&2
	for side in $order; do
		if [ "$side" = parent ]; then run parent "$base" "$seed"; else run change "$here" "$seed"; fi
	done
	python3 - "$here/BENCHMARK.json" "$tmp/parent.json" "$tmp/change.json" "$pair" "$seed" <<'EOF'
import json, sys
bench, parent, change = (json.load(open(p)) for p in sys.argv[1:4])
print(f"pair {sys.argv[4]} seed {sys.argv[5]}")
print(f"  {'metric':<18} {'parent':>12} {'change':>12}")
for m in bench["end_to_end"]:
    cells = [r["metrics"].get(m["name"], {}).get("value") for r in (parent, change)]
    print(f"  {m['name']:<18} " + " ".join(f"{'-' if v is None else format(v, '.6g'):>12}" for v in cells))
print(f"  {'correct/failed':<18} " + " ".join(f"{str(r['correct']).lower() + '/' + str(r['failed']):>12}" for r in (parent, change)))
EOF
done
