#!/usr/bin/env bash
# Performance gate: runs every workload BENCHMARK.json names on a base
# revision and on this checkout, and fails when this checkout
#   - reports correct != true,
#   - fails a larger share of its operations than the base, or
#   - allocates more per operation than base x (1 + bound), with the
#     bound read from BENCHMARK.json's allocs_per_op entry.
# wall_s is printed for both sides but not gated: one noisy sample per
# side cannot judge wall time.
#
#   bash .github/perfgate.sh BASE_REV
set -euo pipefail
if [ $# -ne 1 ]; then
  echo "usage: $0 BASE_REV" >&2
  exit 2
fi
head="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
bound="$(jq -e '.end_to_end[] | select(.name == "allocs_per_op") | .bound' "$head/BENCHMARK.json")"

tmp="$(mktemp -d)"
base="$tmp/base"
trap 'git -C "$head" worktree remove --force "$base" 2>/dev/null || true; rm -rf "$tmp"' EXIT
git -C "$head" worktree add --quiet --detach "$base" "$1"

# bench TREE WORKLOAD prints the result line of one untraced run.
bench() {
  (cd "$1" && bash perfbench/run.sh --workload "$2" --seed 1 --seconds 5 --trace 0) | tail -n 1
}

status=0
for w in $(jq -r '.workloads[].name' "$head/BENCHMARK.json"); do
  b="$(bench "$base" "$w")" || { echo "perfgate: $w failed to run on $1" >&2; exit 2; }
  if ! h="$(bench "$head" "$w")"; then
    echo "FAIL $w run: perfbench exited non-zero" >&2
    status=1
    continue
  fi
  jq -nr --arg w "$w" --argjson b "$b" --argjson h "$h" \
    '"\($w): wall_s base \($b.metrics.wall_s.value) head \($h.metrics.wall_s.value) (not gated); allocs_per_op base \($b.metrics.allocs_per_op.value) head \($h.metrics.allocs_per_op.value)"'
  fails="$(jq -nr --arg w "$w" --argjson b "$b" --argjson h "$h" --argjson bound "$bound" '
    def frac: if .attempted > 0 then .failed / .attempted else 1 end;
    ($b.metrics.allocs_per_op.value) as $ba | ($h.metrics.allocs_per_op.value) as $ha |
    (if $h.correct != true then "FAIL \($w) correct: \($h.correct)" else empty end),
    (if ($h | frac) > ($b | frac) then "FAIL \($w) failed_frac: head \($h | frac) > base \($b | frac)" else empty end),
    (if $ha > $ba * (1 + $bound) then "FAIL \($w) allocs_per_op: head \($ha) > base \($ba) x (1 + \($bound))" else empty end)')"
  if [ -n "$fails" ]; then
    echo "$fails" >&2
    status=1
  fi
done
if [ "$status" -eq 0 ]; then
  echo "perfgate: every workload passes against $1"
fi
exit "$status"
