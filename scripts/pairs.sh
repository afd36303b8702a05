#!/usr/bin/env bash
# Paired runs of the repo benchmark: a reference commit against the working
# tree, alternating which side runs first — the rule every performance claim
# here is held to (choosing-metrics §8: at least ten pairs, nine tenths won,
# medians apart by more than the reference's own quartile distance).
#
#   scripts/pairs.sh REF WORKLOAD [N [SEED [SECONDS]]]
#   make pairs REF=<commit> WORKLOAD=<name> N=10 [SEED=1] [SECONDS=28]
#
# REF's files are exported to .bench_build/pairs/<sha> (git archive: nothing
# is written to .git and nothing is left checked out), each side builds its
# own benchmark/ from its own source through benchmark/run.sh, and every run's
# result line is kept in .bench_build/pairs/{ref,change}.jsonl. The summary
# lists, per end-to-end metric of BENCHMARK.json, each side's median and
# quartiles, the change in the median, how many of the N pairs the change
# won (a tie counts for neither side, and still counts in N), and a
# verdict: "gain" when it won at least 0.9·N and its median is better by
# more than the reference's interquartile range, "over bound" when its
# median is worse than the reference's by more than the metric's bound.
set -euo pipefail
if [ $# -lt 2 ]; then
	sed -n '2,19p' "$0" >&2
	exit 2
fi
ref=$1 workload=$2 n=${3:-10} seed=${4:-1}
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
seconds=${5:-$(jq .run_seconds "$root/BENCHMARK.json")}
out="$root/.bench_build/pairs"
sha="$(git -C "$root" rev-parse --short "$ref^{commit}")"

refdir="$out/$sha"
if [ ! -d "$refdir" ]; then
	mkdir -p "$refdir"
	git -C "$root" archive "$sha" | tar -x -C "$refdir"
fi
rm -f "$out/ref.jsonl" "$out/change.jsonl"

# run SIDE DIR: one untraced run; its last line is the result.
run() {
	(cd "$2" && bash benchmark/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0) | tail -n 1 >>"$out/$1.jsonl"
}

echo "pairs: $workload, seed $seed, ${seconds}s windows, $n pairs, ref $sha against the working tree" >&2
for i in $(seq 1 "$n"); do
	if [ $((i % 2)) -eq 1 ]; then
		run ref "$refdir"
		run change "$root"
	else
		run change "$root"
		run ref "$refdir"
	fi
	jq -rs --arg i "$i" '"pair \($i): tput_ops_s ref \(.[0].metrics.tput_ops_s.value | floor), change \(.[1].metrics.tput_ops_s.value | floor)"' \
		<(tail -n 1 "$out/ref.jsonl") <(tail -n 1 "$out/change.jsonl") >&2
done

jq -rn --slurpfile spec "$root/BENCHMARK.json" --slurpfile ref "$out/ref.jsonl" --slurpfile chg "$out/change.jsonl" '
	def quantile(q): sort as $s | ((($s | length) - 1) * q) as $x | ($x | floor) as $i
		| $s[$i] + (($s[$i + 1] // $s[$i]) - $s[$i]) * ($x - $i);
	def sig: if . == 0 then "0" else . as $v | pow(10; 3 - ($v | fabs | log10 | floor)) as $k | ($v * $k | round) / $k | tostring end;
	def summary: "\(quantile(0.5) | sig) [\(quantile(0.25) | sig), \(quantile(0.75) | sig)]";
	def failures: map("\(.failed)/\(.attempted)") | join(" ");
	"metric           better  ref median [q1, q3]               change median [q1, q3]            median   won       verdict",
	($spec[0].end_to_end[] | .name as $m | .bound as $bound | (if .better == "higher" then 1 else -1 end) as $sign
		| [$ref[] | .metrics[$m].value] as $r | [$chg[] | .metrics[$m].value] as $c
		| ($r | length) as $n | ($r | quantile(0.5)) as $rm | ($c | quantile(0.5)) as $cm
		| ([range(0; $n) | select(($c[.] - $r[.]) * $sign > 0)] | length) as $won
		| "\($m)                "[0:17] + "\(.better)   "[0:8]
			+ "\($r | summary)                                  "[0:34]
			+ "\($c | summary)                                  "[0:34]
			+ "\(($cm / $rm - 1) * 1000 | round / 10)%        "[0:9]
			+ "\($won) of \($n)          "[0:10]
			+ (if $won >= 0.9 * $n and ($cm - $rm) * $sign > ($r | quantile(0.75)) - ($r | quantile(0.25)) then "gain"
				elif ($rm - $cm) * $sign > $bound * ($rm | fabs) then "over bound"
				else "" end)),
	"failed/attempted  ref: \($ref | failures)",
	"failed/attempted  change: \($chg | failures)",
	"correct           ref: \($ref | map(.correct) | all), change: \($chg | map(.correct) | all)"
'
