#!/usr/bin/env bash
# One line per checked-in BENCH_*.json: the headline number(s) of each
# experiment, for quick before/after diffing in PRs. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

shopt -s nullglob
files=(BENCH_*.json)
if [ ${#files[@]} -eq 0 ]; then
    echo "no BENCH_*.json checked in" >&2
    exit 1
fi

for f in "${files[@]}"; do
    exp=$(jq -r '.experiment // "?"' "$f")
    case "$exp" in
    scale)
        jq -r '"\(input_filename): \(.rows | length) domains, speedup \(.rows | map(.speedup) | min)-\(.rows | map(.speedup) | max)x, answers_match \(.rows | all(.answers_match))"' "$f"
        ;;
    service)
        jq -r '"\(input_filename): \(.rows | length) domains, questions saved \(.rows | map(.saved_pct) | min)-\(.rows | map(.saved_pct) | max)%, answers_match \(.rows | all(.answers_match))"' "$f"
        ;;
    durability)
        jq -r '(.rows | map(.records) | max) as $n
            | (.rows | map(select(.records == $n)) | map(select(.snapshot_every != null)) | .[0].append_secs) as $on
            | (.rows | map(select(.records == $n)) | map(select(.snapshot_every == null)) | .[0].append_secs) as $off
            | "\(input_filename): \(.rows | length) rows, up to \($n) records, worst recover \(.rows | map(.recover_secs) | max)s, append snapshots on/off \($on / $off * 100 | round / 100)x at \($n) records"' "$f"
        ;;
    simtest)
        jq -r '"\(input_filename): \(.passed)/\(.seeds) seeds passed (\(.seeds_per_sec)/s)"' "$f"
        ;;
    crowdscale)
        jq -r '"\(input_filename): \(.rows | length) rows, up to \(.rows | map(.members) | max) members, shard gain \(.shard_gain)x (1->\(.rows | map(.shards) | max) shards), answers_match \(.rows | all(.answers_match))"' "$f"
        ;;
    net)
        jq -r '"\(input_filename): \(.rows | length) rows, overhead \(.rows | map(.overhead_pct) | min)-\(.rows | map(.overhead_pct) | max)%, hello rtt up to \(.rows | map(.hello_rtt_usecs) | max)us, answers_match \(.rows | all(.answers_match))"' "$f"
        ;;
    planner)
        jq -r '"\(input_filename): \(.rows | length) domains, seeds cut \(.rows | map(.base_seeds - .filtered_seeds) | min)-\(.rows | map(.base_seeds - .filtered_seeds) | max), questions cut \(.rows | map(.base_questions - .filtered_questions) | min)-\(.rows | map(.base_questions - .filtered_questions) | max), eval speedup \(.rows | map(.eval_speedup) | min)-\(.rows | map(.eval_speedup) | max)x, answers_match \(.rows | all(.answers_match))"' "$f"
        ;;
    mining)
        jq -r '"\(input_filename): \(.rows | length) domains, \(.rows | map("\(.domain) \(.us_per_question)us/q") | join(", ")), largest span \(.rows | map(.span_shares | to_entries | max_by(.value) | .key) | unique | join("/"))"' "$f"
        ;;
    *)
        echo "$f: experiment=$exp ($(jq -r '.rows | length // 0' "$f") rows)"
        ;;
    esac
done
