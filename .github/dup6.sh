#!/usr/bin/env bash
# Six seeded 32x32 RGB frames, one black, through the stacked grayscale and
# fingerprint kernels of `cascadekit duplication`: at ratio 1 every identity
# copy hits under dhash; under moments every rot90, rot180, mirror_h, mirror_v
# and random_of_these copy hits but the black one, which has no moments. Then
# `cascadekit run --traces` under moments writes one trace per frame: the black
# one carries its hash error, the other five look the memory up. Exits non-zero
# if a hit count or that trace file differs.
#
# usage, from the repository root: bash .github/dup6.sh WORKDIR [CLI...]
# CLI is the command that runs cascadekit (default: the console script), for
# example: bash .github/dup6.sh /tmp/dup6 python -m cascadekit.cli
set -euo pipefail

dir=$1
shift
cli=("${@:-cascadekit}")

mkdir -p "$dir/images"
python - "$dir" <<'EOF'
import os
import sys

from cascadekit.images import ImageBuffer, write_image_pnm
from cascadekit.records import format_prediction_records
from cascadekit.synthetic import synthetic_image, synthetic_pair

d = sys.argv[1]
tables = synthetic_pair(6, 10, 3)
for name, table in zip(("model_a", "model_b"), tables):
    open(os.path.join(d, name + ".jsonl"), "w").write(format_prediction_records(table))
for n, sample_id in enumerate(tables[0].ids):
    image = synthetic_image(32, 32, n, 3) if n else ImageBuffer(32, 32, 3, bytes(3072))
    open(os.path.join(d, "images", sample_id + ".ppm"), "wb").write(write_image_pnm(image))
EOF

for memory in dhash moments; do
  printf '{"first_model": "model_a", "second_model": "model_b", "score_fn": "diff", "lambda": 0.5, "post_check": true, "memory": "%s"}\n' "$memory" > "$dir/$memory.json"
done
for case in "dhash identity 6" "moments rot90 5" "moments rot180 5" "moments mirror_h 5" "moments mirror_v 5" "moments random_of_these 5"; do
  read -r memory transform hits <<< "$case"
  "${cli[@]}" duplication --config "$dir/$memory.json" --records-a "$dir/model_a.jsonl" --records-b "$dir/model_b.jsonl" --images "$dir/images" --costs costs/cifar10.json --ratios 0,1 --transform "$transform" --out "$dir/$memory-$transform.csv" | tee "$dir/$memory-$transform.txt"
  grep -E "^ratio=1\.0 .* hits=$hits\$" "$dir/$memory-$transform.txt"
done

blank='"hash_error":"zero total intensity"'
"${cli[@]}" run --config "$dir/moments.json" --records-a "$dir/model_a.jsonl" --records-b "$dir/model_b.jsonl" --images "$dir/images" --costs costs/cifar10.json --report "$dir/run.json" --traces "$dir/traces.jsonl"
test "$(wc -l < "$dir/traces.jsonl")" -eq 6
test "$(grep -cF "$blank" "$dir/traces.jsonl")" -eq 1
test "$(grep -vF "$blank" "$dir/traces.jsonl" | grep -cF '"memory_lookup"')" -eq 5
