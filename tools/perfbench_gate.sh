#!/usr/bin/env bash
# Correctness gate over the repository benchmark (BENCHMARK.json): runs
# perfbench's unit tests, then every workload twice at its minimum op
# count, so the second run of each is checked against the counts the first
# one recorded (perfbench's exact-repeat check). Fails unless every run's
# last JSON line says "correct": true and its stderr reports no
# COUNT MISMATCH — run.py itself exits 0 on an incorrect run. This is not
# a timing gate: no metric value is compared.
#
# Usage, from the repository root: tools/perfbench_gate.sh [SEED]
# Outputs go under ${CARGO_TARGET_DIR:-.bench_build}/gate.
set -euo pipefail

seed="${1:-1}"
out_dir="${CARGO_TARGET_DIR:-.bench_build}/gate"
mkdir -p "$out_dir"

python3 -m unittest discover -s perfbench/tests

workloads=$(python3 -c 'import json
print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

status=0
for w in $workloads; do
  for pass in 1 2; do
    out="$out_dir/$w-$pass.out"
    err="$out_dir/$w-$pass.err"
    # run.py needs --seconds > 0; a tiny budget runs the minimum op count.
    if ! python3 perfbench/run.py --workload "$w" --seed "$seed" \
        --seconds 0.001 --trace 0 >"$out" 2>"$err"; then
      echo "FAIL $w pass $pass: run.py exited non-zero"
      tail -n 20 "$err"
      status=1
      continue
    fi
    ok=1
    if grep -q "COUNT MISMATCH" "$err"; then
      echo "FAIL $w pass $pass: exact-repeat check"
      grep "COUNT MISMATCH" "$err"
      ok=0
    fi
    if ! tail -n 1 "$out" | python3 -c 'import json, sys
sys.exit(0 if json.loads(sys.stdin.read())["correct"] is True else 1)'; then
      echo "FAIL $w pass $pass: result is not correct"
      tail -n 1 "$out"
      ok=0
    fi
    if [ "$ok" = 1 ]; then
      echo "ok   $w pass $pass: $(tail -n 1 "$out" | cut -c1-60)"
    else
      status=1
    fi
  done
done
exit "$status"
