#!/bin/sh
# Two full runs of the benchmark on the same code and seed must agree,
# on every end-to-end metric of every workload, within that metric's
# bound in BENCHMARK.json, with no failed job in either. For CI: a
# benchmark that disagrees with itself cannot referee a change.
#
#   bench/agree.sh          seed 1
#   SEED=2 bench/agree.sh   another seed
set -eu
cd "$(dirname "$0")/.."
out=.bench_build/agree
mkdir -p "$out"
go run ./bench -seed "${SEED:-1}" -out "$out/a.json"
go run ./bench -seed "${SEED:-1}" -out "$out/b.json"
go run ./bench -compare "$out/a.json,$out/b.json"
