#!/usr/bin/env python3
"""Paired ratio floor for a Go benchmark pair.

Builds the package's test binary once, then runs it --runs times; each run
times every benchmark the --bench pattern selects, so the two legs of each
pair run back to back. A pair's ratio in one run is the numerator's MB/s
over the denominator's, and the floor holds the median of those ratios:
a host that changes speed between runs moves both legs of a pair, where
best-of-N over one leg and then the other picks one leg's fast mode and
the other's slow one.

    pairfloor.py PKG --bench REGEX --pair NUM DEN FLOOR [--pair ...]
                 [--runs 3] [--benchtime 10x] [--cpu N]

NUM and DEN are benchmark names as printed, without the Benchmark prefix
and the -GOMAXPROCS suffix; FLOOR '-' reports the pair without a floor.
Every pair prints one line:

    pairfloor NUM/DEN ratios 1.41 1.38 1.52 median 1.41 floor 1.2 ok

and the script exits 1 if any median is under its floor.
"""

import argparse
import os
import re
import statistics
import subprocess
import sys
import tempfile

LINE = re.compile(r'^Benchmark(\S+?)(?:-\d+)?\s+\d+\s.*?([\d.]+) MB/s')


def main():
    ap = argparse.ArgumentParser(description=__doc__.split('\n\n')[0])
    ap.add_argument('pkg')
    ap.add_argument('--bench', required=True)
    ap.add_argument('--pair', nargs=3, action='append', required=True, metavar=('NUM', 'DEN', 'FLOOR'))
    ap.add_argument('--runs', type=int, default=3)
    ap.add_argument('--benchtime', default='10x')
    ap.add_argument('--cpu')
    args = ap.parse_args()

    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        binary = os.path.join(tmp, 'pkg.test')
        subprocess.run(['go', 'test', '-c', '-o', binary, args.pkg], check=True)
        cmd = [binary, '-test.run', '^$', '-test.bench', args.bench, '-test.benchtime', args.benchtime]
        if args.cpu:
            cmd += ['-test.cpu', args.cpu]
        for _ in range(args.runs):
            out = subprocess.run(cmd, cwd=args.pkg, check=True, capture_output=True, text=True).stdout
            sys.stdout.write(out)
            mbps = {}
            for line in out.splitlines():
                m = LINE.match(line)
                if m:
                    mbps[m.group(1)] = float(m.group(2))
            runs.append(mbps)

    failed = False
    for num, den, floor in args.pair:
        ratios = [r[num] / r[den] for r in runs]
        median = statistics.median(ratios)
        verdict = 'ok'
        if floor != '-' and median < float(floor):
            verdict, failed = 'FAIL', True
        print(f"pairfloor {num}/{den} ratios {' '.join(f'{x:.2f}' for x in ratios)} "
              f"median {median:.2f} floor {floor} {verdict}")
    sys.exit(1 if failed else 0)


if __name__ == '__main__':
    main()
