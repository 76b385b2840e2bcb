"""Steadiness check: run each workload with several seeds and report, for
every end-to-end metric, the median and the quartile spread (Q3 - Q1) as a
share of the median, next to the metric's bound in BENCHMARK.json.

    python3 bench/steady.py                                   # 10 seeds, every workload
    python3 bench/steady.py --workloads cli_cold --seeds 5 --first-seed 101
    python3 bench/steady.py --first-seed 11 --tag b --against a   # a second set

A metric is steady when its spread is under a third of its bound, setup_s
included.  The failed share must be identical in every run.  Raw results
are kept in bench/out/steady-<tag>-<workload>.json; with ``--against``, the
medians of this set are compared with those of an earlier set, and a metric
worse by more than its bound fails the check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction

from common import OUT, ROOT


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--tag", default="a", help="name of this set of runs")
    ap.add_argument("--against", help="tag of an earlier set to compare medians with")
    args = ap.parse_args()

    OUT.mkdir(exist_ok=True)
    steady = True
    for workload in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            runs[-1]["report"] = proc.stdout.strip().splitlines()[:-1]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.5g}" for k, m in runs[-1]["metrics"].items()), flush=True)
        (OUT / f"steady-{args.tag}-{workload}.json").write_text(json.dumps(runs, indent=1))
        shares = {Fraction(r["failed"], r["attempted"]) for r in runs}
        earlier = None
        if args.against:
            earlier = json.loads((OUT / f"steady-{args.against}-{workload}.json").read_text())
            shares |= {Fraction(r["failed"], r["attempted"]) for r in earlier}
        correct = all(r["correct"] for r in runs)
        print(f"== {workload}: correct={correct}, failed shares {sorted(map(str, shares))}")
        steady &= correct and len(shares) == 1
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            ok = spread < metric["bound"] / 3
            line = (f"   {metric['name']:<12} median {med:12.6g} {metric['unit']:<4} "
                    f"spread {100 * spread:6.2f}%  bound {100 * metric['bound']:5.1f}%"
                    f"{'' if ok else '  <-- above a third of the bound'}")
            if earlier is not None:
                before = statistics.median(r["metrics"][metric["name"]]["value"] for r in earlier)
                change = med / before - 1
                worse = -change if metric["better"] == "higher" else change
                held = worse <= metric["bound"]
                ok &= held
                line += (f"\n{'':17}median against set {args.against}: {100 * change:+6.2f}%"
                         f"{'' if held else '  <-- worse by more than the bound'}")
            steady &= ok
            print(line)
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
