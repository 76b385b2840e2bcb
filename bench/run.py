"""widthlab benchmark: one command, every workload, every metric with its unit.

    python3 bench/run.py --workload dense_certify --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1           # every workload in turn

Each workload runs in fresh child processes started from this one
(``child.py``).  Set-up is done SETUPS times, each in its own child, and
``setup_s`` is their median; the last child goes on to the timed phase.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import subprocess
import sys
import time
from statistics import median

from common import BENCH_DIR, child_env
from spans import PER_LAYER_UNITS

SETUPS = 5
# Deadline for all children of one workload together: the timed phase plus
# this much for the set-ups (about 4 s each at most) and the last round.
SLACK_S = 120
WORKLOAD_NAMES = ("dense_certify", "model_studies", "cli_files", "cli_cold")

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


class ChildFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, seconds: float, trace: int, setup_only: bool, deadline: float):
    """Run one child; returns (set-up seconds, READY record, RESULT record)."""
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=child_env(time.time()), stdout=subprocess.PIPE,
                            cwd=str(BENCH_DIR.parent))
    ready = result = setup_s = None
    code = None
    try:
        fd, buf = proc.stdout.fileno(), b""
        while time.monotonic() < deadline:
            readable, _, _ = select.select([fd], [], [], deadline - time.monotonic())
            chunk = os.read(fd, 65536) if readable else b""
            if not chunk:
                break
            now = time.perf_counter()
            buf += chunk
            while b"\n" in buf:
                line, buf = buf.split(b"\n", 1)
                if line.startswith(b"BENCH-READY "):
                    setup_s = now - t0
                    ready = json.loads(line[len(b"BENCH-READY "):])
                elif line.startswith(b"BENCH-RESULT "):
                    result = json.loads(line[len(b"BENCH-RESULT "):])
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        pass
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None or (not setup_only and result is None):
        raise ChildFailed(f"{workload} child exited with code {code}")
    return setup_s, ready, result


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    setups, startups = [], []
    deadline = time.monotonic() + seconds + SLACK_S
    for _ in range(SETUPS - 1):
        setup_s, ready, _ = spawn(workload, seed, seconds, trace, True, deadline)
        setups.append(setup_s)
        startups.append(ready["startup"])
    setup_s, ready, res = spawn(workload, seed, seconds, trace, False, deadline)
    setups.append(setup_s)
    startups.append(ready["startup"])

    if trace:
        values = dict(res["layers"])
        # startup of the processes timed: the cold CLI's own children, or
        # this workload's set-up children
        starts = res["cold_startups"] or startups
        for key in ("python_ms", "numpy_ms", "scipy_ms", "widthlab_ms"):
            values[f"startup.{key}"] = median(s[key] for s in starts)
        units = PER_LAYER_UNITS
    else:
        values = {k: res[k] for k in ("ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb")}
        values["setup_s"] = median(setups)
        units = END_TO_END_UNITS
    return {
        "correct": bool(res["correct"]),
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        "info": {k: res[k] for k in ("rounds", "samples", "tail_pct", "failures", "known_failures",
                                     "healed")},
    }


def describe(name: str, out: dict) -> None:
    info = out["info"]
    print(f"== {name}: {info['rounds']} rounds, {out['attempted']} operations "
          f"({out['failed']} failed), {info['samples']} timed samples, "
          f"tail = p{info['tail_pct']:g}, correct = {out['correct']}")
    for key, m in out["metrics"].items():
        print(f"   {key:<24} {m['value']:>16.6g} {m['unit']}")
    for message in info["failures"]:
        print(f"   unexpected failure: {message}")
    if info["known_failures"]:
        print(f"   known dichotomy-fault failures per round: {len(info['known_failures'])}")
    for name in info["healed"]:
        print(f"   listed as a known fault but passed: {name}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
            describe(name, results[name])
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for out in results.values():
        del out["info"]
    final = results[names[0]] if len(names) == 1 else results
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
