"""One workload in one fresh process: set-up, warm-up, timed phase.

Started by run.py, never by hand.  Prints ``BENCH-READY <json>`` when set-up
(imports, input generation, file writing, a warm-up pass) is done, then,
unless ``--setup-only``, runs whole rounds of operations until ``--seconds``
have passed and prints ``BENCH-RESULT <json>``.

Every operation is a closed loop with one client: the next call starts when
the previous call and its check have returned.  Only the calls are timed.
"""

import time

T_START = time.time()   # before any import that takes time

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from statistics import median  # noqa: E402

from common import OUT, SPAWN_ENV, THREAD_VARS, import_widthlab_timed, percentile  # noqa: E402

for _var in THREAD_VARS:   # before numpy is imported
    os.environ[_var] = "1"

MAX_REPORTED_FAILURES = 5


def run_round(ops, tracer, op_base: int, times: list, failures: list, known: list,
              healed: set) -> None:
    """Run and check one round.  A failure lands in ``known`` when the
    operation is a listed program fault, else in ``failures``; a listed
    fault that passes is added to ``healed``."""
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.begin(op_base + i)
        t0 = time.perf_counter()
        try:
            result, error = op.call(), None
        except Exception as exc:   # a raising operation is a failed one
            result, error = None, f"raised {exc!r}"
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.end()
        times.append(t1 - t0)
        if error is None:
            try:
                error = op.check(result)
            except Exception as exc:
                error = f"check raised {exc!r}"
        if error is not None:
            (known if op.known_fault else failures).append(f"{op.name}: {error}")
        elif op.known_fault:
            healed.add(op.name)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    W, startup = import_widthlab_timed()
    startup["python_ms"] = (T_START - float(os.environ[SPAWN_ENV])) * 1e3

    from spans import Tracer, layer_metrics, overhead_pct
    from workloads import WORKLOADS

    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](W, args.seed, workdir)
        warm_times, warm_fail, warm_known, healed = [], [], [], set()
        # one round, or less where the workload says a part of one warms it
        warmup = getattr(workload, "warmup_ops", lambda: workload.round_ops(False))()
        run_round(warmup, None, 0, warm_times, warm_fail, warm_known, healed)
        print("BENCH-READY " + json.dumps({"startup": startup}), flush=True)
        if args.setup_only:
            return 0

        tracer = Tracer() if args.trace else None
        times = {False: [], True: []}
        failures, known = [], []
        attempted = rounds = 0
        t_end = time.perf_counter() + args.seconds
        # traced runs alternate untraced and traced rounds, so the two can be
        # compared in one process; they stop after an even number of rounds
        while True:
            traced = bool(args.trace) and rounds % 2 == 1
            ops = workload.round_ops(traced)
            if traced:
                tracer.install()
            try:
                run_round(ops, tracer if traced else None, attempted, times[traced], failures, known,
                          healed)
            finally:
                if traced:
                    tracer.uninstall()
            attempted += len(ops)
            rounds += 1
            if time.perf_counter() >= t_end and (not args.trace or rounds % 2 == 0):
                break

        all_times = sorted(times[False] + times[True])
        if args.workload == "cli_cold":
            peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        else:
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result = {
            "attempted": attempted,
            "failed": len(failures) + len(known),
            "correct": not failures and not warm_fail,
            "rounds": rounds,
            "samples": len(all_times),
            "tail_pct": workload.tail_pct,
            "ops_per_s": len(all_times) / sum(all_times),
            "op_p50_ms": median(all_times) * 1e3,
            "op_tail_ms": percentile(all_times, workload.tail_pct) * 1e3,
            "peak_rss_mb": peak_kib / 1024.0,
            "failures": (warm_fail + failures)[:MAX_REPORTED_FAILURES],
            "known_failures": sorted(set(known)),
            "healed": sorted(healed),
        }
        if args.trace:
            n_traced = len(times[True])
            if args.workload == "cli_cold":
                span_sets, starts = workload.span_sets, workload.startups
            else:
                span_sets, starts = [tracer.spans], []
            # one span list per process that recorded spans
            (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(
                {"fields": ["op", "span", "parent", "name", "layer", "t0_ns", "t1_ns", "extra"],
                 "processes": span_sets}))
            result["layers"] = layer_metrics(span_sets, n_traced)
            result["layers"]["trace.overhead_pct"] = overhead_pct(
                sum(times[True]), n_traced, sum(times[False]), len(times[False]))
            result["cold_startups"] = starts
        print("BENCH-RESULT " + json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
