"""One benchmark process: set up, then run iterations until a deadline.

Started by ``run.py`` as a fresh interpreter, so ``setup_s`` covers what
every CLI or ``serve`` start pays: the clock starts on the first line,
before ``import repro``, and stops once the world is built or the daemon
is open.  Each record goes to stdout as one ``PERFBENCH <json>`` line.

With ``--trace 1`` iterations alternate untraced and traced, so the two
can be compared for the tracing overhead.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]


def emit(record: dict) -> None:
    print("PERFBENCH " + json.dumps(record), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True,
                        help="seconds from process start to stop starting "
                             "iterations (at least one runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", default="",
                        help="file for the last traced iteration's spans")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up (an extra setup_s sample)")
    args = parser.parse_args(argv)

    import workloads
    from tracer import Tracer, layer_metrics

    os.makedirs(args.workdir, exist_ok=True)
    workload = workloads.make(args.workload, args.seed, args.workdir)
    workload.setup()
    emit({"kind": "setup", "setup_s": time.perf_counter() - T0})
    if args.setup_only:
        emit({"kind": "end", "iterations": 0})
        os._exit(0)  # skip tearing the world down: it is not measured
    workload.inputs()

    deadline = T0 + args.budget
    per_round = 2 if args.trace else 1
    done = 0
    round_start = time.perf_counter()
    while True:
        traced = bool(args.trace) and done % 2 == 1
        iter_dir = os.path.join(args.workdir, f"iter-{done}")
        gc.collect()
        tracer = Tracer().install() if traced else None
        try:
            outcome = workload.iteration(iter_dir)
        finally:
            if tracer is not None:
                tracer.uninstall()
        shutil.rmtree(iter_dir, ignore_errors=True)
        outcome["traced"] = traced
        if tracer is not None:
            outcome["layers"] = layer_metrics(tracer)
            if args.spans:
                tracer.write(args.spans)
            del tracer
        emit({"kind": "iteration", **outcome})
        done += 1
        if done % per_round:
            continue
        now = time.perf_counter()
        if now + (now - round_start) > deadline:
            break
        round_start = now
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    emit({"kind": "end", "iterations": done, "peak_rss_mb": peak_kb / 1024.0})
    return 0


if __name__ == "__main__":
    sys.exit(main())
