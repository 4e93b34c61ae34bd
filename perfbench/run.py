"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload table2-campaign --seed 7 --seconds 30 --trace 0

Run from the repository root.  The run starts a few fresh child
interpreters one after another (``child.py``); each times its own set-up
and then runs workload iterations until its share of ``--seconds`` is
used.  With ``--trace 0`` the run reports the end-to-end metrics, as
medians over children (set-up, memory) or iterations (the rest).  With
``--trace 1`` it reports the per-layer metrics of the traced iterations
and the tracing overhead.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is 1 when any output check failed and 2 when the run broke.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import check_name  # noqa: E402

WORKLOADS = ("table2-campaign", "loop-amplify", "service-burst")

#: (name, unit) of every metric a ``--trace 0`` run reports.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("probes_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("result_p50_s", "s"),
)

#: (name, unit) of every metric a ``--trace 1`` run reports.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("core.probes", "count"),
    ("core.scan_self_s", "s"),
    ("core.targets_s", "s"),
    ("core.probe_build_s", "s"),
    ("core.validate_s", "s"),
    ("core.classify_s", "s"),
    ("core.ns_per_probe", "ns"),
    ("net.inject_calls", "count"),
    ("net.inject_s", "s"),
    ("net.hops", "count"),
    ("net.ns_per_hop", "ns"),
    ("net.flow_hit_ratio", "ratio"),
    ("store.segments", "count"),
    ("store.rows", "count"),
    ("store.append_s", "s"),
    ("store.seal_s", "s"),
    ("store.commit_s", "s"),
    ("store.fsyncs", "count"),
    ("store.fsync_s", "s"),
    ("store.bytes_written", "B"),
    ("engine.shards", "count"),
    ("engine.checkpoint_writes", "count"),
    ("engine.checkpoint_s", "s"),
    ("engine.checkpoint_bytes", "B"),
    ("engine.merge_s", "s"),
    ("isp.builds", "count"),
    ("isp.build_s", "s"),
    ("service.submits", "count"),
    ("service.submit_s", "s"),
    ("service.queue_saves", "count"),
    ("service.queue_save_s", "s"),
    ("service.queue_bytes", "B"),
    ("service.lease_wait_p50_s", "s"),
    ("telemetry.events", "count"),
    ("trace.overhead_frac", "ratio"),
)

#: Counts that must repeat exactly between iterations at one seed; a drift
#: means the workload is nondeterministic.
EXACT_COUNTS = (
    "core.probes", "net.hops", "net.inject_calls", "store.segments",
    "store.rows", "engine.shards", "engine.checkpoint_writes", "isp.builds",
    "service.queue_saves",
)

#: Fresh interpreters per run that run iterations.  More of them gives
#: more memory samples; fewer leaves more of the run for iterations.
CHILDREN = {0: 4, 1: 2}

#: Set-up-only interpreters an untraced run starts before each of those,
#: as set-up varies by a quarter between starts: 4 x (3 + 1) = 16 samples.
SETUP_ONLY = 3

#: Time a run may take beyond ``--seconds`` (for the last iteration and
#: the set-up after the budget check) before it gives up with exit 2.
RUN_MARGIN_S = 120.0


def environment(workdir: str) -> Dict[str, object]:
    """What the figures depend on besides the code: cores, interpreter,
    the filesystem under the durable state, and the load at start."""
    try:
        fs = subprocess.run(
            ["stat", "-f", "-c", "%T", workdir], capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        fs = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "fs": fs,
        "load1": os.getloadavg()[0],
    }


def run_children(args, workdir: str, spans: str) -> List[dict]:
    """Run the children one after another; their records, in order."""
    records: List[dict] = []
    started = time.perf_counter()
    children = CHILDREN[args.trace]
    env = dict(os.environ, PYTHONHASHSEED="0")
    setup_only = 0 if args.trace else SETUP_ONLY
    plan = [(i, k < setup_only) for i in range(children)
            for k in range(setup_only + 1)]
    for n, (i, only_setup) in enumerate(plan):
        left = started + args.seconds - time.perf_counter()
        budget = max(left, 0.0) / (children - i)
        command = [
            sys.executable, os.path.join(HERE, "child.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--budget", f"{budget:.3f}", "--trace", str(args.trace),
            "--workdir", os.path.join(workdir, f"child-{n}"),
            "--spans", spans,
        ] + (["--setup-only"] if only_setup else [])
        timeout = args.seconds + RUN_MARGIN_S - (time.perf_counter() - started)
        proc = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=max(timeout, 1.0))
        if proc.returncode != 0:
            raise RuntimeError(f"child {n} exited with {proc.returncode}")
        lines = [line[len("PERFBENCH "):] for line in proc.stdout.splitlines()
                 if line.startswith("PERFBENCH ")]
        child = [json.loads(line) for line in lines]
        if not child or child[-1]["kind"] != "end":
            raise RuntimeError(f"child {n} ended without a result")
        records.extend(child)
    return records


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def count_drift(iterations: List[dict], names=EXACT_COUNTS) -> List[str]:
    """Counts that differ between iterations of one run (same seed)."""
    problems = []
    for name in names:
        seen = {it["layers"][name] for it in iterations}
        if len(seen) > 1:
            problems.append(f"{name} drifted between iterations: {sorted(seen)}")
    probes = {it["probes"] for it in iterations}
    if len(probes) > 1:
        problems.append(f"probes drifted between iterations: {sorted(probes)}")
    return problems


def summarise(args, records: List[dict]) -> Tuple[Dict[str, Tuple[float, str]],
                                                 List[str], Dict[str, object]]:
    setups = [r["setup_s"] for r in records if r["kind"] == "setup"]
    rss = [r["peak_rss_mb"] for r in records
           if r["kind"] == "end" and r["iterations"]]
    iterations = [r for r in records if r["kind"] == "iteration"]
    plain = [r for r in iterations if not r["traced"]]
    traced = [r for r in iterations if r["traced"]]
    samples: Dict[str, object] = {
        "children": len(setups),
        "workload_children": len(rss),
        "iterations": len(plain),
        "traced_iterations": len(traced),
        "results_per_iteration": plain[0]["results"] if plain else 0,
    }
    metrics: Dict[str, Tuple[float, str]] = {}
    if args.trace:
        problems = count_drift(traced)
        for name, unit in PER_LAYER:
            if name == "trace.overhead_frac":
                value = (statistics.median(r["wall_s"] for r in traced)
                         / statistics.median(r["wall_s"] for r in plain) - 1.0)
            elif unit == "count":
                value = statistics.median_low(r["layers"][name] for r in traced)
            else:
                value = statistics.median(r["layers"][name] for r in traced)
            metrics[name] = (value, unit)
    else:
        problems = count_drift(plain, names=())
        values = {
            "setup_s": setups,
            "wall_s": [r["wall_s"] for r in plain],
            "probes_per_s": [r["probes"] / r["wall_s"] for r in plain],
            "peak_rss_mb": rss,
            "result_p50_s": [r["result_p50_s"] for r in plain],
        }
        for name, unit in END_TO_END:
            q1, median, q3 = quartiles(values[name])
            metrics[name] = (median, unit)
            samples[name] = {"n": len(values[name]), "q1": q1, "q3": q3}
    return metrics, problems, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for name, _ in END_TO_END + PER_LAYER:
        check_name(name)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = os.path.join(ROOT, ".perfbench-out")
    workdir = os.path.join(ROOT, ".perfbench-work", f"{tag}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(workdir, exist_ok=True)
    env = environment(workdir)
    print("environment " + json.dumps(env, sort_keys=True))
    # Compile every module first, so no child's set-up pays for bytecode.
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    os.path.join(ROOT, "src", "repro"), HERE],
                   cwd=ROOT, stdout=subprocess.DEVNULL, check=True, timeout=120)
    spans = os.path.join(out_dir, f"spans-{tag}.jsonl") if args.trace else ""
    try:
        records = run_children(args, workdir, spans)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics, drift, samples = summarise(args, records)
    iterations = [r for r in records if r["kind"] == "iteration"]
    attempted = sum(r["attempted"] for r in iterations)
    failed = min(attempted, sum(r["failed"] for r in iterations) + len(drift))
    problems = drift + [p for r in iterations for p in r["problems"]]
    for problem in problems[:20]:
        print(f"FAILED {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print("samples " + json.dumps(samples, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(out_dir, f"result-{tag}.json"), "w") as handle:
        json.dump({"environment": env, "samples": samples, **result}, handle,
                  indent=2, sort_keys=True)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
