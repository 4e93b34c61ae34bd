"""Tests of the benchmark's own code (not of repro).

    python3 -m pytest perfbench -q
"""

import json
import os
import sys
import threading

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from checks import (  # noqa: E402
    DEST_UNREACHABLE,
    TIME_EXCEEDED,
    committed_problems,
    loop_problems,
    recall_problems,
)
from run import END_TO_END, PER_LAYER  # noqa: E402
from tracer import Span, Tracer, by_name, check_name, self_times  # noqa: E402


# -- self-time arithmetic ------------------------------------------------------

def test_self_time_of_nested_spans():
    spans = [
        Span(0, None, "engine.campaign", 0, 100, "c1", 1),
        Span(1, 0, "core.scan", 10, 40, "c1", 1),
        Span(2, 1, "net.inject", 15, 25, "c1", 1),
        Span(3, 0, "store.seal", 50, 90, "c1", 1),
        Span(4, 3, "store.fsync", 60, 85, "c1", 1),
    ]
    assert self_times(spans) == {0: 30, 1: 20, 2: 10, 3: 15, 4: 25}
    assert by_name(spans)["store.seal"] == (1, 15)


def test_self_time_of_overlapping_threads():
    # Two lease threads run at once: each root loses only its own child.
    spans = [
        Span(0, None, "engine.campaign", 0, 100, "a", 1),
        Span(1, None, "engine.campaign", 5, 95, "b", 2),
        Span(2, 0, "engine.checkpoint", 10, 60, "a", 1),
        Span(3, 1, "engine.checkpoint", 20, 90, "b", 2),
    ]
    assert self_times(spans) == {0: 50, 1: 20, 2: 50, 3: 70}
    assert by_name(spans) == {
        "engine.campaign": (2, 70), "engine.checkpoint": (2, 120),
    }


def test_tracer_keeps_one_stack_per_thread():
    tracer = Tracer()
    barrier = threading.Barrier(2, timeout=10)
    inner = tracer.span("engine.checkpoint", lambda: barrier.wait())
    outer = tracer.span("engine.campaign", lambda: inner())

    threads = [threading.Thread(target=outer) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()

    roots = {s.id: s for s in tracer.spans if s.name == "engine.campaign"}
    children = [s for s in tracer.spans if s.name == "engine.checkpoint"]
    assert len(roots) == 2 and len(children) == 2
    for child in children:
        assert roots[child.parent].thread == child.thread
    assert {child.parent for child in children} == set(roots)


def test_span_is_recorded_when_the_call_raises():
    tracer = Tracer()

    def fail():
        raise OSError("disk full")

    with pytest.raises(OSError):
        tracer.span("store.fsync", fail)()
    assert [s.name for s in tracer.spans] == ["store.fsync"]
    assert tracer._stack() == []


def test_install_and_uninstall_restore_every_entry_point():
    from repro.core.scanner import Scanner
    from repro.engine import executor
    from repro.store.oslayer import get_default_os

    run, execute_job, os_layer = Scanner.run, executor.execute_job, get_default_os()
    with Tracer():
        assert Scanner.run is not run
        assert executor.execute_job is not execute_job
        assert get_default_os() is not os_layer
    assert Scanner.run is run
    assert executor.execute_job is execute_job
    assert get_default_os() is os_layer


# -- metric names --------------------------------------------------------------

@pytest.mark.parametrize("name", ["wall_s", "core.ns_per_probe", "p50", "a-b.c_d"])
def test_valid_metric_names(name):
    assert check_name(name) == name


@pytest.mark.parametrize("name", ["", "wall s", "probes/s", ".hidden", "_x",
                                  "msµ", "x" * 65, None])
def test_invalid_metric_names(name):
    with pytest.raises(ValueError):
        check_name(name)


def test_reported_metrics_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    declared = {
        "end_to_end": [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        "per_layer": [(m["name"], m["unit"]) for m in spec["per_layer"]],
    }
    assert declared["end_to_end"] == list(END_TO_END)
    assert declared["per_layer"] == list(PER_LAYER)
    for name, _ in END_TO_END + PER_LAYER:
        check_name(name)


# -- output checks -------------------------------------------------------------

def test_committed_rows_must_match_validated_replies():
    assert committed_problems("in-jio", "done", 120, 120) == []
    assert committed_problems("in-jio", "done", 119, 120)
    assert committed_problems("in-jio", "failed", 120, 120)


def test_recall_floor():
    truth = set(range(100))
    assert recall_problems("blk", set(range(97)) | {500}, truth) == []
    assert recall_problems("blk", set(range(96)) | {500, 501}, truth)
    assert recall_problems("blk", set(), set())


def test_loop_check_accepts_the_ground_truth():
    onlink = 0x20010DB800000000
    rows = [((onlink << 64) | 7, DEST_UNREACHABLE)] + [
        (((onlink + i) << 64) | 7, TIME_EXCEEDED) for i in range(1, 16)
    ]
    assert loop_problems("dev", 16, rows, onlink) == []


@pytest.mark.parametrize("corrupt", ["wrong-kind", "missing", "duplicate",
                                     "onlink-looped"])
def test_loop_check_rejects_a_corrupted_result(corrupt):
    onlink = 0x20010DB800000000
    rows = [((onlink << 64) | 7, DEST_UNREACHABLE)] + [
        (((onlink + i) << 64) | 7, TIME_EXCEEDED) for i in range(1, 16)
    ]
    if corrupt == "wrong-kind":
        rows[3] = (rows[3][0], DEST_UNREACHABLE)
    elif corrupt == "missing":
        rows.pop()
    elif corrupt == "duplicate":
        rows[-1] = rows[-2]
    else:
        rows[0] = (rows[0][0], TIME_EXCEEDED)
    assert loop_problems("dev", 16, rows, onlink)
