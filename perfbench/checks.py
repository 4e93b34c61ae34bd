"""Output checks for the benchmark's workloads, on plain data.

Each function returns a list of problems (empty when the operation is
correct), so a caller counts an operation as failed when its list is not
empty.  They take ints and strings rather than repro objects so the tests
can feed them corrupted results directly.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set, Tuple

#: Share of a block's ground-truth devices a Table II sweep must find
#: (the invariant ``benchmarks/bench_table02_periphery_scan.py`` asserts).
RECALL_FLOOR = 0.97

TIME_EXCEEDED = "time-exceeded"
DEST_UNREACHABLE = "dest-unreachable"


def committed_problems(label: str, state: str, committed_rows: int,
                       validated: int) -> List[str]:
    """An operation must end ``done`` with one committed row per validated
    reply."""
    problems = []
    if state != "done":
        problems.append(f"{label}: ended in state {state!r}")
    if committed_rows != validated:
        problems.append(
            f"{label}: {committed_rows} rows committed but "
            f"{validated} replies validated"
        )
    return problems


def recall_problems(label: str, responders: Set[int],
                    truth: Set[int]) -> List[str]:
    """At least :data:`RECALL_FLOOR` of the block's devices answered."""
    found = len(truth & responders)
    if not truth or found < RECALL_FLOOR * len(truth):
        return [f"{label}: found {found} of {len(truth)} devices"]
    return []


def loop_problems(label: str, sent: int, rows: Iterable[Tuple[int, str]],
                  onlink64: Optional[int]) -> List[str]:
    """Every probe into a looping delegation gets exactly one reply.

    The reply is Time Exceeded, except for a probe into the CPE's own
    on-link LAN /64 (``onlink64``, the /64's upper 64 bits; None for
    devices without one): that /64 does not loop, and the CPE answers
    Destination Unreachable.
    """
    rows = list(rows)
    problems = []
    targets = [target for target, _ in rows]
    if len(rows) != sent or len(set(targets)) != sent:
        problems.append(
            f"{label}: {sent} probes but {len(rows)} replies for "
            f"{len(set(targets))} targets"
        )
    for target, kind in rows:
        onlink = onlink64 is not None and target >> 64 == onlink64
        want = DEST_UNREACHABLE if onlink else TIME_EXCEEDED
        if kind != want:
            problems.append(f"{label}: {target:032x} answered {kind}, want {want}")
            break
    return problems
