"""The benchmark's three workloads on the paper's world.

Every workload builds on ``TopologySpec.deployment(scale=20000, seed=S)``,
the fifteen Table II sample blocks, where ``S`` is the benchmark seed.
Each class has the same shape:

* ``setup()`` is the work a user pays before the first operation: build the
  world (campaigns) or open the daemon (service).  The child process times
  it together with ``import repro``.
* ``inputs()`` derives the operations from the seed, untimed.
* ``iteration(workdir)`` prepares a fresh world or daemon when the one from
  ``setup()`` is spent (untimed, but inside the tracer when the caller
  installed one), times the operations from submit to committed snapshot,
  then checks every operation's output.  Durable state goes under
  ``workdir``.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time
from typing import Dict, List, Optional, Set

from checks import committed_problems, loop_problems, recall_problems
from repro.core.scanner import ScanConfig
from repro.core.target import ScanRange
from repro.engine import Campaign, ProbeSpec
from repro.isp.profiles import PAPER_PROFILES
from repro.net.spec import TopologySpec
from repro.service import CampaignSpec, ScanService, TenantPolicy
from repro.store.store import ResultStore

SCALE = 20000.0
SNAPSHOT = "bench"


def _outcome(wall_s: float, probes: int, result_times: List[float],
             attempted: int, failed: int,
             problems: List[str]) -> Dict[str, object]:
    return {
        "wall_s": wall_s,
        "probes": probes,
        "result_p50_s": statistics.median(result_times),
        "results": len(result_times),
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:5],
    }


class _CampaignWorkload:
    """One serial-loop ``Campaign`` over many ranges into a result store."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.spec = TopologySpec.deployment(scale=SCALE, seed=seed)
        self.built = None

    def setup(self) -> None:
        self.built = self.spec.build()

    def inputs(self) -> None:
        pass

    def configs(self, deployment) -> Dict[str, ScanConfig]:
        raise NotImplementedError

    def probe(self) -> ProbeSpec:
        return ProbeSpec.for_seed(self.seed)

    def range_problems(self, label: str, deployment, store: ResultStore,
                       segments: List[str], result) -> List[str]:
        raise NotImplementedError

    def iteration(self, workdir: str) -> Dict[str, object]:
        built = self.built if self.built is not None else self.spec.build()
        self.built = None  # a scan mutates the world: rebuild next time
        configs = self.configs(built.handle)
        store_dir = os.path.join(workdir, "store")
        start = time.perf_counter()
        try:
            result = Campaign(
                self.spec, configs, probe=self.probe(), executor="serial",
                prebuilt=built, store_dir=store_dir, snapshot=SNAPSHOT,
            ).run()
        except Exception as exc:  # noqa: BLE001 - every range failed
            wall = time.perf_counter() - start
            return _outcome(wall, 0, [wall], len(configs), len(configs),
                            [f"campaign raised {exc!r}"])
        wall = time.perf_counter() - start
        store = ResultStore(store_dir)
        labels = store.snapshot(SNAPSHOT).meta["labels"]
        problems: List[str] = []
        failed = 0
        for label in configs:
            segments = list(labels.get(label, []))
            scan = result.results[label]
            rows = sum(int(store.segments[name]["rows"]) for name in segments)
            found = committed_problems(label, "done", rows, scan.stats.validated)
            found += self.range_problems(label, built.handle, store, segments,
                                         scan)
            failed += bool(found)
            problems += found
        return _outcome(wall, result.stats.sent, [wall], len(configs), failed,
                        problems)


class Table2Campaign(_CampaignWorkload):
    """The fifteen Table II sample blocks as one campaign."""

    name = "table2-campaign"

    def configs(self, deployment) -> Dict[str, ScanConfig]:
        return {
            key: ScanConfig(scan_range=ScanRange.parse(isp.scan_spec),
                            seed=self.seed)
            for key, isp in deployment.isps.items()
        }

    def range_problems(self, label, deployment, store, segments, result):
        responders = {row.responder.value for row in store.iter_rows(segments)}
        truth = {t.last_hop.value for t in deployment.isps[label].truths}
        return recall_problems(label, responders, truth)


class LoopAmplify(_CampaignWorkload):
    """One range per loop-vulnerable device's delegated prefix (§VI-A).

    Each delegation is swept in 16 sub-prefixes: per /64 for a /60, per /60
    for a /56, so ICMPv6 error rate limiting never eats a reply.  Probes
    leave with hop limit 255, so each one circles the loop until it
    expires.
    """

    name = "loop-amplify"

    def configs(self, deployment) -> Dict[str, ScanConfig]:
        self.devices = {
            str(t.delegated): t
            for t in deployment.all_truths() if t.loop_vulnerable
        }
        return {
            label: ScanConfig(
                scan_range=ScanRange.parse(
                    f"{label}-{min(64, t.delegated.length + 4)}"
                ),
                seed=self.seed,
            )
            for label, t in self.devices.items()
        }

    def probe(self) -> ProbeSpec:
        return ProbeSpec.for_seed(self.seed, hop_limit=255)

    def range_problems(self, label, deployment, store, segments, result):
        device = self.devices[label]
        onlink = (device.delegated.subprefix(0, 64).network >> 64
                  if device.archetype == "diff" else None)
        rows = [(row.target.value, row.kind.value)
                for row in store.iter_rows(segments)]
        return loop_problems(label, result.stats.sent, rows, onlink)


class ServiceBurst:
    """Three tenants submit the fifteen blocks at once to a 2-worker
    ``ScanService`` and the daemon drains until idle."""

    name = "service-burst"
    TENANTS = ("mapper", "census", "audit")
    PRIORITIES = ("interactive", "normal", "batch")

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.service: Optional[ScanService] = None
        self.root = ""
        self.specs: List[CampaignSpec] = []
        self.truth: Dict[str, Set[int]] = {}

    def _open(self, root: str) -> ScanService:
        # The scheduler's tie-break seed stays fixed: it decides which
        # campaigns lease first, and with it the median result latency
        # (by up to 1.6x between seeds), which would swamp any change in
        # the code being measured.  The world and the scans vary with the
        # benchmark seed.
        return ScanService(
            root, default_policy=TenantPolicy(max_in_flight=2),
            max_workers=2, seed=0, scope="bench",
        )

    def setup(self) -> None:
        self.root = os.path.join(self.workdir, "setup-daemon")
        self.service = self._open(self.root)

    def inputs(self) -> None:
        """One campaign per block, each on a world of just that block."""
        for i, profile in enumerate(PAPER_PROFILES):
            key = profile.key
            block = TopologySpec.deployment(profiles=(key,), scale=SCALE,
                                            seed=self.seed)
            isp = block.build().handle.isps[key]
            self.truth[key] = {t.last_hop.value for t in isp.truths}
            self.specs.append(CampaignSpec(
                tenant=self.TENANTS[i % 3], name=key,
                scan_range=isp.scan_spec, topology="deployment",
                topology_params=block.params, seed=self.seed,
                priority=self.PRIORITIES[(i // 3) % 3],
            ))

    def iteration(self, workdir: str) -> Dict[str, object]:
        if self.service is not None:
            service, root = self.service, self.root
            self.service = None
        else:
            root = os.path.join(workdir, "daemon")
            service = self._open(root)
        queue_complete = service.queue.complete
        submitted: Dict[str, float] = {}
        committed: Dict[str, float] = {}

        def stamped(campaign_id, result):
            record = queue_complete(campaign_id, result)
            committed[campaign_id] = time.perf_counter()
            return record

        service.queue.complete = stamped  # type: ignore[method-assign]
        start = time.perf_counter()
        for spec in self.specs:
            at = time.perf_counter()
            submitted[str(service.submit(spec)["campaign_id"])] = at
        service.run_until_idle()
        wall = time.perf_counter() - start
        problems: List[str] = []
        probes = failed = 0
        for record in service.queue.records.values():
            label = record.spec.name
            state = record.state
            rows, responders = 0, set()
            if state == "done":
                store = service.stores.open(record.tenant)
                snapshot = store.snapshot(record.snapshot)
                rows = snapshot.rows
                responders = {
                    row.responder.value
                    for row in store.iter_rows(snapshot.segments)
                }
                probes += int(record.result.get("sent", 0))
            found = committed_problems(
                label, state, rows, int(record.result.get("validated", -1))
            )
            found += recall_problems(label, responders, self.truth[label])
            failed += bool(found)
            problems += found
        times = [committed[c] - submitted[c] for c in committed]
        shutil.rmtree(root, ignore_errors=True)
        return _outcome(wall, probes, times or [wall], len(self.specs), failed,
                        problems)


def make(name: str, seed: int, workdir: str):
    if name == Table2Campaign.name:
        return Table2Campaign(seed)
    if name == LoopAmplify.name:
        return LoopAmplify(seed)
    if name == ServiceBurst.name:
        return ServiceBurst(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
