"""The benchmark's workloads.  Each one defines a unit of work with its own checks.

A workload builds its inputs from a unit seed alone, drives the program's
public API, and returns a ``UnitResult`` holding its timings, the checks
that failed and a SHA-256 over its behaviour.  That hash covers the ``stats``
summary line plus the fault-level events, or the written trace bytes for
``wrap_audit``.  Why each workload exists is recorded in NOTES.md.

Every function takes ``mods``, the loaded stablevc modules, and looks each
program function up through it at call time, so timing shims installed by
the tracer see the calls.
"""

from __future__ import annotations

import hashlib
import os
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List

clock = time.perf_counter


@dataclass
class UnitResult:
    seed: int
    wall_s: float            # world build through checks (and trace write)
    run_s: float             # host seconds inside simnet.run
    steps: int
    digest: str
    counts: Dict[str, int]   # Trace.counts
    failures: List[str] = field(default_factory=list)
    trace_bytes: int = 0
    attributed: int = 0      # churn: injected-echo restarts


def _digest(summary, payload: bytes) -> str:
    return hashlib.sha256(summary.summary().encode() + b"\n" + payload).hexdigest()


def _fault_events(trace) -> bytes:
    return "".join(event.render() + "\n" for event in trace.events).encode()


def _c4_config(mods):
    return mods.labeling.SystemConfig(n=4, c=2, maxint=64)


def _random_start(mods, seed: int, rate: float):
    config = _c4_config(mods)
    world = mods.simnet.World.clean_start(config)
    sched = mods.simnet.RandomScheduler(seed)
    sched.configure_workload(seed, {0: rate})
    return config, world, sched


class Recovery:
    """One C4 seed: transient corruption of all state, then 200k steps."""

    name = "recovery"
    digest_units = 2
    steps = 200_000
    rate = 0.05

    def prepare(self, mods, seed: int) -> float:
        _random_start(mods, seed, self.rate)
        return 0.0

    def unit(self, mods, seed: int, work_dir: str) -> UnitResult:
        start = clock()
        _config, world, sched = _random_start(mods, seed, self.rate)
        began = clock()
        trace = mods.simnet.run(world, sched, self.steps,
                                fault_plan=mods.simnet.FaultPlan(transient_seed=seed),
                                trace_level="faults")
        run_s = clock() - began
        summary = mods.oracle.stats(trace)
        global_ok = mods.oracle.global_invariants(world)
        wall = clock() - start

        failures = []
        last_restart = max((e.step for e in trace.events if e.kind == "restart_local"),
                           default=-1)
        if last_restart >= trace.steps // 2:
            failures.append(f"restart at step {last_restart} in the final half")
        floor = trace.steps // (summary.b_restart + summary.b_revive + 1)
        if summary.max_segment < floor:
            failures.append(f"max legal segment {summary.max_segment} < floor {floor}")
        if not global_ok:
            failures.append("final state violates the global invariants")
        return UnitResult(seed, wall, run_s, self.steps,
                          _digest(summary, _fault_events(trace)),
                          dict(trace.counts), failures)

    def run_checks(self, results: List[UnitResult]) -> List[str]:
        return []


WRAPAROUND_SCENARIO = """\
n = 3
c = 1
maxint = 16
steps = 6000
seed = {seed}
scheduler = round_robin
increment_rate = 1.0
checks = all
"""


class WrapAudit:
    """The wraparound.scenario parameters through cli.execute_scenario, all checks."""

    name = "wrap_audit"
    digest_units = 5

    def prepare(self, mods, seed: int) -> float:
        began = clock()
        scenario = mods.scenario.parse_scenario(WRAPAROUND_SCENARIO.format(seed=seed))
        parse_s = clock() - began
        scenario.build_world()
        scenario.build_scheduler()
        return parse_s

    def unit(self, mods, seed: int, work_dir: str) -> UnitResult:
        cli = mods.cli
        inner = cli.sim_run
        run_times: List[float] = []

        def timed_run(*args, **kwargs):
            began = clock()
            trace = inner(*args, **kwargs)
            run_times.append(clock() - began)
            return trace

        path = os.path.join(work_dir, f"wrap_audit-{os.getpid()}.trace")
        start = clock()
        scenario = mods.scenario.parse_scenario(WRAPAROUND_SCENARIO.format(seed=seed))
        cli.sim_run = timed_run
        try:
            _world, trace, summary, failures = cli.execute_scenario(scenario)
        finally:
            cli.sim_run = inner
        trace.write(path, scenario.to_text())
        wall = clock() - start

        with open(path, "rb") as fh:
            payload = fh.read()
        os.remove(path)
        return UnitResult(seed, wall, sum(run_times), scenario.steps,
                          _digest(summary, payload), dict(trace.counts),
                          list(failures), trace_bytes=len(payload))

    def run_checks(self, results: List[UnitResult]) -> List[str]:
        return []


class Churn:
    """One C5 seed: channel-scope injection with spoofed token echoes, 4000 steps."""

    name = "churn"
    digest_units = 40
    steps = 4000
    rate = 0.2
    spoof_chance = 0.4

    def prepare(self, mods, seed: int) -> float:
        _random_start(mods, seed, self.rate)
        return 0.0

    def unit(self, mods, seed: int, work_dir: str) -> UnitResult:
        start = clock()
        config = _c4_config(mods)
        world = mods.simnet.World.clean_start(config)
        mods.simnet.inject_transient(world, seed, scope="channels")
        # The adversary of C5: some injected messages echo the receiver's own
        # pair, so the arrival guard passes and the unmergeable payload forces
        # a receive-path restart.
        rng = random.Random(seed ^ 0xC0FFEE)
        for (_src, dst), channel in world.channels.items():
            for entry in channel.queue:
                if rng.random() < self.spoof_chance:
                    entry.message.client.rcvd_local = world.procs[dst].local.copy()
                    entry.message.sender_max = entry.message.client.arriving.curr_label
        sched = mods.simnet.RandomScheduler(seed)
        sched.configure_workload(seed, {0: self.rate})
        began = clock()
        trace = mods.simnet.run(world, sched, self.steps, trace_level="faults")
        run_s = clock() - began
        summary = mods.oracle.stats(trace)
        wall = clock() - start

        attributed = sum(
            1 for e in trace.events
            if e.kind == "restart_local" and e.detail
            and e.detail.get("cause") == "receive" and e.detail.get("injected"))
        failures = []
        if attributed > config.m:
            failures.append(f"{attributed} injected-echo restarts > M = {config.m}")
        return UnitResult(seed, wall, run_s, self.steps,
                          _digest(summary, _fault_events(trace)),
                          dict(trace.counts), failures, attributed=attributed)

    def run_checks(self, results: List[UnitResult]) -> List[str]:
        if sum(r.attributed for r in results) == 0:
            return ["the stale-echo restart path was never exercised"]
        return []


WORKLOADS = {w.name: w for w in (Recovery(), WrapAudit(), Churn())}
