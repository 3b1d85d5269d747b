"""Command line interface: run scenarios, replay traces, print statistics.

Exit codes: 0 success / all enabled checks pass, 1 check failure or replay
divergence, 2 configuration or parse error.  The default output directory is
the current directory, overridable with --out or the STABLEVC_OUT
environment variable.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from itertools import zip_longest
from typing import List, Optional

from .errors import ScenarioError, StableVCError
from .oracle import (
    InvariantMonitor,
    ShadowTracker,
    check_causal,
    check_requirement1,
    global_invariants,
    stats,
)
from .scenario import Scenario, canonical_int, load_scenario, load_trace, parse_checks
from .simnet import run as sim_run

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2


def execute_scenario(scenario: Scenario):
    """Build, run, and check one scenario; returns (world, trace, summary,
    failures), ``summary`` being the run's ``ExecutionStats``."""
    world = scenario.build_world()
    scheduler = scenario.build_scheduler()
    observers: List[object] = []
    tracker: Optional[ShadowTracker] = None
    monitor: Optional[InvariantMonitor] = None
    if "req1" in scenario.checks or "causal" in scenario.checks:
        tracker = ShadowTracker(scenario.system_config())
        observers.append(tracker)
    if "local_inv" in scenario.checks:
        monitor = InvariantMonitor()
        observers.append(monitor)
    trace = sim_run(world, scheduler, scenario.steps,
                    fault_plan=scenario.faults, observers=observers)

    failures: List[str] = []
    summary = stats(trace)
    if "segments" in scenario.checks:
        floor = trace.steps // (summary.b_restart + summary.b_revive + 1)
        if summary.max_segment < floor:
            failures.append(f"segments: max legal segment {summary.max_segment} < {floor}")
    if "converged" in scenario.checks:
        # As acceptance criterion C4: no restart_local in the final half.
        late = [e.step for e in trace.by_kind("restart_local") if e.step >= trace.steps // 2]
        if late:
            failures.append(f"converged: {len(late)} restart_local in the final half "
                            f"(steps {trace.steps // 2}..{trace.steps - 1}), "
                            f"the last at step {late[-1]}")
    if "global_inv" in scenario.checks and not global_invariants(world):
        failures.append("global_inv: final state violates the global invariants")
    if monitor is not None and monitor.violations:
        failures.append(f"local_inv: {len(monitor.violations)} handler states "
                        f"violate the local invariants")
    if "req1" in scenario.checks:
        restart_steps: dict = {}
        for event in trace.by_kind("restart_local"):
            restart_steps.setdefault(event.proc, []).append(event.step)
        bad = check_requirement1(tracker, trace.steps, restart_steps)
        bad.extend(tracker.merge_violations)
        if bad:
            failures.append(f"req1: {len(bad)} counting violations")
    if "causal" in scenario.checks:
        revive_steps = sorted(e.step for e in trace.by_kind("revive"))
        bad = check_causal(tracker, summary.legal_segments, revive_steps,
                           seed=scenario.seed)
        if bad:
            failures.append(f"causal: {len(bad)} precedence violations")
    return world, trace, summary, failures


def _run_one(args) -> int:
    path, seed_override, steps_override, out_dir, checks_override = args
    try:
        scenario = load_scenario(path)
        # replace() reruns Scenario.__post_init__, so overrides are validated.
        scenario = dataclasses.replace(
            scenario,
            seed=scenario.seed if seed_override is None else seed_override,
            steps=scenario.steps if steps_override is None else steps_override,
            checks=(scenario.checks if checks_override is None
                    else parse_checks(checks_override,
                                      scenario.faults.transient_seed is not None)))
        _world, trace, summary, failures = execute_scenario(scenario)
        base = os.path.join(out_dir, os.path.splitext(os.path.basename(path))[0])
        try:
            os.makedirs(out_dir, exist_ok=True)
            trace.write(base + ".trace", scenario.to_text())
            with open(base + ".stats", "w", encoding="utf-8") as fh:
                fh.write(summary.summary() + "\n")
                for failure in failures:
                    fh.write(f"check_failed {failure}\n")
        except OSError as exc:
            raise StableVCError(f"cannot write {exc.filename or out_dir}: "
                                f"{exc.strerror or exc}") from exc
    except StableVCError as exc:
        print(_error_line(path, exc), file=sys.stderr)
        return EXIT_CONFIG_ERROR
    print(f"{path}: {summary.summary()}")
    for failure in failures:
        print(f"{path}: FAILED {failure}")
    if failures:
        return EXIT_CHECK_FAILED
    print(f"{path}: all enabled checks passed")
    return EXIT_OK


def _error_line(path: str, exc: StableVCError) -> str:
    """``path[:line]: error: message``, with the line a ScenarioError names."""
    line = getattr(exc, "line", None)
    return f"{path if line is None else f'{path}:{line}'}: error: {exc}"


def cmd_run(paths: List[str], seed: Optional[int], steps: Optional[int],
            out_dir: str, jobs: int, checks: Optional[str] = None) -> int:
    tasks = [(path, seed, steps, out_dir, checks) for path in paths]
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            codes = list(pool.map(_run_one, tasks))
    else:
        codes = [_run_one(task) for task in tasks]
    return max(codes)


def cmd_replay(trace_path: str) -> int:
    try:
        recorded, scenario = load_trace(trace_path)
        if scenario is None:
            raise ScenarioError("no embedded scenario header")
        trace = sim_run(scenario.build_world(), scenario.build_scheduler(), scenario.steps,
                        fault_plan=scenario.faults)
    except StableVCError as exc:
        print(_error_line(trace_path, exc), file=sys.stderr)
        return EXIT_CONFIG_ERROR
    # The recorded trace's lines are the file's: its reader accepts no other.
    text = scenario.to_text()
    for lineno, (old, new) in enumerate(
            zip_longest(recorded.lines(text), trace.lines(text), fillvalue=""), 1):
        if old != new:
            print(f"{trace_path}:{lineno}: replay diverges: trace {old!r}, replay {new!r}",
                  file=sys.stderr)
            return EXIT_CHECK_FAILED
    print(f"replay: byte-identical ({os.path.getsize(trace_path)} bytes)")
    return EXIT_OK


def cmd_stats(trace_path: str) -> int:
    try:
        trace = load_trace(trace_path)[0]
    except ScenarioError as exc:
        print(_error_line(trace_path, exc), file=sys.stderr)
        return EXIT_CONFIG_ERROR
    print(stats(trace).summary())
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="stablevc",
        description="Deterministic simulator for self-stabilizing bounded vector clocks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run scenario files and check them")
    p_run.add_argument("scenarios", nargs="+", metavar="file")
    p_run.add_argument("--seed", type=canonical_int, default=None)
    p_run.add_argument("--steps", type=canonical_int, default=None)
    p_run.add_argument("--out", default=os.environ.get("STABLEVC_OUT", "."))
    p_run.add_argument("--checks", default=None,
                       help="all, none, or a comma list (overrides the scenario)")
    p_run.add_argument("--jobs", type=canonical_int, default=1)

    p_replay = sub.add_parser("replay", help="re-simulate a trace and compare bytes")
    p_replay.add_argument("trace")

    p_stats = sub.add_parser("stats", help="print the statistics of a trace file")
    p_stats.add_argument("trace")

    args = parser.parse_args(argv)
    if args.command == "run":
        if args.jobs < 1:
            p_run.error(f"argument --jobs: must be >= 1, got {args.jobs}")
        return cmd_run(args.scenarios, args.seed, args.steps, args.out,
                       args.jobs, args.checks)
    if args.command == "replay":
        return cmd_replay(args.trace)
    if args.command == "stats":
        return cmd_stats(args.trace)
    return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
