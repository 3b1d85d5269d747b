"""Scenario files: a flat key/value config with one [faults] section.

The format favors diffability: one ``key = value`` per line, ``#`` comments,
and a single nesting level for the fault plan.  See SCENARIO_FORMAT.md for
the full key reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import zip_longest
from typing import Dict, List, Optional, Tuple

from .errors import PreconditionViolated, ScenarioError
from .labeling import SystemConfig
from .simnet import FaultPlan, RandomScheduler, RoundRobinScheduler, Scheduler, World
from .trace import Trace, read_text_file, read_trace_file

DEFAULT_CHECKS = ("req1", "causal", "segments", "global_inv", "local_inv")
# Checks that compare against the fault-free shadow baseline, which a run
# corrupted at step 0 has not got; such a run must not name them.
SHADOW_CHECKS = ("req1", "causal")
# What ``all`` stands for on a run with a transient fault.
TRANSIENT_CHECKS = ("segments", "global_inv")
# Checks that ``all`` leaves out; a file or ``--checks`` must name them.
OPT_IN_CHECKS = ("converged",)
# Keys a file may give, once each; ``increment_rate.<p>`` is also a plain key.
PLAIN_KEYS = frozenset({"n", "c", "maxint", "steps", "seed", "scheduler",
                        "increment_rate", "k", "checks"})
RATE_PREFIX = "increment_rate."
FAULT_KEYS = frozenset({"transient_seed", "transient_scope", "crash", "restart",
                        "duplicate", "reorder"})


@dataclass
class Scenario:
    """Everything needed to reproduce one run."""

    n: int
    c: int
    maxint: int
    steps: int
    seed: int = 0
    scheduler: str = "round_robin"
    increment_rate: float = 0.0
    rate_overrides: Dict[int, float] = field(default_factory=dict)
    k_override: Optional[int] = None
    checks: Tuple[str, ...] = DEFAULT_CHECKS
    faults: FaultPlan = field(default_factory=FaultPlan)

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ScenarioError("steps must be >= 1")
        faults = self.faults
        for proc in [*faults.crash_at, *faults.restart_at, *self.rate_overrides]:
            if not 1 <= proc <= self.n:
                raise ScenarioError(f"processor id {proc} outside [1, {self.n}]")
        for rate in [self.increment_rate, *self.rate_overrides.values()]:
            if not 0.0 <= rate <= 1.0:
                raise ScenarioError(f"increment rate {rate!r} outside [0, 1]")
        last = max(faults.fault_steps(), default=0)
        if last >= self.steps:
            raise ScenarioError(f"fault step {last} is past the last step {self.steps - 1}")
        for src, dst, _ in faults.duplications + faults.reorders:
            if not (1 <= src <= self.n and 1 <= dst <= self.n and src != dst):
                raise ScenarioError(f"bad channel {src}>{dst}")
        if self.scheduler not in ("round_robin", "random"):
            raise ScenarioError(f"unknown scheduler {self.scheduler!r}")
        if faults.transient_seed is not None:
            named = [name for name in SHADOW_CHECKS if name in self.checks]
            if named:
                raise ScenarioError(f"checks {','.join(named)} need a fault-free start, "
                                    f"and transient_seed is set")
        self.system_config()  # the sizing, checked when the scenario is built

    # -- construction of runnable objects ----------------------------------------

    def system_config(self) -> SystemConfig:
        try:
            return SystemConfig(self.n, self.c, self.maxint, self.k_override)
        except PreconditionViolated as exc:
            raise ScenarioError(str(exc)) from exc

    def build_world(self) -> World:
        return World.clean_start(self.system_config())

    def build_scheduler(self) -> Scheduler:
        if self.scheduler == "round_robin":
            sched: Scheduler = RoundRobinScheduler()
        else:
            sched = RandomScheduler(self.seed)
        rates = {0: self.increment_rate}
        rates.update(self.rate_overrides)
        sched.configure_workload(self.seed, rates)
        return sched

    # -- text round-trip -------------------------------------------------------------

    def to_text(self) -> str:
        lines = [
            f"n = {self.n}",
            f"c = {self.c}",
            f"maxint = {self.maxint}",
            f"steps = {self.steps}",
            f"seed = {self.seed}",
            f"scheduler = {self.scheduler}",
            f"increment_rate = {self.increment_rate!r}",
        ]
        for proc in sorted(self.rate_overrides):
            lines.append(f"increment_rate.{proc} = {self.rate_overrides[proc]!r}")
        if self.k_override is not None:
            lines.append(f"k = {self.k_override}")
        lines.append(f"checks = {','.join(self.checks) if self.checks else 'none'}")
        plan = self.faults
        faults = []
        if plan.transient_seed is not None:
            faults.append(f"transient_seed = {plan.transient_seed}")
            faults.append(f"transient_scope = {plan.transient_scope}")
        if plan.crash_at:
            faults.append("crash = " + ", ".join(
                f"{p}@{s}" for p, s in sorted(plan.crash_at.items())))
        if plan.restart_at:
            faults.append("restart = " + ", ".join(
                f"{p}@{s}" for p, s in sorted(plan.restart_at.items())))
        if plan.duplications:
            faults.append("duplicate = " + ", ".join(
                f"{a}>{b}@{s}" for a, b, s in plan.duplications))
        if plan.reorders:
            faults.append("reorder = " + ", ".join(
                f"{a}>{b}@{s}" for a, b, s in plan.reorders))
        if faults:
            lines.append("[faults]")
            lines.extend(faults)
        return "\n".join(lines) + "\n"


def canonical_int(text: str) -> int:
    """``int(text)`` if ``str`` writes the integer as ``text`` (no plus sign,
    leading zero, underscore or space); ValueError otherwise."""
    value = int(text)
    if str(value) != text:
        raise ValueError(f"not a canonical integer: {text!r}")
    return value


def canonical_float(text: str) -> float:
    """``float(text)`` if ``repr`` writes the float as ``text``, the form
    ``Scenario.to_text`` writes; ValueError otherwise."""
    value = float(text)
    if repr(value) != text:
        raise ValueError(f"not a canonical float: {text!r}")
    return value


def parse_scenario(text: str) -> Scenario:
    """The scenario a file's text describes."""
    plain: Dict[str, str] = {}
    faults: Dict[str, str] = {}
    where: Dict[str, int] = {}  # key -> its line (no key is in both sections)
    section, known = plain, PLAIN_KEYS
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line == "[faults]":
            section, known = faults, FAULT_KEYS
            continue
        if line.startswith("["):
            raise ScenarioError(f"unknown section {line}", lineno)
        key, sep, value = line.partition("=")
        if not sep:
            raise ScenarioError("expected 'key = value'", lineno)
        key = key.strip()
        if key not in known and not (section is plain and key.startswith(RATE_PREFIX)):
            raise ScenarioError(f"unknown key {key!r}", lineno)
        if key in section:
            raise ScenarioError(f"key {key!r} given twice", lineno)
        section[key] = value.strip()
        where[key] = lineno
    for key in ("n", "c", "maxint", "steps"):
        if key not in plain:
            raise ScenarioError(f"missing required key {key!r}")

    def parsed(key: str, parse=canonical_int, section=plain, default=None):
        if key not in section:
            return default
        try:
            return parse(section[key])
        except ValueError as exc:
            raise ScenarioError(f"{key}: {exc}", where[key]) from None

    transient_seed = parsed("transient_seed", section=faults)
    try:
        return Scenario(
            n=parsed("n"),
            c=parsed("c"),
            maxint=parsed("maxint"),
            steps=parsed("steps"),
            seed=parsed("seed", default=0),
            scheduler=plain.get("scheduler", "round_robin"),
            increment_rate=parsed("increment_rate", canonical_float, default=0.0),
            rate_overrides={  # each key's <p> suffix, then its value
                parsed(key, lambda _: canonical_int(key[len(RATE_PREFIX):])):
                    parsed(key, canonical_float)
                for key in plain if key.startswith(RATE_PREFIX)},
            k_override=parsed("k"),
            checks=parse_checks(plain.get("checks", "all"), transient_seed is not None),
            faults=FaultPlan(
                transient_seed=transient_seed,
                transient_scope=faults.get("transient_scope", "all"),
                crash_at=parsed("crash", _parse_proc_steps, faults, {}),
                restart_at=parsed("restart", _parse_proc_steps, faults, {}),
                duplications=parsed("duplicate", _parse_channel_steps, faults, []),
                reorders=parsed("reorder", _parse_channel_steps, faults, []),
            ),
        )
    except PreconditionViolated as exc:
        raise ScenarioError(str(exc)) from exc


def parse_checks(raw: str, transient: bool = False) -> Tuple[str, ...]:
    """The checks a ``checks`` value names: ``none`` or a comma list, in
    which ``all`` stands for the default checks, or for those a
    ``transient`` run supports.  Each name is kept once, where it first
    appears."""
    if raw == "none":
        return ()
    everything = TRANSIENT_CHECKS if transient else DEFAULT_CHECKS
    parts = [part.strip() for part in raw.split(",")]
    checks = tuple(dict.fromkeys(name for part in parts if part
                                 for name in (everything if part == "all" else (part,))))
    unknown = set(checks) - set(DEFAULT_CHECKS) - set(OPT_IN_CHECKS)
    if unknown:
        raise ScenarioError(f"unknown checks {sorted(unknown)}")
    return checks


def load_scenario(path: str) -> Scenario:
    return parse_scenario(read_text_file(path))


def load_trace(path: str) -> Tuple[Trace, Optional[Scenario]]:
    """A trace file's events and embedded scenario (None if it has none),
    whose ``#scenario:`` lines must be those ``Scenario.to_text`` writes and
    whose ``steps`` must be the file's ``#steps``."""
    trace, text = read_trace_file(path)
    if not text:
        return trace, None
    try:
        scenario = parse_scenario(text)
    except ScenarioError as exc:  # its line 1 is the file's 3; an error of no line names 3
        raise ScenarioError(str(exc), (exc.line or 1) + 2) from None
    written = scenario.to_text().splitlines()
    for lineno, (line, want) in enumerate(zip_longest(text.splitlines(), written), 3):
        if line != want:  # a line past either end is None
            raise ScenarioError(f"embedded scenario not as Scenario.to_text writes it: "
                                f"trace {line!r}, to_text {want!r}", lineno)
    if trace.steps != scenario.steps:
        raise ScenarioError(f"#steps {trace.steps} is not the embedded scenario's "
                            f"steps {scenario.steps}", 2)
    return trace, scenario


def _parse_proc_steps(value: str) -> Dict[int, int]:
    out: Dict[int, int] = {}
    for chunk in value.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        proc, sep, step = chunk.partition("@")
        if not sep:
            raise ValueError(f"expected proc@step, got {chunk!r}")
        proc = canonical_int(proc)
        if proc in out:
            raise ValueError(f"processor {proc} named twice in {value!r}")
        out[proc] = canonical_int(step)
    return out


def _parse_channel_steps(value: str) -> List[Tuple[int, int, int]]:
    out: List[Tuple[int, int, int]] = []
    for chunk in value.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        link, sep, step = chunk.partition("@")
        src, sep2, dst = link.partition(">")
        if not sep or not sep2:
            raise ValueError(f"expected src>dst@step, got {chunk!r}")
        out.append((canonical_int(src), canonical_int(dst), canonical_int(step)))
    return out
