"""Scenario files: a flat key/value config with one [faults] section.

The format favors diffability: one ``key = value`` per line, ``#`` comments,
and a single nesting level for the fault plan.  See SCENARIO_FORMAT.md for
the full key reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .errors import PreconditionViolated, ScenarioError
from .labeling import SystemConfig
from .simnet import FaultPlan, RandomScheduler, RoundRobinScheduler, Scheduler, World
from .trace import canonical_int, read_text_file

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

    # -- construction of runnable objects ----------------------------------------

    def system_config(self) -> SystemConfig:
        try:
            return SystemConfig(self.n, self.c, self.maxint, self.k_override)
        except Exception as exc:
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


def parse_scenario(text: str, origin: str = "<scenario>",
                   linenos: Optional[List[int]] = None) -> Scenario:
    """``linenos``, when given, number ``text``'s lines in messages: the
    lines of the file that embeds the scenario."""
    plain: Dict[str, str] = {}
    faults: Dict[str, str] = {}
    where: Dict[str, int] = {}  # key -> its line (no key is in both sections)
    section, known = plain, PLAIN_KEYS
    lines = text.splitlines()
    for lineno, raw in zip(linenos or range(1, len(lines) + 1), lines):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line == "[faults]":
            section, known = faults, FAULT_KEYS
            continue
        if line.startswith("["):
            raise ScenarioError(f"{origin}:{lineno}: unknown section {line}")
        key, sep, value = line.partition("=")
        if not sep:
            raise ScenarioError(f"{origin}:{lineno}: expected 'key = value'")
        key = key.strip()
        if key not in known and not (section is plain and key.startswith("increment_rate.")):
            raise ScenarioError(f"{origin}:{lineno}: unknown key {key!r}")
        if key in section:
            raise ScenarioError(f"{origin}:{lineno}: key {key!r} given twice")
        section[key] = value.strip()
        where[key] = lineno
    for key in ("n", "c", "maxint", "steps"):
        if key not in plain:
            raise ScenarioError(f"{origin}: missing required key {key!r}")

    def parsed(key: str, parse=canonical_int, section=plain, default=None):
        if key not in section:
            return default
        try:
            return parse(section[key])
        except ValueError as exc:
            raise ScenarioError(f"{origin}:{where[key]}: {key}: {exc}") from None

    try:
        transient_seed = parsed("transient_seed", section=faults)
        rate_overrides = {}
        for key in plain:
            if key.startswith("increment_rate."):
                proc = int(key.split(".", 1)[1])
                if proc in rate_overrides:
                    raise ScenarioError(f"{origin}: processor {proc} named twice "
                                        f"in increment_rate keys, again as {key!r}")
                rate_overrides[proc] = parsed(key, float)
        return Scenario(
            n=parsed("n"),
            c=parsed("c"),
            maxint=parsed("maxint"),
            steps=parsed("steps"),
            seed=parsed("seed", default=0),
            scheduler=plain.get("scheduler", "round_robin"),
            increment_rate=parsed("increment_rate", float, default=0.0),
            rate_overrides=rate_overrides,
            k_override=parsed("k"),
            checks=parse_checks(plain.get("checks", "all"), origin,
                                transient=transient_seed is not None),
            faults=FaultPlan(
                transient_seed=transient_seed,
                transient_scope=faults.get("transient_scope", "all"),
                crash_at=parsed("crash", _parse_proc_steps, faults, {}),
                restart_at=parsed("restart", _parse_proc_steps, faults, {}),
                duplications=parsed("duplicate", _parse_channel_steps, faults, []),
                reorders=parsed("reorder", _parse_channel_steps, faults, []),
            ),
        )
    except ScenarioError:
        raise
    except PreconditionViolated as exc:
        raise ScenarioError(str(exc)) from exc
    except (ValueError, KeyError) as exc:
        raise ScenarioError(f"{origin}: {exc}") from exc


def parse_checks(raw: str, origin: str, transient: bool = False) -> Tuple[str, ...]:
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
        raise ScenarioError(f"{origin}: unknown checks {sorted(unknown)}")
    return checks


def load_scenario(path: str) -> Scenario:
    return parse_scenario(read_text_file(path), origin=path)


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
