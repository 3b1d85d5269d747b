"""Timing shims installed around the layers' public functions, from outside.

Nothing in the program is edited: ``Tracer.install`` replaces the attribute a
caller looks up (a class method, or a module-level name that another module
imported by name) with a shim that times the call, and ``uninstall`` puts the
originals back.  Spans are kept in memory.  Calls that happen hundreds of
thousands of times per unit are aggregated per (name, parent name); the few
calls per unit (a run, an injection, a check, a trace write) are also kept as
whole span records (name, start, end, parent, unit id).

Self time is a span's duration minus the time its child shims took,
including the child shims' own bookkeeping, so tracing overhead inflates the
parent's self time as little as it can.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

# (owner attribute path relative to the loaded modules, attribute, span name,
# keep whole span records).  Names imported by name into another module are
# patched where the caller looks them up: protocol imports the vcpair guard,
# merge and legit_pairs; labeling imports the label constructors; cli
# imports simnet.run as sim_run and the oracle checks.
SHIMS: List[Tuple[str, str, str, bool]] = [
    ("simnet", "run", "simnet.run", True),
    ("cli", "sim_run", "simnet.run", True),
    ("simnet", "inject_transient", "simnet.inject_transient", True),
    ("simnet.RandomScheduler", "next", "simnet.schedule", False),
    ("simnet.RoundRobinScheduler", "next", "simnet.schedule", False),
    ("simnet.Channel", "send", "simnet.send", False),
    ("simnet.Channel", "receive", "simnet.receive", False),
    ("protocol.ProcessorState", "on_message", "protocol.on_message", False),
    ("protocol.ProcessorState", "do_forever_begin", "protocol.begin", False),
    ("protocol.ProcessorState", "do_forever_continue", "protocol.continue", False),
    ("labeling.LabelingState", "label_bookkeeping_msg", "labeling.bookkeeping_msg", False),
    ("labeling.LabelingState", "label_bookkeeping", "labeling.bookkeeping", False),
    ("labeling.LabelingState", "ensure_dominating", "labeling.ensure_dominating", False),
    ("labeling.LabelingState", "cancel", "labeling.cancel", False),
    ("protocol", "merge", "vcpair.merge", False),
    ("protocol", "legit_pairs", "vcpair.legit_pairs", False),
    ("protocol", "equal_static", "vcpair.guard", False),
    ("protocol", "pair_invar", "vcpair.guard", False),
    ("protocol", "labels_ordered", "vcpair.guard", False),
    ("protocol", "exhausted", "vcpair.guard", False),
    ("labeling", "successor_component", "labels.successor", False),
    ("labeling", "next_b_from_sets", "labels.next_b", False),
    ("labels.LabelComponent", "__init__", "labels.component_new", False),
    ("oracle.ShadowTracker", "on_step", "oracle.shadow_step", False),
    ("oracle.InvariantMonitor", "on_step", "oracle.monitor_step", False),
    ("oracle", "stats", "oracle.stats", True),
    ("cli", "stats", "oracle.stats", True),
    ("oracle", "global_invariants", "oracle.global_inv", True),
    ("cli", "global_invariants", "oracle.global_inv", True),
    ("cli", "check_requirement1", "oracle.req1", True),
    ("cli", "check_causal", "oracle.causal", True),
    ("trace.Trace", "write", "trace.write", True),
    ("cli", "execute_scenario", "cli.execute_scenario", True),
]


def _resolve(mods, path: str):
    module, _, cls = path.partition(".")
    owner = getattr(mods, module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Span recorder plus the counters read from values the layers return."""

    def __init__(self) -> None:
        self.agg: Dict[Tuple[str, str], List[float]] = {}  # -> [calls, total s, self s]
        self.spans: List[tuple] = []
        self.counters: Dict[str, int] = {}
        self._stack: List[list] = []
        self._unit: Optional[int] = None
        self._unit_start = 0.0
        self._saved: List[Tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------------

    def install(self, mods) -> None:
        observers = {
            "simnet.send": self._on_send,
            "protocol.on_message": self._on_message,
            "protocol.begin": self._on_begin,
            "vcpair.merge": self._on_merge,
        }
        for path, attr, name, whole in SHIMS:
            owner = _resolve(mods, path)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._shim(name, original, whole, observers.get(name)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _shim(self, name: str, fn: Callable, whole: bool,
              observe: Optional[Callable]) -> Callable:
        stack, agg, spans, clock = self._stack, self.agg, self.spans, time.perf_counter

        def shim(*args, **kwargs):
            start = clock()
            frame = [name, 0.0]
            parent = stack[-1]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            key = (name, parent[0])
            row = agg.get(key)
            if row is None:
                row = agg[key] = [0, 0.0, 0.0]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - frame[1]
            if whole:
                spans.append((name, start, end, parent[0], self._unit))
            if observe is not None:
                observe(args, result)
            parent[1] += clock() - start
            return result

        shim.__wrapped__ = fn
        return shim

    # -- units -------------------------------------------------------------------

    def begin_unit(self, unit_id: int) -> None:
        self._unit = unit_id
        self._stack.append(["unit", 0.0])
        self._unit_start = time.perf_counter()

    def end_unit(self) -> None:
        end = time.perf_counter()
        frame = self._stack.pop()
        row = self.agg.setdefault(("unit", ""), [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - self._unit_start
        row[2] += end - self._unit_start - frame[1]
        self.spans.append(("unit", self._unit_start, end, None, self._unit))
        self._unit = None

    # -- counters from returned values ---------------------------------------------

    def _tick(self, key: str, count: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + count

    def _on_send(self, args, overwrote) -> None:
        if overwrote:
            self._tick("overwrites")

    def _on_message(self, args, notes) -> None:
        if notes.ignored is not None:
            self._tick("ignored." + notes.ignored)
        self._tick("restarts", notes.restarts)
        self._tick("revives", notes.revives)

    def _on_begin(self, args, result) -> None:
        notes = result[2]
        self._tick("restarts", notes.restarts)
        self._tick("revives", notes.revives)

    def _on_merge(self, args, result) -> None:
        if not result == args[0]:
            self._tick("useful_merges")

    # -- summaries -------------------------------------------------------------------

    def by_name(self) -> Dict[str, List[float]]:
        """[calls, total s, self s] per span name, over every parent."""
        out: Dict[str, List[float]] = {}
        for (name, _parent), (calls, total, own) in self.agg.items():
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += total
            row[2] += own
        return out

    def tree(self) -> List[dict]:
        return [{"name": name, "parent": parent, "calls": calls,
                 "total_s": total, "self_s": own}
                for (name, parent), (calls, total, own) in sorted(self.agg.items())]
