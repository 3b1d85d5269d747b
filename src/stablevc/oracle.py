"""Ground-truth checking: shadow clocks, counting/causality audits, invariants.

The shadow tracker runs in lockstep with the simulation and maintains what a
fault-free unbounded implementation would compute: exact per-processor event
tallies and unbounded joined vectors.  The auditors then compare the bounded
pairs' answers against the shadow at sampled state pairs, find the legal
segments of a trace, and evaluate the per-state global invariants.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import le
from typing import Dict, List, Optional, Tuple

from .labeling import SystemConfig
from .protocol import ProcessorState
from .simnet import World
from .trace import Trace, TraceEvent
from .vcpair import (
    VectorClockPair,
    causal_precedence,
    equal_static,
    event_count_query,
    exists_overlap,
    happened_before,
    legit_pairs,
    pair_invar,
    vc,
)

@dataclass
class Violation:
    """One observed disagreement between the protocol and the shadow."""

    kind: str
    step: int
    proc: int
    detail: str


class ShadowTracker:
    """Lockstep observer holding the unbounded fault-free baseline.

    Maintains per-processor unbounded joined vectors (advanced exactly when
    the protocol increments or merges), and records change-logs of (step,
    local pair, shadow vector) so any past state can be queried by
    bisection.  A per-processor prefix count of era changes (consecutive
    snapshots with unequal static parts), extended on query, makes era
    changes between two states two bisects.

    A message's shadow is found by the snapshot it carries, not by
    following the channels: a broadcast's first send stores the sender's
    shadow under its snapshot, and a merged receive looks up the arriving
    snapshot, which the receiver keeps as ``pairs[sender]``.  A snapshot no
    send stored (an injected message, or a broadcast begun before the
    tracker attached) has no baseline to join.  A broadcast of an
    unchanged snapshot reuses its key, so ``sent`` never holds more
    entries than the change-logs beside it.  A ``restart_local``
    changes no shadow: the baseline never forgets, the local pair does,
    and the auditors exclude counting across a restart.
    """

    def __init__(self, config: SystemConfig):
        self.config = config
        n = config.n
        self.shadow: List[Optional[List[int]]] = [None] + [[0] * n for _ in range(n)]
        # Per processor: parallel lists (steps, pair snapshots, shadow copies),
        # appended only when the local pair changes.
        self.snap_steps: List[List[int]] = [[] for _ in range(n + 1)]
        self.snap_pairs: List[List[VectorClockPair]] = [[] for _ in range(n + 1)]
        self.snap_shadows: List[List[List[int]]] = [[] for _ in range(n + 1)]
        self.increment_steps: List[List[int]] = [[] for _ in range(n + 1)]
        # era_prefix[proc][idx]: era changes among snapshots 0..idx.
        self._era_prefix: List[List[int]] = [[0] for _ in range(n + 1)]
        self.merge_violations: List[Violation] = []
        # id(snapshot) -> (snapshot, shadow at its broadcast's begin); the
        # snapshot is kept alive, so no other object can take its id.
        self.sent: Dict[int, Tuple[VectorClockPair, List[int]]] = {}

    # -- observer interface ----------------------------------------------------

    def on_start(self, world: World) -> None:
        """Snapshot the initial (possibly fault-injected) world."""
        for i in self.config.proc_ids:
            self._record(0, i, world.procs[i])

    def on_step(self, world: World, events: List[TraceEvent]) -> None:
        kept = None  # the shadow copy a first send stored; the send ends its step
        for event in events:
            kind = event.kind
            proc = event.proc
            if kind == "increment":
                self.shadow[proc][proc - 1] += 1
                self.increment_steps[proc].append(event.step)
            elif kind == "send":
                if event.detail["first"]:
                    snapshot, kept = event.detail["pair"], list(self.shadow[proc])
                    self.sent[id(snapshot)] = (snapshot, kept)
            elif kind == "receive" and event.detail["merged"]:
                state = world.procs[proc]
                sent = self.sent.get(id(state.pairs[event.detail["from"]]))
                if sent is None:
                    continue
                mine = self.shadow[proc]
                mine[:] = map(max, mine, sent[1])
                # The merged pair must equal the shadow join modulo MAXINT.
                maxint, curr_m = self.config.maxint, state.local.curr_m
                if [a % maxint for a in curr_m] != [b % maxint for b in mine]:
                    self.merge_violations.append(Violation(
                        "merge_join", event.step, proc, f"curr.m={curr_m} shadow={mine}"))
        # A step's events all name its processor; a fault changes no pair.
        last = events[-1]
        if last.proc:
            self._record(last.step + 1, last.proc, world.procs[last.proc], kept)

    # -- internals ----------------------------------------------------------------

    def _record(self, step: int, proc: int, state: ProcessorState,
                shadow: Optional[List[int]] = None) -> None:
        """``shadow``, when given, is a stored list equal to the processor's shadow."""
        # The pair itself is the snapshot: the protocol changes no pair in
        # place once it may be shared.
        local, pairs = state.pairs[proc], self.snap_pairs[proc]
        if pairs and (pairs[-1] is local or pairs[-1] == local):
            return
        self.snap_steps[proc].append(step)
        pairs.append(local)
        self.snap_shadows[proc].append(list(self.shadow[proc]) if shadow is None else shadow)

    # -- queries -----------------------------------------------------------------

    def era_prefix(self, proc: int) -> List[int]:
        """Era changes among ``proc``'s snapshots 0..idx, for every idx."""
        pairs = self.snap_pairs[proc]
        prefix = self._era_prefix[proc]
        for idx in range(len(prefix), len(pairs)):
            prefix.append(prefix[-1] + (not equal_static(pairs[idx - 1], pairs[idx])))
        return prefix


class InvariantMonitor:
    """Checks local_invariants after every completed handler invocation.

    Guard-rejected messages are exempt: the labeling layer may have adopted a
    fresh maximal label from an otherwise-ignored message and the pair only
    catches up at the next loop iteration.  ``local_invariants`` keeps its
    own memo, so a processor whose labels and clean labeling state have not
    changed since they were last found valid is not asked again.
    """

    def __init__(self):
        self.checked = 0
        self.violations: List[Violation] = []

    def on_step(self, world: World, events: List[TraceEvent]) -> None:
        comm = events[-1]
        if comm.kind not in ("send", "receive"):
            return
        state = world.procs[comm.proc]
        if not state.labeling.ready:
            # Only possible before the first loop iteration after fault
            # injection (a corrupted pending broadcast drains first); the
            # invariants are defined over an initialized labeling state.
            return
        self.checked += 1
        if not state.local_invariants():
            self.violations.append(Violation(
                "local_invariants", comm.step, comm.proc, f"after {comm.kind}"))


# -- post-hoc checks ------------------------------------------------------------------


def _sample_pairs(total_steps: int, procs) -> List[Tuple[int, int, int]]:
    """(proc, step_lo, step_hi) sample triples at mixed ranges, anchored
    every ``total_steps // 400`` steps (every step in a shorter run)."""
    samples = []
    gaps = [1, 7, 61, 509, 4099]
    anchors = range(0, total_steps, max(1, total_steps // 400))
    for proc in procs:
        for lo in anchors:
            for gap in gaps:
                hi = lo + gap
                if hi < total_steps:
                    samples.append((proc, lo, hi))
    return samples


def check_requirement1(tracker: ShadowTracker, total_steps: int,
                       restart_steps: Dict[int, List[int]]) -> List[Violation]:
    """Audit exact own-event counting between sampled states.

    For every sampled (state, later state, processor) with no intervening
    restart and at most one era change for that processor, the pair query
    must return exactly the number of increment events the trace shows.
    Samples come grouped by processor and then by anchor ``lo``, so each
    processor's lists are fetched, and each anchor's bisects done, once.
    """
    violations: List[Violation] = []
    proc = lo = None
    for sample_proc, sample_lo, hi in _sample_pairs(total_steps, tracker.config.proc_ids):
        if sample_proc != proc:
            proc, lo = sample_proc, None
            steps, pairs = tracker.snap_steps[proc], tracker.snap_pairs[proc]
            era, increments = tracker.era_prefix(proc), tracker.increment_steps[proc]
            restarts = restart_steps.get(proc)
        if sample_lo != lo:
            lo = sample_lo
            # The snapshot holding state c_lo (none before the first).
            xi = bisect_right(steps, lo) - 1
            increments_lo = bisect_left(increments, lo)
            restarts_lo = bisect_right(restarts, lo - 1) if restarts else 0
        # Restart at step s mutates state c_{s+1}: exclude s in [lo, hi-1].
        if restarts and bisect_right(restarts, hi - 1) > restarts_lo:
            continue
        yi = bisect_right(steps, hi) - 1
        if xi < 0 or era[yi] - era[xi] > 1:
            continue
        expected = bisect_left(increments, hi) - increments_lo
        got = event_count_query(pairs[xi], pairs[yi], proc)
        if got is None or got != expected:
            violations.append(Violation(
                "requirement1", hi, proc,
                f"steps {lo}->{hi}: query={got} trace={expected}"))
    return violations


def _static_ids(tracker: ShadowTracker) -> List[List[int]]:
    """Per processor, each snapshot's static part as a small integer:
    two snapshots share one exactly when ``equal_static`` holds.  A
    snapshot in its predecessor's era takes its id; only an era change
    looks its static part up."""
    table: Dict[tuple, int] = {}
    ids: List[List[int]] = [[] for _ in tracker.snap_pairs]
    for proc in tracker.config.proc_ids:
        era, out = tracker.era_prefix(proc), ids[proc]
        for idx, pair in enumerate(tracker.snap_pairs[proc]):
            if idx and era[idx] == era[idx - 1]:
                out.append(out[-1])
            else:
                # Labels compare and hash by =_m, as equal_static compares them.
                key = (pair.curr_label, pair.prev_label, tuple(pair.mid), tuple(pair.prev_o))
                out.append(table.setdefault(key, len(table)))
    return ids


def _step_index(steps: List[int], top: int) -> List[int]:
    """``index[s] == bisect_right(steps, s) - 1`` for every step s < top."""
    index: List[int] = []
    for idx, bound in enumerate(steps + [top], -1):
        index += [idx] * (min(bound, top) - len(index))
    return index


def check_causal(tracker: ShadowTracker, segments: List[Tuple[int, int]],
                 revive_steps: List[int], seed: int = 0,
                 samples_per_segment: int = 60) -> List[Violation]:
    """Audit causal precedence against the shadow happened-before relation.

    Sample pairs are drawn inside legal segments, within windows spanning at
    most one wrap-around event in total, so a common reference item exists by
    construction.  ``revive_steps`` must be sorted.

    Each draw is ``Random._randbelow(n)`` spelled out, ``getrandbits`` until
    a value below n, so the samples are those of ``choice`` and
    ``randrange`` without their call frames.  Pairs with equal static parts
    (most samples, found by comparing interned ids) share both items and so
    count events since their current one: each snapshot's vector clock
    value and each processor's ``_step_index`` are built once per audit.
    """
    getrandbits = random.Random(seed).getrandbits
    procs = list(tracker.config.proc_ids)
    nprocs = len(procs)
    pbits = nprocs.bit_length()
    snap_pairs, snap_shadows = tracker.snap_pairs, tracker.snap_shadows
    top = max((end for _start, end in segments), default=0)
    snap_at = [[]] + [_step_index(tracker.snap_steps[p], top) for p in procs]  # procs 1..n
    static_ids = _static_ids(tracker)
    vcs: List[List[Optional[List[int]]]] = [[None] * len(pairs) for pairs in snap_pairs]
    violations: List[Violation] = []
    for start, end in segments:
        if end <= start:
            continue
        cuts = revive_steps[bisect_left(revive_steps, start):
                            bisect_right(revive_steps, end)]
        windows = _split_windows(start, end, cuts)
        nwin = len(windows)
        wbits = nwin.bit_length()
        for _ in range(samples_per_segment):
            r = getrandbits(wbits)
            while r >= nwin:
                r = getrandbits(wbits)
            lo, hi = windows[r]
            span = hi - lo
            if span < 2:
                continue
            r = getrandbits(pbits)
            while r >= nprocs:
                r = getrandbits(pbits)
            pi = procs[r]
            r = getrandbits(pbits)
            while r >= nprocs:
                r = getrandbits(pbits)
            pj = procs[r]
            sbits = span.bit_length()
            sx = getrandbits(sbits)
            while sx >= span:
                sx = getrandbits(sbits)
            sy = getrandbits(sbits)
            while sy >= span:
                sy = getrandbits(sbits)
            sx += lo
            sy += lo
            xi = snap_at[pi][sx]
            yi = snap_at[pj][sy]
            if xi < 0 or yi < 0:
                continue
            if static_ids[pi][xi] == static_ids[pj][yi]:
                # The pivot is both current items: events since it are vc.
                left = vcs[pi][xi]
                if left is None:
                    left = vcs[pi][xi] = vc(snap_pairs[pi][xi])
                right = vcs[pj][yi]
                if right is None:
                    right = vcs[pj][yi] = vc(snap_pairs[pj][yi])
                got = left != right and all(map(le, left, right))
            else:
                zi, zj = snap_pairs[pi][xi], snap_pairs[pj][yi]
                pivot = exists_overlap(zi, zj)
                if pivot is None:
                    # The precedence formula is defined through the common
                    # item; without one it reports "not preceding" by
                    # construction (e.g. a superseded wrap variant against
                    # the next era), so there is no verdict to audit.
                    continue
                got = causal_precedence(zi, zj, pivot)
            expected = happened_before(snap_shadows[pi][xi], snap_shadows[pj][yi])
            if got != expected:
                violations.append(Violation(
                    "causal", sy, pj,
                    f"({pi}@{sx}) vs ({pj}@{sy}): query={got} shadow={expected}"))
    return violations


def _split_windows(start: int, end: int, cuts: List[int]) -> List[Tuple[int, int]]:
    """Windows within [start, end] spanning at most one cut event each."""
    bounds = [start] + [c for c in cuts if start < c < end] + [end]
    windows = []
    for i in range(len(bounds) - 1):
        hi = bounds[i + 2] if i + 2 < len(bounds) else end
        windows.append((bounds[i], hi))
    return windows or [(start, end)]


# -- legal segments and statistics ---------------------------------------------------


@dataclass
class ExecutionStats:
    """Aggregate counters plus the legal-segment decomposition of a run."""

    steps: int
    b_restart: int
    b_revive: int
    b_newlabel: int
    f_r: int
    legal_segments: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def max_segment(self) -> int:
        return max((hi - lo + 1 for lo, hi in self.legal_segments), default=0)

    def summary(self) -> str:
        return (f"stats steps={self.steps} b_restart={self.b_restart} "
                f"b_revive={self.b_revive} b_newlabel={self.b_newlabel} "
                f"f_r={self.f_r} segments={len(self.legal_segments)} "
                f"max_segment={self.max_segment}")


def find_legal_segments(trace: Trace) -> List[Tuple[int, int]]:
    """Maximal step intervals with no restart and at most one wrap per processor.

    Returned as inclusive [start, end] step ranges in increasing order of
    both ends; consecutive segments may overlap.  Their maximum length is at
    least steps/(b_restart + b_revive + 1) by the pigeonhole principle.
    """
    faults = []  # (step, is_revive, proc) ordered; restarts sort first per step
    for event in trace.events:
        if event.kind == "restart_local":
            faults.append((event.step, 0, 0))
        elif event.kind == "revive":
            faults.append((event.step, 1, event.proc))
    faults.sort()

    segments: List[Tuple[int, int]] = []
    left = 0  # start of the segment under construction; only moves forward
    last_revive: Dict[int, int] = {}
    for step, is_revive, proc in faults:
        if not is_revive:
            if step > left:
                segments.append((left, step - 1))
            left = step + 1
        elif step >= left:  # a revive in a restart's own step is outside
            previous = last_revive.get(proc, -1)
            if previous >= left:
                # A second wrap of this processor: the segment ends before
                # it, and the next one starts after its first wrap.
                segments.append((left, step - 1))
                left = previous + 1
            last_revive[proc] = step
    if left < trace.steps:
        segments.append((left, trace.steps - 1))
    return segments


def stats(trace: Trace) -> ExecutionStats:
    """Aggregate a trace into counters, legal segments, and the deviation count.

    A state counts as deviating (f_r) when it lies outside every legal
    segment.  Segments overlap, so f_r counts what their union leaves out.
    """
    segments = find_legal_segments(trace)
    covered, reach = 0, -1  # reach: the last step covered so far
    for lo, hi in segments:
        covered += hi - max(lo, reach + 1) + 1
        reach = hi
    return ExecutionStats(
        steps=trace.steps,
        b_restart=trace.count("restart_local"),
        b_revive=trace.count("revive"),
        b_newlabel=trace.count("new_label"),
        f_r=max(trace.steps - covered, 0),
        legal_segments=segments,
    )


def global_invariants(world: World) -> bool:
    """Definition of a state in which no step can call a pair restart.

    Every live processor satisfies its local invariants, and every in-flight
    message that would pass the arrival guard at its receiver can actually be
    merged there.
    """
    for i in world.live_procs():
        state = world.procs[i]
        if not state.labeling.ready or not state.local_invariants():
            return False
    for (src, dst), channel in world.channels.items():
        receiver = world.procs[dst]
        for entry in channel.queue:
            message = entry.message
            payload = message.client
            arriving = payload.arriving
            guard = (equal_static(receiver.local, payload.rcvd_local)
                     and receiver.labeling.legit_msg(message, arriving.curr_label)
                     and pair_invar(arriving))
            if guard and not legit_pairs(receiver.local, arriving):
                return False
    return True
