"""Oracle tests: shadow equivalence, legal segments, stats, global invariants."""

import bisect
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stablevc.oracle
from stablevc.labeling import SystemConfig
from stablevc.labels import Label, LabelComponent
from stablevc.oracle import (
    ExecutionStats,
    InvariantMonitor,
    ShadowTracker,
    Violation,
    _sample_pairs,
    _split_windows,
    _step_index,
    check_causal,
    check_requirement1,
    find_legal_segments,
    global_invariants,
    stats,
)
from stablevc.simnet import (
    Action,
    BEGIN_BROADCAST,
    FaultPlan,
    RandomScheduler,
    RoundRobinScheduler,
    ScriptedScheduler,
    World,
    run,
)
from stablevc.trace import Trace, TraceEvent, format_pair
from stablevc.vcpair import (
    VectorClockPair,
    causal_precedence,
    equal_static,
    event_count_query,
    exists_overlap,
    happened_before,
    labels_ordered,
    vc,
)

CFG = SystemConfig(n=3, c=1, maxint=16)
CFG_C2 = SystemConfig(n=3, c=2, maxint=16)
# scenarios/regress/duplicate_shadow.scenario's plan: the 3>1 duplicate at
# step 900 finds a full channel.
DUPLICATES = FaultPlan(duplications=[(1, 2, 10), (2, 3, 500), (3, 1, 900), (1, 3, 1500)])


def clean_run(steps=3000, rate=0.4, seed=5, cfg=CFG, fault_plan=None,
              scheduler="round_robin"):
    world = World.clean_start(cfg)
    sched = RoundRobinScheduler() if scheduler == "round_robin" else RandomScheduler(seed)
    sched.configure_workload(seed, {0: rate})
    tracker = ShadowTracker(cfg)
    monitor = InvariantMonitor()
    trace = run(world, sched, steps, fault_plan=fault_plan, observers=[tracker, monitor])
    return world, trace, tracker, monitor


class TestShadowEquivalence:
    def test_vc_matches_shadow_until_first_wrap(self):
        world, trace, tracker, _ = clean_run(steps=400, rate=0.3)
        first_revive = min((e.step for e in trace.by_kind("revive")), default=10**9)
        for step in range(0, min(first_revive, 400), 7):
            for i in CFG.proc_ids:
                pair = pair_at(tracker, i, step)
                shadow = shadow_at(tracker, i, step)
                assert vc(pair) == [v % CFG.maxint for v in shadow]

    def test_merge_join_exact_through_wraps(self):
        _world, trace, tracker, _ = clean_run(steps=3000, rate=0.8)
        assert trace.count("revive") >= 10
        assert tracker.merge_violations == []

    def test_requirement1_zero_violations(self):
        _world, trace, tracker, _ = clean_run()
        restarts = {}
        for event in trace.by_kind("restart_local"):
            restarts.setdefault(event.proc, []).append(event.step)
        assert check_requirement1(tracker, trace.steps, restarts) == []

    def test_causal_zero_violations(self):
        _world, trace, tracker, _ = clean_run()
        segments = find_legal_segments(trace)
        revive_steps = sorted(e.step for e in trace.by_kind("revive"))
        assert check_causal(tracker, segments, revive_steps, seed=3) == []

    def test_invariant_monitor_clean(self):
        _world, _trace, _tracker, monitor = clean_run(steps=1000)
        assert monitor.checked > 0
        assert monitor.violations == []


class _FoundShadowCheck:
    """Observer placed after a ShadowTracker: at every merged receive, the
    shadow the tracker finds for the arriving snapshot, reduced mod MAXINT,
    is that snapshot's counters.  A ``restart_local`` zeroes a pair but not
    its shadow, so a sender's snapshots are compared only until its first."""

    def __init__(self, tracker):
        self.tracker, self.checked, self.restarted = tracker, [], set()

    def on_step(self, world, events):
        maxint = world.config.maxint
        for event in events:
            if event.kind == "restart_local":
                self.restarted.add(event.proc)
            elif event.kind == "receive" and event.detail["merged"] \
                    and event.detail["from"] not in self.restarted:
                arriving = world.procs[event.proc].pairs[event.detail["from"]]
                snapshot, shadow = self.tracker.sent[id(arriving)]
                assert snapshot is arriving
                assert [v % maxint for v in shadow] == arriving.curr_m, event.render()
                self.checked.append(event.step)


CRASH_RESTART = FaultPlan(crash_at={2: 300}, restart_at={2: 700})


def _found_shadow_run(plan, steps):
    world = World.clean_start(CFG_C2)
    sched = RandomScheduler(3)
    sched.configure_workload(3, {0: 0.5})
    tracker = ShadowTracker(CFG_C2)
    check = _FoundShadowCheck(tracker)
    trace = run(world, sched, steps, fault_plan=plan, observers=[tracker, check])
    return trace, tracker, check


class TestMessageShadow:
    """A message's shadow is found by the snapshot it carries, whatever the
    channels did to the message: overwrites, duplicates, reorders, or the
    loss of a restarted processor's inbound messages."""

    @pytest.mark.parametrize("plan", [
        DUPLICATES,
        # The 2>1 duplicate at step 5 finds a full channel, which drops its head.
        FaultPlan(duplications=[(2, 1, 5), (1, 2, 10), (3, 1, 900)],
                  reorders=[(2, 1, 57), (1, 2, 94), (2, 3, 168), (3, 2, 205)]),
    ])
    def test_channel_faults(self, plan):
        trace, tracker, check = _found_shadow_run(plan, 2000)
        assert trace.count("duplicate") >= 3
        assert trace.count("reorder") == len(plan.reorders)
        assert len(check.checked) > 500 and check.checked[-1] > 1900
        assert tracker.merge_violations == []

    def test_crash_and_restart(self):
        trace, _tracker, check = _found_shadow_run(CRASH_RESTART, 2000)
        assert trace.count("restart") == 1
        # Every peer calls restart_local by step 751; before that, the
        # receives right after the restart are checked.
        assert any(step > 700 for step in check.checked)

    def test_crash_restart_verdicts(self):
        # The join check still catches faults: the restarted pairs forget
        # events their shadows keep (as SCENARIO_FORMAT.md describes).
        trace, tracker, _check = _found_shadow_run(CRASH_RESTART, 4000)
        restarts = {}
        for event in trace.by_kind("restart_local"):
            restarts.setdefault(event.proc, []).append(event.step)
        violations = tracker.merge_violations
        assert len(violations) == 1058
        assert (violations[0].step, violations[0].proc) == (737, 2)
        assert len(check_requirement1(tracker, trace.steps, restarts)) == 2


class _PendingAtCrash:
    """Observer placed after a ShadowTracker: the snapshot a processor's
    pending broadcast holds when it crashes, and for each merged receive of
    that snapshot, whether the tracker still stores its shadow."""

    def __init__(self, tracker):
        self.tracker, self.snapshot, self.found = tracker, None, []

    def on_step(self, world, events):
        for event in events:
            if event.kind == "crash":
                self.snapshot = world.procs[event.proc].pending_broadcast.snapshot
            elif event.kind == "receive" and event.detail["merged"] \
                    and world.procs[event.proc].pairs[event.detail["from"]] is self.snapshot:
                self.found.append((event.step, id(self.snapshot) in self.tracker.sent))


class TestSentSweep:
    """``ShadowTracker.sent`` keeps every broadcast snapshot, and a broadcast
    of an unchanged snapshot reuses its key, so the store holds no more
    entries than the change-logs beside it."""

    @pytest.mark.parametrize("plan, steps", [
        (FaultPlan(), 3000),
        (DUPLICATES, 2000),
        (CRASH_RESTART, 4000),
    ])
    def test_same_verdicts_as_keeping_every_snapshot(self, plan, steps):
        _trace, tracker, _check = _found_shadow_run(plan, steps)
        assert 0 < len(tracker.sent) <= sum(map(len, tracker.snap_pairs))

    def test_crashed_processor_keeps_its_pending_snapshot(self):
        # Processor 2 crashes mid-broadcast at step 284 and sends the rest of
        # it after its restart at 684; its peers make 141 first sends in
        # between.  No era ends (MAXINT 256), so a peer merges it.
        config = SystemConfig(n=3, c=2, maxint=256)
        plan = FaultPlan(crash_at={2: 284}, restart_at={2: 684})
        world = World.clean_start(config)
        sched = RandomScheduler(3)
        sched.configure_workload(3, {0: 0.5})
        tracker = ShadowTracker(config)
        probe = _PendingAtCrash(tracker)
        trace = run(world, sched, 800, fault_plan=plan, observers=[tracker, probe])
        firsts = [e for e in trace.events if e.kind == "send" and e.detail["first"]
                  and 284 <= e.step < 684]
        assert len(firsts) > 4 * (config.m + config.n)
        assert all(stored for _step, stored in probe.found)
        assert any(step > 684 for step, _stored in probe.found)


class _SnapshotTexts:
    """Observer placed after a ShadowTracker: the text of every pair
    snapshot at the step it was recorded."""

    def __init__(self, tracker):
        self.tracker = tracker
        self.texts = {proc: [] for proc in tracker.config.proc_ids}

    def on_start(self, world):
        self.on_step(world, None)

    def on_step(self, world, events):
        for proc, texts in self.texts.items():
            for pair in self.tracker.snap_pairs[proc][len(texts):]:
                texts.append(format_pair(pair))


class TestSnapshotsStayFrozen:
    """The tracker keeps the local pair object itself as its snapshot."""

    def test_recorded_pairs_never_change(self):
        plan = FaultPlan(crash_at={2: 300}, restart_at={2: 700},
                         duplications=DUPLICATES.duplications,
                         reorders=[(2, 1, 57), (1, 2, 94), (2, 3, 168), (3, 2, 205)])
        world = World.clean_start(CFG_C2)
        sched = RandomScheduler(3)
        sched.configure_workload(3, {0: 0.8})
        tracker = ShadowTracker(CFG_C2)
        texts = _SnapshotTexts(tracker)
        trace = run(world, sched, 3000, fault_plan=plan, observers=[tracker, texts])
        for kind in ("revive", "restart", "duplicate", "reorder"):
            assert trace.count(kind) > 0, kind
        for proc, recorded in texts.texts.items():
            assert len(recorded) > 100
            assert [format_pair(pair) for pair in tracker.snap_pairs[proc]] == recorded


class _RefInvariantMonitor:
    """The monitor without the memo: evaluates the local invariants after
    every handler."""

    def __init__(self):
        self.checked = 0
        self.violations = []

    def on_step(self, world, events):
        comm = events[-1]
        if comm.kind not in ("send", "receive"):
            return
        state = world.procs[comm.proc]
        if not state.labeling.ready:
            return
        self.checked += 1
        if not (state.mirrored_local_labels() and labels_ordered(state.local, state.labeling)):
            self.violations.append(Violation(
                "local_invariants", comm.step, comm.proc, f"after {comm.kind}"))


class _CancelCurrent:
    """At the given steps, cancel the stepping processor's current label in
    its storage, leaving the labeling state dirty for the observers after."""

    def __init__(self, steps):
        self.steps = steps

    def on_step(self, world, events):
        comm = events[-1]
        if comm.step in self.steps and comm.proc:
            state = world.procs[comm.proc]
            state.labeling.cancel(state.local.curr_label, state.local.curr_label)
            assert state.labeling.dirty


class TestInvariantMonitorMemo:
    """The monitor, through local_invariants' memo, reports what evaluating
    at every step reports."""

    @pytest.mark.parametrize("name, plan, steps, saboteur", [
        ("clean", None, 3000, None),
        ("transient", FaultPlan(transient_seed=4), 6000, None),
        ("crash", FaultPlan(crash_at={2: 700}, restart_at={2: 1100}), 3000, None),
        ("dirty", None, 3000, _CancelCurrent({500, 1501, 2222})),
    ])
    def test_same_verdicts_as_reference(self, name, plan, steps, saboteur):
        config = SystemConfig(n=4, c=2, maxint=64)
        world = World.clean_start(config)
        sched = RandomScheduler(4)
        sched.configure_workload(4, {0: 0.3})
        monitor, reference = InvariantMonitor(), _RefInvariantMonitor()
        observers = [saboteur] if saboteur else []
        trace = run(world, sched, steps, fault_plan=plan,
                    observers=observers + [monitor, reference])
        assert monitor.checked == reference.checked > steps // 2
        assert monitor.violations == reference.violations
        if name in ("transient", "dirty"):
            assert reference.violations
        if name == "crash":
            assert trace.count("restart") == 1


def _trace_with(steps, events):
    trace = Trace()
    for step, proc, kind in events:
        trace.append(TraceEvent(step, proc, kind, None))
    trace.steps = steps
    return trace


class TestLegalSegments:
    def test_clean_trace_single_segment(self):
        trace = _trace_with(100, [])
        assert find_legal_segments(trace) == [(0, 99)]

    def test_restart_splits(self):
        trace = _trace_with(100, [(50, 1, "restart_local")])
        assert find_legal_segments(trace) == [(0, 49), (51, 99)]

    def test_one_revive_per_proc_allowed(self):
        trace = _trace_with(100, [(30, 1, "revive"), (60, 2, "revive")])
        assert find_legal_segments(trace) == [(0, 99)]

    def test_second_revive_same_proc_splits(self):
        trace = _trace_with(100, [(30, 1, "revive"), (60, 1, "revive")])
        segments = find_legal_segments(trace)
        assert (0, 59) in segments
        assert (31, 99) in segments

    def test_pigeonhole_bound(self):
        events = [(s, 1 + (s // 17) % 3, "revive") for s in range(10, 500, 17)]
        events += [(s, 0, "restart_local") for s in range(40, 500, 97)]
        trace = _trace_with(500, events)
        segments = find_legal_segments(trace)
        longest = max(hi - lo + 1 for lo, hi in segments)
        b_restart = sum(1 for _s, _p, k in events if k == "restart_local")
        b_revive = len(events) - b_restart
        assert longest >= 500 // (b_restart + b_revive + 1)

    def test_revive_in_a_restart_step_is_outside(self):
        # The "revive, then line-8 restart" shape: the revive at step 5 lies
        # in no segment, so the revives at 12 and 20 bound only one each.
        trace = _trace_with(30, [(5, 2, "revive"), (5, 2, "restart_local"),
                                 (12, 2, "revive"), (20, 2, "revive")])
        assert find_legal_segments(trace) == [(0, 4), (6, 19), (13, 29)]


def _brute_segments(steps, restarts, revives):
    """Every maximal [lo, hi] with no restart and at most one revive per
    processor, found by testing every interval (the docstring's definition)."""
    def legal(lo, hi):
        if lo < 0 or hi >= steps or any(lo <= s <= hi for s in restarts):
            return False
        procs = [p for s, p in revives if lo <= s <= hi]
        return len(procs) == len(set(procs))

    return [(lo, hi) for lo in range(steps) for hi in range(lo, steps)
            if legal(lo, hi) and not legal(lo - 1, hi) and not legal(lo, hi + 1)]


# One processor per step; it may revive once and may restart in that step.
_fault_steps = st.lists(st.tuples(st.integers(1, 3), st.booleans(), st.booleans()),
                        min_size=1, max_size=40)


@settings(max_examples=300, deadline=None)
@given(_fault_steps)
def test_segments_and_f_r_match_brute_force(fault_steps):
    events = []
    for step, (proc, revive, restart) in enumerate(fault_steps):
        if revive:
            events.append((step, proc, "revive"))
        if restart:
            events.append((step, proc, "restart_local"))
    trace = _trace_with(len(fault_steps), events)
    restarts = [s for s, _p, kind in events if kind == "restart_local"]
    revives = [(s, p) for s, p, kind in events if kind == "revive"]
    expected = _brute_segments(len(fault_steps), restarts, revives)
    assert find_legal_segments(trace) == expected
    covered = {s for lo, hi in expected for s in range(lo, hi + 1)}
    assert stats(trace).f_r == len(fault_steps) - len(covered)


class TestStats:
    def test_counters(self):
        trace = _trace_with(50, [(3, 1, "revive"), (9, 2, "restart_local"),
                                 (9, 2, "new_label")])
        result = stats(trace)
        assert result.b_revive == 1
        assert result.b_restart == 1
        assert result.b_newlabel == 1
        assert result.steps == 50

    def test_f_r_counts_uncovered_steps(self):
        trace = _trace_with(100, [(50, 1, "restart_local")])
        result = stats(trace)
        # step 50 itself is outside both segments
        assert result.f_r == 1

    def test_f_r_counts_overlapping_segments_once(self):
        # Segments [0,9], [11,19], [21,59], [41,79] and [61,99] overlap; only
        # the restart steps 10 and 20 are outside all of them.
        events = [(10, 1, "restart_local"), (20, 1, "restart_local"),
                  (40, 1, "revive"), (60, 1, "revive"), (80, 1, "revive")]
        assert stats(_trace_with(100, events)).f_r == 2

    def test_clean_zero_deviations(self):
        assert stats(_trace_with(80, [])).f_r == 0

    def test_summary_shape(self):
        line = stats(_trace_with(10, [])).summary()
        assert line.startswith("stats steps=10 ")
        assert "max_segment=10" in line


@pytest.mark.parametrize("n, maxint, scope, seed", [
    (2, 4, "all", 0), (3, 4, "channels", 1), (3, 16, "all", 2),
    (4, 16, "channels", 3), (4, 4, "all", 4), (3, 8, "all", 5),
])
def test_f_r_counts_the_steps_holding_a_restart(n, maxint, scope, seed):
    # On simulator traces a step without a restart_local is a legal interval
    # on its own, so only the restart steps lie outside every segment.
    config = SystemConfig(n=n, c=1 + seed % 2, maxint=maxint)
    sched = RandomScheduler(seed)
    sched.configure_workload(seed, {0: 0.5})
    plan = FaultPlan(transient_seed=seed, transient_scope=scope,
                     crash_at={2: 500}, restart_at={2: 900})
    trace = run(World.clean_start(config), sched, 3000, fault_plan=plan,
                trace_level="faults")
    restart_steps = {e.step for e in trace.by_kind("restart_local")}
    assert restart_steps and trace.count("revive")
    assert stats(trace).f_r == len(restart_steps)


class TestGlobalInvariants:
    def test_clean_world_true(self):
        world, _trace, _tracker, _m = clean_run(steps=500)
        assert global_invariants(world)

    def test_guard_passing_unmergeable_message_false(self):
        world = World.clean_start(CFG)
        run(world, ScriptedScheduler([(1, Action(BEGIN_BROADCAST))]), 1)
        entry = world.channels[(1, 2)].queue[0]
        arriving = entry.message.client.arriving
        # Same guard surface, but no common item with the receiver's pair.
        arriving.mid[0] = (arriving.mid[0] + 3) % CFG.maxint
        arriving.prev_o[1] = (arriving.prev_o[1] + 5) % CFG.maxint
        arriving._vcsum = sum((a - b) % CFG.maxint
                              for a, b in zip(arriving.curr_m, arriving.mid))
        receiver = world.procs[2]
        receiver.local.mid[0] = (receiver.local.mid[0] + 3) % CFG.maxint
        receiver.local._vcsum = sum(
            (a - b) % CFG.maxint
            for a, b in zip(receiver.local.curr_m, receiver.local.mid))
        # equal_static now holds against the tampered arriving pair's echo?
        # Build the echo to match the receiver exactly:
        entry.message.client.rcvd_local = receiver.local.copy()
        assert not global_invariants(world)

    def test_guard_failing_message_is_exempt(self):
        world = World.clean_start(CFG)
        run(world, ScriptedScheduler([(1, Action(BEGIN_BROADCAST))]), 1)
        entry = world.channels[(1, 2)].queue[0]
        arriving = entry.message.client.arriving.copy()
        arriving.mid[0] = (arriving.mid[0] + 3) % CFG.maxint
        arriving.prev_o[1] = (arriving.prev_o[1] + 5) % CFG.maxint
        arriving._vcsum = sum((a - b) % CFG.maxint
                              for a, b in zip(arriving.curr_m, arriving.mid))
        entry.message.client.arriving = arriving
        # Break the token echo too: the guard fails, so the state stays legal
        # despite the unmergeable payload.
        echo = entry.message.client.rcvd_local.copy()
        echo.mid[2] = (echo.mid[2] + 1) % CFG.maxint
        entry.message.client.rcvd_local = echo
        assert global_invariants(world)


# -- tracker queries: by bisection over a ShadowTracker's change-logs ----------------


def pair_at(tracker, proc, step):
    """The processor's local pair in state c_step (before the step runs)."""
    idx = bisect.bisect_right(tracker.snap_steps[proc], step) - 1
    return tracker.snap_pairs[proc][idx] if idx >= 0 else None


def shadow_at(tracker, proc, step):
    idx = bisect.bisect_right(tracker.snap_steps[proc], step) - 1
    return tracker.snap_shadows[proc][idx] if idx >= 0 else None


def increments_between(tracker, proc, lo, hi):
    """Increment events of ``proc`` between states c_lo and c_hi (i.e. during
    steps lo..hi-1)."""
    steps = tracker.increment_steps[proc]
    return bisect.bisect_left(steps, hi) - bisect.bisect_left(steps, lo)


def static_changes_between(tracker, proc, lo, hi):
    """Era changes (revive or adoption or restart) of ``proc`` in (lo, hi]."""
    steps = tracker.snap_steps[proc]
    prefix = tracker.era_prefix(proc)
    start = max(bisect.bisect_right(steps, lo) - 1, 0)
    end = bisect.bisect_right(steps, hi) - 1
    return prefix[end] - prefix[start] if end > start else 0


# -- reference audits: the linear-scan versions the bisecting ones replace ----------


def ref_static_changes_between(tracker, proc, lo, hi):
    count = 0
    steps = tracker.snap_steps[proc]
    pairs = tracker.snap_pairs[proc]
    start = bisect.bisect_right(steps, lo) - 1
    if start < 0:
        start = 0
    prev = pairs[start]
    for idx in range(start + 1, bisect.bisect_right(steps, hi)):
        if not equal_static(prev, pairs[idx]):
            count += 1
        prev = pairs[idx]
    return count


def _count_in(sorted_steps, lo, hi):
    """Steps in (lo, hi] of a sorted list."""
    return bisect.bisect_right(sorted_steps, hi) - bisect.bisect_right(sorted_steps, lo)


def ref_check_requirement1(tracker, total_steps, restart_steps):
    violations = []
    for proc, lo, hi in _sample_pairs(total_steps, tracker.config.proc_ids):
        restarts = restart_steps.get(proc, [])
        if _count_in(restarts, lo - 1, hi - 1):
            continue
        if ref_static_changes_between(tracker, proc, lo, hi) > 1:
            continue
        zx = pair_at(tracker, proc, lo)
        zy = pair_at(tracker, proc, hi)
        if zx is None or zy is None:
            continue
        expected = increments_between(tracker, proc, lo, hi)
        got = event_count_query(zx, zy, proc)
        if got is None or got != expected:
            violations.append(Violation(
                "requirement1", hi, proc,
                f"steps {lo}->{hi}: query={got} trace={expected}"))
    return violations


def ref_check_causal(tracker, segments, revive_steps, seed=0, samples_per_segment=60):
    rng = random.Random(seed)
    procs = list(tracker.config.proc_ids)
    violations = []
    for start, end in segments:
        if end <= start:
            continue
        cuts = [s for s in revive_steps if start <= s <= end]
        windows = _split_windows(start, end, cuts)
        for _ in range(samples_per_segment):
            lo, hi = windows[rng.randrange(len(windows))]
            if hi - lo < 2:
                continue
            pi = procs[rng.randrange(len(procs))]
            pj = procs[rng.randrange(len(procs))]
            sx = lo + rng.randrange(hi - lo)
            sy = lo + rng.randrange(hi - lo)
            zi = pair_at(tracker, pi, sx)
            zj = pair_at(tracker, pj, sy)
            si = shadow_at(tracker, pi, sx)
            sj = shadow_at(tracker, pj, sy)
            if None in (zi, zj, si, sj):
                continue
            if exists_overlap(zi, zj) is None:
                continue
            expected = happened_before(si, sj)
            got = causal_precedence(zi, zj)
            if got != expected:
                violations.append(Violation(
                    "causal", sy, pj,
                    f"({pi}@{sx}) vs ({pj}@{sy}): query={got} shadow={expected}"))
    return violations


AUDITED_RUNS = {
    "clean": dict(steps=3000, rate=0.4, seed=5),
    "wraparound": dict(steps=3000, rate=1.0, seed=9),
    "crash_restart": dict(steps=3000, rate=0.5, seed=7,
                          fault_plan=FaultPlan(crash_at={2: 700}, restart_at={2: 1100})),
    "random": dict(steps=3000, rate=0.6, seed=13, scheduler="random"),
    "duplicate": dict(steps=4000, rate=0.5, seed=3, cfg=CFG_C2, fault_plan=DUPLICATES,
                      scheduler="random"),
}


def _tamper(tracker, seed):
    """Corrupt a few pair and shadow snapshots so both audits find violations."""
    rng = random.Random(seed)
    for proc in tracker.config.proc_ids:
        pairs, shadows = tracker.snap_pairs[proc], tracker.snap_shadows[proc]
        for _ in range(max(1, len(pairs) // 50)):
            idx = rng.randrange(1, len(pairs))
            pairs[idx] = pairs[idx - 1]
            shadows[rng.randrange(len(shadows))][rng.randrange(CFG.n)] += 1


class TestAuditEquivalence:
    """The bisecting audits give the linear-scan audits' answers exactly."""

    @pytest.mark.parametrize("name", sorted(AUDITED_RUNS))
    @pytest.mark.parametrize("tampered", [False, True])
    def test_same_violations(self, name, tampered):
        _world, trace, tracker, _ = clean_run(**AUDITED_RUNS[name])
        if tampered:
            _tamper(tracker, seed=len(name))
        restarts = {}
        for event in trace.by_kind("restart_local"):
            restarts.setdefault(event.proc, []).append(event.step)
        segments = find_legal_segments(trace)
        revive_steps = sorted(e.step for e in trace.by_kind("revive"))
        req1 = ref_check_requirement1(tracker, trace.steps, restarts)
        causal = ref_check_causal(tracker, segments, revive_steps, seed=3)
        assert check_requirement1(tracker, trace.steps, restarts) == req1
        assert check_causal(tracker, segments, revive_steps, seed=3) == causal
        if tampered:
            assert req1 and causal

    def test_static_changes_match_linear_scan_while_growing(self):
        _world, trace, full, _ = clean_run(**AUDITED_RUNS["crash_restart"])
        # Feed the snapshots to a fresh tracker in chunks, querying between
        # chunks, so the prefix counts are extended from where they stopped.
        tracker = ShadowTracker(CFG)
        rng = random.Random(11)
        for upto in (1, 40, 41, 500, trace.steps + 1):
            for proc in CFG.proc_ids:
                count = bisect.bisect_right(full.snap_steps[proc], upto)
                tracker.snap_steps[proc][:] = full.snap_steps[proc][:count]
                tracker.snap_pairs[proc][:] = full.snap_pairs[proc][:count]
            for _ in range(600):
                proc = rng.choice(CFG.proc_ids)
                lo = rng.randrange(-2, upto + 2)
                hi = lo + rng.choice([-1, 0, 1, 7, 61, 509, 4099])
                assert (static_changes_between(tracker, proc, lo, hi)
                        == ref_static_changes_between(tracker, proc, lo, hi))

    def test_static_changes_compare_each_snapshot_once(self, monkeypatch):
        _world, trace, tracker, _ = clean_run(**AUDITED_RUNS["wraparound"])
        calls = []

        def counting_equal_static(a, b):
            calls.append(1)
            return equal_static(a, b)

        monkeypatch.setattr(stablevc.oracle, "equal_static", counting_equal_static)
        for proc in CFG.proc_ids:
            static_changes_between(tracker, proc, 0, 1)
        snapshots = sum(len(tracker.snap_pairs[p]) for p in CFG.proc_ids)
        assert len(calls) == snapshots - CFG.n
        del calls[:]
        for proc in CFG.proc_ids:
            for lo in range(0, trace.steps, 37):
                static_changes_between(tracker, proc, lo, lo + 509)
        assert calls == []


class TestStepIndex:
    """check_causal finds a sample's snapshot by its step in a list built
    once per audit, where the reference audit bisects the snapshot steps."""

    @staticmethod
    def _check(tracker, total_steps):
        # Every state c_0 .. c_steps, and lists cut short of the last snapshots.
        for top in (0, 1, total_steps // 2, total_steps + 1):
            for proc in tracker.config.proc_ids:
                steps = tracker.snap_steps[proc]
                assert _step_index(steps, top) == \
                    [bisect.bisect_right(steps, s) - 1 for s in range(top)]

    @pytest.mark.parametrize("name", sorted(AUDITED_RUNS))
    def test_matches_bisect_on_the_audited_runs(self, name):
        _world, trace, tracker, _ = clean_run(**AUDITED_RUNS[name])
        self._check(tracker, trace.steps)
        _tamper(tracker, seed=len(name))
        self._check(tracker, trace.steps)

    def test_matches_bisect_across_a_crash_and_restart(self):
        trace, tracker, _check = _found_shadow_run(CRASH_RESTART, 2000)
        assert trace.count("crash") == trace.count("restart") == 1
        # The crashed processor records no snapshot while it is down.
        steps = tracker.snap_steps[2]
        assert not any(300 < s <= 700 for s in steps)
        self._check(tracker, trace.steps)


@pytest.mark.parametrize("seed", range(3))
def test_requirement1_restart_exclusion_matches_reference(seed):
    # Restart steps fed straight to both audits, each at an end of a sample
    # that fails without restarts: lo - 1 and hi keep the sample, lo and
    # hi - 1 exclude it.
    _world, trace, tracker, _ = clean_run(**AUDITED_RUNS["wraparound"])
    _tamper(tracker, seed)
    free = check_requirement1(tracker, trace.steps, {})
    rng = random.Random(seed)
    restarts = {}
    for violation in free:
        lo = int(violation.detail.split()[1].split("->")[0])
        hi = violation.step
        restarts.setdefault(violation.proc, set()).add(rng.choice([lo - 1, lo, hi - 1, hi]))
    restarts = {proc: sorted(steps) for proc, steps in restarts.items()}
    ours = check_requirement1(tracker, trace.steps, restarts)
    assert ours == ref_check_requirement1(tracker, trace.steps, restarts)
    assert len(free) > 20 and 0 < len(ours) < len(free)


# -- the causal audit's draws and vc shortcut -------------------------------------------


def _draw_below(getrandbits, n):
    """check_causal's draw rule: getrandbits(n.bit_length()) until below n."""
    bits = n.bit_length()
    r = getrandbits(bits)
    while r >= n:
        r = getrandbits(bits)
    return r


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 2**40))
@example(seed=0, n=1)
@example(seed=1, n=2**32 + 1)
@example(seed=2, n=2**40)
def test_audit_draw_rule_matches_choice_and_randrange(seed, n):
    ours, by_choice, by_randrange = (random.Random(seed) for _ in range(3))
    for _ in range(5):
        drawn = _draw_below(ours.getrandbits, n)
        assert drawn == by_choice.choice(range(n)) == by_randrange.randrange(n)
    assert ours.getstate() == by_choice.getstate() == by_randrange.getstate()


class TestCausalShortcut:
    """Pairs with equal static parts compare vc lists kept per snapshot
    object; every other pivot goes through causal_precedence."""

    @staticmethod
    def _tracker(seed):
        rng = random.Random(seed)
        la, lb, lc = (Label(1, LabelComponent(s, frozenset({s + 10}))) for s in (1, 2, 3))
        maxint = CFG.maxint

        def vector():
            return [rng.randrange(maxint) for _ in range(CFG.n)]

        mid, other, prev_o = vector(), vector(), vector()
        statics = [
            (la, mid, lb, mid),           # mid equals prev_o, prev label differs
            (la, list(mid), lb, mid),     # the same static part in other lists
            (lb, mid, lc, prev_o),        # shares the first's prev item as curr
            (lc, other, la, mid),         # shares the first's curr item as prev
            (la, mid, lb, prev_o),        # no common item with the first
        ]
        tracker = ShadowTracker(CFG)
        for proc in CFG.proc_ids:
            pairs = []
            for _ in range(40):
                if pairs and rng.random() < 0.3:
                    pairs.append(pairs[rng.randrange(len(pairs))])  # a repeated snapshot
                    continue
                curr, m, prev, o = statics[rng.randrange(len(statics))]
                pairs.append(VectorClockPair(curr, vector(), m, prev, o, maxint))
            tracker.snap_steps[proc] = list(range(0, 200, 5))
            tracker.snap_pairs[proc] = pairs
            tracker.snap_shadows[proc] = [[rng.randrange(3) for _ in range(CFG.n)]
                                          for _ in pairs]
        return tracker

    @pytest.mark.parametrize("seed", range(6))
    def test_same_violations_as_reference(self, seed):
        tracker = self._tracker(seed)
        for revive_steps in ([], [70, 140]):
            ours = check_causal(tracker, [(0, 199)], revive_steps, seed=seed,
                                samples_per_segment=300)
            ref = ref_check_causal(tracker, [(0, 199)], revive_steps, seed=seed,
                                   samples_per_segment=300)
            assert ours == ref
            assert ref  # random shadows: the verdicts disagree somewhere

    @staticmethod
    def _tracker_of_distinct_objects(seed):
        """Static parts equal under =_m but built from distinct label and
        list objects on every processor, one label a canceled copy."""
        rng = random.Random(seed)
        maxint = CFG.maxint

        def vector():
            return [rng.randrange(maxint) for _ in range(CFG.n)]

        mid, other, prev_o = vector(), vector(), vector()
        tracker = ShadowTracker(CFG)
        for proc in CFG.proc_ids:
            la, lb, lc = (Label(1, LabelComponent(s, frozenset({s + 10}))) for s in (1, 2, 3))
            if proc == 2:
                la = la.with_cancel(LabelComponent(4, frozenset({5})))
            statics = [
                (la, list(mid), lb, list(mid)),
                (lb, list(mid), lc, list(prev_o)),
                (lc, list(other), la, list(mid)),
                (la, list(mid), lb, list(prev_o)),
            ]
            pairs = []
            for _ in range(40):
                curr, m, prev, o = statics[rng.randrange(len(statics))]
                pairs.append(VectorClockPair(curr, vector(), m, prev, o, maxint))
            tracker.snap_steps[proc] = list(range(0, 200, 5))
            tracker.snap_pairs[proc] = pairs
            tracker.snap_shadows[proc] = [[rng.randrange(3) for _ in range(CFG.n)]
                                          for _ in pairs]
        return tracker

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("tampered", [False, True])
    def test_distinct_objects_same_violations_as_reference(self, seed, tampered):
        tracker = self._tracker_of_distinct_objects(seed)
        if tampered:
            _tamper(tracker, seed)
        ours = check_causal(tracker, [(0, 199)], [70, 140], seed=seed, samples_per_segment=300)
        ref = ref_check_causal(tracker, [(0, 199)], [70, 140], seed=seed,
                               samples_per_segment=300)
        assert ours == ref
        assert ref

    def test_equal_statics_across_processors_share_one_id(self):
        tracker = self._tracker_of_distinct_objects(0)
        ids = stablevc.oracle._static_ids(tracker)
        for p in CFG.proc_ids:
            for q in CFG.proc_ids:
                for x, zx in enumerate(tracker.snap_pairs[p]):
                    for y, zy in enumerate(tracker.snap_pairs[q]):
                        assert (ids[p][x] == ids[q][y]) == equal_static(zx, zy)
        assert len({i for p in CFG.proc_ids for i in ids[p]}) == 4
