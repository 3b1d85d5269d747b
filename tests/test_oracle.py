"""Oracle tests: shadow equivalence, legal segments, stats, global invariants."""

from stablevc.labeling import SystemConfig
from stablevc.oracle import (
    ExecutionStats,
    InvariantMonitor,
    ShadowTracker,
    check_causal,
    check_requirement1,
    find_legal_segments,
    global_invariants,
    stats,
)
from stablevc.simnet import (
    Action,
    BEGIN_BROADCAST,
    RoundRobinScheduler,
    ScriptedScheduler,
    World,
    run,
)
from stablevc.trace import Trace, TraceEvent
from stablevc.vcpair import vc

CFG = SystemConfig(n=3, c=1, maxint=16)


def clean_run(steps=3000, rate=0.4, seed=5, cfg=CFG):
    world = World.clean_start(cfg)
    sched = RoundRobinScheduler()
    sched.configure_workload(seed, {0: rate})
    tracker = ShadowTracker(cfg)
    monitor = InvariantMonitor()
    trace = run(world, sched, steps, observers=[tracker, monitor])
    return world, trace, tracker, monitor


class TestShadowEquivalence:
    def test_vc_matches_shadow_until_first_wrap(self):
        world, trace, tracker, _ = clean_run(steps=400, rate=0.3)
        first_revive = min((e.step for e in trace.by_kind("revive")), default=10**9)
        for step in range(0, min(first_revive, 400), 7):
            for i in CFG.proc_ids:
                pair = tracker.pair_at(i, step)
                shadow = tracker.shadow_at(i, step)
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
        assert check_requirement1(tracker, trace.steps, restarts, seed=3) == []

    def test_causal_zero_violations(self):
        _world, trace, tracker, _ = clean_run()
        segments = find_legal_segments(trace)
        revive_steps = sorted(e.step for e in trace.by_kind("revive"))
        assert check_causal(tracker, segments, revive_steps, seed=3) == []

    def test_invariant_monitor_clean(self):
        _world, _trace, _tracker, monitor = clean_run(steps=1000)
        assert monitor.checked > 0
        assert monitor.violations == []


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

    def test_clean_zero_deviations(self):
        assert stats(_trace_with(80, [])).f_r == 0

    def test_summary_shape(self):
        line = stats(_trace_with(10, [])).summary()
        assert line.startswith("stats steps=10 ")
        assert "max_segment=10" in line


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
