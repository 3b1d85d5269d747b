"""Simulation tests: channels, actions, faults, determinism, schedulers."""

import pytest

from stablevc import trace as trace_module
from stablevc.errors import ActionNotEnabled, AlreadyCrashed, NotCrashed, PreconditionViolated
from stablevc.labeling import SystemConfig
from stablevc.oracle import InvariantMonitor
from stablevc.protocol import ProcessorState
from stablevc.simnet import (
    BEGIN_BROADCAST,
    CONTINUE_BROADCAST,
    RECEIVE,
    Action,
    Channel,
    FaultPlan,
    RandomScheduler,
    RoundRobinScheduler,
    ScriptedScheduler,
    World,
    inject_transient,
    run,
)
from stablevc.trace import FAULT_KINDS, format_pair

CFG = SystemConfig(n=3, c=1, maxint=16)


def world_hash(world):
    """A structural fingerprint of the whole world for determinism checks."""
    parts = []
    for i in world.config.proc_ids:
        proc = world.procs[i]
        for j in world.config.proc_ids:
            z = proc.pairs[j]
            parts.append((z.curr_label.creator, z.curr_label.ml.sting,
                          tuple(z.curr_m), tuple(z.mid), tuple(z.prev_o)))
        parts.append(tuple(
            (entry.creator, entry.ml.sting, entry.cl.sting if entry.cl else 0)
            for queue in proc.labeling.stored[1:] for entry in queue))
    for key in sorted(world.channels):
        parts.append((key, tuple(
            e.message.sender_max.ml.sting for e in world.channels[key].queue)))
    return hash(tuple(map(str, parts)))


class TestChannel:
    def test_overwrite_drops_oldest(self):
        ch = Channel(1, 2, capacity=1)
        ch.send("first")
        overwrote = ch.send("second")
        assert overwrote is True
        assert len(ch) == 1
        assert ch.receive().message == "second"

    def test_fifo_order(self):
        ch = Channel(1, 2, capacity=3)
        for msg in ("a", "b", "c"):
            ch.send(msg)
        assert [ch.receive().message for _ in range(3)] == ["a", "b", "c"]

    def test_receive_empty_raises(self):
        with pytest.raises(ActionNotEnabled):
            Channel(1, 2, 1).receive()

    def test_same_message_and_flag_resend_the_entry(self):
        ch = Channel(1, 2, capacity=2)
        ch.send("m")
        ch.send("m")
        head, tail = ch.queue
        assert head is tail and (head.message, head.injected) == ("m", False)
        assert ch.receive() is ch.receive() is head
        ch.send("m")  # the last entry goes again, on an empty queue too
        assert ch.queue[0] is head

    def test_other_message_or_flag_gives_a_fresh_entry(self):
        ch = Channel(1, 2, capacity=3)
        ch.send("m")
        ch.send("m", injected=True)
        ch.send("n", injected=True)
        first, second, third = ch.queue
        assert first is not second and second is not third
        assert [(e.message, e.injected) for e in ch.queue] == [
            ("m", False), ("m", True), ("n", True)]
        third.message = "changed"  # an entry changed after its send goes no more
        ch.send("n", injected=True)
        assert ch.queue[-1] is not third and ch.queue[-1].message == "n"

    def test_duplicate_fault_resends_the_head_entry(self):
        world = World.clean_start(SystemConfig(n=3, c=2, maxint=16))
        trace = run(world, ScriptedScheduler([(1, Action(BEGIN_BROADCAST))]), 2,
                    fault_plan=FaultPlan(duplications=[(1, 2, 1)]))
        assert trace.count("duplicate") == 1
        head, tail = world.channels[(1, 2)].queue
        assert head is tail


class TestEnabledActions:
    def test_idle_processor_can_begin(self):
        world = World.clean_start(CFG)
        sched = RoundRobinScheduler()
        # Nothing to receive: every pick is a begin, whichever side is preferred.
        picks = [sched.next(world) for _ in range(6)]
        assert [proc for proc, _ in picks] == [1, 2, 3, 1, 2, 3]
        assert [action.kind for _, action in picks] == [BEGIN_BROADCAST] * 6

    def test_pending_and_incoming(self):
        world = World.clean_start(CFG)
        run(world, ScriptedScheduler([(1, Action(BEGIN_BROADCAST))]), 1)  # sends to 2
        assert world.procs[1].pending_broadcast is not None
        sched = RoundRobinScheduler()
        picks = [(proc, action.kind, action.sender)
                 for proc, action in (sched.next(world) for _ in range(6))]
        # 1 owes the rest of its broadcast and has nothing to receive; 2
        # alternates a begin with the receive from 1; 3 only begins.
        assert picks == [(1, CONTINUE_BROADCAST, None), (2, BEGIN_BROADCAST, None),
                         (3, BEGIN_BROADCAST, None), (1, CONTINUE_BROADCAST, None),
                         (2, RECEIVE, 1), (3, BEGIN_BROADCAST, None)]

    def test_crashed_processor_has_none(self):
        world = World.clean_start(CFG)
        world.crash(2)
        assert 2 not in world.live_procs()
        sched = RoundRobinScheduler()
        assert [sched.next(world)[0] for _ in range(4)] == [1, 3, 1, 3]


def _ready_by_scan(world):
    """Per receiver j >= 1: the senders, in id order, whose channel to j holds a message."""
    ids = world.config.proc_ids
    return [[i for i in ids if i != j and world.links[i][j].queue] for j in ids]


class TestReadySources:
    """``World.ready`` is kept by the channels as their queues change."""

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("policy", [RandomScheduler, RoundRobinScheduler])
    @pytest.mark.parametrize("scope", ["all", "channels"])
    def test_matches_the_queues_after_every_step(self, n, policy, scope):
        class Checking(policy):
            def next(self, world):
                assert world.ready[1:] == _ready_by_scan(world)
                checked.append(world.clock)
                return super().next(world)

        checked = []
        config = SystemConfig(n=n, c=2, maxint=16)
        plan = FaultPlan(transient_seed=n, transient_scope=scope,
                         crash_at={2: 100}, restart_at={2: 400},
                         duplications=[(1, 2, at) for at in range(50, 1500, 50)],
                         reorders=[(1, 2, at) for at in range(50, 1500, 50)]
                         + [(n, 1, at) for at in range(60, 1500, 50)])
        world = World.clean_start(config)
        assert world.ready[1:] == _ready_by_scan(world)
        sched = Checking(n) if policy is RandomScheduler else Checking()
        sched.configure_workload(n, {0: 0.2})
        trace = run(world, sched, 1500, fault_plan=plan, trace_level="faults")
        assert world.ready[1:] == _ready_by_scan(world)
        assert checked == list(range(1500))
        for kind in ("transient", "crash", "restart", "duplicate", "reorder"):
            assert trace.count(kind) > 0, kind

    def test_send_receive_and_clear(self):
        ready = [3]
        ch = Channel(2, 1, capacity=2, ready=ready)
        ch.send("a")
        ch.send("b")
        assert ready == [2, 3]
        assert ch.receive().message == "a" and ready == [2, 3]
        assert ch.receive().message == "b" and ready == [3]
        ch.send("c")
        ch.clear()
        ch.clear()
        assert ready == [3] and len(ch) == 0


class TestCrashRestart:
    def test_crash_then_restart_preserves_state(self):
        world = World.clean_start(CFG)
        world.procs[2].local.bump(1)
        snapshot = world.procs[2].local.copy()
        world.crash(2)
        world.restart_undetectable(2)
        assert world.procs[2].local == snapshot

    def test_inflight_messages_lost_while_down(self):
        world = World.clean_start(CFG)
        run(world, ScriptedScheduler([(1, Action(BEGIN_BROADCAST))]), 1)  # 1 -> 2 in flight
        assert len(world.channels[(1, 2)]) == 1
        world.crash(2)
        world.restart_undetectable(2)
        assert len(world.channels[(1, 2)]) == 0

    def test_double_crash_rejected(self):
        world = World.clean_start(CFG)
        world.crash(1)
        with pytest.raises(AlreadyCrashed):
            world.crash(1)
        with pytest.raises(NotCrashed):
            world.restart_undetectable(2)

    def test_crashed_forever_takes_no_steps(self):
        world = World.clean_start(CFG)
        sched = RoundRobinScheduler()
        trace = run(world, sched, 60, fault_plan=FaultPlan(crash_at={2: 0}))
        assert all(e.proc != 2 for e in trace.events if e.kind in ("send", "receive"))

    def test_restart_before_crash_rejected(self):
        with pytest.raises(PreconditionViolated):
            FaultPlan(crash_at={1: 10}, restart_at={1: 5})


class TestTransient:
    def test_reproducible(self):
        w1 = inject_transient(World.clean_start(CFG), seed=5)
        w2 = inject_transient(World.clean_start(CFG), seed=5)
        assert world_hash(w1) == world_hash(w2)

    def test_different_seeds_differ(self):
        hashes = {world_hash(inject_transient(World.clean_start(CFG), seed=s))
                  for s in range(100, 130)}
        assert len(hashes) == 30

    def test_structure_preserved(self):
        world = inject_transient(World.clean_start(CFG), seed=5)
        for i in CFG.proc_ids:
            proc = world.procs[i]
            for j in CFG.proc_ids:
                z = proc.pairs[j]
                assert len(z.curr_m) == len(z.mid) == len(z.prev_o) == CFG.n
                assert all(0 <= v < CFG.maxint for v in z.curr_m + z.mid + z.prev_o)
        for channel in world.channels.values():
            assert len(channel) <= CFG.c

    def test_channels_scope_leaves_processors_alone(self):
        world = World.clean_start(CFG)
        before = world.procs[1].local.copy()
        inject_transient(world, seed=5, scope="channels")
        assert world.procs[1].local == before
        assert all(len(ch) == CFG.c for ch in world.channels.values())
        assert all(entry.injected for ch in world.channels.values()
                   for entry in ch.queue)

    def test_duplicate_of_injected_head_is_injected(self):
        # Channel 1>2 holds two injected entries; the duplicate at step 0
        # drops the head and appends its copy, and proc 1's send then drops
        # the head again, so the arrival at step 4 is the copy.
        world = World.clean_start(SystemConfig(n=3, c=2, maxint=16))
        plan = FaultPlan(transient_seed=5, transient_scope="channels",
                         duplications=[(1, 2, 0)])
        trace = run(world, RoundRobinScheduler(), 5, fault_plan=plan)
        assert trace.count("duplicate") == 1
        arrival = trace.events[-1]
        assert (arrival.step, arrival.proc, arrival.detail["from"]) == (4, 2, 1)
        assert arrival.detail["injected"] is True

    def test_only_at_step_zero(self):
        world = World.clean_start(CFG)
        world.clock = 3
        with pytest.raises(PreconditionViolated):
            inject_transient(world, seed=1)


class TestDeterminism:
    def _run(self, seed, steps=2000, scheduler="random", fault_seed=None):
        world = World.clean_start(CFG)
        if scheduler == "random":
            sched = RandomScheduler(seed)
        else:
            sched = RoundRobinScheduler()
        sched.configure_workload(seed, {0: 0.3})
        plan = FaultPlan(transient_seed=fault_seed)
        trace = run(world, sched, steps, fault_plan=plan)
        return world, trace

    def test_round_robin_reproducible(self):
        w1, t1 = self._run(3, scheduler="round_robin")
        w2, t2 = self._run(3, scheduler="round_robin")
        assert world_hash(w1) == world_hash(w2)
        assert [e.render() for e in t1.events] == [e.render() for e in t2.events]

    def test_random_scheduler_reproducible(self):
        w1, t1 = self._run(9)
        w2, t2 = self._run(9)
        assert world_hash(w1) == world_hash(w2)
        assert [e.render() for e in t1.events] == [e.render() for e in t2.events]

    def test_transient_run_reproducible(self):
        w1, t1 = self._run(4, fault_seed=11)
        w2, t2 = self._run(4, fault_seed=11)
        assert world_hash(w1) == world_hash(w2)
        assert [e.render() for e in t1.events] == [e.render() for e in t2.events]

    def test_lean_trace_same_worlds(self):
        def outcome(config, plan, level, observers=()):
            world = World.clean_start(config)
            sched = RandomScheduler(6)
            sched.configure_workload(6, {0: 0.3})
            trace = run(world, sched, 1500, fault_plan=plan, observers=observers,
                        trace_level=level)
            lines = [e.render() for e in trace.events if e.kind in FAULT_KINDS]
            return world_hash(world), trace.counts, lines

        faulty = FaultPlan(transient_seed=9, crash_at={2: 300}, restart_at={2: 700},
                           duplications=[(1, 3, 112)], reorders=[(3, 1, 10)])
        for config, plan in ((CFG, None), (SystemConfig(n=3, c=2, maxint=16), faulty)):
            full = outcome(config, plan, "full")
            assert outcome(config, plan, "faults") == full
            monitor = InvariantMonitor()
            assert outcome(config, plan, "faults", [monitor]) == full
            assert monitor.checked > 0
        for kind in ("transient", "crash", "restart", "duplicate", "reorder"):
            assert full[1][kind] == 1


class TestSharedSnapshots:
    """Broadcast snapshots are the sender's local pair object, shared with
    every message and then with every receiver's ``pairs``; no pair is
    changed in place once it may be shared."""

    def test_sent_and_stored_pairs_never_change(self, monkeypatch):
        sent = {}  # id -> (pair, its text at send time); the pair pins the id
        checked = []
        original_send, original_receive = Channel.send, Channel.receive
        # Labels are immutable: render each once (k = 1,064 antistings here).
        label_text = {}
        render_label = trace_module.format_label

        def format_label(label):
            if id(label) not in label_text:
                label_text[id(label)] = (label, render_label(label))
            return label_text[id(label)][1]

        monkeypatch.setattr(trace_module, "format_label", format_label)

        def send(channel, message, injected=False):
            for pair in (message.client.arriving, message.client.rcvd_local):
                if id(pair) not in sent:
                    sent[id(pair)] = (pair, format_pair(pair))
            return original_send(channel, message, injected)

        def receive(channel):
            entry = original_receive(channel)
            arriving = entry.message.client.arriving
            if id(arriving) in sent:
                checked.append(format_pair(arriving) == sent[id(arriving)][1])
            return entry

        monkeypatch.setattr(Channel, "send", send)
        monkeypatch.setattr(Channel, "receive", receive)
        config = SystemConfig(n=4, c=2, maxint=64)  # C4's sizing, rate and faults
        world = World.clean_start(config)
        sched = RandomScheduler(7)
        sched.configure_workload(7, {0: 0.05})
        trace = run(world, sched, 20000, fault_plan=FaultPlan(transient_seed=7),
                    trace_level="faults")
        assert trace.count("increment") > 100 and trace.count("revive") > 0
        assert len(checked) > 5000 and all(checked)
        assert all(format_pair(pair) == text for pair, text in sent.values())
        stored = [world.procs[i].pairs[j] for i in config.proc_ids for j in config.proc_ids
                  if i != j and id(world.procs[i].pairs[j]) in sent]
        assert len(stored) == config.n * (config.n - 1)
        assert all(format_pair(pair) == sent[id(pair)][1] for pair in stored)

    def test_repeated_arrival_shortcut_changes_nothing(self, monkeypatch):
        """An arrival of a pair already merged into the unchanged local pair
        skips its guard and merge; clearing that memory before every arrival
        gives the same run."""
        plan = dict(transient_seed=3, crash_at={2: 900}, restart_at={2: 1500},
                    duplications=[(1, 2, 40), (3, 1, 2000)], reorders=[(2, 3, 77)])
        config = SystemConfig(n=3, c=2, maxint=16)

        def outcome():
            world = World.clean_start(config)
            sched = RandomScheduler(12)
            sched.configure_workload(12, {0: 0.2})
            trace = run(world, sched, 6000, fault_plan=FaultPlan(**plan))
            return world_hash(world), [e.render() for e in trace.events]

        shortcut = outcome()
        original = ProcessorState.on_message

        def forgetful(state, msg, sender):
            state._joined = [(None, None)] * (config.n + 1)
            return original(state, msg, sender)

        monkeypatch.setattr(ProcessorState, "on_message", forgetful)
        assert outcome() == shortcut


class TestIncrementRates:
    def _increments(self, sched, steps=600):
        world = World.clean_start(CFG)
        return run(world, sched, steps).count("increment")

    def test_second_configure_workload_takes_effect(self):
        sched = RoundRobinScheduler()
        sched.configure_workload(1, {0: 0.0})
        assert self._increments(sched) == 0
        sched.configure_workload(2, {0: 1.0, 2: 0.0})
        world = World.clean_start(CFG)
        trace = run(world, sched, 600)
        begins = sum(1 for e in trace.events if e.kind == "send" and e.detail["first"])
        increments = [e.proc for e in trace.events if e.kind == "increment"]
        assert set(increments) == {1, 3} and 0 < len(increments) < begins

    def test_rates_resolve_per_processor_then_default(self):
        sched = RoundRobinScheduler()
        sched.configure_workload(5, {0: 1.0, 1: 0.0})
        world = World.clean_start(CFG)
        trace = run(world, sched, 300)
        assert {e.proc for e in trace.events if e.kind == "increment"} == {2, 3}
        assert self._increments(RoundRobinScheduler()) == 0  # never configured


class TestFairness:
    def test_every_live_processor_scheduled_regularly(self):
        world = World.clean_start(CFG)
        sched = RandomScheduler(1)
        sched.configure_workload(1, {0: 0.2})
        trace = run(world, sched, 4000)
        bound = 4 * CFG.n * CFG.c
        last = {i: 0 for i in CFG.proc_ids}
        for event in trace.events:
            if event.kind in ("send", "receive", "ignored"):
                gap = event.step - last[event.proc]
                assert gap <= bound
                last[event.proc] = event.step

    def test_alternation_between_send_and_receive(self):
        world = World.clean_start(CFG)
        sched = RoundRobinScheduler()
        sched.configure_workload(0, {0: 0.0})
        trace = run(world, sched, 3000)
        # No processor performs two receives in a row while it also had a
        # send enabled (sends are always enabled for a live processor here).
        prev_kind = {}
        for event in trace.events:
            if event.kind == "send":
                prev_kind[event.proc] = "send"
            elif event.kind in ("receive", "ignored"):
                assert prev_kind.get(event.proc) != "receive"
                prev_kind[event.proc] = "receive"

    def test_duplication_and_reorder_faults(self):
        world = World.clean_start(CFG)
        sched = RoundRobinScheduler()
        sched.configure_workload(0, {0: 0.5})
        cfg2 = SystemConfig(n=3, c=2, maxint=16)
        world = World.clean_start(cfg2)
        plan = FaultPlan(duplications=[(1, 2, 50)], reorders=[(1, 2, 80)])
        trace = run(world, sched, 200, fault_plan=plan)
        assert trace.count("duplicate") <= 1
        assert trace.count("reorder") <= 1


class TestScriptedScheduler:
    def test_replays_exact_script(self):
        world = World.clean_start(CFG)
        script = [(1, Action(BEGIN_BROADCAST)), (1, Action(CONTINUE_BROADCAST)),
                  (2, Action(RECEIVE, sender=1))]
        trace = run(world, ScriptedScheduler(script), 5)
        comm = [(e.proc, e.kind) for e in trace.events
                if e.kind in ("send", "receive", "ignored")]
        assert comm[:2] == [(1, "send"), (1, "send")]
        assert comm[2][0] == 2
        # steps beyond the script are no-ops
        assert len(comm) == 3

    def test_not_enabled_action_raises(self):
        world = World.clean_start(CFG)
        with pytest.raises(ActionNotEnabled):
            run(world, ScriptedScheduler([(2, Action(RECEIVE, sender=1))]), 1)


class LinearScanScheduler(RandomScheduler):
    """The random scheduler's pick as a plain scan: every step checks every
    live processor for a 4*N*C-step wait, lowest id first.  The fairness
    rule is a reference copy over per-processor dicts, and it finds the
    ready sources by looking at every incoming queue."""

    def __init__(self, seed):
        super().__init__(seed)
        self.last_run = {}
        self.prefer_receive = {}
        self.next_source = {}

    def next(self, world):
        live = world.live_procs()
        if not live:
            return None
        bound = 4 * world.config.n * world.config.c
        clock = world.clock
        last = self.last_run
        proc = None
        for cand in live:
            if clock - last.get(cand, 0) >= bound:
                proc = cand
                break
        if proc is None:
            draw = int(self.rng.random() * len(live))
            proc = live[draw if draw < len(live) else len(live) - 1]
        last[proc] = clock
        return proc, self.action(world, proc)

    def action(self, world, proc):
        if self.prefer_receive.get(proc, False):
            sources = [i for i in world.config.proc_ids
                       if i != proc and world.links[i][proc].queue]
            if sources:
                self.prefer_receive[proc] = False
                start = self.next_source.get(proc, 0)
                self.next_source[proc] = (start + 1) % len(sources)
                return Action(RECEIVE, sender=sources[start % len(sources)])
        self.prefer_receive[proc] = True
        if world.procs[proc].pending_broadcast is not None:
            return Action(CONTINUE_BROADCAST)
        rate = self._rates.get(proc, self._rates.get(0, 0.0))
        if 0.0 < rate < 1.0:
            return Action(BEGIN_BROADCAST, increment=self.workload_rng.random() < rate)
        return Action(BEGIN_BROADCAST, increment=rate >= 1.0)


def _recorded_picks(scheduler_cls, seed, steps, plan, config):
    class Recording(scheduler_cls):
        def next(self, world):
            pick = super().next(world)
            picks.append((world.clock, pick))
            return pick

    picks = []
    world = World.clean_start(config)
    sched = Recording(seed)
    sched.configure_workload(seed, {0: 0.3})
    trace = run(world, sched, steps, fault_plan=plan)
    return picks, [e.render() for e in trace.events]


class TestRandomSchedulerStarvationGuard:
    def test_same_picks_as_linear_scan_through_crashes_and_restarts(self):
        config = CFG
        downtime = {3: (5000, 12000), 1: (14000, 17001)}
        plan = FaultPlan(crash_at={p: d[0] for p, d in downtime.items()},
                         restart_at={p: d[1] for p, d in downtime.items()})
        picks, events = _recorded_picks(RandomScheduler, 5, 20000, plan, config)
        want_picks, want_events = _recorded_picks(LinearScanScheduler, 5, 20000, plan, config)
        assert picks == want_picks
        assert events == want_events

        bound = 4 * config.n * config.c
        since = {i: 0 for i in config.proc_ids}  # last pick, or the restart
        starved = 0
        for step, (proc, _action) in picks:
            down = {p for p, (crash, back) in downtime.items() if crash <= step < back}
            for p, (_crash, back) in downtime.items():
                if step == back:
                    since[p] = step
            assert proc not in down
            for i in config.proc_ids:
                if i not in down:
                    assert step - since[i] <= bound
            starved += step - since[proc] == bound
            since[proc] = step
        assert starved > 0  # the guard fired, not only the random draw
        first_pick = dict(picks)
        for p, (_crash, back) in downtime.items():
            assert first_pick[back][0] == p  # back up and long overdue: first
