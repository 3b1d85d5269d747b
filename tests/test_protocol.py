"""Protocol handler tests: restart, revive, increment, broadcast, arrival, message reuse."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stablevc.errors import BroadcastInProgress, NoBroadcast
from stablevc.labeling import ServerMessage, SystemConfig
from stablevc.labels import Label, eq_m, format_label, precedes_lb
from stablevc.oracle import InvariantMonitor, ShadowTracker, global_invariants
from stablevc.protocol import ClientMessage, ProcessorState, StepNotes
from stablevc.simnet import Channel, FaultPlan, RandomScheduler, World, run
from stablevc.trace import format_pair
from stablevc.vcpair import (
    VectorClockPair,
    equal_static,
    exhausted,
    legit_pairs,
    merge,
    pair_invar,
    vc,
)

CFG = SystemConfig(n=3, c=1, maxint=16)


def clean_world():
    return World.clean_start(CFG)


def _spy_extras(monkeypatch, receiver):
    """Capture the extra labels the receiver feeds to its labeling layer."""
    from stablevc.labeling import LabelingState
    seen = []
    original = LabelingState.label_bookkeeping_msg

    def spy(self, message, sender_id, extra_labels):
        if self is receiver.labeling:
            seen.extend(extra_labels)
        return original(self, message, sender_id, extra_labels)

    monkeypatch.setattr(LabelingState, "label_bookkeeping_msg", spy)
    return seen


def drain_broadcast(state):
    sends = []
    while state.pending_broadcast is not None:
        sends.append(state.do_forever_continue())
    return sends


class TestRestartLocal:
    def test_resets_to_zero_under_max_label(self):
        world = clean_world()
        state = world.procs[1]
        state.local.bump(0)
        notes = StepNotes()
        state.restart_local(notes, "line8")
        assert vc(state.local) == [0, 0, 0]
        assert eq_m(state.local.curr_label, state.labeling.get_label())
        assert notes.restarts == 1 and notes.restart_cause == "line8"

    def test_invariants_hold_after(self):
        world = clean_world()
        state = world.procs[2]
        state.restart_local(StepNotes(), "line8")
        assert state.local_invariants()

    def test_fixpoint_when_label_stable(self):
        world = clean_world()
        state = world.procs[1]
        state.restart_local(StepNotes(), "line8")
        first = state.local.copy()
        state.restart_local(StepNotes(), "line8")
        assert state.local == first


class TestRevive:
    def test_wrap_demotes_curr(self):
        world = clean_world()
        state = world.procs[1]
        for _ in range(15):
            state.local.bump(0)
        assert exhausted(state.local)
        old = state.local.copy()
        notes = StepNotes()
        state.local = state.revive(state.local, notes)
        new = state.local
        assert vc(new) == [0, 0, 0]
        assert not exhausted(new)
        assert eq_m(new.prev_label, old.curr_label)
        assert new.prev_o == old.mid and new.mid == old.curr_m
        assert state.labeling.is_canceled(old.curr_label)
        assert precedes_lb(old.curr_label, new.curr_label)
        assert notes.revives == 1

    def test_prev_pivot_matches_old_curr(self):
        world = clean_world()
        state = world.procs[2]
        for _ in range(15):
            state.local.bump(1)
        old = state.local.copy()
        state.local = state.revive(state.local, StepNotes())
        # the demoted item matches the old current item in label and offset
        assert eq_m(state.local.prev_label, old.curr_label)
        assert state.local.prev_o == old.mid

    def test_invariants_hold_after(self):
        world = clean_world()
        state = world.procs[3]
        for _ in range(15):
            state.local.bump(2)
        state.local = state.revive(state.local, StepNotes())
        assert state.local_invariants()

    def test_concurrent_revivers_mint_identical_successor(self):
        world = clean_world()
        a, b = world.procs[1], world.procs[2]
        for _ in range(15):
            a.local.bump(0)
            b.local.bump(1)
        a.local = a.revive(a.local, StepNotes())
        b.local = b.revive(b.local, StepNotes())
        assert eq_m(a.local.curr_label, b.local.curr_label)


class TestIncrement:
    def test_counts_own_index_only(self):
        world = clean_world()
        state = world.procs[2]
        notes = StepNotes()
        state.increment(notes)
        assert vc(state.local) == [0, 1, 0]
        assert notes.increments == 1

    def test_revives_at_exhaustion_boundary(self):
        world = clean_world()
        state = world.procs[1]
        for _ in range(14):
            state.local.bump(0)
        notes = StepNotes()
        state.increment(notes)  # sum reaches MAXINT-1 = 15
        assert notes.revives == 1
        assert vc(state.local) == [0, 0, 0]
        assert state.local.prev_o == [0, 0, 0]
        assert state.local.mid == [15, 0, 0]


class TestBroadcast:
    def test_ascending_destinations(self):
        world = clean_world()
        state = world.procs[2]
        dest1, _msg1, _ = state.do_forever_begin(False)
        sends = drain_broadcast(state)
        dests = [dest1] + [d for d, _m, _n in sends]
        assert dests == [1, 3]

    def test_begin_while_pending_rejected(self):
        world = clean_world()
        state = world.procs[1]
        state.do_forever_begin(False)
        with pytest.raises(BroadcastInProgress):
            state.do_forever_begin(False)

    def test_continue_without_pending_rejected(self):
        world = clean_world()
        state = world.procs[1]
        with pytest.raises(NoBroadcast):
            state.do_forever_continue()

    def test_snapshot_immutable_across_interleaved_changes(self):
        world = clean_world()
        state = world.procs[1]
        _dest, first_msg, _ = state.do_forever_begin(False)
        # local changes between the sends of one broadcast
        state.local.bump(0)
        _dest2, second_msg, _ = state.do_forever_continue()
        assert first_msg.client.arriving == second_msg.client.arriving
        assert eq_m(first_msg.sender_max, second_msg.sender_max)

    def test_messages_are_self_consistent(self):
        world = clean_world()
        state = world.procs[1]
        _d, msg, _ = state.do_forever_begin(True)
        assert state.labeling.legit_msg(msg, msg.client.arriving.curr_label)

    def test_increment_applied_before_snapshot(self):
        world = clean_world()
        state = world.procs[3]
        _d, msg, notes = state.do_forever_begin(True)
        assert notes.increments == 1
        assert vc(msg.client.arriving) == [0, 0, 1]


class TestOnMessage:
    def _deliver(self, world, src, dst):
        state = world.procs[src]
        sends = []
        dest, msg, _ = state.do_forever_begin(False)
        sends.append((dest, msg))
        sends += [(d, m) for d, m, _n in drain_broadcast(state)]
        for dest, msg in sends:
            if dest == dst:
                return world.procs[dst].on_message(msg, src)
        raise AssertionError("no message addressed to dst")

    def test_merge_takes_elementwise_max(self):
        world = clean_world()
        world.procs[1].local.bump(0)
        world.procs[2].local.bump(1)
        notes = self._deliver(world, 1, 2)
        assert notes.merged
        assert vc(world.procs[2].local) == [1, 1, 0]

    def test_token_updated_even_when_ignored(self):
        world = clean_world()
        sender = world.procs[1]
        receiver = world.procs[2]
        dest, msg, _ = sender.do_forever_begin(False)
        drain_broadcast(sender)
        assert dest == 2
        # stale echo: receiver's local static no longer matches what p1 holds
        receiver.restart_local(StepNotes(), "line8")
        receiver.local.bump(1)
        receiver.local.bump(1)
        before = receiver.pairs[1]
        msg.client.rcvd_local.curr_m[0] = (msg.client.rcvd_local.curr_m[0] + 1) % 16
        wrong_echo = msg.client.rcvd_local
        wrong_echo.mid[0] = (wrong_echo.mid[0] + 3) % 16
        notes = receiver.on_message(msg, 1)
        assert notes.ignored == "equal_static"
        assert receiver.pairs[1] is not before  # token still updated

    def test_stale_sender_max_ignored(self):
        world = clean_world()
        sender = world.procs[1]
        receiver = world.procs[2]
        dest, msg, _ = sender.do_forever_begin(False)
        drain_broadcast(sender)
        stale = ProcessorState(1, CFG)  # fabricate a mismatched server label
        stale.labeling.label_bookkeeping()
        msg.sender_max = stale.labeling.get_label()
        notes = receiver.on_message(msg, 1)
        assert notes.ignored == "legit_msg"

    def test_exhausted_arrival_ignored(self):
        world = clean_world()
        sender = world.procs[1]
        receiver = world.procs[2]
        for _ in range(15):
            sender.local.bump(0)
        dest, msg, notes0 = sender.do_forever_begin(False)
        # begin revives before snapshotting, so force an exhausted payload
        msg.client.arriving.curr_m[0] = (msg.client.arriving.mid[0] + 15) % 16
        msg.client.arriving._vcsum = 15
        got = receiver.on_message(msg, 1)
        assert got.ignored == "pair_invar"

    def test_unmergeable_pair_restarts(self):
        world = clean_world()
        receiver = world.procs[2]
        sender = world.procs[1]
        dest, msg, _ = sender.do_forever_begin(False)
        drain_broadcast(sender)
        # give the arriving pair an unrelated static part with matching guard
        arr = msg.client.arriving
        arr.mid[0] = (arr.mid[0] + 3) % 16
        arr.prev_o[1] = (arr.prev_o[1] + 5) % 16
        arr._vcsum = sum((a - b) % 16 for a, b in zip(arr.curr_m, arr.mid))
        notes = receiver.on_message(msg, 1)
        assert notes.restarts == 1 and notes.restart_cause == "receive"
        assert receiver.local_invariants()

    def test_wrapped_prev_label_not_fed_to_labeling(self, monkeypatch):
        world = clean_world()
        sender = world.procs[1]
        receiver = world.procs[2]
        for _ in range(15):
            sender.local.bump(0)
        sender.local = sender.revive(sender.local, StepNotes())
        old_label = sender.local.prev_label
        dest, msg, _ = sender.do_forever_begin(False)
        drain_broadcast(sender)
        seen = _spy_extras(monkeypatch, receiver)
        got = receiver.on_message(msg, 1)
        assert got.merged
        assert any(eq_m(lab, msg.client.arriving.curr_label) for lab in seen)
        assert not any(eq_m(lab, old_label) for lab in seen)

    def test_ordinary_prev_label_fed_to_labeling(self, monkeypatch):
        # Without the wrap relation the arriving prev label is logged.
        world = clean_world()
        sender = world.procs[1]
        receiver = world.procs[2]
        dest, msg, _ = sender.do_forever_begin(False)
        drain_broadcast(sender)
        seen = _spy_extras(monkeypatch, receiver)
        receiver.on_message(msg, 1)
        assert any(eq_m(lab, msg.client.arriving.prev_label) for lab in seen)

    def test_merge_then_revive_when_exhausted(self):
        world = clean_world()
        sender = world.procs[1]
        receiver = world.procs[2]
        for _ in range(14):
            sender.local.bump(0)
        receiver.local.bump(1)
        dest, msg, _ = sender.do_forever_begin(False)
        drain_broadcast(sender)
        notes = receiver.on_message(msg, 1)
        assert notes.merged and notes.revives == 1
        assert not exhausted(receiver.local)
        assert receiver.local_invariants()


class TestLocalInvariants:
    def test_clean_start_holds(self):
        world = clean_world()
        for i in CFG.proc_ids:
            assert world.procs[i].local_invariants()

    def test_corrupted_prev_label_fails(self):
        world = clean_world()
        state = world.procs[1]
        other = ProcessorState(1, CFG)
        other.labeling.label_bookkeeping()
        state.local.prev_label = other.labeling.get_label()  # unknown locally
        assert not state.local_invariants()


# -- the equal-static fast path against the general merge ----------------------------

PROP_CFG = SystemConfig(n=3, c=1, maxint=8)


def reference_on_message(state, msg, sender):
    """The arrival handler without the equal-static fast path: every merge
    asks legit_pairs, then joins with merge, then revives on exhaustion."""
    notes = StepNotes()
    payload = msg.client
    arriving = payload.arriving
    local = state.local
    extra = [arriving.curr_label]
    if not (eq_m(arriving.prev_label, local.curr_label)
            and arriving.prev_o == local.mid
            and precedes_lb(local.curr_label, arriving.curr_label)):
        extra.append(arriving.prev_label)
    state.labeling.label_bookkeeping_msg(msg, sender, extra)
    notes.new_labels.extend(state.labeling.drain_created())
    state.pairs[sender] = arriving
    if not equal_static(state.local, payload.rcvd_local):
        notes.ignored = "equal_static"
        return notes
    if not state.labeling.legit_msg(msg, arriving.curr_label):
        notes.ignored = "legit_msg"
        return notes
    if not pair_invar(arriving):
        notes.ignored = "pair_invar"
        return notes
    if not legit_pairs(state.local, arriving):
        state.restart_local(notes, "receive")
        return notes
    state.local = merge(state.local, arriving)
    notes.merged = True
    if exhausted(state.local):
        state.local = state.revive(state.local, notes)
    return notes


def _relabel(label, fresh_object):
    return Label(label.creator, label.ml, label.cl) if fresh_object else label


def _arrival(case):
    """A receiver and an arriving message whose pair has the receiver's
    static part, built afresh from the drawn values each time."""
    wrapped, copies, echo_local, echo_label, loc_m, arr_m, mid, prev_o = case
    world = World.clean_start(PROP_CFG)
    receiver = world.procs[2]
    if wrapped:  # two epochs: a canceled prev label below a successor
        receiver.local = receiver.revive(receiver.local, StepNotes())
    curr, prev = receiver.local.curr_label, receiver.local.prev_label
    maxint = PROP_CFG.maxint
    local = VectorClockPair(curr, list(loc_m), list(mid), prev, list(prev_o), maxint)
    receiver.local = local
    arriving = VectorClockPair(_relabel(curr, copies), list(arr_m), list(mid),
                               _relabel(prev, copies), list(prev_o), maxint)
    rcvd_local = local if echo_local else VectorClockPair(
        curr, list(arr_m), list(mid), prev, list(prev_o), maxint)
    sender_max = _relabel(arriving.curr_label, copies)
    last_sent = receiver.labeling.get_label() if echo_label else None
    message = ServerMessage(sender_max, last_sent, ClientMessage(arriving, rcvd_local))
    return receiver, message


def _notes_view(notes):
    return (notes.increments, notes.revives, notes.restarts, notes.restart_cause,
            notes.ignored, notes.merged, [format_label(x) for x in notes.new_labels])


def _labeling_view(labeling):
    return ([[format_label(x) for x in queue] for queue in labeling.stored],
            [format_label(x) if x is not None else None for x in labeling.max])


_vectors = st.lists(st.integers(0, PROP_CFG.maxint - 1), min_size=3, max_size=3)


class TestEqualStaticFastPath:
    @settings(max_examples=300, deadline=None)
    @given(st.tuples(st.booleans(), st.booleans(), st.booleans(), st.booleans(),
                     _vectors, _vectors, _vectors, _vectors))
    def test_matches_legit_pairs_merge_revive(self, case):
        fast, fast_msg = _arrival(case)
        ref, ref_msg = _arrival(case)
        arriving = fast_msg.client.arriving
        assume(pair_invar(arriving))
        assert equal_static(fast.local, arriving)
        before = fast.local

        got = fast.on_message(fast_msg, 1)
        want = reference_on_message(ref, ref_msg, 1)

        assert got.merged and want.merged
        assert _notes_view(got) == _notes_view(want)
        assert format_pair(fast.local) == format_pair(ref.local)
        assert fast.local._vcsum == ref.local._vcsum
        assert exhausted(fast.local) == exhausted(ref.local)
        assert fast.pairs[1] is arriving
        assert _labeling_view(fast.labeling) == _labeling_view(ref.labeling)
        dominated = all((a - o) % PROP_CFG.maxint <= (b - o) % PROP_CFG.maxint
                        for a, b, o in zip(arriving.curr_m, before.curr_m, before.mid))
        if dominated and not exhausted(before):
            assert fast.local is before  # a no-op merge keeps the pair object


# -- resending the unchanged message -------------------------------------------------


def _broadcast(state, maybe_increment=False):
    """One whole broadcast: dest -> message."""
    dest, msg, _ = state.do_forever_begin(maybe_increment)
    return {dest: msg, **{d: m for d, m, _ in drain_broadcast(state)}}


class TestMessageReuse:
    def test_unchanged_processor_resends_identical_messages(self):
        world = clean_world()
        state = world.procs[1]
        first, second = _broadcast(state), _broadcast(state)
        assert sorted(first) == [2, 3]
        for dest in (2, 3):
            assert second[dest] is first[dest]
            msg = first[dest]
            assert msg.client.arriving is state.local
            assert msg.client.rcvd_local is state.pairs[dest]
            assert msg.sender_max is state.labeling.max[1]
            assert msg.last_sent is state.labeling.max[dest]

    def test_increment_changes_the_snapshot_of_every_message(self):
        world = clean_world()
        state = world.procs[1]
        first, second = _broadcast(state), _broadcast(state, maybe_increment=True)
        for dest in (2, 3):
            assert second[dest] is not first[dest]
            assert second[dest].client.arriving is state.local
            assert second[dest].client.rcvd_local is first[dest].client.rcvd_local

    def test_receive_changes_only_the_senders_token(self):
        world = clean_world()
        state, peer = world.procs[1], world.procs[2]
        first = _broadcast(state)
        _dest, msg, _ = peer.do_forever_begin(False)
        before = state.local
        state.on_message(msg, 2)  # a pair with nothing new: a no-op merge
        second = _broadcast(state)
        assert state.local is before and state.pairs[2] is msg.client.arriving
        assert second[2] is not first[2] and second[2].client.rcvd_local is state.pairs[2]
        assert second[3] is first[3]

    def test_echo_change_gives_a_fresh_message(self):
        world = clean_world()
        state = world.procs[1]
        first = _broadcast(state)
        held = state.labeling.max[3]
        state.labeling.max[3] = Label(held.creator, held.ml, held.cl)  # =_m, new object
        second = _broadcast(state)
        assert second[3] is not first[3] and second[3].last_sent is state.labeling.max[3]
        assert second[2] is first[2]

    def test_sender_max_change_gives_fresh_messages(self):
        world = clean_world()
        state = world.procs[1]
        first = _broadcast(state)
        held = state.labeling.max[1]
        state.labeling.max[1] = Label(held.creator, held.ml, held.cl)
        second = _broadcast(state)
        for dest in (2, 3):
            assert second[dest] is not first[dest]
            assert second[dest].sender_max is state.labeling.max[1]
            assert second[dest].last_sent is first[dest].last_sent

    def test_message_changed_after_sending_is_not_resent(self):
        world = clean_world()
        state = world.procs[1]
        first = _broadcast(state)
        token = first[2].client.rcvd_local
        first[2].client.rcvd_local = token.copy()
        held = state.labeling.max[1]
        first[3].sender_max = Label(held.creator, held.ml)
        second = _broadcast(state)
        assert second[2] is not first[2] and second[2].client.rcvd_local is token
        assert second[3] is not first[3] and second[3].sender_max is state.labeling.max[1]
        assert _broadcast(state) == second


def _without_reuse(monkeypatch):
    """Make every send build its message and channel entry afresh."""
    original_continue, original_send = ProcessorState.do_forever_continue, Channel.send

    def fresh_continue(self, *args):
        self._outbox[:] = [None] * len(self._outbox)
        return original_continue(self, *args)

    def fresh_send(self, message, injected=False):
        self._last = None
        return original_send(self, message, injected)

    monkeypatch.setattr(ProcessorState, "do_forever_continue", fresh_continue)
    monkeypatch.setattr(Channel, "send", fresh_send)


def _observed_run(plan, seed):
    cfg = SystemConfig(n=3, c=2, maxint=16)
    world = World.clean_start(cfg)
    sched = RandomScheduler(seed)
    sched.configure_workload(seed, {0: 0.3})
    tracker, monitor = ShadowTracker(cfg), InvariantMonitor()
    trace = run(world, sched, 3000, fault_plan=FaultPlan(**plan),
                observers=[tracker, monitor])
    return (list(trace.lines()), [str(v) for v in tracker.merge_violations],
            len(monitor.violations), global_invariants(world))


@pytest.mark.parametrize("plan", [
    dict(transient_seed=4, transient_scope="all"),
    dict(transient_seed=6, transient_scope="channels"),
    dict(duplications=[(1, 2, 30), (2, 3, 400), (3, 1, 900), (1, 3, 1500)],
         reorders=[(2, 1, 60), (1, 2, 700), (3, 2, 1200)]),
    dict(crash_at={2: 300}, restart_at={2: 800}),
], ids=["transient_all", "transient_channels", "duplicate_reorder", "crash_restart"])
def test_reuse_leaves_every_trace_line_unchanged(monkeypatch, plan):
    sent = []
    original_continue = ProcessorState.do_forever_continue

    def spy(self, *args):
        out = original_continue(self, *args)
        sent.append(out[1])
        return out

    monkeypatch.setattr(ProcessorState, "do_forever_continue", spy)
    reused = _observed_run(plan, seed=3)
    messages = len(sent)
    _without_reuse(monkeypatch)
    fresh = _observed_run(plan, seed=3)
    assert reused == fresh
    assert len({id(m) for m in sent[:messages]}) < 0.9 * messages  # resends happened
    assert len({id(m) for m in sent[messages:]}) == len(sent) - messages  # none here
    assert reused[3]  # the final state is legal, with the reuse as without it
