"""Label storage tests: bookkeeping, cancellation, adoption, capacity."""

import random

import pytest

from stablevc.errors import NotReady, PreconditionViolated
from stablevc.labeling import LabelingState, ServerMessage, SystemConfig
from stablevc.labels import Label, LabelComponent, eq_m, precedes_lb

from test_labels import next_label


CFG = SystemConfig(n=3, c=1, maxint=16)


def comp(sting, antistings):
    return LabelComponent(sting, frozenset(antistings))


def fresh_state(self_id=1):
    return LabelingState(self_id, CFG)


def label_of(state):
    state.label_bookkeeping()
    return state.get_label()


class TestBookkeeping:
    def test_not_ready_before_bookkeeping(self):
        state = fresh_state()
        with pytest.raises(NotReady):
            state.get_label()

    def test_empty_storage_creates_fresh(self):
        state = fresh_state(2)
        state.label_bookkeeping()
        lab = state.get_label()
        assert lab.creator == 2 and lab.cl is None
        assert state.is_stored(lab)
        assert not state.is_canceled(lab)
        assert len(state.created_log) == 1

    def test_idempotent_on_clean_state(self):
        state = fresh_state()
        state.label_bookkeeping()
        before = state.get_label()
        count = len(state.created_log)
        state.label_bookkeeping()
        assert state.get_label() is before
        assert len(state.created_log) == count

    def test_two_comparable_legit_labels_smaller_canceled(self):
        state = fresh_state()
        k = CFG.label_config.k
        small = Label(2, comp(2, {5, 6} | set(range(100, 100 + k - 2))))
        large = next_label([small], 2, CFG.label_config)
        state._enqueue(small)
        state._enqueue(large)
        state.label_bookkeeping()
        assert state.is_canceled(small)
        assert not state.is_canceled(large)
        assert eq_m(state.get_label(), large)

    def test_incomparable_legit_labels_cancel_each_other(self):
        state = fresh_state(1)
        a = Label(2, comp(2, set(range(5, 5 + CFG.label_config.k))))
        b = Label(2, comp(3, set(range(600, 600 + CFG.label_config.k))))
        state._enqueue(a)
        state._enqueue(b)
        state.label_bookkeeping()
        assert state.is_canceled(a) and state.is_canceled(b)
        lab = state.get_label()
        assert lab.creator == 1  # fresh own mint replaces the dead pair

    def test_adopts_greatest_legitimate(self):
        state = fresh_state(1)
        state.label_bookkeeping()
        mine = state.get_label()
        other = Label(3, comp(4, set(range(10, 10 + CFG.label_config.k))))
        state._enqueue(other)
        state.label_bookkeeping()
        assert eq_m(state.get_label(), other)
        assert precedes_lb(mine, state.get_label())

    def test_misplaced_label_wipes_storage(self):
        state = fresh_state()
        state.label_bookkeeping()
        stray = Label(2, comp(5, set(range(20, 20 + CFG.label_config.k))))
        state.stored[3].append(stray)  # filed under the wrong creator
        state._dirty = True
        state.label_bookkeeping()
        assert not state.is_stored(stray)
        assert state.is_stored(state.get_label())

    def test_duplicate_entries_wipe_storage(self):
        state = fresh_state()
        state.label_bookkeeping()
        lab = Label(2, comp(5, set(range(20, 20 + CFG.label_config.k))))
        state.stored[2] = [lab, Label(2, lab.ml)]
        state._dirty = True
        state.label_bookkeeping()
        assert len(state.stored[2]) == 0 or len(state.stored[2]) == 1


class TestQueries:
    def test_is_stored_semantics(self):
        state = fresh_state()
        state.label_bookkeeping()
        assert state.is_stored(state.get_label())
        unknown = Label(2, comp(9, set(range(30, 30 + CFG.label_config.k))))
        assert not state.is_stored(unknown)

    def test_canceled_stored_label_still_stored(self):
        state = fresh_state()
        state.label_bookkeeping()
        lab = state.get_label()
        state.cancel(lab, lab)
        assert state.is_stored(lab)
        assert state.is_canceled(lab)

    def test_is_canceled_from_own_cl(self):
        state = fresh_state()
        carried = Label(2, comp(1, {2, 3}), cl=comp(4, {1, 5}))
        assert state.is_canceled(carried)

    def test_unknown_legit_label_not_canceled(self):
        state = fresh_state()
        assert not state.is_canceled(Label(2, comp(1, {2, 3})))


class TestCancel:
    def test_self_cancel(self):
        state = fresh_state()
        state.label_bookkeeping()
        lab = state.get_label()
        state.cancel(lab, lab)
        assert state.is_canceled(lab)
        state.label_bookkeeping()
        replacement = state.get_label()
        assert not eq_m(replacement, lab)

    def test_cancel_unknown_label_stores_then_marks(self):
        state = fresh_state()
        ghost = Label(2, comp(7, set(range(40, 40 + CFG.label_config.k))))
        state.cancel(ghost, ghost)
        assert state.is_stored(ghost)
        assert state.is_canceled(ghost)

    def test_cancel_by_smaller_rejected(self):
        state = fresh_state()
        small = Label(1, comp(1, {2, 3}))
        large = Label(2, comp(1, {2, 3}))
        with pytest.raises(PreconditionViolated):
            state.cancel(large, by=small)


class TestMessages:
    def _msg(self, sender_max, last_sent=None):
        return ServerMessage(sender_max=sender_max, last_sent=last_sent, client=None)

    def test_greater_sender_max_adopted(self):
        state = fresh_state(1)
        state.label_bookkeeping()
        greater = Label(3, comp(2, set(range(50, 50 + CFG.label_config.k))))
        state.label_bookkeeping_msg(self._msg(greater), sender=3, extra_labels=[])
        assert eq_m(state.get_label(), greater)
        assert eq_m(state.max[3], greater)

    def test_duplicate_is_bring_to_front_only(self):
        state = fresh_state(1)
        state.label_bookkeeping()
        lab = Label(3, comp(2, set(range(50, 50 + CFG.label_config.k))))
        state.label_bookkeeping_msg(self._msg(lab), sender=3, extra_labels=[])
        created = len(state.created_log)
        copy = Label(3, lab.ml)
        state.label_bookkeeping_msg(self._msg(copy), sender=2, extra_labels=[])
        assert len(state.created_log) == created
        assert sum(1 for entry in state.stored[3] if eq_m(entry, lab)) == 1

    def test_echo_cancels_own_max(self):
        state = fresh_state(1)
        state.label_bookkeeping()
        mine = state.get_label()
        evidence = comp(9, set(range(60, 60 + CFG.label_config.k)))
        echo = Label(mine.creator, mine.ml, cl=evidence)
        peer_max = Label(3, comp(2, set(range(70, 70 + CFG.label_config.k))))
        state.label_bookkeeping_msg(self._msg(peer_max, last_sent=echo),
                                    sender=3, extra_labels=[])
        assert state.is_canceled(mine)
        assert eq_m(state.get_label(), peer_max)

    def test_extra_labels_logged(self):
        state = fresh_state(1)
        state.label_bookkeeping()
        carried = Label(2, comp(3, set(range(80, 80 + CFG.label_config.k))))
        sender_max = Label(3, comp(2, set(range(90, 90 + CFG.label_config.k))))
        state.label_bookkeeping_msg(self._msg(sender_max), sender=3,
                                    extra_labels=[carried])
        assert state.is_stored(carried)

    def test_legit_msg(self):
        state = fresh_state(1)
        state.label_bookkeeping()
        lab = state.get_label()
        msg = self._msg(lab)
        assert state.legit_msg(msg, lab)
        assert state.legit_msg(msg, Label(lab.creator, lab.ml, cl=comp(2, {1, 3})))
        other = Label(2, comp(5, {1, 2}))
        assert not state.legit_msg(msg, other)

    def test_encapsulate(self):
        state = fresh_state(1)
        state.label_bookkeeping()
        peer = Label(2, comp(3, set(range(80, 80 + CFG.label_config.k))))
        state.label_bookkeeping_msg(self._msg(peer), sender=2, extra_labels=[])
        message = state.encapsulate("payload", dest=2)
        assert eq_m(message.sender_max, state.get_label())
        assert eq_m(message.last_sent, peer)
        assert message.client == "payload"

    def test_encapsulate_not_ready(self):
        state = fresh_state()
        with pytest.raises(NotReady):
            state.encapsulate("x", dest=2)


class TestCapacity:
    def test_eviction_from_back(self):
        state = fresh_state(1)
        cap = state.capacity
        for i in range(cap + 5):
            anti = frozenset((i * 7 + j) % CFG.label_config.domain_size + 1
                             for j in range(CFG.label_config.k))
            state._enqueue(Label(2, LabelComponent(i % CFG.label_config.domain_size + 1, anti)))
        assert len(state.stored[2]) == cap

    def test_mint_matches_public_next_label(self):
        # Dual route: minting from the stored queue must reproduce next_label
        # over the same queue exactly.
        rng = random.Random(11)
        state = fresh_state(2)
        k = CFG.label_config.k
        for _ in range(12):
            anti = frozenset(rng.sample(range(1, CFG.label_config.domain_size + 1), k))
            lab = Label(2, LabelComponent(rng.randint(1, CFG.label_config.domain_size), anti))
            if rng.random() < 0.4:
                lab = lab.with_cancel(
                    LabelComponent(rng.randint(1, CFG.label_config.domain_size),
                                   frozenset(rng.sample(range(1, CFG.label_config.domain_size + 1), k))))
            state._enqueue(lab)
        fast = state._mint(2)
        slow = next_label([entry for entry in state.stored[2] if entry is not fast],
                          2, CFG.label_config)
        assert fast.ml == slow.ml


class TestMonotoneConvergence:
    def test_single_creator_get_label_nondecreasing(self):
        # Only processor 3 ever creates labels; every consumer's view of the
        # maximal label never moves backwards.
        from stablevc.labels import preceq_lb
        creator = fresh_state(3)
        consumer = fresh_state(1)
        creator.label_bookkeeping()
        consumer.label_bookkeeping_msg(
            ServerMessage(creator.get_label(), None, None), 3, [])
        seen = [consumer.get_label()]
        for _ in range(6):
            current = creator.get_label()
            creator.cancel(current, current)
            creator.label_bookkeeping()
            consumer.label_bookkeeping_msg(
                ServerMessage(creator.get_label(), None, None), 3, [])
            seen.append(consumer.get_label())
        for earlier, later in zip(seen, seen[1:]):
            assert preceq_lb(earlier, later)


class TestStructuralInvariants:
    def test_random_operation_sequences_keep_queue_invariants(self):
        # After any interface operation: per queue, labels filed under their
        # creator, no =_m duplicates, at most one legitimate label, capacity
        # respected.
        rng = random.Random(31)
        k = CFG.label_config.k
        domain = CFG.label_config.domain_size
        state = fresh_state(1)
        state.label_bookkeeping()

        def rand_label():
            anti = frozenset(rng.sample(range(1, domain + 1), k))
            label = Label(rng.randint(1, CFG.n),
                          LabelComponent(rng.randint(1, domain), anti))
            if rng.random() < 0.3:
                cl = LabelComponent(rng.randint(1, domain),
                                    frozenset(rng.sample(range(1, domain + 1), k)))
                label = label.with_cancel(cl)
            return label

        def check():
            for j in CFG.proc_ids:
                queue = state.stored[j]
                assert len(queue) <= state.capacity
                assert all(entry.creator == j for entry in queue)
                keys = [(entry.creator, entry.ml) for entry in queue]
                assert len(keys) == len(set(keys))
                assert sum(1 for entry in queue if entry.cl is None) <= 1

        for _ in range(300):
            op = rng.random()
            if op < 0.45:
                sender = rng.randint(2, CFG.n)
                echo = rand_label() if rng.random() < 0.4 else None
                state.label_bookkeeping_msg(
                    ServerMessage(Label(rng.randint(1, CFG.n),
                                        rand_label().ml), echo, None),
                    sender, [rand_label()])
            elif op < 0.7:
                state.label_bookkeeping()
            elif op < 0.9:
                target = state.get_label()
                state.cancel(target, target)
                state.label_bookkeeping()
            else:
                state.encapsulate(None, rng.randint(2, CFG.n))
            check()
        assert state.is_stored(state.get_label())
        assert not state.is_canceled(state.get_label())


class TestConfigBounds:
    def test_maxint_word_bound_rejected(self):
        with pytest.raises(PreconditionViolated):
            SystemConfig(n=2, c=1, maxint=2**63)

    def test_minimums_enforced(self):
        with pytest.raises(PreconditionViolated):
            SystemConfig(n=1, c=1, maxint=16)
        with pytest.raises(PreconditionViolated):
            SystemConfig(n=2, c=0, maxint=16)
        with pytest.raises(PreconditionViolated):
            SystemConfig(n=2, c=1, maxint=1)

    def test_derived_sizes(self):
        cfg = SystemConfig(n=4, c=2, maxint=64)
        assert cfg.m == 2 * 4 * 3
        n, c, m = 4, 2, 24
        expected_cap = (n + n * n + n**3 * c) + (4 * n * n + 4 * n * m - 4 * n - 2 * m)
        assert cfg.label_capacity == expected_cap
        assert cfg.label_config.k == 2 * expected_cap
        assert cfg.label_config.domain_size == cfg.label_config.k ** 2 + 1
