"""Label component and label order tests, including the frozen worked examples."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablevc.errors import PreconditionViolated
from stablevc.labels import (
    Label,
    LabelComponent,
    LabelConfig,
    StridedComponent,
    cancels,
    eq_m,
    format_label,
    incomparable,
    next_b,
    precedes_b,
    precedes_lb,
    successor_component,
)


def comp(sting, antistings):
    return LabelComponent(sting, frozenset(antistings))


def next_label(own_history, creator, cfg):
    """A fresh legitimate label above every label in ``own_history``, all of
    them ``creator``'s: main and canceling components feed ``next_b``, so the
    output dominates every entry and every canceler recorded there.  The
    reference ``LabelingState._mint`` is checked against."""
    comps = []
    for lab in own_history:
        if lab.creator != creator:
            raise PreconditionViolated("next_label history must match the creator")
        comps.append(lab.ml)
        if lab.cl is not None:
            comps.append(lab.cl)
    return Label(creator, next_b(comps, cfg))


class TestPrecedesB:
    def test_direct_example(self):
        assert precedes_b(comp(2, {5, 6}), comp(9, {2, 7})) is True

    def test_incomparable_both_ways(self):
        a, b = comp(2, {5, 6}), comp(3, {7, 8})
        assert precedes_b(a, b) is False
        assert precedes_b(b, a) is False

    def test_irreflexive(self):
        a = comp(4, {1, 2})
        assert precedes_b(a, a) is False


class TestNextB:
    def test_single_input_frozen(self):
        # k=2, D={1..5}; input (1,{2,3}): sting 4, antistings {1,2}.
        cfg = LabelConfig(k=2)
        out = next_b([comp(1, {2, 3})], cfg)
        assert (out.sting, set(out.antistings)) == (4, {1, 2})
        assert precedes_b(comp(1, {2, 3}), out)

    def test_empty_input_seed(self):
        cfg = LabelConfig(k=4)
        out = next_b([], cfg)
        assert out.sting == 1
        assert set(out.antistings) == {2, 3, 4, 5}

    def test_input_order_irrelevant(self):
        cfg = LabelConfig(k=3)
        ins = [comp(1, {2, 3, 4}), comp(5, {6, 7, 8}), comp(9, {1, 2, 10})]
        assert next_b(ins, cfg) == next_b(list(reversed(ins)), cfg)

    def test_rejects_oversized_input(self):
        cfg = LabelConfig(k=2)
        with pytest.raises(PreconditionViolated):
            next_b([comp(i, {i + 1, i + 2}) for i in (1, 3, 5)], cfg)

    def test_random_dominance(self):
        # 1000 random input sets: the output dominates every input.
        cfg = LabelConfig(k=6)
        rng = random.Random(7)
        for _ in range(1000):
            size = rng.randint(0, cfg.k)
            ins = []
            for _ in range(size):
                sting = rng.randint(1, cfg.domain_size)
                anti = frozenset(rng.sample(range(1, cfg.domain_size + 1), cfg.k))
                ins.append(LabelComponent(sting, anti))
            out = next_b(ins, cfg)
            assert len(out.antistings) == cfg.k
            assert out.sting not in out.antistings
            for item in ins:
                assert precedes_b(item, out)


class TestLabelOrder:
    def test_creator_clause(self):
        a = Label(1, comp(9, {2, 7}))
        b = Label(2, comp(2, {5, 6}))
        assert precedes_lb(a, b) is True
        assert precedes_lb(b, a) is False

    def test_same_creator_component_clause(self):
        a = Label(3, comp(2, {5, 6}))
        b = Label(3, comp(9, {2, 7}))
        assert precedes_lb(a, b) is True

    def test_irreflexive(self):
        a = Label(1, comp(2, {5, 6}))
        assert precedes_lb(a, a) is False

    def test_incomparable_same_creator(self):
        a = Label(2, comp(2, {5, 6}))
        b = Label(2, comp(3, {7, 8}))
        assert incomparable(a, b) is True

    def test_different_creators_never_incomparable(self):
        a = Label(1, comp(2, {5, 6}))
        b = Label(2, comp(3, {7, 8}))
        assert incomparable(a, b) is False

    def test_identical_not_incomparable(self):
        a = Label(2, comp(2, {5, 6}))
        assert incomparable(a, Label(2, comp(2, {5, 6}))) is False


class TestCancels:
    def test_incomparable_cancel_both_ways(self):
        a = Label(2, comp(2, {5, 6}))
        b = Label(2, comp(3, {7, 8}))
        assert cancels(a, b) and cancels(b, a)

    def test_greater_cancels_smaller_one_way(self):
        small = Label(3, comp(2, {5, 6}))
        large = Label(3, comp(9, {2, 7}))
        assert cancels(large, small) is True
        assert cancels(small, large) is False

    def test_comparable_different_creators_no_cancel(self):
        a = Label(1, comp(2, {5, 6}))
        b = Label(2, comp(9, {2, 7}))
        assert cancels(a, b) is False and cancels(b, a) is False

    def test_mutual_cancellation_implies_incomparable(self):
        rng = random.Random(3)
        cfg = LabelConfig(k=4)
        for _ in range(500):
            a = Label(rng.randint(1, 3), _rand_comp(cfg, rng))
            b = Label(rng.randint(1, 3), _rand_comp(cfg, rng))
            if cancels(a, b) and cancels(b, a):
                assert incomparable(a, b)


    def test_matches_its_two_case_definition_exhaustively(self):
        # The definition spelled case by case: incomparable, or the same
        # creator with b strictly below a.  Every ordered pair of labels
        # over 2 creators, stings 1-5 and antisting sets of size 0-3 from
        # 1-5 (a sting inside its own antisting set included): 67,600 pairs.
        def reference(a, b):
            return incomparable(a, b) or (a.creator == b.creator and precedes_b(b.ml, a.ml))

        subsets = [frozenset(s) for size in range(4)
                   for s in itertools.combinations(range(1, 6), size)]
        labels = [Label(creator, comp(sting, anti)) for creator in (1, 2)
                  for sting in range(1, 6) for anti in subsets]
        assert len(labels) ** 2 == 67_600
        for a in labels:
            for b in labels:
                assert cancels(a, b) == reference(a, b), (a, b)


def _rand_comp(cfg, rng):
    return LabelComponent(rng.randint(1, cfg.domain_size),
                          frozenset(rng.sample(range(1, cfg.domain_size + 1), cfg.k)))


class TestNextLabel:
    def test_empty_history_seed(self):
        cfg = LabelConfig(k=3)
        lab = next_label([], 2, cfg)
        assert lab.creator == 2 and lab.cl is None
        assert lab.ml.sting == 1

    def test_dominates_canceled_history(self):
        cfg = LabelConfig(k=4)
        old = Label(1, comp(2, {3, 4, 5, 6}), cl=comp(7, {1, 2, 8, 9}))
        out = next_label([old], 1, cfg)
        assert precedes_b(old.ml, out.ml)
        assert precedes_b(old.cl, out.ml)
        assert precedes_lb(old, out)

    def test_chain_of_applications(self):
        cfg = LabelConfig(k=8)
        history = []
        for _ in range(4):
            lab = next_label(history, 1, cfg)
            for old in history:
                assert precedes_lb(old, lab)
            history.append(lab)

    def test_creator_mismatch_rejected(self):
        cfg = LabelConfig(k=2)
        with pytest.raises(PreconditionViolated):
            next_label([Label(2, comp(1, {2, 3}))], 1, cfg)


class TestSuccessorChain:
    def test_chain_totally_ordered(self):
        cfg = LabelConfig(k=8)
        chain = [comp(1, set(range(2, 10)))]
        for _ in range(6):
            chain.append(successor_component(chain[-1], cfg))
        for i in range(len(chain)):
            for j in range(i + 1, len(chain)):
                assert precedes_b(chain[i], chain[j])
                assert not precedes_b(chain[j], chain[i])

    def test_deterministic(self):
        cfg = LabelConfig(k=5)
        a = comp(7, {1, 2, 3, 4, 5})
        assert successor_component(a, cfg) is successor_component(a, cfg)

    def test_sting_strictly_increases(self):
        cfg = LabelConfig(k=5)
        c = comp(1, {2, 3, 4, 5, 6})
        for _ in range(5):
            nxt = successor_component(c, cfg)
            assert nxt.sting > c.sting
            c = nxt


class TestEquality:
    def test_eq_m_ignores_cancellation(self):
        a = Label(1, comp(2, {3, 4}))
        b = Label(1, comp(2, {3, 4}), cl=comp(5, {1, 2}))
        assert eq_m(a, b)

    def test_eq_m_respects_creator(self):
        assert not eq_m(Label(1, comp(2, {3, 4})), Label(2, comp(2, {3, 4})))

    def test_format(self):
        lab = Label(3, comp(9, {2, 7}), cl=comp(4, {1, 9}))
        assert format_label(lab) == "3:9:{2,7}!4"

    def test_hash_follows_the_sting_and_equality_the_whole_component(self):
        # Equal stings, different antistings: equal hashes, unequal values.
        same, other = comp(5, {1, 2, 3}), comp(5, {1, 2, 4})
        assert hash(same) == hash(other) == hash(comp(5, {1, 2, 3}))
        assert same == comp(5, {1, 2, 3}) and same != other and other != same
        assert hash(Label(2, same)) == hash(Label(2, other, cl=same))
        assert Label(2, same) != Label(2, other)
        assert len({same, other, comp(5, {3, 2, 1})}) == 2

    def test_strided_antistings_built_once_on_first_read(self):
        # Members (start + i*stride) % 10 + 1 for i < 3: 10, 3 and 6.
        lazy = StridedComponent(7, 9, 3, 3, 10)
        slot = LabelComponent.__dict__["antistings"]
        with pytest.raises(AttributeError):
            slot.__get__(lazy, LabelComponent)
        assert hash(lazy) == hash(comp(7, {3, 6, 10})) and lazy.valid_k == 3
        assert type(lazy) is StridedComponent and isinstance(lazy, LabelComponent)
        assert lazy == comp(7, {3, 6, 10})
        # The first read stores the set and leaves a plain component behind.
        assert type(lazy) is LabelComponent
        assert slot.__get__(lazy, LabelComponent) is lazy.antistings
        assert lazy.antistings == frozenset({3, 6, 10})
        # Any other missing attribute still raises, on either kind of component.
        for c in (lazy, comp(7, {3, 6, 10})):
            with pytest.raises(AttributeError):
                c.missing
            assert getattr(c, "_stride", None) == ((9, 3, 3, 10) if c is lazy else None)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 17), st.sets(st.integers(1, 17),
                                                      min_size=4, max_size=4)),
                max_size=4))
def test_next_b_dominance_property(raw):
    cfg = LabelConfig(k=4)
    ins = [LabelComponent(s, frozenset(a)) for s, a in raw]
    out = next_b(ins, cfg)
    assert out.valid_under(cfg)
    for item in ins:
        assert precedes_b(item, out)


def test_next_b_dominates_when_the_sting_repeats_an_input_sting():
    # Every free domain value is some input's sting, so next_b falls back to
    # reusing one; the output must still sit above that input.
    cfg = LabelConfig(k=4)
    ins = [LabelComponent(1, frozenset({1, 8, 11, 14})),
           LabelComponent(5, frozenset({3, 9, 10, 16})),
           LabelComponent(6, frozenset({1, 7, 12, 13})),
           LabelComponent(15, frozenset({1, 2, 4, 17}))]
    out = next_b(ins, cfg)
    assert out.valid_under(cfg)
    assert all(precedes_b(item, out) for item in ins)
