"""Vector clock pair tests: frozen worked examples, merge oracle, properties."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablevc.errors import NoPivot
from stablevc.labeling import SystemConfig
from stablevc.labels import Label, LabelComponent, eq_m, precedes_lb
from stablevc.simnet import _random_pair
from stablevc.vcpair import (
    Pivot,
    VectorClockItem,
    VectorClockPair,
    _events_since,
    causal_precedence,
    comparable_labels,
    eq_lo,
    equal_static,
    event_count_query,
    exhausted,
    exists_overlap,
    labels_ordered,
    le_lo,
    legit_pairs,
    lt_lo,
    merge,
    pair_invar,
    vc,
)

MAXINT = 8


def new_events(pair, pivot):
    """Events the pair counts since the pivot item, as exact naturals: the
    plain vector clock value when the pivot matches ``curr``, plus the
    previous era's events when it matches ``prev`` (entries may exceed
    MAXINT)."""
    return _events_since(pair, pivot.label, pivot.vector)


def lab(creator, sting, anti=(1, 2)):
    return Label(creator, LabelComponent(sting, frozenset(anti)))


# A small comparable chain of labels for pair construction: L0 < L1 < L2.
L0 = lab(1, 3, (1, 2))
L1 = lab(1, 4, (3, 9))   # 3 in anti, 4 not in L0's anti
L2 = lab(1, 5, (3, 4))   # stings 3,4 in anti


def pair(curr_label, m, o, prev_label=None, prev_o=None, maxint=MAXINT):
    prev_label = prev_label if prev_label is not None else curr_label
    prev_o = prev_o if prev_o is not None else list(o)
    return VectorClockPair(curr_label, list(m), list(o), prev_label,
                           list(prev_o), maxint)


class FakeView:
    """A label view with an explicit canceled set."""

    def __init__(self, canceled=()):
        self.canceled = set(canceled)

    def is_canceled(self, label):
        return id(label) in self.canceled or label.cl is not None


class TestVC:
    def test_basic(self):
        assert vc(pair(L1, [5, 2], [1, 1])) == [4, 1]

    def test_zero(self):
        assert vc(pair(L1, [3, 3], [3, 3])) == [0, 0]

    def test_wraparound(self):
        assert vc(pair(L1, [0, 2], [6, 1])) == [2, 1]


class TestExhausted:
    def test_at_threshold(self):
        assert exhausted(pair(L1, [5, 2], [0, 0])) is True

    def test_zero(self):
        assert exhausted(pair(L1, [4, 4], [4, 4])) is False

    def test_below_threshold(self):
        assert exhausted(pair(L1, [3, 3], [0, 0])) is False

    def test_incremental_sum_tracks_mutations(self):
        z = pair(L1, [0, 0], [0, 0])
        for _ in range(6):
            z.bump(0)
        assert not exhausted(z)
        z.bump(1)
        assert exhausted(z)


class TestLabelsOrdered:
    def test_equal_legit(self):
        assert labels_ordered(pair(L1, [1, 0], [0, 0]), FakeView()) is True

    def test_prev_smaller_and_canceled(self):
        z = pair(L2, [1, 0], [0, 0], prev_label=L1)
        assert labels_ordered(z, FakeView(canceled={id(L1)})) is True

    def test_prev_smaller_but_legit(self):
        z = pair(L2, [1, 0], [0, 0], prev_label=L1)
        assert labels_ordered(z, FakeView()) is False

    def test_equal_but_canceled(self):
        z = pair(L1, [1, 0], [0, 0])
        assert labels_ordered(z, FakeView(canceled={id(L1)})) is False


class TestItemRelations:
    def test_eq_lo_ignores_main(self):
        a = VectorClockItem(L1, [5, 5], [1, 2])
        b = VectorClockItem(L1, [0, 0], [1, 2])
        assert eq_lo(a, b)

    def test_lt_lo_lex_offsets(self):
        a = VectorClockItem(L1, [0, 0], [0, 1])
        b = VectorClockItem(L1, [0, 0], [0, 2])
        assert lt_lo(a, b) and not lt_lo(b, a)

    def test_lt_lo_label_order_first(self):
        a = VectorClockItem(L1, [0, 0], [9, 9])
        b = VectorClockItem(L2, [0, 0], [0, 0])
        assert lt_lo(a, b)

    def test_incomparable_labels_neither(self):
        x = lab(2, 2, (5, 6))
        y = lab(2, 3, (7, 8))
        a = VectorClockItem(x, [0, 0], [0, 0])
        b = VectorClockItem(y, [0, 0], [0, 0])
        assert not lt_lo(a, b) and not lt_lo(b, a) and not eq_lo(a, b)


class TestExistsOverlap:
    def test_identical_pairs_both_match(self):
        z = pair(L1, [3, 1], [0, 0])
        piv = exists_overlap(z, z.copy())
        assert piv is not None and piv.vector is z.mid and piv.label is z.curr_label

    def test_concurrent_wrap_prev_prev(self):
        base_prev_o = [0, 0]
        za = VectorClockPair(L2, [5, 2], [5, 2], L1, list(base_prev_o), MAXINT)
        zb = VectorClockPair(L2, [4, 3], [4, 3], L1, list(base_prev_o), MAXINT)
        piv = exists_overlap(za, zb)
        assert piv is not None and piv.vector is za.prev_o and piv.label is za.prev_label

    def test_one_side_wrapped(self):
        loc = pair(L1, [5, 2], [0, 0])                      # not wrapped
        arr = VectorClockPair(L2, [5, 2], [5, 2], L1, [0, 0], MAXINT)  # wrapped
        piv = exists_overlap(loc, arr)
        assert piv is not None and piv.vector is loc.mid and piv.label is loc.curr_label
        piv2 = exists_overlap(arr, loc)
        assert piv2 is not None and piv2.vector is arr.prev_o and piv2.label is arr.prev_label

    def test_no_overlap(self):
        assert exists_overlap(pair(L1, [0, 0], [0, 0]),
                              pair(L2, [0, 0], [1, 1])) is None

    def test_shared_current_item_alone_is_no_pivot(self):
        # Same current item (label and offset), different previous items: the
        # pairs share only their current item, which is no pivot, so the
        # arrival guard's legit_pairs fails and merge finds nothing to join on.
        loc = VectorClockPair(L2, [5, 2], [3, 1], L0, [0, 0], MAXINT)
        arr = VectorClockPair(L2, [4, 3], [3, 1], L1, [1, 0], MAXINT)
        for a, b in ((loc, arr), (arr, loc)):
            assert exists_overlap(a, b) is None
            assert legit_pairs(a, b) is None
            with pytest.raises(NoPivot):
                merge(a, b)


class TestNewEvents:
    def test_pivot_at_curr(self):
        z = pair(L1, [5, 2], [1, 1])
        piv = exists_overlap(z, z.copy())
        assert new_events(z, piv) == [4, 1]

    def test_pivot_at_prev_frozen_example(self):
        # curr.m=[1,0], curr.o=prev.m=[6,2], prev.o=[4,1] -> [3+2, 6+1]=[5,7]
        z = VectorClockPair(L2, [1, 0], [6, 2], L1, [4, 1], MAXINT)
        arr = pair(L1, [9, 9], [4, 1])  # matches z.prev in label and offset
        piv = exists_overlap(z, arr)
        assert piv is not None
        assert new_events(z, piv) == [5, 7]

    def test_fresh_revive_counts_previous_era(self):
        z = VectorClockPair(L2, [6, 2], [6, 2], L1, [4, 1], MAXINT)
        piv = exists_overlap(z, pair(L1, [0, 0], [4, 1]))
        assert new_events(z, piv) == [2, 1]  # curr contributes zero

    def test_no_pivot_match_raises(self):
        z = pair(L1, [1, 1], [0, 0])
        with pytest.raises(NoPivot):
            new_events(z, Pivot(L2, [3, 3]))


class TestMerge:
    def test_same_static_elementwise_max(self):
        loc = pair(L1, [3, 1], [0, 0])
        arr = pair(L1, [2, 4], [0, 0])
        out = merge(loc, arr)
        assert out.curr_m == [3, 4]
        assert equal_static(out, loc)

    def test_idempotent(self):
        z = pair(L1, [3, 1], [0, 0])
        out = merge(z, z.copy())
        assert out == z

    def test_alias_preserved(self):
        loc = pair(L1, [3, 1], [0, 0])
        arr = pair(L1, [2, 4], [0, 0])
        out = merge(loc, arr)
        # The join owns its storage: no input's offset list is shared.
        assert out.mid is not loc.mid and out.mid is not arr.mid

    def test_wrapped_arrival_adopted_with_counts(self):
        # loc is mid-era; arr wrapped past loc's era: counts are preserved.
        loc = pair(L1, [5, 2], [0, 0])
        arr = VectorClockPair(L2, [0, 3], [6, 2], L1, [0, 0], MAXINT)
        out = merge(loc, arr)
        assert out.curr_label is L2
        piv = exists_overlap(out, loc)
        assert piv is not None
        joined = new_events(out, piv)
        assert joined[0] >= 5 and joined[1] >= 3

    def test_no_pivot_raises(self):
        with pytest.raises(NoPivot):
            merge(pair(L1, [0, 0], [0, 0]), pair(L2, [0, 0], [1, 1]))

    def test_join_property_against_shared_pivot(self):
        rng = random.Random(5)
        for _ in range(300):
            o = [rng.randrange(MAXINT) for _ in range(2)]
            loc = pair(L1, [rng.randrange(MAXINT) for _ in range(2)], o)
            arr = pair(L1, [rng.randrange(MAXINT) for _ in range(2)], o,
                       prev_o=loc.prev_o)
            out = merge(loc, arr)
            piv = exists_overlap(loc, arr)
            got = new_events(out, piv)
            a = new_events(loc, piv)
            b = new_events(arr, piv)
            assert got == [max(x, y) for x, y in zip(a, b)]

    def test_merge_matches_unbounded_join_two_proc_script(self):
        # Brute-force oracle: an unbounded two-processor history with one
        # wrap-around; the merged bounded pair must agree mod MAXINT.
        unbounded = [[0, 0], [0, 0]]
        za = pair(L0, [0, 0], [0, 0])
        zb = pair(L0, [0, 0], [0, 0])
        rng = random.Random(13)
        wrapped = False
        for _ in range(30):
            actor = rng.randrange(2)
            z = za if actor == 0 else zb
            z.bump(actor)
            unbounded[actor][actor] += 1
            if not wrapped and exhausted(z):
                old = z
                nz = VectorClockPair(L1, list(old.curr_m), list(old.curr_m),
                                     old.curr_label, list(old.mid), MAXINT)
                if actor == 0:
                    za = nz
                else:
                    zb = nz
                wrapped = True
        out = merge(za, zb)
        join = [max(a, b) for a, b in zip(*unbounded)]
        piv = exists_overlap(za, zb)
        assert piv is not None
        counted = new_events(out, piv)
        for k in range(2):
            assert counted[k] % MAXINT == join[k] % MAXINT


class TestPredicates:
    def test_pair_invar_fresh_restart(self):
        z = VectorClockPair.fresh(L1, 2, MAXINT)
        assert pair_invar(z)
        assert equal_static(z, z.copy())

    def test_pair_invar_exhausted_false(self):
        assert not pair_invar(pair(L1, [5, 2], [0, 0]))

    def test_pair_invar_label_order(self):
        assert not pair_invar(pair(L0, [1, 0], [0, 0], prev_label=L1))
        assert pair_invar(pair(L1, [1, 0], [0, 0], prev_label=L0))

    def test_equal_static_ignores_curr_m(self):
        a = pair(L1, [3, 1], [1, 1], prev_o=[0, 0])
        b = pair(L1, [5, 0], [1, 1], prev_o=[0, 0])
        assert equal_static(a, b)
        c = pair(L1, [3, 1], [2, 1], prev_o=[0, 0])
        assert not equal_static(a, c)

    def test_comparable_labels(self):
        good = (pair(L1, [0, 0], [0, 0], prev_label=L0),
                pair(L2, [0, 0], [0, 0], prev_label=L1))
        assert comparable_labels(good)
        x = pair(lab(2, 2, (5, 6)), [0, 0], [0, 0])
        y = pair(lab(2, 3, (7, 8)), [0, 0], [0, 0])
        assert not comparable_labels((x, y))

    def test_legit_pairs(self):
        a = pair(L1, [1, 0], [0, 0])
        assert legit_pairs(a, pair(L1, [0, 1], [0, 0]))
        assert not legit_pairs(a, pair(L2, [0, 0], [3, 3], prev_o=[2, 2]))


class TestEventCountQuery:
    def test_same_static(self):
        zx = pair(L1, [2, 0], [0, 0])
        zy = pair(L1, [5, 0], [0, 0])
        assert event_count_query(zx, zy, 1) == 3

    def test_identical_zero(self):
        z = pair(L1, [2, 0], [0, 0])
        assert event_count_query(z, z.copy(), 1) == 0

    def test_one_wrap(self):
        zx = pair(L0, [5, 2], [1, 1])
        zy = VectorClockPair(L1, [2, 0], [5, 2], L0, [1, 1], MAXINT)
        # zx counted 4 events of p1 since [1,1]; zy counts 4 + 5 since then.
        assert event_count_query(zx, zy, 1) == (4 + 5) - 4

    def test_concurrent_wrap_shared_prev(self):
        zx = VectorClockPair(L1, [6, 2], [5, 2], L0, [1, 1], MAXINT)
        zy = VectorClockPair(L1, [7, 3], [6, 2], L0, [1, 1], MAXINT)
        got = event_count_query(zx, zy, 1)
        expected = ((7 - 6) % MAXINT + (6 - 1) % MAXINT) \
            - ((6 - 5) % MAXINT + (5 - 1) % MAXINT)
        assert got == expected

    def test_unrelated_none(self):
        zx = pair(L0, [1, 0], [0, 0])
        zy = pair(L2, [1, 0], [3, 3], prev_o=[2, 2])
        assert event_count_query(zx, zy, 1) is None


class TestCausalPrecedence:
    def test_irreflexive(self):
        z = pair(L1, [2, 1], [0, 0])
        assert causal_precedence(z, z.copy()) is False

    def test_one_more_event(self):
        z = pair(L1, [2, 1], [0, 0])
        ahead = pair(L1, [3, 1], [0, 0])
        assert causal_precedence(z, ahead) is True
        assert causal_precedence(ahead, z) is False

    def test_concurrent_two_event_histories(self):
        a = pair(L1, [1, 0], [0, 0])
        b = pair(L1, [0, 1], [0, 0])
        assert not causal_precedence(a, b)
        assert not causal_precedence(b, a)

    def test_no_pivot_false(self):
        assert causal_precedence(pair(L0, [1, 0], [0, 0]),
                                 pair(L2, [1, 0], [3, 3], prev_o=[2, 2])) is False


class TestAlias:
    def test_shared_storage(self):
        z = pair(L1, [1, 1], [0, 0])
        assert z.curr.o is z.prev.m
        z.curr.o[0] = 5
        assert z.prev.m[0] == 5


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, MAXINT - 1), min_size=2, max_size=2),
       st.lists(st.integers(0, MAXINT - 1), min_size=2, max_size=2),
       st.lists(st.integers(0, MAXINT - 1), min_size=2, max_size=2))
def test_merge_commutes_on_counts(m_loc, m_arr, offset):
    loc = pair(L1, m_loc, offset)
    arr = pair(L1, m_arr, offset)
    ab = merge(loc, arr)
    ba = merge(arr, loc)
    piv = exists_overlap(loc, arr)
    assert new_events(ab, piv) == new_events(ba, piv)
    assert ab.curr_m == ba.curr_m


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, MAXINT - 1), min_size=3, max_size=3),
       st.lists(st.integers(0, MAXINT - 1), min_size=3, max_size=3))
def test_vc_mod_identity(m, o):
    z = VectorClockPair(L1, list(m), list(o), L1, list(o), MAXINT)
    values = vc(z)
    assert all(0 <= value < MAXINT for value in values)
    assert values == [(a - b) % MAXINT for a, b in zip(m, o)]


def _full_equal_static(a, b):
    """equal_static with no identity shortcut anywhere."""
    return (a.curr_label.creator == b.curr_label.creator and a.curr_label.ml == b.curr_label.ml
            and a.prev_label.creator == b.prev_label.creator
            and a.prev_label.ml == b.prev_label.ml
            and a.mid == b.mid and a.prev_o == b.prev_o)


# Equal-content label objects that are not the same object, and labels that
# differ only in creator, sting or antistings.
_LABEL_POOL = [L0, L1, L2, lab(1, 4, (3, 9)), lab(2, 4, (3, 9)), lab(1, 4, (3, 8))]
_vec2 = st.lists(st.integers(0, MAXINT - 1), min_size=2, max_size=2)
_pair_fields = st.tuples(st.sampled_from(_LABEL_POOL), st.sampled_from(_LABEL_POOL),
                         _vec2, _vec2, _vec2)


@settings(max_examples=200, deadline=None)
@given(_pair_fields, _pair_fields)
def test_equal_static_identity_agrees_with_full_comparison(fa, fb):
    a = VectorClockPair(fa[0], list(fa[2]), list(fa[3]), fa[1], list(fa[4]), MAXINT)
    b = VectorClockPair(fb[0], list(fb[2]), list(fb[3]), fb[1], list(fb[4]), MAXINT)
    assert equal_static(a, a) is _full_equal_static(a, a) is True
    assert equal_static(a, a.copy()) is True
    assert equal_static(a, b) == _full_equal_static(a, b)
    # A pair as transient fault injection draws it.
    z = _random_pair(SystemConfig(n=3, c=1, maxint=MAXINT), random.Random(fa[2][0]))
    assert equal_static(z, z) == _full_equal_static(z, z)


def test_canonical_pair_text_form():
    from stablevc.trace import format_pair
    z = VectorClockPair(lab(2, 4, (1, 3)), [5, 2], [1, 1], lab(1, 3, (1, 2)),
                        [0, 0], MAXINT)
    text = format_pair(z)
    assert text == "⟨2:4:{1,3}|5,2|1,1 ∥ 1:3:{1,2}|1,1|0,0⟩"


# -- the queries against verbatim copies of their earlier versions ---------------
#
# The ref_* functions below are the implementations the copy-free pivots and
# the allocation-free counting query replaced, kept unchanged as the oracle.


def ref_exists_overlap(loc, arr):
    curr_curr = eq_m(loc.curr_label, arr.curr_label) and loc.mid == arr.mid
    prev_prev = eq_m(loc.prev_label, arr.prev_label) and loc.prev_o == arr.prev_o
    if curr_curr and prev_prev:
        return Pivot(loc.curr_label, list(loc.mid))
    if eq_m(loc.curr_label, arr.prev_label) and loc.mid == arr.prev_o:
        return Pivot(loc.curr_label, list(loc.mid))
    if eq_m(loc.prev_label, arr.curr_label) and loc.prev_o == arr.mid:
        return Pivot(loc.prev_label, list(loc.prev_o))
    if prev_prev:
        return Pivot(loc.prev_label, list(loc.prev_o))
    return None


def ref_events_since(pair, pivot_label, pivot_vec):
    maxint = pair.maxint
    if eq_m(pivot_label, pair.curr_label) and pivot_vec == pair.mid:
        return [(a - b) % maxint for a, b in zip(pair.curr_m, pair.mid)]
    if eq_m(pivot_label, pair.prev_label) and pivot_vec == pair.prev_o:
        return [
            (a - b) % maxint + (b - c) % maxint
            for a, b, c in zip(pair.curr_m, pair.mid, pair.prev_o)
        ]
    raise NoPivot("pivot matches neither curr nor prev of the pair")


def ref_new_events(pair, pivot):
    return ref_events_since(pair, pivot.label, pivot.vector)


def ref_merge(loc, arr, pivot=None):
    if pivot is not None:
        pivot_label, pivot_vec = pivot.label, pivot.vector
    elif eq_m(loc.curr_label, arr.curr_label) and loc.mid == arr.mid:
        pivot_label, pivot_vec = loc.curr_label, loc.mid
    elif eq_m(loc.curr_label, arr.prev_label) and loc.mid == arr.prev_o:
        pivot_label, pivot_vec = loc.curr_label, loc.mid
    elif eq_m(loc.prev_label, arr.curr_label) and loc.prev_o == arr.mid:
        pivot_label, pivot_vec = loc.prev_label, loc.prev_o
    elif eq_m(loc.prev_label, arr.prev_label) and loc.prev_o == arr.prev_o:
        pivot_label, pivot_vec = loc.prev_label, loc.prev_o
    else:
        raise NoPivot("pairs share no common item")

    if eq_m(arr.curr_label, loc.curr_label):
        if arr.mid == loc.mid:
            init_to_loc = le_lo(arr.prev, loc.prev)
        else:
            init_to_loc = arr.mid < loc.mid
    else:
        init_to_loc = precedes_lb(arr.curr_label, loc.curr_label)
    output = loc.copy() if init_to_loc else arr.copy()

    loc_events = ref_events_since(loc, pivot_label, pivot_vec)
    arr_events = ref_events_since(arr, pivot_label, pivot_vec)
    maxint = output.maxint
    curr_m = output.curr_m
    for k in range(len(curr_m)):
        gain = loc_events[k] if loc_events[k] >= arr_events[k] else arr_events[k]
        curr_m[k] = (pivot_vec[k] + gain) % maxint
    mid = output.mid
    output._vcsum = sum((curr_m[k] - mid[k]) % maxint for k in range(len(curr_m)))
    return output


def ref_event_count_query(zx, zy, proc):
    i = proc - 1
    if equal_static(zx, zy):
        return (vc(zy)[i] - vc(zx)[i]) % zx.maxint
    if eq_lo(zx.curr, zy.prev):
        pivot = Pivot(zy.prev.label, list(zy.prev.o))
        return ref_new_events(zy, pivot)[i] - vc(zx)[i]
    if eq_lo(zx.prev, zy.prev):
        pivot = Pivot(zy.prev.label, list(zy.prev.o))
        return ref_new_events(zy, pivot)[i] - ref_new_events(zx, pivot)[i]
    return None


def ref_causal_precedence(z, zp, pivot=None):
    if pivot is None:
        pivot = ref_exists_overlap(z, zp)
    if pivot is None:
        return False
    left = ref_new_events(z, pivot)
    right = ref_new_events(zp, pivot)
    strict = False
    for a, b in zip(left, right):
        if a > b:
            return False
        if a < b:
            strict = True
    return strict


_Q_MAXINT = 4
_vec3 = st.lists(st.integers(0, _Q_MAXINT - 1), min_size=3, max_size=3)
_labels = st.sampled_from(_LABEL_POOL)


@st.composite
def _related_pairs(draw):
    """Two pairs that share an item in each way the queries distinguish, or
    none; either pair may have its current item equal to its previous one."""

    def drawn():
        curr_label = draw(_labels)
        prev_label = curr_label if draw(st.booleans()) else draw(_labels)
        mid = draw(_vec3)
        prev_o = list(mid) if draw(st.booleans()) else draw(_vec3)
        return VectorClockPair(curr_label, draw(_vec3), mid, prev_label, prev_o, _Q_MAXINT)

    a = drawn()
    how = draw(st.sampled_from(["unrelated", "same_static", "wrapped", "unwrapped",
                                "shared_prev", "copy", "same_object"]))
    if how == "unrelated":
        b = drawn()
    elif how == "same_static":
        b = VectorClockPair(a.curr_label, draw(_vec3), list(a.mid), a.prev_label,
                            list(a.prev_o), _Q_MAXINT)
    elif how == "wrapped":  # b's previous item is a's current one
        b = VectorClockPair(draw(_labels), draw(_vec3), draw(_vec3), a.curr_label,
                            list(a.mid), _Q_MAXINT)
    elif how == "unwrapped":  # b's current item is a's previous one
        b = VectorClockPair(a.prev_label, draw(_vec3), list(a.prev_o), draw(_labels),
                            draw(_vec3), _Q_MAXINT)
    elif how == "shared_prev":
        b = VectorClockPair(draw(_labels), draw(_vec3), draw(_vec3), a.prev_label,
                            list(a.prev_o), _Q_MAXINT)
    elif how == "copy":
        b = a.copy()
    else:
        b = a
    return (b, a) if draw(st.booleans()) else (a, b)


def _fields(pair):
    return (pair.curr_label, list(pair.curr_m), list(pair.mid), pair.prev_label,
            list(pair.prev_o), pair.maxint, pair._vcsum)


def _same_pivot(got, want):
    if want is None:
        return got is None
    return got is not None and got.label is want.label and got.vector == want.vector


@settings(max_examples=400, deadline=None)
@given(_related_pairs())
def test_queries_match_their_earlier_versions(pairs):
    a, b = pairs
    before = (_fields(a), _fields(b))
    piv = exists_overlap(a, b)
    assert _same_pivot(piv, ref_exists_overlap(a, b))
    if piv is not None:
        assert piv.vector is a.mid or piv.vector is a.prev_o  # a's own list
    assert causal_precedence(a, b) == ref_causal_precedence(a, b)
    for proc in (1, 2, 3):
        assert event_count_query(a, b, proc) == ref_event_count_query(a, b, proc)
    # Pivots found from either side name an item both pairs hold.
    for found, ref_found in ((piv, ref_exists_overlap(a, b)),
                             (exists_overlap(b, a), ref_exists_overlap(b, a))):
        if found is None:
            continue
        assert causal_precedence(a, b, found) == ref_causal_precedence(a, b, ref_found)
        assert new_events(a, found) == ref_new_events(a, ref_found)
        out = merge(a, b, found)
        assert _fields(out) == _fields(ref_merge(a, b, ref_found))
        assert out is not a and out is not b
    assert (_fields(a), _fields(b)) == before  # no query writes an input
