"""Label component construction: the set-building fast paths against their
element-by-element reference versions, strided components against eager
twins, and antistings and extrema built on first use."""

import random
from math import gcd
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stablevc.errors import DomainExhausted
from stablevc.labeling import LabelingState, SystemConfig
from stablevc.labels import (
    Label,
    LabelComponent,
    LabelConfig,
    StridedComponent,
    _holds,
    cancels,
    format_label,
    next_b,
    next_b_from_sets,
    precedes_b,
    precedes_lb,
    preceq_lb,
    successor_component,
)
from stablevc.simnet import World, _random_component, inject_transient
from stablevc.trace import _label_digest

C4_CFG = SystemConfig(4, 2, 16).label_config  # k = 1,064, |D| = 1,132,097


# -- reference versions: one Python step per domain value -----------------------

def ref_random_component(cfg, rng):
    sting = rng.randint(1, cfg.domain_size)
    domain = cfg.domain_size
    start = rng.randrange(domain)
    stride = rng.randrange(1, domain)
    while gcd(stride, domain) != 1:
        stride += 1
    return sting, frozenset((start + i * stride) % domain + 1 for i in range(cfg.k))


def _ref_pad(anti, sting, cfg):
    cand = 1
    while len(anti) < cfg.k:
        if cand != sting and cand not in anti:
            anti.add(cand)
        cand += 1
        if cand > cfg.domain_size + 1:
            raise DomainExhausted("cannot pad antistings to size k")
    return sting, frozenset(anti)


def ref_next_b_from_sets(stings, blocked, cfg):
    sting = None
    for cand in range(1, cfg.domain_size + 1):
        if cand not in blocked and cand not in stings:
            sting = cand
            break
    if sting is None:
        for cand in range(1, cfg.domain_size + 1):
            if cand not in blocked:
                sting = cand
                break
    if sting is None:
        raise DomainExhausted("no fresh sting available; k sizing invariant violated")
    return _ref_pad(set(stings), sting, cfg)


def ref_successor_component(sting0, antistings, cfg):
    low_zone = cfg.k + 1
    sting = None
    for cand in range(max(sting0, low_zone) + 1, cfg.domain_size + 1):
        if cand not in antistings:
            sting = cand
            break
    if sting is None:
        for cand in range(1, cfg.domain_size + 1):
            if cand not in antistings and cand != sting0:
                sting = cand
                break
    if sting is None:
        raise DomainExhausted("no successor sting available")
    chain = {v for v in antistings if v > low_zone}
    chain.add(sting0)
    chain.discard(sting)
    # Overflow: values above the parent's sting are no chain stings.  Drop
    # one at a time: a value the new sting jumped over (lowest first), else
    # another value above the parent's sting (highest first), else the
    # oldest chain sting; the parent's own sting last of all.
    while len(chain) > cfg.k:
        jumped = [v for v in chain if sting0 < v < sting]
        above = [v for v in chain if v > sting0]
        older = [v for v in chain if v < sting0]
        if jumped:
            chain.remove(min(jumped))
        elif above:
            chain.remove(max(above))
        elif older:
            chain.remove(min(older))
        else:
            chain.remove(sting0)
    return _ref_pad(chain, sting, cfg)


def outcome(fn, *args):
    """(sting, antistings) of a construction, or the DomainExhausted it raised."""
    try:
        out = fn(*args)
    except DomainExhausted:
        return DomainExhausted
    return out if isinstance(out, tuple) else (out.sting, out.antistings)


class ScriptedRng:
    """Answers randint/randrange with fixed values, in draw order."""

    def __init__(self, *values):
        self.values = list(values)

    def randint(self, *_bounds):
        return self.values.pop(0)

    randrange = randint


# -- injection ---------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(st.integers(2, 12), st.integers(0, 2**32))
def test_random_component_matches_reference_small_k(k, seed):
    cfg = LabelConfig(k=k)
    ours, theirs = random.Random(seed), random.Random(seed)
    comp = _random_component(cfg, ours)
    assert (comp.sting, comp.antistings) == ref_random_component(cfg, theirs)
    assert ours.getstate() == theirs.getstate()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32))
def test_random_component_matches_reference_c4_sizing(seed):
    ours, theirs = random.Random(seed), random.Random(seed)
    comp = _random_component(C4_CFG, ours)
    assert (comp.sting, comp.antistings) == ref_random_component(C4_CFG, theirs)
    assert ours.getstate() == theirs.getstate()


@settings(max_examples=150, deadline=None)
@given(st.data())
@example(data=None)
def test_random_component_draws_including_the_domain_value(data):
    # start = domain - 1 makes the first member `domain` itself, the value the
    # construction first produces as 0.
    for cfg in (LabelConfig(k=3), C4_CFG):
        domain = cfg.domain_size
        if data is None:
            draws = (1, domain - 1, 1)
        else:
            draws = (data.draw(st.integers(1, domain)), data.draw(st.integers(0, domain - 1)),
                     data.draw(st.integers(1, domain - 1)))
        comp = _random_component(cfg, ScriptedRng(*draws))
        assert (comp.sting, comp.antistings) == ref_random_component(cfg, ScriptedRng(*draws))
        if data is None:
            assert domain in comp.antistings and 0 not in comp.antistings
        assert len(comp.antistings) == cfg.k


# -- minting -----------------------------------------------------------------------

def _stub_cfg(k, domain_size):
    # Sizes LabelConfig refuses, so the DomainExhausted paths are reachable.
    return SimpleNamespace(k=k, domain_size=domain_size)


small_sets = st.sets(st.integers(0, 24), max_size=12)


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 6), st.integers(1, 20), small_sets, small_sets)
@example(k=4, domain=17, stings={1, 5, 6, 15},
         blocked=set(range(1, 18)) - {1, 5, 6, 15})  # every free value is an input sting
@example(k=2, domain=5, stings=set(), blocked={1, 2, 3, 4, 5})  # no sting at all
@example(k=6, domain=4, stings=set(), blocked={1})  # too few values to pad
def test_next_b_from_sets_matches_reference(k, domain, stings, blocked):
    cfg = _stub_cfg(k, domain)
    assert outcome(next_b_from_sets, set(stings), set(blocked), cfg) == \
        outcome(ref_next_b_from_sets, set(stings), set(blocked), cfg)


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 6), st.integers(1, 20), st.integers(0, 24), small_sets)
@example(k=2, domain=5, sting=5, anti={1, 2, 3, 4})  # no successor sting
@example(k=6, domain=4, sting=4, anti={1})  # too few values to pad
def test_successor_component_matches_reference(k, domain, sting, anti):
    cfg = _stub_cfg(k, domain)
    comp = LabelComponent(sting, frozenset(anti))
    assert outcome(successor_component, comp, cfg) == \
        outcome(ref_successor_component, sting, frozenset(anti), cfg)


def test_domain_exhausted_raised_where_the_reference_raises():
    with pytest.raises(DomainExhausted):
        next_b_from_sets(set(), {1, 2, 3, 4, 5}, LabelConfig(k=2))
    with pytest.raises(DomainExhausted):
        successor_component(LabelComponent(5, frozenset({1, 2, 3, 4})), LabelConfig(k=2))
    with pytest.raises(DomainExhausted):
        next_b_from_sets(set(), {1}, _stub_cfg(6, 4))
    with pytest.raises(DomainExhausted):
        successor_component(LabelComponent(4, frozenset({1})), _stub_cfg(6, 4))


def test_next_b_fallback_matches_reference_c4_sizing():
    cfg = C4_CFG
    free = {3, 700, 5000, 1132097}
    stings = free | {1, 2}
    blocked = set(range(1, cfg.domain_size + 1)) - free
    out = next_b_from_sets(stings, blocked, cfg)
    assert out.sting == 3
    assert (out.sting, out.antistings) == ref_next_b_from_sets(stings, blocked, cfg)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32))
def test_mints_match_reference_c4_sizing(seed):
    cfg = C4_CFG
    rng = random.Random(seed)
    comps = [_random_component(cfg, rng) for _ in range(rng.randint(0, 6))]
    stings = {c.sting for c in comps}
    blocked = set().union(*(c.antistings for c in comps))
    fresh = next_b_from_sets(stings, blocked, cfg)
    assert (fresh.sting, fresh.antistings) == ref_next_b_from_sets(stings, blocked, cfg)
    comp = comps[0] if comps else fresh
    for _ in range(3):
        nxt = successor_component(comp, cfg)
        assert (nxt.sting, nxt.antistings) == \
            ref_successor_component(comp.sting, comp.antistings, cfg)
        comp = nxt


def test_successor_chain_through_the_sting_budget_wrap():
    cfg = LabelConfig(k=3)  # |D| = 10: chain stings 5..10, then the wrap
    comp = LabelComponent(1, frozenset({2, 3, 4}))
    wraps = 0
    for _ in range(40):
        nxt = successor_component(comp, cfg)
        assert (nxt.sting, nxt.antistings) == \
            ref_successor_component(comp.sting, comp.antistings, cfg)
        assert precedes_b(comp, nxt)
        wraps += nxt.sting < comp.sting
        comp = nxt
    assert wraps >= 2


def test_successor_above_a_parent_whose_antistings_all_lie_above_it():
    # A transient can leave every antisting above the sting.  The chain then
    # holds k + 1 values; the trim must drop one of those, not the sting.
    cfg = C4_CFG
    k = cfg.k
    comp = LabelComponent(k + 6, frozenset(range(k + 7, 2 * k + 7)))
    assert comp.valid_under(cfg)
    nxt = successor_component(comp, cfg)
    assert precedes_b(comp, nxt)
    assert (nxt.sting, nxt.antistings) == \
        ref_successor_component(comp.sting, comp.antistings, cfg)


def _successors(comp, cfg, count):
    out = [comp]
    for _ in range(count):
        out.append(successor_component(out[-1], cfg))
    return [(c.sting, set(c.antistings)) for c in out[1:]]


def test_successor_edge_shapes_stay_pinned():
    # The two limits of the trim, at k = 3 (|D| = 10).  The sting-budget
    # wrap restarts the sting low, in the padding zone [1, k + 1].
    cfg = LabelConfig(k=3)
    assert _successors(LabelComponent(10, frozenset({7, 8, 9})), cfg, 2) == [
        (1, {8, 9, 10}), (5, {1, 8, 9})]
    # A block of antistings just above the sting: the first successor drops
    # the block's top, later ones the block's rest before the chain stings.
    assert _successors(LabelComponent(5, frozenset({8, 9, 10})), cfg, 3) == [
        (6, {5, 8, 9}), (7, {5, 6, 8}), (9, {5, 6, 7})]


def test_successor_memo_is_per_config():
    # Equal k with another domain size, or equal domain size with another k,
    # gives another successor; each config gets its own, in any order.
    comp = LabelComponent(10, frozenset({7, 8, 9}))
    configs = [LabelConfig(k=3), _stub_cfg(3, 20), _stub_cfg(2, 10), _stub_cfg(3, 10),
               LabelConfig(k=3), _stub_cfg(3, 20)]
    outs = set()
    for cfg in configs:
        out = successor_component(comp, cfg)
        assert (out.sting, out.antistings) == \
            ref_successor_component(comp.sting, comp.antistings, cfg)
        outs.add(out)
    assert len(outs) == 3


def test_successor_memo_hit_is_the_interned_component():
    cfg = LabelConfig(k=8)
    comp = LabelComponent(12, frozenset({2, 3, 4, 5, 13, 14, 20, 30}))
    first = successor_component(comp, cfg)
    assert comp.successor == ((cfg.k, cfg.domain_size), first)
    assert successor_component(comp, cfg) is first
    # An equal parent without a memo computes it afresh and is handed the
    # interned component the memo holds.
    twin = LabelComponent(comp.sting, comp.antistings)
    assert twin.successor is None
    assert successor_component(twin, cfg) is first


# -- the epoch chain stays ordered -------------------------------------------------

EPOCHS = 8


def _start_component(cfg, kind, rng):
    """A valid component of the given kind.  A ``far`` or ``chain`` one has
    its sting above the padding zone and the EPOCHS + 1 values above it free."""
    k, domain, low_zone = cfg.k, cfg.domain_size, cfg.k + 1
    if kind == "random":
        return LabelComponent(*ref_random_component(cfg, rng))
    if kind == "above":  # every antisting within 3k above the sting
        sting = rng.randint(1, domain - 3 * k)
        return LabelComponent(sting, frozenset(rng.sample(range(sting + 1, sting + 3 * k + 1), k)))
    if kind == "around":  # antistings on both sides of the sting
        sting = rng.randint(low_zone, domain - 2 * k)
        pool = range(max(1, sting - 2 * k), sting + 2 * k + 1)
        return LabelComponent(sting, frozenset(rng.sample(pool, k)))
    if kind == "mint":  # next_b over stored components, random or stung from below
        stored = [_start_component(cfg, rng.choice(("random", "above")), rng)
                  for _ in range(rng.randint(1, min(k, 4)))]
        return next_b(stored, cfg)
    # "far": antistings beyond the next EPOCHS stings, as a transient leaves
    # them above every chain sting; "chain": the same over a run of older
    # chain stings below the sting.
    sting = rng.randint(low_zone + 1, domain - 4 * k - EPOCHS - 1)
    far = range(sting + EPOCHS + 2, sting + EPOCHS + 2 + 3 * k)
    below = rng.randint(0, min(k, sting - low_zone - 1)) if kind == "chain" else 0
    anti = set(range(sting - below, sting)) | set(rng.sample(far, k - below))
    return LabelComponent(sting, frozenset(anti))


def _leaves_room(comp, cfg):
    """Sting above the padding zone, the next EPOCHS + 1 values free."""
    top = comp.sting + EPOCHS + 1
    return (comp.sting > cfg.k + 1 and top <= cfg.domain_size
            and not any(comp.sting < v <= top for v in comp.antistings))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([LabelConfig(k=3), LabelConfig(k=8), LabelConfig(k=64), C4_CFG]),
       st.sampled_from(["random", "above", "around", "mint", "far", "chain"]),
       st.integers(0, 2**32))
def test_epoch_chain_stays_ordered(cfg, kind, seed):
    """From any valid component each successor is above its parent.  Where
    the sting is above the padding zone and the values the next stings take
    are free, epochs two apart are ordered too: no antisting a transient
    left above the sting can crowd the parent's sting out of the chain."""
    if kind in ("far", "chain") and cfg.domain_size < 5 * cfg.k + EPOCHS + 3:
        kind = "random"  # the domain (k = 3) is too small for that shape
    comp = _start_component(cfg, kind, random.Random(seed))
    assert comp.valid_under(cfg)
    chain = [comp]
    for _ in range(EPOCHS):
        chain.append(successor_component(chain[-1], cfg))
    assert all(precedes_b(a, b) for a, b in zip(chain, chain[1:]))
    if kind in ("far", "chain"):
        assert _leaves_room(comp, cfg)
    if _leaves_room(comp, cfg):
        assert all(precedes_b(a, c) for a, c in zip(chain, chain[2:]))


# -- strided components against their eager twins --------------------------------

def _check_against_eager_twin(make, eager, k):
    """Every answer a strided component of size ``k`` gives equals its eager
    twin's.  ``make`` builds the strided component afresh for each question,
    so each question starts from unset antistings."""
    assert make() == eager and eager == make() and make() == make()
    assert hash(make()) == hash(eager)
    assert Label(2, make()) == Label(2, eager) and Label(2, eager) == Label(2, make())
    assert hash(Label(2, make())) == hash(Label(2, eager))
    for j in (k - 1, k, k + 1):
        sized = _stub_cfg(j, j * j + 1)
        assert make().valid_under(sized) == eager.valid_under(sized)
    assert repr(make()) == repr(eager)
    low = min(eager.antistings, default=1)
    others = [eager, make(), LabelComponent(low, frozenset({eager.sting})),
              LabelComponent(eager.sting, eager.antistings ^ {low}),  # same hash, not equal
              LabelComponent(eager.sting + 1, eager.antistings | {eager.sting})]
    assert make() != others[3] and others[3] != make()
    for cl in (None, others[2]):
        assert format_label(Label(2, make(), cl)) == format_label(Label(2, eager, cl))
        assert _label_digest(Label(2, make(), cl)) == _label_digest(Label(2, eager, cl))
    for other in others:
        for theirs in (Label(1, other), Label(2, other), Label(2, other, others[2])):
            for order in (precedes_lb, preceq_lb, cancels):
                assert order(Label(2, make()), theirs) == order(Label(2, eager), theirs)
                assert order(theirs, Label(2, make())) == order(theirs, Label(2, eager))


@settings(max_examples=200, deadline=None)
@given(st.data())
@example(data=None)
def test_strided_component_answers_as_its_eager_twin_small_k(data):
    if data is None:  # a stride sharing a factor with |D| = 10: members repeat
        k, sting, start, stride = 3, 4, 9, 5
    else:
        k = data.draw(st.integers(2, 8))
        domain = k * k + 1
        # Stings and strides outside the ranges _random_component draws from,
        # too: such a component is no longer valid by construction.
        sting = data.draw(st.integers(0, domain + 1))
        start = data.draw(st.integers(0, 2 * domain))
        stride = data.draw(st.integers(1, 2 * domain))
    domain = k * k + 1
    members = frozenset((start + i * stride) % domain + 1 for i in range(k))
    _check_against_eager_twin(lambda: StridedComponent(sting, start, stride, k, domain),
                              LabelComponent(sting, members), k)


@settings(max_examples=5, deadline=None)
@given(st.integers(0, 2**32))
def test_strided_component_answers_as_its_eager_twin_c4_sizing(seed):
    eager = LabelComponent(*ref_random_component(C4_CFG, random.Random(seed)))
    _check_against_eager_twin(lambda: _random_component(C4_CFG, random.Random(seed)), eager,
                              C4_CFG.k)


@settings(max_examples=300, deadline=None)
@given(st.data())
@example(data=None)
def test_strided_membership_answers_as_the_built_set(data):
    """``_holds`` on an unbuilt strided component, over values outside the
    domain too, and ``cancels`` between two of them, against eager twins;
    only a stride sharing a factor with the domain builds the set."""
    if data is None:  # a stride sharing a factor with |D| = 10
        k, stings, starts, strides, xs = 3, (4, 7), (9, 2), (5, 3), range(-11, 22)
    else:
        k = data.draw(st.integers(2, 8))
        domain = k * k + 1
        stings = data.draw(st.tuples(st.integers(0, domain + 1), st.integers(0, domain + 1)))
        starts = data.draw(st.tuples(st.integers(0, 2 * domain), st.integers(0, 2 * domain)))
        strides = data.draw(st.tuples(st.integers(1, 2 * domain), st.integers(1, 2 * domain)))
        xs = data.draw(st.lists(st.integers(-domain, 2 * domain), max_size=12))
    domain = k * k + 1

    def make(i):
        return StridedComponent(stings[i], starts[i], strides[i], k, domain)

    eager = [LabelComponent(stings[i], frozenset((starts[i] + j * strides[i]) % domain + 1
                                                 for j in range(k))) for i in (0, 1)]
    for x in [*xs, -1, 0, 1, domain, domain + 1, *eager[0].antistings]:
        comp = make(0)
        assert _holds(comp, x) == (x in eager[0].antistings)
        assert (type(comp) is StridedComponent) == (gcd(strides[0], domain) == 1)
    for creators in ((2, 2), (1, 2), (2, 1)):
        for i, j in ((0, 1), (1, 0), (0, 0)):
            lazy = [make(0), make(1)]
            got = cancels(Label(creators[0], lazy[i]), Label(creators[1], lazy[j]))
            assert got == cancels(Label(creators[0], eager[i]), Label(creators[1], eager[j]))
            if stings[0] != stings[1] and gcd(strides[0], domain) == gcd(strides[1], domain) == 1:
                assert all(type(c) is StridedComponent for c in lazy)


def _stored_view(state):
    return [[(label.creator, label.ml.sting, label.cl and label.cl.sting) for label in queue]
            for queue in state.stored]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cross_cancel_leaves_injected_components_unbuilt(seed):
    """Legitimate labels over injected components, three per queue at C4
    sizing, resolve as their eager twins do without building a set."""
    config = SystemConfig(4, 2, 16)
    states = []
    for eager in (False, True):
        rng = random.Random(seed)
        state = LabelingState(1, config)
        for j in config.proc_ids:
            for _ in range(3):
                comp = _random_component(config.label_config, rng)
                if eager:
                    comp = LabelComponent(comp.sting, comp.antistings)
                state.stored[j].append(Label(j, comp))
        state._cross_cancel()
        states.append(state)
    lazy, eager = states
    assert _stored_view(lazy) == _stored_view(eager)
    assert all(label.cl is not None for queue in lazy.stored for label in queue)
    slot = LabelComponent.__dict__["antistings"]
    for queue in lazy.stored:
        for label in queue:
            for comp in (label.ml, label.cl):
                with pytest.raises(AttributeError):
                    slot.__get__(comp, LabelComponent)


# -- antistings and extrema built on first use -------------------------------------

def _message_labels(message):
    labels = [message.sender_max, message.last_sent]
    for pair in (message.client.arriving, message.client.rcvd_local):
        labels += [pair.curr_label, pair.prev_label]
    return labels


def _channel_labels(world):
    return [label for ch in world.channels.values() for entry in ch.queue
            for label in _message_labels(entry.message) if label is not None]


def _processor_labels(world):
    """Every label the processors hold: stored queues, max labels, pairs and
    pending broadcasts."""
    labels = []
    for i in world.config.proc_ids:
        proc = world.procs[i]
        labels += [label for queue in proc.labeling.stored for label in queue]
        labels += proc.labeling.max
        for j in world.config.proc_ids:
            labels += [proc.pairs[j].curr_label, proc.pairs[j].prev_label]
        pending = proc.pending_broadcast
        if pending is not None:
            labels += [pending.snapshot.curr_label, pending.snapshot.prev_label,
                       pending.sender_max]
    return [label for label in labels if label is not None]


def _components(labels):
    for label in labels:
        yield label.ml
        if label.cl is not None:
            yield label.cl


def test_injected_components_have_no_extrema_yet():
    world = World.clean_start(SystemConfig(3, 2, 16))
    inject_transient(world, 5, scope="channels")
    comps = list(_components(_channel_labels(world)))
    assert len(comps) > 20
    assert all(c._lo is None and c._hi is None for c in comps)


@pytest.mark.parametrize("scope", ["all", "channels"])
def test_injected_components_build_no_antistings(scope):
    world = World.clean_start(SystemConfig(4, 2, 16))  # C4 sizing: k = 1,064
    inject_transient(world, 11, scope=scope)
    labels = _channel_labels(world) + (_processor_labels(world) if scope == "all" else [])
    comps = list(_components(labels))
    assert len(comps) > 100
    # The slot's member descriptor raises for an unset slot without falling
    # back to __getattr__, which would build the set.
    slot = LabelComponent.__dict__["antistings"]
    for comp in comps:
        with pytest.raises(AttributeError):
            slot.__get__(comp, LabelComponent)
    # Equal components and labels hash equal, eager copies included.
    comps += [LabelComponent(c.sting, c.antistings) for c in comps[::4]]
    labels += [Label(lab.creator, LabelComponent(lab.ml.sting, lab.ml.antistings), lab.cl)
               for lab in labels[::4]]
    for group in (comps, labels):
        for a in group:
            for b in group:
                assert a != b or hash(a) == hash(b)


def test_valid_under_rejects_on_first_query():
    cfg = LabelConfig(k=3)
    zero, above = LabelComponent(5, frozenset({0, 2, 3})), LabelComponent(5, frozenset({2, 3, 11}))
    short, good = LabelComponent(5, frozenset({2, 3})), LabelComponent(5, frozenset({2, 3, 10}))
    for comp in (zero, above, short, good):
        assert comp._lo is None
    assert not zero.valid_under(cfg)
    assert not above.valid_under(cfg)
    assert not short.valid_under(cfg)
    assert good.valid_under(cfg)
    assert (zero._lo, above._hi, good._lo, good._hi) == (0, 11, 2, 10)


def test_valid_under_remembers_only_the_k_it_passed():
    k3, k4 = LabelConfig(k=3), LabelConfig(k=4)
    good = LabelComponent(5, frozenset({2, 3, 10}))
    # Valid under k = 3 only: its antistings have three members.
    assert [good.valid_under(cfg) for cfg in (k4, k3, k4, k3, k3)] == \
        [False, True, False, True, True]
    assert good.valid_k == 3
    # Under k = 4 the domain grows to 17, so the sting 11 fits; under 3 it does not.
    wide = LabelComponent(11, frozenset({1, 2, 3, 4}))
    assert [wide.valid_under(cfg) for cfg in (k4, k3, k4)] == [True, False, True]
    # A failed check leaves nothing behind, however often it is asked.
    for comp in (LabelComponent(5, frozenset({0, 2, 3})),
                 LabelComponent(5, frozenset({2, 3, 11})),
                 LabelComponent(11, frozenset({2, 3, 4}))):
        assert [comp.valid_under(k3) for _ in range(3)] == [False] * 3
        assert comp.valid_k is None


def test_label_digest_renders_the_eager_extrema():
    anti_sets = [frozenset(), frozenset({7}), frozenset({9, 2, 5}), frozenset(range(40, 90, 7))]
    for anti in anti_sets:
        lo, hi = (min(anti), max(anti)) if anti else (0, 0)
        for cl in (None, LabelComponent(4, frozenset({1}))):
            mark = "" if cl is None else "!4"
            lazy = Label(3, LabelComponent(8, anti), cl)
            assert _label_digest(lazy) == f"3.8.{lo}-{hi}{mark}"
            assert _label_digest(lazy) == f"3.8.{lo}-{hi}{mark}"  # extrema now known
    assert _label_digest(Label(1, LabelComponent(2, frozenset()))) == "1.2.0-0"
