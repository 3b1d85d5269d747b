"""Bounded epoch labels: components, orders, cancellation, fresh-label construction.

A label component is a (sting, antistings) pair over the finite domain
D = {1, ..., k^2 + 1}.  Components are partially ordered by ``precedes_b``;
full labels add a creator id and are ordered creator-first by
``precedes_lb``.  A label optionally carries a canceling component ``cl``
that serves as evidence the label is obsolete.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from itertools import filterfalse
from math import gcd
from typing import FrozenSet, Iterable, Optional, Set

from .errors import DomainExhausted, PreconditionViolated


@dataclass(frozen=True)
class LabelConfig:
    """Sizing of the label domain.

    ``k`` is the antistings cardinality; the sting domain is
    D = {1, ..., k^2 + 1}, the smallest domain that always leaves a fresh
    sting for ``next_b`` over up to k inputs.
    """

    k: int
    domain_size: int = field(init=False)

    def __post_init__(self) -> None:
        if self.k < 2:
            raise PreconditionViolated(f"k must be >= 2, got {self.k}")
        object.__setattr__(self, "domain_size", self.k * self.k + 1)


class LabelComponent:
    """Immutable (sting, antistings) pair, hashed by its sting alone.

    Built with its antistings, or as a ``StridedComponent`` that builds them on
    first read.  The extrema ``_lo``/``_hi`` of the antistings (0 for an empty
    set) start as ``None`` and are found on first use by ``find_extrema``: most
    components are never validated or rendered, and each scan costs O(k).
    ``valid_k`` is the ``k`` the component last passed ``valid_under`` with
    (validity depends on nothing else), or ``None``; a strided component is
    valid by construction.  ``successor`` memoizes ``successor_component``.
    """

    __slots__ = ("sting", "antistings", "_stride", "_inverse", "_lo", "_hi", "valid_k",
                 "successor", "__weakref__")

    def __init__(self, sting: int, antistings: FrozenSet[int]):
        self.sting = sting
        self.antistings = antistings if isinstance(antistings, frozenset) else frozenset(antistings)
        self._lo = self._hi = self.valid_k = self.successor = None

    def find_extrema(self) -> None:
        anti = self.antistings
        self._lo, self._hi = (min(anti), max(anti)) if anti else (0, 0)

    def __hash__(self) -> int:
        return hash(self.sting)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, LabelComponent):
            return NotImplemented
        return self.sting == other.sting and self.antistings == other.antistings

    def __repr__(self) -> str:
        inner = ",".join(str(a) for a in sorted(self.antistings))
        return f"({self.sting},{{{inner}}})"

    def valid_under(self, cfg: LabelConfig) -> bool:
        """Structural validity: cardinality and domain bounds (O(1) once the extrema are known)."""
        k = cfg.k
        if self.valid_k == k:
            return True
        if len(self.antistings) != k or not 1 <= self.sting <= cfg.domain_size:
            return False
        if self._lo is None:
            self.find_extrema()
        if self._lo >= 1 and self._hi <= cfg.domain_size:
            self.valid_k = k
            return True
        return False


class StridedComponent(LabelComponent):
    """Antistings (start + i*stride) % domain + 1 for i < k, built on first read,
    which turns the component into a plain LabelComponent (a class with
    ``__getattr__`` loses CPython's specialized attribute reads).  Valid as
    built when gcd(stride, domain) = 1 (``_inverse``, the stride's inverse
    modulo the domain, is None otherwise), domain = k^2 + 1 and 1 <= sting <= domain."""

    __slots__ = ()

    def __init__(self, sting: int, start: int, stride: int, k: int, domain: int):
        self.sting, self._stride = sting, (start, stride, k, domain)
        inverse = self._inverse = pow(stride, -1, domain) if gcd(stride, domain) == 1 else None
        self._lo = self._hi = self.successor = None
        self.valid_k = k if inverse is not None and 1 <= sting <= domain == k * k + 1 else None

    def __getattr__(self, name: str) -> FrozenSet[int]:
        if name != "antistings":
            raise AttributeError(name)
        start, stride, k, domain = self._stride
        # Taking (x + 1) % domain maps the member `domain` to 0, swapped back.
        anti = frozenset([v % domain for v in range(start + 1, start + 1 + k * stride, stride)])
        self.antistings = anti = anti - {0} | {domain} if 0 in anti else anti
        self.__class__ = LabelComponent
        return anti


class Label:
    """An epoch: creator id, main component ``ml``, optional canceling ``cl``.

    ``cl`` is evidence of cancellation; a label with ``cl is None`` is
    legitimate.  Labels are immutable; cancellation of a *stored* label is
    recorded by the label storage, which swaps in a canceled copy.
    """

    __slots__ = ("creator", "ml", "cl", "_hash")

    def __init__(self, creator: int, ml: LabelComponent, cl: Optional[LabelComponent] = None):
        self.creator = creator
        self.ml = ml
        self.cl = cl
        self._hash = hash((creator, ml.sting))

    def __hash__(self) -> int:
        # Hash/equality follow =_m (creator + ml); cl is evidence only.
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Label):
            return NotImplemented
        return self.creator == other.creator and self.ml == other.ml

    def __repr__(self) -> str:
        mark = f"!{self.cl.sting}" if self.cl is not None else ""
        return f"Label({self.creator}:{self.ml.sting}{mark})"

    def with_cancel(self, cl: LabelComponent) -> "Label":
        return Label(self.creator, self.ml, cl)


# Independently minted but identical components (concurrent deterministic
# creations) are interned so equality is almost always an identity check.
_component_intern: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()


def intern_component(component: LabelComponent) -> LabelComponent:
    key = (component.sting, component.antistings)
    existing = _component_intern.get(key)
    if existing is not None:
        return existing
    _component_intern[key] = component
    return component


def eq_m(a: Label, b: Label) -> bool:
    """=_m label equality: creator and main component; cl is ignored."""
    if a is b:
        return True
    am, bm = a.ml, b.ml
    return a.creator == b.creator and (am is bm or (am.sting == bm.sting and am == bm))


def precedes_b(a: LabelComponent, b: LabelComponent) -> bool:
    """Component order: a's sting is stung by b and not vice versa."""
    return a.sting in b.antistings and b.sting not in a.antistings


def precedes_lb(a: Label, b: Label) -> bool:
    """Label order: creator first, then component order among equal creators."""
    if a.creator != b.creator:
        return a.creator < b.creator
    return a.ml.sting in b.ml.antistings and b.ml.sting not in a.ml.antistings


def preceq_lb(a: Label, b: Label) -> bool:
    """Reflexive closure of precedes_lb under =_m."""
    if a is b:
        return True
    if a.creator != b.creator:
        return a.creator < b.creator
    am, bm = a.ml, b.ml
    return (am is bm or (am.sting in bm.antistings and bm.sting not in am.antistings)
            or am == bm)


def incomparable(a: Label, b: Label) -> bool:
    """Neither order direction holds and the labels are not =_m equal."""
    if a.creator != b.creator:
        return False
    if a.ml == b.ml:
        return False
    return not precedes_lb(a, b) and not precedes_lb(b, a)


def _holds(comp: LabelComponent, x: int) -> bool:
    """``x in comp.antistings``, with no set built for a strided component whose
    stride is invertible: x - 1 = start + i*stride mod domain for one i < domain."""
    if type(comp) is StridedComponent and comp._inverse is not None:
        start, _, k, domain = comp._stride
        return 1 <= x <= domain and (x - start - 1) * comp._inverse % domain < k
    return x in comp.antistings


def cancels(a: Label, b: Label) -> bool:
    """True when a is evidence that b is obsolete: they share a creator and
    a is neither below b nor =_m equal to it, so either the two are
    incomparable or b lies strictly below a: ``not preceq_lb(a, b)``, asked
    without building a strided component's antistings unless the stings match."""
    if a.creator != b.creator:
        return False
    am, bm = a.ml, b.ml
    return not (am is bm or (_holds(bm, am.sting) and not _holds(am, bm.sting)) or am == bm)


def next_b(inputs: Iterable[LabelComponent], cfg: LabelConfig) -> LabelComponent:
    """Construct a component strictly above every input under precedes_b.

    The sting is the smallest domain value outside every input's antistings
    (and, when possible, distinct from every input sting); the antistings
    collect the input stings, padded with the smallest unused domain values.
    A pure function of the input set: duplicates and ordering do not matter.
    """
    comps = {(c.sting, c.antistings): c for c in inputs}.values()
    if len(comps) > cfg.k:
        raise PreconditionViolated(f"next_b takes at most k={cfg.k} components, got {len(comps)}")
    blocked: Set[int] = set()
    stings: Set[int] = set()
    for comp in comps:
        blocked |= comp.antistings
        stings.add(comp.sting)
    return next_b_from_sets(stings, blocked, cfg)


def next_b_from_sets(stings: Set[int], blocked: Set[int], cfg: LabelConfig) -> LabelComponent:
    """next_b over precomputed input stings and the union of input antistings.

    Split out so label storage can union its queue's components directly,
    without building the component set that ``next_b`` deduplicates.
    """
    domain = range(1, cfg.domain_size + 1)
    sting = next(filterfalse(stings.__contains__, filterfalse(blocked.__contains__, domain)), None)
    if sting is None:
        # All free values collide with input stings; fall back to the domain
        # guarantee (|D| > k^2) which only excludes antistings.
        sting = next(filterfalse(blocked.__contains__, domain), None)
    if sting is None:
        raise DomainExhausted("no fresh sting available; k sizing invariant violated")
    # Every input sting goes in, even one the fallback reused as the new
    # sting: that is what puts the input below the output.
    return _padded_component(sting, set(stings), cfg)


def _padded_component(sting: int, anti: Set[int], cfg: LabelConfig) -> LabelComponent:
    """Intern (sting, anti) after padding ``anti`` up to k with the smallest
    domain values that are neither in it nor ``sting``."""
    need = cfg.k - len(anti)
    if need > 0:
        # [1, top] holds `need` such values unless it reaches the domain's end.
        free = set(range(1, min(need + len(anti) + 1, cfg.domain_size) + 1))
        free -= anti
        free.discard(sting)
        if len(free) < need:
            raise DomainExhausted("cannot pad antistings to size k")
        anti.update(sorted(free)[:need])
    return intern_component(LabelComponent(sting, frozenset(anti)))


def successor_component(comp: LabelComponent, cfg: LabelConfig) -> LabelComponent:
    """The canonical next epoch component after ``comp``.

    A pure function of the component, so every processor derives the same
    successor from the same epoch and concurrent wrap-arounds cannot race.
    Chain stings live strictly above the padding zone [1, k+1] and increase
    monotonically; the successor inherits every chain sting the parent
    carries plus the parent's own, keeping the whole epoch chain totally
    ordered under the component order (up to a k-era window).  When that
    chain holds more than k values, antistings above the parent's sting go
    before chain stings, so any valid parent lies below its successor.
    The parent memoizes its successor under the config (k and domain size)
    last asked: every processor that exhausts an epoch asks for the same.
    """
    key = (cfg.k, cfg.domain_size)
    if comp.successor is not None and comp.successor[0] == key:
        return comp.successor[1]
    low_zone = cfg.k + 1
    first = max(comp.sting, low_zone) + 1
    taken = comp.antistings.__contains__
    sting = next(filterfalse(taken, range(first, cfg.domain_size + 1)), None)
    if sting is None:
        # The sting budget wrapped (after ~k^2 epochs); restart the chain low.
        free = filterfalse(taken, range(1, cfg.domain_size + 1))
        sting = next(filterfalse(comp.sting.__eq__, free), None)
    if sting is None:
        raise DomainExhausted("no successor sting available")
    parent = comp.sting
    chain = {v for v in comp.antistings if v > low_zone}
    chain.add(parent)
    chain.discard(sting)
    while len(chain) > cfg.k:
        # Values above the parent's sting are no chain stings (those rise up
        # to the budget wrap): a transient left them, so they go first.  Those
        # the new sting jumped over, [first, sting), lowest first (no later
        # sting can take them), the others highest first (the farthest from the
        # stings to come).  Then the oldest chain stings; the parent's last.
        top = max(chain)
        chain.remove(first if first < sting else top if top > parent else min(chain))
        first += 1
    comp.successor = (key, _padded_component(sting, chain, cfg))
    return comp.successor[1]


def format_label(label: Label) -> str:
    """Canonical textual form: ``creator:sting:{a1,a2,...}[!cs]``."""
    anti = ",".join(str(a) for a in sorted(label.ml.antistings))
    text = f"{label.creator}:{label.ml.sting}:{{{anti}}}"
    if label.cl is not None:
        text += f"!{label.cl.sting}"
    return text
