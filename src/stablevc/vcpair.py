"""Overflow-tolerant vector clock pairs: items, orders, pivots, merge, queries.

A pair holds a current and a previous item; the current item's offset and
the previous item's main vector are the same storage, so demoting ``curr``
to ``prev`` on wrap-around keeps one era of history countable.  All modular
arithmetic happens in [0, MAXINT); lifted sums use plain Python ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import le
from typing import List, Optional

from .errors import NoPivot
from .labels import Label, eq_m, incomparable, precedes_lb, preceq_lb


@dataclass
class VectorClockItem:
    """A view of one side of a pair: label plus main/offset vector references."""

    label: Label
    m: List[int]
    o: List[int]


class VectorClockPair:
    """⟨curr, prev⟩ items with curr.o and prev.m aliased to one vector."""

    __slots__ = ("curr_label", "prev_label", "curr_m", "mid", "prev_o", "_vcsum", "maxint")

    def __init__(self, curr_label: Label, curr_m: List[int], mid: List[int],
                 prev_label: Label, prev_o: List[int], maxint: int):
        self.curr_label = curr_label
        self.prev_label = prev_label
        self.curr_m = curr_m
        self.mid = mid  # shared storage: curr.o and prev.m
        self.prev_o = prev_o
        self.maxint = maxint
        self._vcsum = sum((a - b) % maxint for a, b in zip(curr_m, mid))

    # -- construction ---------------------------------------------------------

    @classmethod
    def fresh(cls, label: Label, n: int, maxint: int) -> "VectorClockPair":
        """The restart value ⟨y, y⟩ with y = ⟨label, zeros, zeros⟩."""
        return cls(label, [0] * n, [0] * n, label, [0] * n, maxint)

    def copy(self) -> "VectorClockPair":
        dup = VectorClockPair.__new__(VectorClockPair)
        dup.curr_label = self.curr_label
        dup.prev_label = self.prev_label
        dup.curr_m = list(self.curr_m)
        dup.mid = list(self.mid)
        dup.prev_o = list(self.prev_o)
        dup.maxint = self.maxint
        dup._vcsum = self._vcsum
        return dup

    # -- views ------------------------------------------------------------------

    @property
    def curr(self) -> VectorClockItem:
        return VectorClockItem(self.curr_label, self.curr_m, self.mid)

    @property
    def prev(self) -> VectorClockItem:
        return VectorClockItem(self.prev_label, self.mid, self.prev_o)

    # -- mutation (keeps the cached vc sum exact) ----------------------------------

    def bump(self, index: int) -> None:
        """Increment curr.m[index] modulo MAXINT."""
        maxint = self.maxint
        old = (self.curr_m[index] - self.mid[index]) % maxint
        self.curr_m[index] = (self.curr_m[index] + 1) % maxint
        self._vcsum += ((old + 1) % maxint) - old

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorClockPair):
            return NotImplemented
        return (
            eq_m(self.curr_label, other.curr_label)
            and eq_m(self.prev_label, other.prev_label)
            and self.curr_m == other.curr_m
            and self.mid == other.mid
            and self.prev_o == other.prev_o
        )

    def __repr__(self) -> str:
        return (f"⟨{self.curr_label!r}|{self.curr_m}|{self.mid} ∥ "
                f"{self.prev_label!r}|{self.mid}|{self.prev_o}⟩")


@dataclass(slots=True)
class Pivot:
    """A common (label, offset) reference item between two pairs."""

    label: Label
    vector: List[int]  # the matched item's offset list in the first pair


# -- vector clock value and conditions ------------------------------------------


def vc(pair: VectorClockPair) -> List[int]:
    """The pair's vector clock value: (curr.m - curr.o) mod MAXINT."""
    maxint = pair.maxint
    return [(a - b) % maxint for a, b in zip(pair.curr_m, pair.mid)]


def exhausted(pair: VectorClockPair) -> bool:
    """True when the counted events reach MAXINT - 1 (wrap-around needed)."""
    return pair._vcsum >= pair.maxint - 1


def labels_ordered(pair: VectorClockPair, label_view) -> bool:
    """The pair's labels form a proper era succession.

    Either prev is a canceled strictly-smaller epoch, or the two labels are
    the same legitimate epoch.  ``label_view`` provides ``is_canceled``.
    """
    if eq_m(pair.prev_label, pair.curr_label):
        return not label_view.is_canceled(pair.curr_label)
    return (precedes_lb(pair.prev_label, pair.curr_label)
            and label_view.is_canceled(pair.prev_label))


# -- item relations ---------------------------------------------------------------


def eq_lo(a: VectorClockItem, b: VectorClockItem) -> bool:
    """Items match in label and offset (main vectors are ignored)."""
    return eq_m(a.label, b.label) and a.o == b.o


def lt_lo(a: VectorClockItem, b: VectorClockItem) -> bool:
    """Item order: label order first, then lexicographic offset order."""
    if eq_m(a.label, b.label):
        return a.o < b.o
    return precedes_lb(a.label, b.label)


def le_lo(a: VectorClockItem, b: VectorClockItem) -> bool:
    return eq_lo(a, b) or lt_lo(a, b)


# -- pivots and merging --------------------------------------------------------------


def exists_overlap(loc: VectorClockPair, arr: VectorClockPair) -> Optional[Pivot]:
    """The <_{l,o}-maximum common item of the two pairs, if any.

    ``loc``'s current item is the pivot when it matches: together with the
    previous items (no wrap between the pairs), or as ``arr``'s previous
    item (``arr`` wrapped).  Else ``loc``'s previous item is, when it
    matches either item of ``arr``: the current item of a well-formed pair
    never precedes its previous one, so a current item is preferred.  Two
    pairs that share only their current item get None: a current-current
    match counts only together with the previous items.  The pivot holds
    ``loc``'s own offset list: no pair rewrites its offsets.
    """
    mid, prev_o = loc.mid, loc.prev_o
    prev_prev = prev_o == arr.prev_o and eq_m(loc.prev_label, arr.prev_label)
    if (prev_prev and mid == arr.mid and eq_m(loc.curr_label, arr.curr_label)) \
            or (mid == arr.prev_o and eq_m(loc.curr_label, arr.prev_label)):
        return Pivot(loc.curr_label, mid)
    if (prev_o == arr.mid and eq_m(loc.prev_label, arr.curr_label)) or prev_prev:
        return Pivot(loc.prev_label, prev_o)
    return None


def merge(loc: VectorClockPair, arr: VectorClockPair,
          pivot: Optional[Pivot] = None) -> VectorClockPair:
    """Join two pairs sharing a pivot: keep the greater static part, take
    the per-entry maximum of events counted since the pivot.

    ``pivot`` is the one ``legit_pairs`` found for these pairs, if the
    caller has it; without it ``merge`` asks ``exists_overlap``.
    """
    if pivot is None:
        pivot = exists_overlap(loc, arr)
        if pivot is None:
            raise NoPivot("pairs share no common item")
    pivot_label, pivot_vec = pivot.label, pivot.vector

    if eq_m(arr.curr_label, loc.curr_label):
        if arr.mid == loc.mid:
            init_to_loc = le_lo(arr.prev, loc.prev)
        else:
            init_to_loc = arr.mid < loc.mid
    else:
        init_to_loc = precedes_lb(arr.curr_label, loc.curr_label)
    output = loc.copy() if init_to_loc else arr.copy()

    loc_events = _events_since(loc, pivot_label, pivot_vec)
    arr_events = _events_since(arr, pivot_label, pivot_vec)
    maxint = output.maxint
    curr_m = output.curr_m
    for k in range(len(curr_m)):
        gain = loc_events[k] if loc_events[k] >= arr_events[k] else arr_events[k]
        curr_m[k] = (pivot_vec[k] + gain) % maxint
    mid = output.mid
    output._vcsum = sum((curr_m[k] - mid[k]) % maxint for k in range(len(curr_m)))
    return output


def merge_equal_static(loc: VectorClockPair, arr: VectorClockPair) -> VectorClockPair:
    """``merge`` for pairs with equal static parts, whose pivot is both items.

    The join keeps ``loc``'s static part and takes, per entry, the larger of
    the two counts since the shared offset.  When ``arr`` is dominated this
    is ``loc`` itself, returned as is; otherwise a grown copy.
    """
    loc_m, arr_m, mid, maxint = loc.curr_m, arr.curr_m, loc.mid, loc.maxint
    for a, b, o in zip(arr_m, loc_m, mid):
        if a != b and (a - o) % maxint > (b - o) % maxint:
            break
    else:
        return loc
    out = loc.copy()
    curr_m = out.curr_m
    for k, (a, b, o) in enumerate(zip(arr_m, loc_m, mid)):
        gain = (a - o) % maxint
        if gain > (b - o) % maxint:
            curr_m[k] = (o + gain) % maxint
    out._vcsum = sum((a - o) % maxint for a, o in zip(curr_m, mid))
    return out


def _events_since(pair: VectorClockPair, pivot_label: Label,
                  pivot_vec: List[int]) -> List[int]:
    maxint, mid, prev_o = pair.maxint, pair.mid, pair.prev_o
    if (pivot_vec is mid or pivot_vec == mid) and eq_m(pivot_label, pair.curr_label):
        return [(a - b) % maxint for a, b in zip(pair.curr_m, mid)]
    if (pivot_vec is prev_o or pivot_vec == prev_o) and eq_m(pivot_label, pair.prev_label):
        return [(a - b) % maxint + (b - c) % maxint
                for a, b, c in zip(pair.curr_m, mid, prev_o)]
    raise NoPivot("pivot matches neither curr nor prev of the pair")


# -- user-facing queries -----------------------------------------------------------


def equal_static(a: VectorClockPair, b: VectorClockPair) -> bool:
    """Pairs equal everywhere except possibly curr.m."""
    if a is b:
        return True
    ca, cb = a.curr_label, b.curr_label
    if not (ca is cb or (ca.creator == cb.creator and ca.ml == cb.ml)):
        return False
    pa, pb = a.prev_label, b.prev_label
    if not (pa is pb or (pa.creator == pb.creator and pa.ml == pb.ml)):
        return False
    return a.mid == b.mid and a.prev_o == b.prev_o


def pair_invar(pair: VectorClockPair) -> bool:
    """Not exhausted and the previous label does not exceed the current one."""
    return not exhausted(pair) and preceq_lb(pair.prev_label, pair.curr_label)


def comparable_labels(pairs) -> bool:
    """Every two labels across the pairs are related under the label order."""
    labels = [label for pair in pairs for label in (pair.curr_label, pair.prev_label)]
    return not any(incomparable(a, b) for a, b in combinations(labels, 2))


def legit_pairs(a: VectorClockPair, b: VectorClockPair) -> Optional[Pivot]:
    """The pairs can merge: their labels are comparable and they share an item.

    Returns the shared pivot (truthy) so the merge need not search for it
    again, or None.
    """
    if not comparable_labels((a, b)):
        return None
    return exists_overlap(a, b)


def event_count_query(zx: VectorClockPair, zy: VectorClockPair,
                      proc: int) -> Optional[int]:
    """Counter increments of processor ``proc`` between the two snapshots.

    Same static part: a modular vector clock difference.  One wrap-around
    between the snapshots (x's current item is y's previous): count y's
    events since the pivot and remove those x had already counted at it.
    A concurrent wrap (the snapshots share only their previous item, e.g.
    after adopting a peer's wrap of the same era): difference of both sides'
    counts since the shared reference.  Otherwise the snapshots share no
    reference and the answer is unknowable.  A count since a pair's previous
    item is its vc plus the previous era's events (zero if its items match).
    """
    i = proc - 1
    x_vc = (zx.curr_m[i] - zx.mid[i]) % zx.maxint
    if equal_static(zx, zy):
        return ((zy.curr_m[i] - zy.mid[i]) % zy.maxint - x_vc) % zx.maxint
    y_prev_o, maxint = zy.prev_o, zy.maxint
    if zx.mid == y_prev_o and eq_m(zx.curr_label, zy.prev_label):
        return (zy.curr_m[i] - zy.mid[i]) % maxint + (zy.mid[i] - y_prev_o[i]) % maxint - x_vc
    if zx.prev_o == y_prev_o and eq_m(zx.prev_label, zy.prev_label):
        return ((zy.curr_m[i] - zy.mid[i]) % maxint + (zy.mid[i] - y_prev_o[i]) % maxint
                - x_vc - (zx.mid[i] - zx.prev_o[i]) % zx.maxint)
    return None


def happened_before(a: List[int], b: List[int]) -> bool:
    """Vector order: ``a`` is dominated by ``b`` entrywise and differs."""
    return a != b and all(map(le, a, b))


def causal_precedence(z: VectorClockPair, zp: VectorClockPair,
                      pivot: Optional[Pivot] = None) -> bool:
    """True when z's counted events happened before zp's
    (``pivot``: ``exists_overlap`` of the pairs, if the caller has it)."""
    if pivot is None:
        pivot = exists_overlap(z, zp)
        if pivot is None:
            return False
    return happened_before(_events_since(z, pivot.label, pivot.vector),
                           _events_since(zp, pivot.label, pivot.vector))
