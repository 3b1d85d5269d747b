"""Per-processor bounded labeling state: storage queues, bookkeeping, cancellation.

Each processor logs every label it observes in N bounded FIFO queues
(one per creator), keeps at most one legitimate label per queue through
cross-cancellation, and exposes its locally perceived maximal label via
``get_label``.  Mutations mark the state dirty; ``label_bookkeeping`` is a
fixpoint and becomes a no-op on clean state, which keeps steady-state steps
cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Dict, List, Optional

from .errors import NotReady, PreconditionViolated
from .labels import (
    Label,
    LabelConfig,
    cancels,
    eq_m,
    next_b_from_sets,
    precedes_lb,
    successor_component,
)


@dataclass(frozen=True)
class SystemConfig:
    """Global sizing: processor count, channel capacity, counter modulus."""

    n: int
    c: int
    maxint: int
    k_override: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n < 2:
            raise PreconditionViolated(f"N must be >= 2, got {self.n}")
        if self.c < 1:
            raise PreconditionViolated(f"C must be >= 1, got {self.c}")
        if not 2 <= self.maxint <= 2**62:
            # Stay a factor 4 under the 64-bit word bound so lifted sums are exact.
            raise PreconditionViolated(f"MAXINT must be in [2, 2^62], got {self.maxint}")
        if self.k_override is not None and self.k_override < 2 * self.label_capacity:
            raise PreconditionViolated(
                f"k override {self.k_override} below 2*queue capacity {2 * self.label_capacity}"
            )

    @property
    def m(self) -> int:
        """Maximum number of in-flight messages: C * N * (N-1)."""
        return self.c * self.n * (self.n - 1)

    @property
    def label_capacity(self) -> int:
        """Unified per-queue capacity L: revive allowance plus creation bound."""
        n, c, m = self.n, self.c, self.m
        return (n + n * n + n**3 * c) + (4 * n * n + 4 * n * m - 4 * n - 2 * m)

    @property
    def label_config(self) -> LabelConfig:
        k = self.k_override if self.k_override is not None else 2 * self.label_capacity
        return LabelConfig(k)

    @property
    def proc_ids(self) -> range:
        return range(1, self.n + 1)


@dataclass(slots=True)
class ServerMessage:
    """Labeling part of a wire message plus the opaque client payload.

    ``sender_max`` is the sender's maximal label (legitimate at send time);
    ``last_sent`` echoes the receiver's label as the sender holds it,
    including cancellation evidence, which is how cancellations propagate.
    """

    sender_max: Label
    last_sent: Optional[Label]
    client: object


# Source of LabelingState.stamp values, unique across all instances.
_stamps = count()


class LabelingState:
    """Label storage and maximal-label selection for one processor.

    ``stamp`` changes with every full bookkeeping pass.  Every change to the
    stored labels, their cancellations or the maximal label marks the state
    dirty, and a dirty state runs a full pass before the next query that
    bookkeeping guards, so between two stamps those answers cannot change.
    """

    __slots__ = ("self_id", "cfg", "label_cfg", "capacity", "max", "stored",
                 "ready", "dirty", "created_log", "stamp")

    def __init__(self, self_id: int, cfg: SystemConfig):
        self.self_id = self_id
        self.cfg = cfg
        self.label_cfg = cfg.label_config
        self.capacity = cfg.label_capacity
        self.max: List[Optional[Label]] = [None] * (cfg.n + 1)  # 1-indexed
        self.stored: List[List[Label]] = [[] for _ in range(cfg.n + 1)]
        self.ready = False  # set by the first bookkeeping pass
        self.dirty = True  # cleared, and ready set, only by a bookkeeping pass
        self.created_log: List[Label] = []
        self.stamp = next(_stamps)

    # -- queries ------------------------------------------------------------

    def is_stored(self, label: Label) -> bool:
        return self.stored_copy(label) is not None

    def stored_copy(self, label: Label) -> Optional[Label]:
        creator = label.creator
        if not 1 <= creator <= self.cfg.n:
            return None
        ml = label.ml
        sting = ml.sting
        for entry in self.stored[creator]:
            # eq_m(label, entry), unrolled as in _enqueue.
            other = entry.ml
            if (other is ml or (other.sting == sting and other == ml)) \
                    and entry.creator == creator:
                return entry
        return None

    def is_canceled(self, label: Label) -> bool:
        if label.cl is not None:
            return True
        entry = self.stored_copy(label)
        return entry is not None and entry.cl is not None

    def get_label(self) -> Label:
        if not self.ready:
            raise NotReady("label_bookkeeping has not run yet")
        current = self.max[self.self_id]
        if current is None:  # unreachable after bookkeeping; defensive
            raise NotReady("no maximal label available")
        return current

    # -- storage primitives ---------------------------------------------------

    def _enqueue(self, label: Label) -> Label:
        """Log a label: dedup by =_m with bring-to-front, merge cl evidence,
        FIFO-evict from the back when over capacity.  Returns the stored copy."""
        creator = label.creator
        if not 1 <= creator <= self.cfg.n:
            return label  # corrupt creator: ignore, bookkeeping wipes storage anyway
        queue = self.stored[creator]
        if queue and queue[0] is label:
            return label  # steady state: the shared max object is already front
        if len(queue) > 1 and queue[1] is label:
            queue[1] = queue[0]  # steady state: swapped back by the last message
            queue[0] = label
            return label
        ml = label.ml
        sting = ml.sting
        for idx, entry in enumerate(queue):
            # eq_m(label, entry), unrolled: this scan runs on every arrival.
            # Stored copies share the label's component object in the steady
            # state, and a sting test settles most other comparisons.
            other = entry.ml
            if (other is ml or (other.sting == sting and other == ml)) \
                    and entry.creator == creator:
                if entry.cl is None and label.cl is not None:
                    entry = entry.with_cancel(label.cl)
                    self.dirty = True
                if idx == 1:
                    queue[1] = queue[0]
                elif idx:
                    del queue[idx]
                    queue.insert(0, entry)
                    return entry
                queue[0] = entry
                return entry
        queue.insert(0, label)
        if len(queue) > self.capacity:
            queue.pop()
        self.dirty = True
        return label

    def _cancel_stored(self, label: Label, evidence) -> None:
        """Mark the stored copy of ``label`` canceled; first evidence wins."""
        queue = self.stored[label.creator]
        for idx, entry in enumerate(queue):
            if eq_m(label, entry):
                if entry.cl is None:
                    queue[idx] = entry.with_cancel(evidence)
                    if self.max[self.self_id] is not None and eq_m(entry, self.max[self.self_id]):
                        self.max[self.self_id] = queue[idx]
                    self.dirty = True
                return

    # -- the seven-function interface ------------------------------------------

    def label_bookkeeping(self) -> None:
        """Invariant check and repair; creates a fresh maximal label if needed."""
        if not self.dirty:
            return
        self._wipe_if_stale()
        # Fold the heard-labels vector into storage so max[self] is always stored.
        for j in self.cfg.proc_ids:
            heard = self.max[j]
            if heard is not None:
                self.max[j] = self._enqueue(heard)
        self._cross_cancel()
        self._select_max()
        self.ready = True
        self.dirty = False
        self.stamp = next(_stamps)

    def label_bookkeeping_msg(self, msg: ServerMessage, sender: int,
                              extra_labels: List[Label]) -> None:
        """Process the labeling part of an arriving message.

        Records the sender's maximal label, logs the labels carried by the
        client payload, applies the cancellation echo, then runs the full
        bookkeeping pass if any of it changed the state.

        The steady state of a sender whose pair spans two epochs of one
        creator skips the logging: the extras are its maximal label and
        then a label ``second`` of the same creator, and on a clean state
        their stored copies are the two most recent entries of that queue,
        ``second``'s first, with all the cancel evidence the two bring.
        Logging both would move them to the front in the order they are
        found in.  Since the last bookkeeping pass every entry sits in its
        creator's queue and no two are =_m, so sharing the component object
        means =_m.
        """
        sender_max = msg.sender_max
        unmoved = None
        if len(extra_labels) == 2 and extra_labels[0] is sender_max \
                and not self.dirty:
            second = extra_labels[1]
            creator = sender_max.creator
            try:
                queue = self.stored[creator] if creator > 0 else ()
                head, after = queue[0], queue[1]
            except IndexError:  # a corrupt creator, or fewer than two entries
                head = after = None
            first_ml, second_ml = sender_max.ml, second.ml
            if (head is not None and second.creator == creator
                    and head.ml is second_ml and after.ml is first_ml
                    and first_ml.sting != second_ml.sting
                    and (sender_max.cl is None or after.cl is not None)
                    and (second.cl is None or head.cl is not None)):
                unmoved = after
        if unmoved is not None:
            self.max[sender] = unmoved
        else:
            self.max[sender] = self._enqueue(sender_max)
            for label in extra_labels:
                if label is not sender_max:  # logging a label twice in a row is a no-op
                    self._enqueue(label)
        echo = msg.last_sent
        if echo is not None and echo.cl is not None:
            mine = self.max[self.self_id]
            if mine is not None and eq_m(echo, mine):
                self._cancel_stored(mine, echo.cl)
        if self.dirty:
            self.label_bookkeeping()

    def legit_msg(self, msg: ServerMessage, label: Label) -> bool:
        return eq_m(label, msg.sender_max)

    def encapsulate(self, client_payload: object, dest: int) -> ServerMessage:
        return ServerMessage(
            sender_max=self.get_label(),
            last_sent=self.max[dest],
            client=client_payload,
        )

    def cancel(self, label: Label, by: Label) -> None:
        """Mark ``label`` canceled by ``by`` (storage records by.ml as evidence)."""
        if precedes_lb(by, label):
            raise PreconditionViolated("canceling label must not precede the canceled one")
        stored = self.stored_copy(label)
        if stored is None:
            stored = self._enqueue(label if label.cl is None else Label(label.creator, label.ml))
        self._cancel_stored(stored, by.ml)

    # -- bookkeeping internals --------------------------------------------------

    def _wipe_if_stale(self) -> None:
        """Misplaced or duplicated labels mean arbitrary corruption: empty everything."""
        label_cfg = self.label_cfg
        k = label_cfg.k
        for j in self.cfg.proc_ids:
            seen = set()  # components: every entry here has creator j
            for entry in self.stored[j]:
                ml = entry.ml
                if entry.creator != j or ml in seen \
                        or (ml.valid_k != k and not ml.valid_under(label_cfg)):
                    self.stored = [[] for _ in range(self.cfg.n + 1)]
                    return
                seen.add(ml)

    def _cross_cancel(self) -> None:
        """Within each queue, resolve legitimate labels down to at most one.

        Cancellation is decided among legitimate labels only: comparable ones
        cancel the smaller, incomparable ones cancel each other.  Already
        canceled labels are inert evidence; letting them cancel newcomers
        would allow one stale label to kill every future epoch of its creator.
        """
        for j in self.cfg.proc_ids:
            queue = self.stored[j]
            if len(queue) < 2:
                continue
            legit = [(idx, entry) for idx, entry in enumerate(queue) if entry.cl is None]
            if len(legit) < 2:
                continue
            canceled: Dict[int, Label] = {}
            for _, a in legit:
                for idx, b in legit:
                    if a is b or idx in canceled:
                        continue
                    if cancels(a, b):
                        canceled[idx] = b.with_cancel(a.ml)
            for idx, replacement in canceled.items():
                queue[idx] = replacement
                self.dirty = True

    def _greatest_legitimate(self) -> Optional[Label]:
        """The greatest stored legitimate label, or None: a scan in creator
        and queue order keeps its pick unless a later label lies above it."""
        best = None
        for j in self.cfg.proc_ids:
            for entry in self.stored[j]:
                if entry.cl is None and (best is None or precedes_lb(best, entry)):
                    best = entry
        return best

    def _select_max(self) -> None:
        """Adopt the greatest legitimate label, or mint a fresh one (own creator)."""
        best = self._greatest_legitimate()
        self.max[self.self_id] = best if best is not None else self._mint(self.self_id)

    def _mint(self, creator: int) -> Label:
        """Create, log, and store a label above every stored label of ``creator``."""
        stings: set = set()
        blocked: set = set()
        for entry in self.stored[creator]:
            for comp in (entry.ml, entry.cl):
                if comp is not None:
                    stings.add(comp.sting)
                    blocked |= comp.antistings
        fresh = Label(creator, next_b_from_sets(stings, blocked, self.label_cfg))
        self.created_log.append(fresh)
        return self._enqueue(fresh)

    def ensure_dominating(self, curr_label: Label) -> None:
        """Guarantee get_label() returns a label strictly above ``curr_label``.

        Called by the pair wrap-around right after the pair's epochs were
        canceled.  If a dominating legitimate label is already stored it is
        adopted; otherwise the canonical successor of ``curr_label`` is
        created under the same creator *before* bookkeeping runs, so the
        empty-legitimate-set fallback (a fresh own-creator label) never fires
        mid-wrap.  Every processor derives the same successor from the same
        epoch, so concurrent wrap-arounds cannot cancel each other.
        """
        best = self._greatest_legitimate()
        if (best is None or not precedes_lb(curr_label, best)) \
                and 1 <= curr_label.creator <= self.cfg.n:
            fresh = Label(curr_label.creator,
                          successor_component(curr_label.ml, self.label_cfg))
            self.created_log.append(fresh)
            self._enqueue(fresh)
            self.dirty = True
        self.label_bookkeeping()

    # -- introspection -----------------------------------------------------------

    def drain_created(self) -> List[Label]:
        """Labels minted since the last drain (for trace events)."""
        out = self.created_log
        self.created_log = []
        return out
