"""Per-processor protocol: increment, revive, restart, broadcast loop, merge on arrival.

Each handler mirrors one block of the replicated-clock state machine: the
broadcast loop validates the local pair and fans a frozen snapshot out to
every peer one send per step; the arrival handler feeds the labeling layer,
updates the token echo, and merges or restarts depending on the guards.
Handlers return a :class:`StepNotes` record so the simulator can emit trace
events without reaching into processor internals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .errors import BroadcastInProgress, NoBroadcast, NotReady
from .labeling import LabelingState, ServerMessage, SystemConfig
from .labels import Label, eq_m, precedes_lb
from .vcpair import (
    VectorClockPair,
    equal_static,
    exhausted,
    labels_ordered,
    legit_pairs,
    merge,
    merge_equal_static,
    pair_invar,
)


@dataclass(slots=True)
class ClientMessage:
    """The clock part of a wire message: sender's snapshot plus the token echo."""

    arriving: VectorClockPair
    rcvd_local: VectorClockPair


class PendingBroadcast:
    """A frozen local snapshot still owed to some destinations.

    The server label and the per-destination echoes are frozen with the
    snapshot: every message of one broadcast is self-consistent (its
    sender_max matches the snapshot's current label, and its cancellation
    echo cannot outrun the successor epoch) even when the labeling state
    advances between the sends.  ``echoes[dest]`` is the label held for
    ``dest`` at begin (a copy of the labeling state's ``max``); passing the
    labeling state's ``max`` list itself takes it at send time instead.
    """

    __slots__ = ("snapshot", "remaining", "sender_max", "echoes")

    def __init__(self, snapshot: VectorClockPair, remaining: List[int],
                 sender_max: Label, echoes: List[Optional[Label]]):
        self.snapshot = snapshot
        self.remaining = remaining
        self.sender_max = sender_max
        self.echoes = echoes


class StepNotes:
    """What happened inside one handler, in occurrence order.

    A step that only reports its outcome (a send, a merge, a guard drop)
    returns one of the shared records in ``QUIET_NOTES``; callers read
    returned notes and never change them.
    """

    __slots__ = ("increments", "revives", "restarts", "restart_cause",
                 "new_labels", "ignored", "merged")

    def __init__(self, ignored: Optional[str] = None, merged: bool = False):
        self.increments = 0
        self.revives = 0
        self.restarts = 0
        self.restart_cause: Optional[str] = None  # "line8" | "receive"
        self.new_labels: List[Label] = []
        self.ignored = ignored  # failing guard conjunct on a drop
        self.merged = merged


# Shared records for the outcomes that carry nothing else, so the common
# steps allocate none.
_NO_NOTES = StepNotes()
_MERGED = StepNotes(merged=True)
_IGNORED = {guard: StepNotes(ignored=guard)
            for guard in ("equal_static", "legit_msg", "pair_invar")}
QUIET_NOTES = frozenset([_NO_NOTES, _MERGED, *_IGNORED.values()])


def _ignored(notes: Optional[StepNotes], guard: str) -> StepNotes:
    """The notes of an arrival dropped by ``guard``."""
    if notes is None:
        return _IGNORED[guard]
    notes.ignored = guard
    return notes


class ProcessorState:
    """All per-processor state: the pair vector, labeling layer, broadcast buffer."""

    __slots__ = ("id", "cfg", "peers", "labeling", "pairs", "pending_broadcast",
                 "_vouched", "_joined", "_outbox")

    def __init__(self, proc_id: int, cfg: SystemConfig):
        self.id = proc_id
        self.cfg = cfg
        self.peers = [j for j in cfg.proc_ids if j != proc_id]  # broadcast order
        self.labeling = LabelingState(proc_id, cfg)
        self.pairs: List[Optional[VectorClockPair]] = [None] * (cfg.n + 1)
        self.pending_broadcast: Optional[PendingBroadcast] = None
        # (curr label, prev label, labeling stamp) of the last local pair
        # local_invariants found valid.
        self._vouched: Tuple = (None, None, None)
        # _joined[j]: (pair from j, local pair it merged into with no revive)
        # for the last such merge of a pair from j.
        self._joined: List[Tuple] = [(None, None)] * (cfg.n + 1)
        self._outbox: List[Optional[ServerMessage]] = [None] * (cfg.n + 1)  # [j]: last to j

    # ``local`` is an alias for pairs[id].
    @property
    def local(self) -> VectorClockPair:
        return self.pairs[self.id]

    @local.setter
    def local(self, value: VectorClockPair) -> None:
        self.pairs[self.id] = value

    # -- invariants -------------------------------------------------------------

    def mirrored_local_labels(self) -> bool:
        """The local pair uses only labels the labeling layer vouches for."""
        local = self.pairs[self.id]
        labeling = self.labeling
        return (labeling.stored_copy(local.prev_label) is not None
                and eq_m(local.curr_label, labeling.get_label()))

    def local_invariants(self) -> bool:
        """Memoized.  A clean labeling state answers the same between two
        stamps, so a valid answer holds until the pair's labels or the stamp
        change.  One taken while dirty never hits: the pass that cleans the
        state takes a fresh stamp."""
        labeling = self.labeling
        if not labeling.ready:
            raise NotReady("labeling has not run bookkeeping yet")
        local = self.pairs[self.id]
        vouched = self._vouched
        if vouched[0] is not local.curr_label or vouched[1] is not local.prev_label \
                or vouched[2] != labeling.stamp or labeling.dirty:
            if not (self.mirrored_local_labels() and labels_ordered(local, labeling)):
                return False
            self._vouched = (local.curr_label, local.prev_label, labeling.stamp)
        return True

    # -- pair lifecycle -----------------------------------------------------------

    def restart_local(self, notes: StepNotes, cause: str) -> None:
        """Reset the local pair to zeros under the current maximal label."""
        self.local = VectorClockPair.fresh(self.labeling.get_label(), self.cfg.n, self.cfg.maxint)
        notes.restarts += 1
        notes.restart_cause = cause

    def revive(self, pair: VectorClockPair, notes: StepNotes) -> VectorClockPair:
        """Wrap the pair around: cancel its epochs, demote curr, restart counting."""
        self.labeling.cancel(pair.curr_label, pair.curr_label)
        if pair.prev_label is not pair.curr_label:
            self.labeling.cancel(pair.prev_label, pair.prev_label)
        self.labeling.ensure_dominating(pair.curr_label)
        notes.new_labels.extend(self.labeling.drain_created())
        notes.revives += 1
        fresh_m = list(pair.curr_m)
        return VectorClockPair(
            self.labeling.get_label(), fresh_m, list(pair.curr_m),
            pair.curr_label, list(pair.mid), self.cfg.maxint,
        )

    def increment(self, notes: StepNotes) -> None:
        """Record one local event on a copy of the local pair (the old one
        may be a broadcast snapshot or a peer's stored pair); revive on
        exhaustion."""
        local = self.pairs[self.id].copy()
        local.bump(self.id - 1)
        notes.increments += 1
        if exhausted(local):
            local = self.revive(local, notes)
        self.pairs[self.id] = local

    # -- broadcast loop ---------------------------------------------------------------

    def do_forever_begin(self, maybe_increment: bool) -> Tuple[int, ServerMessage, StepNotes]:
        """One iteration head: validate, snapshot, emit the first send."""
        if self.pending_broadcast is not None:
            raise BroadcastInProgress(f"processor {self.id} still draining a broadcast")
        notes = None  # allocated once something happens
        if maybe_increment:
            notes = StepNotes()
            self.increment(notes)
        labeling = self.labeling
        if labeling._dirty or not labeling.ready:
            labeling.label_bookkeeping()
        if labeling.created_log:
            notes = notes or StepNotes()
            notes.new_labels.extend(labeling.drain_created())
        local = self.pairs[self.id]
        # local_invariants' memo test inline (bookkeeping left it clean).
        vouched = self._vouched
        if (vouched[2] != labeling.stamp or vouched[0] is not local.curr_label
                or vouched[1] is not local.prev_label) and not self.local_invariants():
            notes = notes or StepNotes()
            self.restart_local(notes, "line8")
            local = self.pairs[self.id]
        if exhausted(local):
            notes = notes or StepNotes()
            local = self.pairs[self.id] = self.revive(local, notes)
        # The local pair itself is the snapshot: no pair is changed in place
        # once it may be shared (increment works on a copy).  Bookkeeping
        # left max[id] set: it is get_label().
        self.pending_broadcast = PendingBroadcast(
            local, list(self.peers), labeling.max[self.id], list(labeling.max))
        return self.do_forever_continue(notes or _NO_NOTES)

    def do_forever_continue(self, notes: StepNotes = _NO_NOTES
                            ) -> Tuple[int, ServerMessage, StepNotes]:
        """Send the frozen snapshot to the next destination.

        ``notes`` are the step's: a begin passes its own, and a continue
        step returns the shared empty record, since it never increments,
        mints, revives or restarts.
        """
        # Messages and their pairs are shared immutable values (the protocol
        # changes only fresh copies), so the last message to dest goes again
        # while its own fields are what a new one would carry.
        pending = self.pending_broadcast
        try:
            remaining = pending.remaining
            dest = remaining.pop(0)
        except (AttributeError, IndexError):  # no broadcast, or none left to send
            raise NoBroadcast(f"processor {self.id} has no pending broadcast") from None
        token = self.pairs[dest]
        if token is None:
            token = VectorClockPair.fresh(self.labeling.get_label(), self.cfg.n, self.cfg.maxint)
        sender_max, echo, snapshot = pending.sender_max, pending.echoes[dest], pending.snapshot
        message = self._outbox[dest]
        if message is None or message.sender_max is not sender_max \
                or message.last_sent is not echo or message.client.arriving is not snapshot \
                or message.client.rcvd_local is not token:
            message = self._outbox[dest] = ServerMessage(
                sender_max, echo, ClientMessage(snapshot, token))
        if not remaining:
            self.pending_broadcast = None
        return dest, message, notes

    # -- message arrival -----------------------------------------------------------------

    def on_message(self, msg: ServerMessage, sender: int) -> StepNotes:
        """Process one arriving message: labeling first, then token and merge."""
        notes = None  # allocated once something beyond the outcome happens
        payload: ClientMessage = msg.client
        arriving = payload.arriving
        local = self.pairs[self.id]
        labeling = self.labeling

        # One exception to label logging: when the arriving pair has wrapped
        # around past our current item, its prev label is that item's canceled
        # predecessor and is deliberately not fed back into the storage.
        wrapped_past_us = (
            arriving.prev_o == local.mid
            and eq_m(arriving.prev_label, local.curr_label)
            and precedes_lb(local.curr_label, arriving.curr_label)
        )
        if wrapped_past_us:
            extra = [arriving.curr_label]
        else:
            extra = [arriving.curr_label, arriving.prev_label]
        labeling.label_bookkeeping_msg(msg, sender, extra)
        if labeling.created_log:
            notes = StepNotes()
            notes.new_labels.extend(labeling.drain_created())

        self.pairs[sender] = arriving  # received pairs are immutable snapshots

        if not equal_static(local, payload.rcvd_local):
            return _ignored(notes, "equal_static")
        if arriving.curr_label is not msg.sender_max \
                and not labeling.legit_msg(msg, arriving.curr_label):
            return _ignored(notes, "legit_msg")
        joined = self._joined[sender]
        if joined[0] is not arriving or joined[1] is not local:
            # Else this very pair, which passed pair_invar, was merged into
            # this very local pair with no revive: the join is idempotent,
            # so merging it again would change nothing.
            if not pair_invar(arriving):
                return _ignored(notes, "pair_invar")
            if equal_static(local, arriving):
                # legit_pairs holds without asking: pair_invar(arriving) orders
                # the two shared labels, and both items match.
                if local.curr_m != arriving.curr_m:
                    local = merge_equal_static(local, arriving)
            else:
                pivot = legit_pairs(local, arriving)
                if pivot is None:
                    notes = notes or StepNotes()
                    self.restart_local(notes, "receive")
                    return notes
                local = merge(local, arriving, pivot)
            if exhausted(local):
                notes = notes or StepNotes()
                local = self.revive(local, notes)
            else:
                self._joined[sender] = (arriving, local)
            self.pairs[self.id] = local
        if notes is None:
            return _MERGED
        notes.merged = True
        return notes
