"""Deterministic simulation: bounded channels, schedulers, crashes, fault injection.

The world is advanced one atomic step at a time; each step runs one
processor's handler and ends with a single send or receive.  Everything is
driven by seeded ``random.Random`` streams, so a (world, fault plan,
scheduler, steps) tuple always reproduces the same trace.
"""

from __future__ import annotations

import random
from bisect import insort
from collections import deque
from dataclasses import dataclass, field
from math import gcd
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from .errors import ActionNotEnabled, AlreadyCrashed, NotCrashed, PreconditionViolated
from .labeling import ServerMessage, SystemConfig
from .labels import Label, LabelComponent, StridedComponent, next_b
from .protocol import (
    QUIET_NOTES,
    ClientMessage,
    PendingBroadcast,
    ProcessorState,
    StepNotes,
)
from .trace import Trace, TraceEvent
from .vcpair import VectorClockPair

BEGIN_BROADCAST = "begin"
CONTINUE_BROADCAST = "continue"
RECEIVE = "receive"


@dataclass
class Action:
    """One enabled move of a processor.  Schedulers hand out shared
    instances (below), so an Action is never changed after creation."""

    kind: str
    increment: bool = False      # begin only
    sender: Optional[int] = None  # receive only


class _ReceiveActions(dict):
    """sender -> the receive Action from that sender, made on first use."""

    def __missing__(self, sender: int) -> Action:
        action = self[sender] = Action(RECEIVE, sender=sender)
        return action


_BEGIN = Action(BEGIN_BROADCAST)
_BEGIN_INCREMENT = Action(BEGIN_BROADCAST, increment=True)
_CONTINUE = Action(CONTINUE_BROADCAST)
_RECEIVE_FROM = _ReceiveActions()


class ChannelEntry:
    """A message in flight and whether fault injection put it there (immutable, shared)."""

    __slots__ = ("message", "injected")

    def __init__(self, message: ServerMessage, injected: bool = False):
        self.message = message
        self.injected = injected


class Channel:
    """Bounded FIFO link; a send into a full channel overwrites the oldest entry.

    ``ready`` is the receiver's ready-source record (``World.ready[dst]``,
    shared by every channel into ``dst``): the channel's ``src`` is in it,
    in id order, exactly while the queue holds a message.  Queue changes
    that can empty or fill it go through ``send``, ``receive`` and ``clear``.
    ``send`` appends its last entry again for the same message and flag.
    """

    __slots__ = ("src", "dst", "capacity", "queue", "ready", "_last")

    def __init__(self, src: int, dst: int, capacity: int,
                 ready: Optional[List[int]] = None):
        self.src = src
        self.dst = dst
        self.capacity = capacity
        self.queue: Deque[ChannelEntry] = deque(maxlen=capacity)
        self.ready: List[int] = [] if ready is None else ready
        self._last: Optional[ChannelEntry] = None

    def send(self, message: ServerMessage, injected: bool = False) -> bool:
        """Append a message; returns True when the oldest entry was overwritten."""
        queue = self.queue
        size = len(queue)
        if not size:
            insort(self.ready, self.src)
        entry = self._last
        if entry is None or entry.message is not message or entry.injected != injected:
            entry = self._last = ChannelEntry(message, injected)
        queue.append(entry)  # a full deque drops its head
        return size == self.capacity

    def receive(self) -> ChannelEntry:
        queue = self.queue
        try:
            entry = queue.popleft()
        except IndexError:
            raise ActionNotEnabled(f"channel {self.src}->{self.dst} is empty") from None
        if not queue:
            self.ready.remove(self.src)
        return entry

    def clear(self) -> None:
        """Drop every message in flight."""
        if self.queue:
            self.queue.clear()
            self.ready.remove(self.src)

    def __len__(self) -> int:
        return len(self.queue)


@dataclass
class FaultPlan:
    """Faults applied at configuration-declared steps."""

    transient_seed: Optional[int] = None
    transient_scope: str = "all"  # "all" | "channels"
    crash_at: Dict[int, int] = field(default_factory=dict)
    restart_at: Dict[int, int] = field(default_factory=dict)
    duplications: List[Tuple[int, int, int]] = field(default_factory=list)  # (src, dst, step)
    reorders: List[Tuple[int, int, int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        steps = self.fault_steps()
        if min(steps, default=0) < 0:
            raise PreconditionViolated(f"fault steps must be >= 0, got {min(steps)}")
        for proc, step in self.restart_at.items():
            if proc not in self.crash_at or step <= self.crash_at[proc]:
                raise PreconditionViolated(f"restart of {proc} must follow its crash")
        if self.transient_scope not in ("all", "channels"):
            raise PreconditionViolated(f"unknown transient scope {self.transient_scope!r}")

    def fault_steps(self) -> List[int]:
        """The step of every declared crash, restart, duplicate and reorder."""
        return [*self.crash_at.values(), *self.restart_at.values(),
                *(at for _, _, at in self.duplications + self.reorders)]


class World:
    """All processor states plus the channel matrix.

    ``channels[(i, j)]`` and ``links[i][j]`` are the same channel from i to j
    (``links`` has a None diagonal and a None row and column 0).
    ``ready[j]`` is j's ready-source record: the senders i, in id order,
    whose channel to j holds a message.  The channels keep it as their
    queues change, so a scheduler reads it instead of scanning j's inbox.
    """

    __slots__ = ("config", "procs", "channels", "links", "ready", "crashed", "clock",
                 "_live")

    def __init__(self, config: SystemConfig):
        self.config = config
        ids = config.proc_ids
        self.procs: List[Optional[ProcessorState]] = [None] * (config.n + 1)
        self.links: List[List[Optional[Channel]]] = [[None] * (config.n + 1)
                                                     for _ in range(config.n + 1)]
        self.channels: Dict[Tuple[int, int], Channel] = {}
        self.ready: List[List[int]] = [[] for _ in range(config.n + 1)]
        self.crashed: set = set()
        self.clock = 0
        for i in ids:
            self.procs[i] = ProcessorState(i, config)
            for j in ids:
                if i != j:
                    self.links[i][j] = self.channels[(i, j)] = Channel(
                        i, j, config.c, self.ready[j])
        self._live: List[int] = list(ids)

    @classmethod
    def clean_start(cls, config: SystemConfig) -> "World":
        """A converged fault-free start: one shared epoch, all pairs at zero.

        The shared label is created by the highest-id processor (the state a
        gossip race over per-processor seeds converges to).
        """
        world = cls(config)
        creator = config.n
        shared = Label(creator, next_b([], config.label_config))
        for i in config.proc_ids:
            proc = world.procs[i]
            lab = proc.labeling
            lab.stored[creator].append(shared)
            for j in config.proc_ids:
                lab.max[j] = shared
            lab.label_bookkeeping()
            for j in config.proc_ids:
                proc.pairs[j] = VectorClockPair.fresh(shared, config.n, config.maxint)
        return world

    def live_procs(self) -> List[int]:
        return self._live

    # -- fault operations ------------------------------------------------------

    def crash(self, proc: int) -> None:
        if proc in self.crashed:
            raise AlreadyCrashed(f"processor {proc} is already down")
        self.crashed.add(proc)
        self._live = [i for i in self.config.proc_ids if i not in self.crashed]

    def restart_undetectable(self, proc: int) -> None:
        """Resume with the pre-crash state; messages sent meanwhile are lost."""
        if proc not in self.crashed:
            raise NotCrashed(f"processor {proc} is up")
        self.crashed.discard(proc)
        self._live = [i for i in self.config.proc_ids if i not in self.crashed]
        for j in self.config.proc_ids:
            if j != proc:
                self.channels[(j, proc)].clear()


# -- schedulers ---------------------------------------------------------------------


class Scheduler:
    """Picks (processor, action) each step.

    ``next`` chooses a live processor by the policy a subclass sets up (a
    round-robin cursor, or a seeded draw with a starvation guard) and
    applies the fairness contract to it in the same frame: per-processor
    alternation between send and receive when both are enabled, and
    round-robin rotation over the ready message sources.  A begin draws its
    increment from the workload stream.
    """

    def __init__(self, rng: Optional[random.Random] = None) -> None:
        self.rng = rng
        self._random = None if rng is None else rng.random  # None: round-robin
        self._cursor = 0
        self.workload_rng: Optional[random.Random] = None
        self._rates: Dict[int, float] = {}
        # Per processor, sized on the first pick: receive next if a source
        # is ready, the rotation cursor over the ready sources, the increment
        # rate resolved from _rates, and the step of the last pick.
        self._prefer_receive: Optional[List[bool]] = None
        self._next_source: List[int] = []
        self._rate_of: List[float] = []
        self._last_run: List[int] = []
        self._live_seen: Optional[List[int]] = None  # the list _deadline covers
        self._deadline = 0
        self._bound = 0

    def configure_workload(self, seed: int, rates: Dict[int, float]) -> None:
        """Seed the increment draws; ``rates`` maps a processor id to its
        increment chance per loop iteration, with key 0 as the default."""
        self.workload_rng = random.Random(seed ^ 0x5EED)
        self._rates = rates
        if self._prefer_receive is not None:
            self._resolve_rates()

    def _size(self, world: World) -> List[bool]:
        """Size the per-processor state to ``world``; returns _prefer_receive."""
        n = world.config.n
        self._prefer_receive = [False] * (n + 1)
        self._next_source = [0] * (n + 1)
        self._last_run = [0] * (n + 1)  # never run: as if run at step 0
        self._bound = 4 * n * world.config.c
        self._resolve_rates()
        return self._prefer_receive

    def _resolve_rates(self) -> None:
        rates = self._rates
        default = rates.get(0, 0.0)
        self._rate_of = [rates.get(proc, default) for proc in range(len(self._prefer_receive))]

    def next(self, world: World) -> Optional[Tuple[int, Action]]:
        live = world._live
        if not live:
            return None
        prefer_receive = self._prefer_receive
        if prefer_receive is None:
            prefer_receive = self._size(world)
        draw = self._random
        if draw is None:
            proc = live[self._cursor % len(live)]
            self._cursor += 1
        else:
            # The lowest-id live processor left unpicked for _bound steps,
            # else a uniform draw; see RandomScheduler.
            clock = world.clock
            last = self._last_run
            proc = 0
            if live is not self._live_seen:  # World rebuilds it on a crash or restart
                self._live_seen = live
                self._deadline = clock
            if clock >= self._deadline:
                bound = self._bound
                self._deadline = min(map(last.__getitem__, live)) + bound
                if clock >= self._deadline:
                    for cand in live:
                        if clock - last[cand] >= bound:
                            proc = cand
                            break
            if not proc:
                # draw() < 1 - 2**-53, so the product rounds below len(live).
                proc = live[int(draw() * len(live))]
            last[proc] = clock
        if prefer_receive[proc]:
            sources = world.ready[proc]
            if sources:
                prefer_receive[proc] = False
                next_source = self._next_source
                start = next_source[proc]
                count = len(sources)
                next_source[proc] = (start + 1) % count
                return proc, _RECEIVE_FROM[sources[start % count]]
        prefer_receive[proc] = True
        if world.procs[proc].pending_broadcast is not None:
            return proc, _CONTINUE
        # Draw only for a rate strictly inside (0, 1).
        rate = self._rate_of[proc]
        if rate <= 0.0:
            return proc, _BEGIN
        if rate >= 1.0 or self.workload_rng.random() < rate:
            return proc, _BEGIN_INCREMENT
        return proc, _BEGIN


class RoundRobinScheduler(Scheduler):
    """Cycles over live processors in id order."""

    # Each policy names the shared pick as its own method (perfbench times
    # ``RoundRobinScheduler.next`` and ``RandomScheduler.next``).
    next = Scheduler.next


class RandomScheduler(Scheduler):
    """Seeded uniform choice with an anti-starvation guard.

    Any live processor left unscheduled for 4*N*C steps is picked next, which
    realizes the fairness contract without giving up adversarial freedom.
    When several are overdue, the lowest id goes first.

    The overdue check costs one comparison per step: ``_deadline`` is the
    earliest step at which a live processor can become overdue, computed from
    the oldest ``_last_run`` and refreshed only once the clock reaches it
    (last-run steps only grow, so it never comes too late) or the live list
    changes (a crash or a restart).
    """

    def __init__(self, seed: int):
        super().__init__(random.Random(seed))

    next = Scheduler.next


class ScriptedScheduler(Scheduler):
    """Replays an explicit (proc, action) list for adversarial cases."""

    def __init__(self, script: Iterable[Tuple[int, Action]]):
        super().__init__()
        self.script = list(script)
        self._pos = 0

    def next(self, world: World) -> Optional[Tuple[int, Action]]:
        if self._pos >= len(self.script):
            return None
        proc, action = self.script[self._pos]
        self._pos += 1
        return proc, action


# -- transient fault injection ----------------------------------------------------------


def inject_transient(world: World, seed: int, scope: str = "all") -> World:
    """Replace all state ("all") or all channel contents ("channels") with
    type-valid random values; structure (N, C, MAXINT) stays intact."""
    if world.clock != 0:
        raise PreconditionViolated("transient faults occur only at step 0")
    rng = random.Random(seed)
    cfg = world.config
    if scope == "all":
        for i in cfg.proc_ids:
            _corrupt_processor(world.procs[i], rng)
    fill_full = scope == "channels"
    for channel in world.channels.values():
        channel.clear()
        count = channel.capacity if fill_full else rng.randint(0, channel.capacity)
        for _ in range(count):
            channel.send(_random_message(cfg, rng), injected=True)
    return world


def _random_component(cfg, rng: random.Random) -> LabelComponent:
    """A random valid component: a sting and a strided slice of the domain,
    k distinct members, cheap to draw (a full k-of-k^2 sample is needlessly
    slow here) and built only when read."""
    sting = rng.randint(1, cfg.domain_size)
    domain = cfg.domain_size
    start = rng.randrange(domain)
    stride = rng.randrange(1, domain)
    while gcd(stride, domain) != 1:
        stride += 1
    return StridedComponent(sting, start, stride, cfg.k, domain)


def _random_label(config: SystemConfig, rng: random.Random,
                  canceled_chance: float = 0.3) -> Label:
    cfg = config.label_config
    cl = _random_component(cfg, rng) if rng.random() < canceled_chance else None
    return Label(rng.randint(1, config.n), _random_component(cfg, rng), cl)


def _random_vector(config: SystemConfig, rng: random.Random) -> List[int]:
    return [rng.randrange(config.maxint) for _ in range(config.n)]


def _random_pair(config: SystemConfig, rng: random.Random) -> VectorClockPair:
    return VectorClockPair(
        _random_label(config, rng), _random_vector(config, rng),
        _random_vector(config, rng), _random_label(config, rng),
        _random_vector(config, rng), config.maxint,
    )


def _random_message(config: SystemConfig, rng: random.Random) -> ServerMessage:
    arriving = _random_pair(config, rng)
    sender_max = (Label(arriving.curr_label.creator, arriving.curr_label.ml)
                  if rng.random() < 0.5 else _random_label(config, rng, 0.0))
    last_sent = _random_label(config, rng) if rng.random() < 0.7 else None
    return ServerMessage(sender_max=sender_max, last_sent=last_sent,
                         client=ClientMessage(arriving, _random_pair(config, rng)))


def _corrupt_processor(state: ProcessorState, rng: random.Random) -> None:
    config = state.cfg
    lab = state.labeling
    lab.stored = [[] for _ in range(config.n + 1)]
    for j in config.proc_ids:
        for _ in range(rng.randint(0, 2)):
            label = _random_label(config, rng)
            # Misfiled entries are type-valid corruption; bookkeeping must cope.
            slot = label.creator if rng.random() < 0.8 else j
            lab.stored[slot].insert(0, label)
        lab.max[j] = _random_label(config, rng) if rng.random() < 0.8 else None
    lab.ready = False
    lab._dirty = True
    lab.created_log = []
    for j in config.proc_ids:
        state.pairs[j] = _random_pair(config, rng)
    if rng.random() < 0.3:
        dests = [j for j in config.proc_ids if j != state.id]
        rng.shuffle(dests)
        keep = dests[: rng.randint(1, len(dests))]
        state.pending_broadcast = PendingBroadcast(
            _random_pair(config, rng), sorted(keep), _random_label(config, rng, 0.0), lab.max)
    else:
        state.pending_broadcast = None


# -- the run loop -------------------------------------------------------------------------


def run(world: World, scheduler: Scheduler, steps: int,
        fault_plan: Optional[FaultPlan] = None,
        observers: Iterable = (),
        trace_level: str = "full") -> Trace:
    """Advance the world ``steps`` atomic steps and record a trace.

    Each step applies the step's due faults, asks the scheduler for a pick,
    and runs the picked action: a receive, or the begin or continue of a
    broadcast ending in a send.  The step's events (handler notes first,
    the send or receive last) go through ``Trace.append``, which counts
    every kind; ``trace_level`` "full" keeps every event, "faults" only the
    fault kinds, so very long runs stay cheap.  Below "full" and with no
    observers the send or receive, which would be dropped, is only counted.
    Observers see every event either way: ``on_step`` gets each step's
    events, and the faults applied before its pick as a list of their own
    (the transient injection comes before ``on_start``).  ``world.clock``
    is the current step during a step and ``steps`` past its start afterwards.
    """
    trace = Trace(level=trace_level)
    plan = fault_plan or FaultPlan()
    if plan.transient_seed is not None and world.clock == 0:
        inject_transient(world, plan.transient_seed, plan.transient_scope)
        trace.append(TraceEvent(0, 0, "transient",
                                {"seed": plan.transient_seed, "scope": plan.transient_scope}))

    def faults(now: int) -> None:
        events: List[TraceEvent] = []
        for proc, at in sorted(plan.crash_at.items()):
            if at == now and proc not in world.crashed:
                world.crash(proc)
                events.append(TraceEvent(now, proc, "crash", None))
        for proc, at in sorted(plan.restart_at.items()):
            if at == now and proc in world.crashed:
                world.restart_undetectable(proc)
                events.append(TraceEvent(now, proc, "restart", None))
        for src, dst, at in plan.duplications:
            channel = world.channels[(src, dst)]
            if at == now and channel.queue:
                head = channel.queue[0]
                channel.send(head.message, head.injected)
                events.append(TraceEvent(now, 0, "duplicate", {"src": src, "dst": dst}))
        for src, dst, at in plan.reorders:
            channel = world.channels[(src, dst)]
            if at == now and len(channel.queue) >= 2:
                channel.queue[0], channel.queue[1] = channel.queue[1], channel.queue[0]
                events.append(TraceEvent(now, 0, "reorder", {"src": src, "dst": dst}))
        for event in events:
            trace.append(event)
        if events:
            for observer in observers:
                observer.on_step(world, events)

    observers = list(observers)
    for observer in observers:
        on_start = getattr(observer, "on_start", None)
        if on_start is not None:
            on_start(world)
    # Below "full" and unobserved, a step records only what its notes say
    # (nothing for the shared quiet notes) and counts its send or receive,
    # which the trace would count and drop; quiet steps count into locals.
    lean = trace.level != "full" and not observers
    quiet = QUIET_NOTES if lean else ()
    sends = receives = ignored = 0
    procs, links, counts, record = world.procs, world.links, trace.counts, trace.append
    pick_next = scheduler.next
    start = world.clock
    # The steps with a declared fault, in order; -1 once none is left.
    fault_steps = iter(sorted({at for at in plan.fault_steps() if at >= start}))
    next_fault = next(fault_steps, -1)
    try:
        for now in range(start, start + steps):
            world.clock = now
            if now == next_fault:
                faults(now)
                next_fault = next(fault_steps, -1)
            pick = pick_next(world)
            if pick is None:
                continue
            proc, action = pick
            state = procs[proc]
            kind = action.kind
            if kind == RECEIVE:
                sender = action.sender
                entry = links[sender][proc].receive()
                notes = state.on_message(entry.message, sender)
                if notes in quiet:
                    if notes.ignored is None:
                        receives += 1
                    else:
                        ignored += 1
                    continue
                comm = "receive" if notes.ignored is None else "ignored"
                injected = entry.injected
            else:
                if kind == BEGIN_BROADCAST:
                    dest, message, notes = state.do_forever_begin(action.increment)
                elif kind == CONTINUE_BROADCAST:
                    dest, message, notes = state.do_forever_continue()
                else:
                    raise ActionNotEnabled(f"unknown action {kind!r}")
                overwrote = links[proc][dest].send(message)
                if notes in quiet:
                    sends += 1
                    continue
                comm = "send"
                injected = False
            events = [] if notes in QUIET_NOTES else _note_events(now, proc, notes, injected)
            if lean:
                for event in events:
                    record(event)
                counts[comm] = counts.get(comm, 0) + 1
                continue
            if comm == "send":
                detail = {"to": dest, "max": message.sender_max, "pair": message.client.arriving,
                          "overwrote": overwrote, "first": kind == BEGIN_BROADCAST}
            elif comm == "receive":
                detail = {"from": sender, "merged": notes.merged, "injected": injected}
            else:
                detail = {"from": sender, "guard": notes.ignored, "injected": injected}
            events.append(TraceEvent(now, proc, comm, detail))
            for event in events:
                record(event)
            for observer in observers:
                observer.on_step(world, events)
    finally:
        for comm, tally in (("send", sends), ("receive", receives), ("ignored", ignored)):
            if tally:
                counts[comm] = counts.get(comm, 0) + tally
    world.clock = start + steps
    trace.steps = world.clock
    return trace


def _note_events(step: int, proc: int, notes: StepNotes,
                 injected: bool) -> List[TraceEvent]:
    """What a step's handler noted, as events in occurrence order.
    ``injected`` marks a receive of a message fault injection put in the
    channel."""
    events: List[TraceEvent] = []
    for _ in range(notes.increments):
        events.append(TraceEvent(step, proc, "increment", None))
    for label in notes.new_labels:
        events.append(TraceEvent(step, proc, "new_label", {"label": label}))
    for _ in range(notes.revives):
        events.append(TraceEvent(step, proc, "revive", None))
    for _ in range(notes.restarts):
        events.append(TraceEvent(step, proc, "restart_local",
                                 {"cause": notes.restart_cause, "injected": injected}))
    return events
