"""Trace records, canonical rendering, and the line-delimited trace file format.

The file format is self-describing: a version header, the embedded scenario
(one ``#scenario:`` line per scenario line, enabling replay), then one event
per line as tab-separated ``step  proc  kind  detail`` with a deterministic
``key=value`` detail encoding.  Field names are part of the public contract
and documented in TRACE_SCHEMA.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from .errors import ScenarioError
from .labels import Label, format_label
from .vcpair import VectorClockPair

TRACE_VERSION = "stablevc-trace v1"

# Events always retained, whatever the trace level: these realize the
# protocol counters the oracle reasons about.
FAULT_KINDS = frozenset({
    "restart_local", "revive", "new_label", "crash", "restart", "transient",
    "duplicate", "reorder",
})


@dataclass(slots=True)
class TraceEvent:
    """One simulation event; ``detail`` is a small dict or None."""

    step: int
    proc: int
    kind: str
    detail: Optional[dict]

    def render(self, cache: Optional[dict] = None) -> str:
        """The event's trace line without its newline; ``cache`` as for
        ``_render_detail``."""
        return f"{self.step}\t{self.proc}\t{self.kind}\t{_render_detail(self.detail, cache)}"


def format_pair(pair) -> str:
    """Canonical pair form: ``⟨ℓ|m|o ∥ ℓ|m|o⟩`` with comma-separated vectors."""
    curr_m = ",".join(str(v) for v in pair.curr_m)
    mid = ",".join(str(v) for v in pair.mid)
    prev_o = ",".join(str(v) for v in pair.prev_o)
    return (f"⟨{format_label(pair.curr_label)}|{curr_m}|{mid} ∥ "
            f"{format_label(pair.prev_label)}|{mid}|{prev_o}⟩")


def _label_digest(label: Label) -> str:
    """Compact content-derived fingerprint used in high-volume event lines."""
    ml = label.ml
    if ml._lo is None:
        ml.find_extrema()
    mark = f"!{label.cl.sting}" if label.cl is not None else ""
    return f"{label.creator}.{ml.sting}.{ml._lo}-{ml._hi}{mark}"


def _render_object(value, cache: dict) -> str:
    """A label's or pair's digest (any other value's ``str``), rendered once
    per cache: the cache keeps the value, so no other object takes its id."""
    hit = cache.get(id(value))
    if hit is None:
        kind = type(value)
        if kind is Label:
            text = _label_digest(value)
        elif kind is VectorClockPair:  # digest labels plus the counted vector
            text = f"{_render_object(value.curr_label, cache)}[{','.join(map(str, value.curr_m))}]"
        else:
            text = str(value)
        hit = cache[id(value)] = (value, text)
    return hit[1]


def _render_detail(detail: Optional[dict], cache: Optional[dict] = None) -> str:
    """``key=value`` in key order.  ``cache``, shared by the lines of one
    rendering, holds each label's and pair's text by id and each tuple of
    detail keys' sorted order; labels and pairs never change once traced."""
    if not detail:
        return "-"
    if cache is None:
        cache = {}
    keys = tuple(detail)
    order = cache.get(keys)
    if order is None:
        order = cache[keys] = sorted(keys)
    parts = []
    for key in order:
        value = detail[key]
        kind = type(value)
        if kind is bool:
            parts.append(f"{key}={'t' if value else 'f'}")
        elif kind is int or kind is str:
            parts.append(f"{key}={value}")
        else:
            parts.append(f"{key}={_render_object(value, cache)}")
    return " ".join(parts)


class Trace:
    """An ordered record of events plus aggregate counters."""

    def __init__(self, level: str = "full"):
        self.level = level
        self.events: List[TraceEvent] = []
        self.steps = 0
        self.counts: Dict[str, int] = {}

    def append(self, event: TraceEvent) -> None:
        self.counts[event.kind] = self.counts.get(event.kind, 0) + 1
        if self.level == "full" or event.kind in FAULT_KINDS:
            self.events.append(event)

    def by_kind(self, kind: str) -> List[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def count(self, kind: str) -> int:
        return self.counts.get(kind, 0)

    # -- file I/O ------------------------------------------------------------

    def lines(self, scenario_text: str = "") -> Iterator[str]:
        """The trace file's lines, each ending in a newline."""
        yield f"#{TRACE_VERSION}\n"
        yield f"#steps {self.steps}\n"
        for line in scenario_text.splitlines():
            yield f"#scenario:{line}\n"
        cache: dict = {}
        for event in self.events:
            yield event.render(cache) + "\n"

    def write(self, path: str, scenario_text: str = "") -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(self.lines(scenario_text))


def read_text_file(path: str) -> str:
    """A UTF-8 file's exact text, line ends as written; ScenarioError
    ``cannot read: <reason>`` if it is unreadable or not UTF-8."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc  # an OSError's text repeats the path
        raise ScenarioError(f"cannot read: {reason}") from exc


def read_trace_file(path: str) -> Tuple[Trace, str]:
    """Read a trace file in the layout ``Trace.lines`` writes: (its events
    as a "full" Trace, the embedded scenario text, whose lines are the file's
    from line 3 on).  That layout is the version line, ``#steps``, the run
    of ``#scenario:`` lines, then events, every line with its line end, and
    a ``#steps`` or event line must render back to itself, so
    ``Trace.lines`` of the scenario text gives the file back byte for byte.

    Anything else raises ScenarioError, with the line at fault where there
    is one: an unreadable or non-UTF-8 file, a missing, stray or second
    header, a non-canonical numeral, unsorted or repeated detail keys, or an
    event step outside [0, steps) or below the one before it.
    """
    text = read_text_file(path)
    lines = text.split("\n")
    if lines.pop():
        raise ScenarioError("the last line has no line end", len(lines) + 1)
    if not lines or lines[0] != f"#{TRACE_VERSION}":
        raise ScenarioError("missing or unsupported trace header", 1)
    head = lines[1] if len(lines) > 1 else ""
    count = head[len("#steps "):]
    steps = int(count) if count.removeprefix("-").isdecimal() else 0
    if head != f"#steps {steps}":
        raise ScenarioError(f"malformed or missing #steps header: {head!r}", 2)
    if steps < 1:
        raise ScenarioError(f"#steps must be >= 1, got {steps}", 2)
    trace = Trace()
    trace.steps = steps
    scenario_lines: List[str] = []
    cache: dict = {}
    for lineno, line in enumerate(lines[2:], 3):
        payload = line[len("#scenario:"):]  # one line, as Trace.lines splits it
        if not trace.events and line.startswith("#scenario:") \
                and (payload + "\n").splitlines() == [payload]:
            scenario_lines.append(payload + "\n")
            continue
        try:
            step, proc, kind, detail = line.split("\t")
            event = TraceEvent(int(step), int(proc), kind, None if detail == "-" else dict(
                chunk.partition("=")[::2] for chunk in detail.split(" ")))
        except ValueError:
            event = None
        if event is None or event.render(cache) != line:
            raise ScenarioError(f"malformed trace line: {line!r}", lineno)
        if not 0 <= event.step < steps:
            raise ScenarioError(f"event step {event.step} is outside [0, #steps)", lineno)
        if trace.events and event.step < trace.events[-1].step:
            raise ScenarioError(f"event step {event.step} is below the step before it", lineno)
        trace.append(event)
    return trace, "".join(scenario_lines)
