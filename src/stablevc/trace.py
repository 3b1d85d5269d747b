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
    ``<path>: cannot read: <reason>`` if it is unreadable or not UTF-8."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc  # an OSError's text repeats the path
        raise ScenarioError(f"{path}: cannot read: {reason}") from exc


def canonical_int(text: str) -> int:
    """``int(text)`` if ``str`` writes the integer as ``text`` (no plus sign,
    leading zero, underscore or space); ValueError otherwise."""
    value = int(text)
    if str(value) != text:
        raise ValueError(f"not a canonical integer: {text!r}")
    return value


def read_trace_file(path: str) -> Tuple[str, str, Trace, List[int]]:
    """Read a trace file: (its exact text, the embedded scenario text, its
    events as a "full" Trace, the line number of each ``#scenario:`` line).
    The Trace's ``steps`` is the ``#steps`` header, or one past the last
    event's step when there is none.  The scenario text holds one line per
    ``#scenario:`` line, so ``Trace.lines`` of it gives the header back; the
    line numbers let the scenario parser name the trace's own line.

    Raises ScenarioError on an unreadable or non-UTF-8 file, a missing or
    mismatched version header, a bad or second ``#steps`` header, a malformed
    event line, or an event step outside [0, steps), naming ``<path>:<line>``.
    """
    text = read_text_file(path)
    lines = text.splitlines()
    if not lines or lines[0] != f"#{TRACE_VERSION}":
        raise ScenarioError(f"{path}: missing or unsupported trace header")
    scenario_lines: List[str] = []
    linenos: List[int] = []
    trace = Trace()
    steps: Optional[int] = None
    for lineno, line in enumerate(lines[1:], 2):
        if line.startswith("#scenario:"):
            scenario_lines.append(line[len("#scenario:"):] + "\n")
            linenos.append(lineno)
        elif line.startswith("#steps "):
            if steps is not None:
                raise ScenarioError(f"{path}:{lineno}: second #steps header")
            try:
                steps = canonical_int(line[len("#steps "):])
            except ValueError:
                raise ScenarioError(f"{path}:{lineno}: malformed header {line!r}") from None
            if steps < 1:
                raise ScenarioError(f"{path}:{lineno}: #steps must be >= 1, got {steps}")
            last = max((e.step for e in trace.events), default=-1)
            if last >= steps:
                raise ScenarioError(
                    f"{path}:{lineno}: #steps {steps} is not above event step {last}")
        elif not line.startswith("#"):
            try:
                step, proc, kind, detail = line.split("\t")
                at = canonical_int(step)
                parsed = None if detail == "-" else dict(
                    chunk.partition("=")[::2] for chunk in detail.split(" "))
                trace.append(TraceEvent(at, canonical_int(proc), kind, parsed))
            except ValueError:
                raise ScenarioError(f"{path}:{lineno}: malformed trace line: {line!r}") from None
            if at < 0 or steps is not None and at >= steps:
                raise ScenarioError(f"{path}:{lineno}: event step {at} is outside [0, #steps)")
    trace.steps = steps if steps is not None else (
        max((e.step for e in trace.events), default=0) + 1)
    return text, "".join(scenario_lines), trace, linenos
