"""Trace records, canonical rendering, and the line-delimited trace file format.

The file format is self-describing: a version header, the embedded scenario
(one ``#scenario:`` line per scenario line, enabling replay), then one event
per line as tab-separated ``step  proc  kind  detail`` with a deterministic
``key=value`` detail encoding.  Field names are part of the public contract
and documented in TRACE_SCHEMA.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .errors import ScenarioError
from .labels import Label, format_label

TRACE_VERSION = "stablevc-trace v1"

# Events always retained, whatever the trace level: these realize the
# protocol counters the oracle reasons about.
FAULT_KINDS = frozenset({
    "restart_local", "revive", "new_label", "crash", "restart", "transient",
    "duplicate", "reorder",
})


@dataclass
class TraceEvent:
    """One simulation event; ``detail`` is a small dict or None."""

    step: int
    proc: int
    kind: str
    detail: Optional[dict]

    def render(self) -> str:
        return f"{self.step}\t{self.proc}\t{self.kind}\t{_render_detail(self.detail)}"


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


def _render_value(value) -> str:
    if isinstance(value, Label):
        return _label_digest(value)
    if isinstance(value, bool):
        return "t" if value else "f"
    if hasattr(value, "curr_m"):  # a pair: digest labels plus the counted vector
        vcs = ",".join(str(v) for v in value.curr_m)
        return f"{_label_digest(value.curr_label)}[{vcs}]"
    return str(value)


def _render_detail(detail: Optional[dict]) -> str:
    if not detail:
        return "-"
    return " ".join(f"{key}={_render_value(detail[key])}" for key in sorted(detail))


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

    def write(self, path: str, scenario_text: str = "") -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"#{TRACE_VERSION}\n")
            fh.write(f"#steps {self.steps}\n")
            for line in scenario_text.splitlines():
                fh.write(f"#scenario:{line}\n")
            for event in self.events:
                fh.write(event.render() + "\n")


def read_text_file(path: str) -> str:
    """A UTF-8 file's text; ScenarioError ``<path>: cannot read: <reason>``
    if it is unreadable or not UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc  # an OSError's text repeats the path
        raise ScenarioError(f"{path}: cannot read: {reason}") from exc


def read_trace_file(path: str) -> Tuple[str, List[str], Optional[int]]:
    """Split a trace file into (embedded scenario text, event lines, the
    ``#steps`` header value or None when there is none).

    Raises ScenarioError on an unreadable or non-UTF-8 file, a missing or
    mismatched version header, or a malformed ``#steps`` header.
    """
    lines = read_text_file(path).splitlines()
    if not lines or lines[0] != f"#{TRACE_VERSION}":
        raise ScenarioError(f"{path}: missing or unsupported trace header")
    scenario_lines: List[str] = []
    events: List[str] = []
    steps: Optional[int] = None
    for line in lines[1:]:
        if line.startswith("#scenario:"):
            scenario_lines.append(line[len("#scenario:"):])
        elif line.startswith("#steps ") and steps is None:
            try:
                steps = int(line[len("#steps "):])
            except ValueError:
                raise ScenarioError(f"{path}: malformed header {line!r}") from None
        elif line.startswith("#"):
            continue
        else:
            events.append(line)
    return "\n".join(scenario_lines), events, steps


def parse_event_line(line: str) -> TraceEvent:
    parts = line.split("\t")
    if len(parts) != 4:
        raise ScenarioError(f"malformed trace line: {line!r}")
    step, proc, kind, detail = parts
    parsed: Optional[dict]
    if detail == "-":
        parsed = None
    else:
        parsed = {}
        for chunk in detail.split(" "):
            key, _, value = chunk.partition("=")
            parsed[key] = value
    return TraceEvent(int(step), int(proc), kind, parsed)
