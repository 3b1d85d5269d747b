"""The trace and scenario readers accept exactly what the writers write.

Every text ``load_trace`` accepts renders back to itself byte for byte
through ``Trace.lines`` of its scenario's ``to_text``; every other text
makes ``stats`` and ``replay`` exit 2 with one line naming the file.  A
scenario's text reads back to the same scenario, and a numeral its writer
would not write names its line.
"""

import contextlib
import functools
import io
import os
import re
import tempfile
from itertools import takewhile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablevc.cli import EXIT_CONFIG_ERROR, main
from stablevc.errors import ScenarioError
from stablevc.labeling import SystemConfig
from stablevc.scenario import (
    DEFAULT_CHECKS, OPT_IN_CHECKS, SHADOW_CHECKS, Scenario, load_trace, parse_scenario)
from stablevc.simnet import FaultPlan, run
from stablevc.trace import read_trace_file

BASES = {
    # Every event kind, labels with canceling components, injected messages.
    "full": """n = 3
c = 2
maxint = 8
steps = 160
seed = 5
scheduler = random
increment_rate = 0.5
checks = segments
[faults]
transient_seed = 5
transient_scope = channels
crash = 2@30
restart = 2@60
duplicate = 1>3@10, 3>1@70
reorder = 3>1@20
""",
    "faults": """n = 2
c = 1
maxint = 4
steps = 400
seed = 2
scheduler = round_robin
increment_rate = 1.0
increment_rate.2 = 0.25
checks = all
""",
}


@functools.lru_cache(maxsize=None)
def _base_lines(name):
    """A trace the simulator writes, as its lines with their line ends."""
    scenario = parse_scenario(BASES[name])
    trace = run(scenario.build_world(), scenario.build_scheduler(), scenario.steps,
                fault_plan=scenario.faults, trace_level=name)
    return tuple(trace.lines(scenario.to_text()))


def _numeral_variants(numeral):
    """Spellings of ``numeral`` that int() or float() reads but no writer writes."""
    return [f"+{numeral}", f"0{numeral}", f"{numeral}_0", f" {numeral}", f"{numeral} "]


# A #scenario: line duplicated, dropped, swapped or given spaces; or two
# plain-key lines swapped or a check name repeated, which still parse and
# fail only where load_trace compares the lines with what to_text writes.
SCENARIO_MUTATIONS = ("scenario_duplicate", "scenario_drop", "scenario_swap", "spaces",
                      "plain_swap", "repeat_check")


@st.composite
def mutated_traces(draw):
    lines = list(_base_lines(draw(st.sampled_from(sorted(BASES)))))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from([
            "duplicate", "drop", "swap", "numeral", "crlf", "bom", "tab", "hash",
            "detail", "no_end", *SCENARIO_MUTATIONS]))
        spots = [idx for idx, text in enumerate(lines) if text.startswith("#scenario:")]
        if kind in SCENARIO_MUTATIONS:
            if not spots:
                continue
            at = draw(st.sampled_from(spots))
            kind = {"scenario_duplicate": "duplicate", "scenario_drop": "drop"}.get(kind, kind)
        line = lines[at]
        if kind == "scenario_swap":
            other = draw(st.sampled_from(spots))
            lines[at], lines[other] = lines[other], line
        elif kind == "plain_swap":
            plain = list(takewhile(lambda idx: lines[idx] != "#scenario:[faults]\n", spots))
            if plain:
                first, second = draw(st.sampled_from(plain)), draw(st.sampled_from(plain))
                lines[first], lines[second] = lines[second], lines[first]
        elif kind == "repeat_check":
            checks = [idx for idx in spots if lines[idx].startswith("#scenario:checks = ")]
            if checks:
                head, _, names = lines[checks[0]].rstrip("\n").partition(" = ")
                names = names.split(",")
                pos = draw(st.integers(0, len(names) - 1))
                names.insert(pos, names[pos])
                lines[checks[0]] = f"{head} = {','.join(names)}\n"
        elif kind == "spaces":
            cut = draw(st.integers(len("#scenario:"), len(line) - 1))
            lines[at] = line[:cut] + " " * draw(st.integers(1, 2)) + line[cut:]
        elif kind == "duplicate":
            lines.insert(at, line)
        elif kind == "drop" and len(lines) > 1:
            del lines[at]
        elif kind == "swap":
            other = draw(st.integers(0, len(lines) - 1))
            lines[at], lines[other] = lines[other], line
        elif kind == "numeral":
            numerals = list(re.finditer(r"(?<![\w.])\d+(?![\w.])", line))
            if numerals:
                found = draw(st.sampled_from(numerals))
                variant = draw(st.sampled_from(_numeral_variants(found.group())))
                lines[at] = line[:found.start()] + variant + line[found.end():]
        elif kind == "crlf":
            if draw(st.booleans()):
                lines = [text.replace("\n", "\r\n") for text in lines]
            else:
                lines[at] = line.replace("\n", "\r\n")
        elif kind == "bom":
            lines[0] = "\ufeff" + lines[0]
        elif kind == "tab":
            cut = draw(st.integers(0, len(line) - 1))
            lines[at] = line[:cut] + "\t" + line[cut:]
        elif kind == "hash":
            lines.insert(at, draw(st.sampled_from(
                ["#\n", "#note\n", "# steps 5\n", "#steps 5\n", "#scenario:\n",
                 "#scenario:seed = 1\n", "\n"])))
        elif kind == "detail":
            head, sep, detail = line.rstrip("\n").rpartition("\t")
            chunks = detail.split(" ")
            if sep and not head.startswith("#") and len(chunks) > 1:
                if draw(st.booleans()):
                    chunks.reverse()
                else:
                    chunks.insert(draw(st.integers(0, len(chunks))),
                                  draw(st.sampled_from(chunks)))
                lines[at] = f"{head}\t{' '.join(chunks)}\n"
        elif kind == "no_end":
            lines[-1] = lines[-1].rstrip("\n")
    return "".join(lines)


def _cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=250, deadline=None)
@given(text=mutated_traces())
def test_a_trace_is_accepted_only_as_written(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mutated.trace")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        try:
            trace, scenario = load_trace(path)
        except ScenarioError:
            for command in ("stats", "replay"):
                code, out, err = _cli(command, path)
                assert code == EXIT_CONFIG_ERROR and out == ""
                assert len(err.splitlines()) == 1 and err.endswith("\n")
                assert re.match(rf"{re.escape(path)}(:\d+)?: error: ", err)
        else:
            assert "".join(trace.lines(scenario.to_text() if scenario else "")) == text


def test_the_written_traces_are_accepted(tmp_path):
    for name in BASES:
        path = tmp_path / f"{name}.trace"
        path.write_text("".join(_base_lines(name)), encoding="utf-8")
        trace, scenario_text = read_trace_file(str(path))
        assert "".join(trace.lines(scenario_text)) == path.read_text(encoding="utf-8")
        assert load_trace(str(path))[1].to_text() == scenario_text
        assert _cli("stats", str(path))[0] == 0
    assert _cli("replay", str(tmp_path / "full.trace"))[0] == 0  # replay writes "full"


# -- scenarios ------------------------------------------------------------------


@st.composite
def scenarios(draw):
    n = draw(st.integers(2, 6))
    c = draw(st.integers(1, 4))
    least_k = 2 * SystemConfig(n, c, 2).label_capacity  # SystemConfig's floor for k
    steps = draw(st.integers(1, 10**6))
    procs = st.integers(1, n)
    fault_step = st.integers(0, steps - 1)
    transient_seed = draw(st.none() | st.integers(-10**6, 10**6))
    names = list(DEFAULT_CHECKS + OPT_IN_CHECKS)
    if transient_seed is not None:
        names = [name for name in names if name not in SHADOW_CHECKS]
    crash_at = draw(st.dictionaries(procs, fault_step, max_size=n))
    restart_at = {}
    for proc, at in crash_at.items():
        if at < steps - 1 and draw(st.booleans()):
            restart_at[proc] = draw(st.integers(at + 1, steps - 1))
    link = st.tuples(procs, procs).filter(lambda pair: pair[0] != pair[1])
    channel_steps = st.lists(st.builds(lambda pair, at: (*pair, at), link, fault_step),
                             max_size=3)
    rate = st.floats(0.0, 1.0)
    return Scenario(
        n=n,
        c=c,
        maxint=draw(st.integers(2, 2**62)),
        steps=steps,
        seed=draw(st.integers(-10**9, 10**9)),
        scheduler=draw(st.sampled_from(["round_robin", "random"])),
        increment_rate=draw(rate),
        rate_overrides=draw(st.dictionaries(procs, rate, max_size=n)),
        k_override=draw(st.none() | st.integers(least_k, 10**4)),
        checks=tuple(draw(st.lists(st.sampled_from(names), unique=True))),
        faults=FaultPlan(
            transient_seed=transient_seed,
            transient_scope="all" if transient_seed is None
            else draw(st.sampled_from(["all", "channels"])),
            crash_at=crash_at,
            restart_at=restart_at,
            duplications=draw(channel_steps),
            reorders=draw(channel_steps),
        ),
    )


@settings(max_examples=300, deadline=None)
@given(scenario=scenarios())
def test_a_scenario_reads_back_from_its_text(scenario):
    assert parse_scenario(scenario.to_text()) == scenario


# A numeral in a key or value: not part of a name such as ``req1``.
NUMERAL = re.compile(r"(?<![A-Za-z_\d])\d[\d.e+-]*")


@settings(max_examples=300, deadline=None)
@given(scenario=scenarios(), data=st.data())
def test_a_numeral_no_writer_writes_names_its_line(scenario, data):
    lines = scenario.to_text().splitlines(keepends=True)
    spots = [(lineno, found) for lineno, line in enumerate(lines, 1)
             for found in NUMERAL.finditer(line)]
    lineno, found = data.draw(st.sampled_from(spots))
    # Not the spaced variants: spaces around a value are allowed.
    variant = data.draw(st.sampled_from(_numeral_variants(found.group())[:3]))
    line = lines[lineno - 1]
    lines[lineno - 1] = line[:found.start()] + variant + line[found.end():]
    with pytest.raises(ScenarioError) as raised:
        parse_scenario("".join(lines))
    assert raised.value.line == lineno
