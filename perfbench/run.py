"""stablevc benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload recovery --seed 1 --seconds 40 --trace 0

The benchmark imports the package from ``src/`` of the checkout it sits in,
runs units of the chosen workload in this one process for about
``--seconds`` seconds, checks every unit's outputs, and prints its metrics.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the per-layer
ones, read from timing shims installed around the layers' public functions.
End-to-end times are scaled to a reference host speed that is sampled
between units (``reference.py``), so the host's drift cancels out.
The full record, with provenance, per-unit results and spans, is written to
``perfbench/results/``.  Exit code 0: every check passed; 1: a check failed;
2: the checkout holds no ``src/stablevc`` to measure.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path
from types import SimpleNamespace
from statistics import median
from typing import Dict, List, Optional

import reference
from tracer import Tracer
from workloads import WORKLOADS, UnitResult

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

# Set-up is a few tens of milliseconds, so it is repeated and the median kept.
SETUP_REPS = 21
# Share of each unit's time spent sampling the host's speed after it.
REFERENCE_SHARE = 0.1
MODULES = ("labels", "labeling", "vcpair", "protocol", "trace", "simnet",
           "oracle", "scenario", "cli")
clock = time.perf_counter


# -- set-up ----------------------------------------------------------------------


def import_stablevc() -> SimpleNamespace:
    """Import the package afresh: drop every stablevc module, then import it."""
    for name in [m for m in sys.modules if m == "stablevc" or m.startswith("stablevc.")]:
        del sys.modules[name]
    mods = SimpleNamespace(stablevc=importlib.import_module("stablevc"))
    for name in MODULES:
        setattr(mods, name, importlib.import_module("stablevc." + name))
    return mods


def measure_setup(workload, seed: int):
    """Time import -> inputs ready for the first step, SETUP_REPS times.

    Returns the modules of the last repetition, which the units then use,
    and per-repetition samples of the whole set-up and of its parts.  One
    reference sample is taken before the first repetition and after each,
    so ``ref_s`` has one entry more than the other lists.
    """
    # Import from cached bytecode, as an installed package does, whatever
    # PYTHONDONTWRITEBYTECODE says; the first repetition writes the cache.
    sys.dont_write_bytecode = False
    sys.pycache_prefix = str(RESULTS / "pycache")
    samples: Dict[str, List[float]] = {"setup_s": [], "import_s": [], "parse_s": [],
                                       "world_s": [], "ref_s": [reference.sample(0)]}
    mods = None
    for _ in range(SETUP_REPS):
        gc.collect()
        start = clock()
        mods = import_stablevc()
        imported = clock()
        parse_s = workload.prepare(mods, seed)
        end = clock()
        samples["setup_s"].append(end - start)
        samples["import_s"].append(imported - start)
        samples["parse_s"].append(parse_s)
        samples["world_s"].append(end - imported - parse_s)
        samples["ref_s"].append(reference.sample(0))
    origin = Path(mods.stablevc.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"stablevc was imported from {origin}, not from {SRC}")
    return mods, samples


# -- provenance ---------------------------------------------------------------------


def git_commit() -> Optional[str]:
    """The checked-out commit, read from .git without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """SHA-256 over the package sources, which names the code measured in any checkout."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "stablevc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(workload: str, seed: int, seconds: float, trace: int) -> dict:
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


# -- the unit loop -----------------------------------------------------------------------


def unit_seed(seed: int, index: int) -> int:
    """Unit i of workload seed s; seed 0 gives the acceptance suite's seeds 1, 2, ..."""
    return seed * 1000 + 1 + index


def run_units(workload, mods, seed: int, seconds: float, tracer: Optional[Tracer]):
    """Run units until the next one would end after ``seconds``.

    Untraced: one unit per seed.  Traced: each seed runs untraced, then
    traced, so the pair gives the tracing overhead and a check that the
    shims left behaviour unchanged.  At least ``digest_units`` seeds run.
    The host's speed is sampled before the first unit and after each
    untraced one, for about REFERENCE_SHARE of the unit's time, so
    ``ref_s[i]`` and ``ref_s[i + 1]`` bracket untraced unit ``i``.
    """
    RESULTS.mkdir(parents=True, exist_ok=True)
    plain: List[UnitResult] = []
    traced: List[UnitResult] = []
    ref_s = [reference.sample(0.05)]
    started = clock()
    index = 0
    while True:
        elapsed = clock() - started
        if index >= workload.digest_units:
            per_seed = elapsed / index
            if elapsed + per_seed > seconds:
                break
        useed = unit_seed(seed, index)
        plain.append(workload.unit(mods, useed, str(RESULTS)))
        ref_s.append(reference.sample(REFERENCE_SHARE * plain[-1].wall_s))
        if tracer is not None:
            tracer.install(mods)
            tracer.begin_unit(useed)
            try:
                traced.append(workload.unit(mods, useed, str(RESULTS)))
            finally:
                tracer.end_unit()
                tracer.uninstall()
        index += 1
    return plain, traced, ref_s


# -- metrics ---------------------------------------------------------------------------------


def tail_percentile(values: List[float]) -> Optional[tuple]:
    """The highest of p99/p90 with at least ten samples above it, if any."""
    ordered = sorted(values)
    for pct in (99, 90):
        above = len(ordered) - int(len(ordered) * pct / 100)
        if above >= 10:
            return pct, ordered[len(ordered) - above]
    return None


def speed_factors(ref_s: List[float]) -> List[float]:
    """Per bracketed interval: REFERENCE_S over the mean of the samples around it."""
    return [reference.REFERENCE_S * 2 / (a + b) for a, b in zip(ref_s, ref_s[1:])]


def scaled_times(plain: List[UnitResult], ref_s: List[float]) -> List[float]:
    """Each unit's wall time at the reference host speed."""
    return [r.wall_s * f for r, f in zip(plain, speed_factors(ref_s))]


def end_to_end(plain: List[UnitResult], ref_s: List[float],
               setup: Dict[str, List[float]]) -> Dict[str, tuple]:
    """Times are scaled to the reference host speed (see reference.py); raw ones are noted."""
    factors = speed_factors(ref_s)
    setups = [t * f for t, f in zip(setup["setup_s"], speed_factors(setup["ref_s"]))]
    steps = sum(r.steps for r in plain)
    run_s = sum(r.run_s for r in plain)
    scaled_run_s = sum(r.run_s * f for r, f in zip(plain, factors))
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (median(setups), "s",
                    f"median of {len(setups)} set-ups; raw {median(setup['setup_s']):.6f} s"),
        "steps_per_s": (steps / scaled_run_s, "1/s",
                        f"{steps} steps in {scaled_run_s:.3f} s inside simnet.run; "
                        f"raw {steps / run_s:.1f} /s"),
        "unit_p50_s": (median(scaled_times(plain, ref_s)), "s",
                       f"median of {len(plain)} units; "
                       f"raw {median(r.wall_s for r in plain):.6f} s"),
        "peak_rss_mib": (rss_kib / 1024.0, "MiB", "ru_maxrss of this process"),
    }


# (metric, span name, unit scale, self time or inclusive time per call)
PER_CALL = [
    ("simnet.schedule_us", "simnet.schedule", 1e6, "self"),
    ("simnet.send_us", "simnet.send", 1e6, "self"),
    ("simnet.receive_us", "simnet.receive", 1e6, "self"),
    ("simnet.inject_ms", "simnet.inject_transient", 1e3, "total"),
    ("protocol.on_message_us", "protocol.on_message", 1e6, "self"),
    ("protocol.begin_us", "protocol.begin", 1e6, "self"),
    ("protocol.continue_us", "protocol.continue", 1e6, "self"),
    ("labeling.bookkeeping_msg_us", "labeling.bookkeeping_msg", 1e6, "self"),
    ("labeling.bookkeeping_us", "labeling.bookkeeping", 1e6, "self"),
    ("labeling.ensure_dominating_us", "labeling.ensure_dominating", 1e6, "self"),
    ("labeling.cancel_us", "labeling.cancel", 1e6, "self"),
    ("vcpair.merge_us", "vcpair.merge", 1e6, "self"),
    ("vcpair.legit_pairs_us", "vcpair.legit_pairs", 1e6, "self"),
    ("vcpair.guard_us", "vcpair.guard", 1e6, "self"),
    ("labels.successor_us", "labels.successor", 1e6, "self"),
    ("labels.next_b_us", "labels.next_b", 1e6, "self"),
    ("labels.component_new_us", "labels.component_new", 1e6, "self"),
    ("oracle.shadow_step_us", "oracle.shadow_step", 1e6, "self"),
    ("oracle.monitor_step_us", "oracle.monitor_step", 1e6, "self"),
    ("oracle.req1_s", "oracle.req1", 1.0, "total"),
    ("oracle.causal_s", "oracle.causal", 1.0, "total"),
    ("oracle.stats_s", "oracle.stats", 1.0, "total"),
    ("oracle.global_inv_s", "oracle.global_inv", 1.0, "total"),
    ("trace.write_s", "trace.write", 1.0, "total"),
]
UNITS = {1e6: "us", 1e3: "ms", 1.0: "s"}


def per_layer(tracer: Tracer, plain: List[UnitResult], traced: List[UnitResult],
              setup: Dict[str, List[float]]):
    """Per-layer metrics of the traced units, plus notes on unmeasured ones."""
    spans = tracer.by_name()
    counters = tracer.counters
    units = len(traced)
    notes: List[str] = []
    metrics: Dict[str, tuple] = {}

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    def per_unit(count: float) -> float:
        return count / units

    for metric, name, scale, column in PER_CALL:
        calls, total, own = spans.get(name, (0, 0.0, 0.0))
        value = (total if column == "total" else own) / calls * scale if calls else 0.0
        metrics[metric] = (value, UNITS[scale])
        if not calls:
            notes.append(f"{metric}: not exercised on this workload (no {name} calls)")

    _calls, _total, run_self = spans.get("simnet.run", (0, 0.0, 0.0))
    steps = sum(r.steps for r in traced)
    metrics["simnet.run_self_us"] = (ratio(run_self, steps) * 1e6, "us")
    sends = spans.get("simnet.send", (0,))[0]
    metrics["simnet.overwrite_ratio"] = (ratio(counters.get("overwrites", 0), sends), "ratio")
    inject_total = spans.get("simnet.inject_transient", (0, 0.0))[1]
    unit_p50 = median([r.wall_s for r in plain])
    metrics["simnet.inject_share"] = (ratio(inject_total / units, unit_p50), "ratio")

    receives = spans.get("protocol.on_message", (0,))[0]
    ignored = {key[len("ignored."):]: n for key, n in counters.items()
               if key.startswith("ignored.")}
    metrics["protocol.ignored_ratio"] = (ratio(sum(ignored.values()), receives), "ratio")
    for conjunct in ("equal_static", "legit_msg", "pair_invar"):
        metrics[f"protocol.ignored_{conjunct}"] = (per_unit(ignored.get(conjunct, 0)), "count")
    metrics["protocol.restarts"] = (per_unit(counters.get("restarts", 0)), "count")
    metrics["protocol.revives"] = (per_unit(counters.get("revives", 0)), "count")
    trace_restarts = sum(r.counts.get("restart_local", 0) for r in traced)
    trace_revives = sum(r.counts.get("revive", 0) for r in traced)
    if (trace_restarts, trace_revives) != (counters.get("restarts", 0),
                                           counters.get("revives", 0)):
        notes.append(f"protocol.restarts/revives from StepNotes disagree with "
                     f"Trace.counts ({trace_restarts}/{trace_revives})")

    mints = spans.get("labels.next_b", (0,))[0] + spans.get("labels.successor", (0,))[0]
    metrics["labeling.mints"] = (per_unit(mints), "count")
    merges = spans.get("vcpair.merge", (0,))[0]
    metrics["vcpair.merge_useful_ratio"] = (ratio(counters.get("useful_merges", 0), merges),
                                            "ratio")
    metrics["labels.component_new"] = (per_unit(spans.get("labels.component_new", (0,))[0]),
                                       "count")
    metrics["trace.bytes"] = (per_unit(sum(r.trace_bytes for r in traced)), "bytes")
    if not any(r.trace_bytes for r in traced):
        notes.append("trace.bytes: not exercised on this workload (no trace file written)")
    metrics["trace.events"] = (per_unit(sum(sum(r.counts.values()) for r in traced)), "count")

    overheads = [t.wall_s / p.wall_s for p, t in zip(plain, traced)]
    metrics["trace_overhead_ratio"] = (median(overheads), "ratio")
    metrics["setup.import_ms"] = (median(setup["import_s"]) * 1e3, "ms")
    metrics["setup.world_ms"] = (median(setup["world_s"]) * 1e3, "ms")
    metrics["scenario.parse_ms"] = (median(setup["parse_s"]) * 1e3, "ms")
    if not any(setup["parse_s"]):
        notes.append("scenario.parse_ms: not exercised on this workload (no scenario file)")
    return metrics, notes


# -- main --------------------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "stablevc" / "__init__.py").is_file():
        print(f"error: no stablevc package under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    sys.path.insert(0, str(SRC))
    try:
        mods, setup = measure_setup(workload, unit_seed(args.seed, 0))
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    tracer = Tracer() if args.trace else None
    plain, traced, ref_s = run_units(workload, mods, args.seed, args.seconds, tracer)

    for p, t in zip(plain, traced):
        if p.digest != t.digest:
            t.failures.append("traced behaviour differs from untraced")
    units = plain + traced
    attempted = len(units)
    failed = sum(1 for r in units if r.failures)
    failures = [f"unit {r.seed}: {msg}" for r in units for msg in r.failures]
    run_failures = workload.run_checks(plain)
    if run_failures:
        # A property of the run as a whole: no unit can be said to have passed it.
        failed = attempted
        failures += run_failures
    digest_seeds = [r.seed for r in plain[:workload.digest_units]]
    behaviour = hashlib.sha256("".join(r.digest for r in plain[:workload.digest_units])
                               .encode()).hexdigest()

    prov = provenance(args.workload, args.seed, args.seconds, args.trace)
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(f"{args.workload}: units={len(plain)} seeds={plain[0].seed}..{plain[-1].seed} "
          f"steps/unit={plain[0].steps}")
    print(f"behaviour digest {behaviour} over units {digest_seeds}")
    for failure in failures:
        print(f"FAILED {failure}")

    notes: List[str] = []
    if tracer is None:
        rows = end_to_end(plain, ref_s, setup)
        tail = tail_percentile(scaled_times(plain, ref_s))
        if tail:
            print(f"unit p{tail[0]}: {tail[1]:.6f} s (scaled) over {len(plain)} units")
    else:
        rows, notes = per_layer(tracer, plain, traced, setup)
    for name, row in rows.items():
        extra = f" ({row[2]})" if len(row) > 2 else ""
        print(f"metric {name} = {row[0]:.6g} {row[1]}{extra}")
    print(f"metric fail_ratio = {failed / attempted:.6g} ratio ({failed}/{attempted})")
    for note in notes:
        print(f"note {note}")

    metrics = {name: {"value": row[0], "unit": row[1]} for name, row in rows.items()}
    record = {
        "provenance": prov,
        "behaviour_digest": behaviour,
        "digest_seeds": digest_seeds,
        "failures": failures,
        "fail_ratio": failed / attempted,
        "metrics": metrics,
        "notes": notes,
        "setup_samples": setup,
        "reference_s": ref_s,
        "units": [vars(r) for r in plain],
        "traced_units": [vars(r) for r in traced],
    }
    if tracer is not None:
        record["span_tree"] = tracer.tree()
        record["spans"] = tracer.spans
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"record written to {out.relative_to(ROOT)}")

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
