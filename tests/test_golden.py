"""Golden behaviour digests: runs are pure functions of (scenario, seed).

A refactor or speed-up of the step path must leave these digests fixed.
They were recorded from the program whose C4 recovery checks all pass.
If a digest changes on purpose, the change that moves it must say why.

- C4 seeds 1-3 (200k steps, faults-level trace): SHA-256 over the event
  lines, ``Trace.counts`` and every processor's final local pair.
- The three shipped scenarios: SHA-256 of the full trace file bytes, as
  ``stablevc run`` writes them.
- A grid over N in {2, 3, 5} and MAXINT in {2, 4, 64}, each cell run twice:
  random scheduler, transient scope "all", "full" trace; round-robin
  scheduler, scope "channels", "faults" trace with an ``InvariantMonitor``.
  The cells rotate through crash/undetectable-restart, duplicate and
  reorder plans, and every "channels" run duplicates an injected channel
  head at step 0.  SHA-256 over the rendered trace, ``Trace.counts``, every
  processor's whole pair vector and the monitor's tallies.
"""

import hashlib
import os

import pytest

from stablevc.cli import execute_scenario
from stablevc.labeling import SystemConfig
from stablevc.oracle import InvariantMonitor
from stablevc.scenario import load_scenario
from stablevc.simnet import FaultPlan, RandomScheduler, RoundRobinScheduler, World, run
from stablevc.trace import TRACE_VERSION, format_pair

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")

C4_DIGESTS = {
    1: "7a0c9a58237cb1ac16a8efa22dca1c3e7320864eec05829fbd3e6b054b809f42",
    2: "b7cbf52de258a882bf9bb1d2ed4ed83d7f422774672e3080ac3c3bf4bf210d2e",
    3: "fe10f0b47ead128bad441212923129b552b1802c3c875160f84b6d2df2a0c22f",
}

SCENARIO_DIGESTS = {
    "clean": "e1b90b30eb5ada605200401a42397e959bb53480c111abc11a82c34de975ff90",
    "transient": "e4a87565fde37691612c18c242bc62230c3c29c0fd92b5cef14ee0dec547f0cc",
    "wraparound": "4cec49f5ad9d35ba89752717973349cf2b06e6a0aaf0a756456d497e6af77093",
}

GRID_DIGESTS = {
    "n2-m2-random-all-full": "bdf7efdc0c39d8bdb6a53155cc9b674da41357eb71d6fc3a1b138b3053a80c05",
    "n2-m2-rr-channels-faults": "cfd3039ee37be34cc5431d2dbf359aa739dc5319506a04b69431039a4fba9f3b",
    "n2-m4-random-all-full": "2a2adef171fa42f3bac2567e720e247a334dede5301b556bb51c1d31a12c2abb",
    "n2-m4-rr-channels-faults": "05088bc31a5d466c972656e6182fb578451650144df8b53307d4990c3a60d699",
    "n2-m64-random-all-full": "aacf70e64654c30618c4b412f0b67fe8b12cc20355ffac4b792e7d606999c61e",
    "n2-m64-rr-channels-faults": "ff388edc29581aa617c31c5c305ac32542ecc31d47871880258dd59a8ff1adfd",
    "n3-m2-random-all-full": "64f9754e9489bba26276d4209962a62e785c7723f876cb524f50dec806d513f1",
    "n3-m2-rr-channels-faults": "4ffd4788baf9a9fd68d02474943147e996587acbfc0dddb6c101bbe358a283a6",
    "n3-m4-random-all-full": "c0a0a6b12b4a87314fe84bde17309510f79ff702f0b9179939155f0ee2deef7e",
    "n3-m4-rr-channels-faults": "f56fc9b5e03e3e97faa3ac42d5126745d140bd2078ca68d5254e989b7d285d39",
    "n3-m64-random-all-full": "92b572f2372d3a2efc9191be471a45d6bc6f444bf2e17da8fef10d70da6069fb",
    "n3-m64-rr-channels-faults": "f7c2daffac37a57e8f09dec9aa149aee57176170504aaa5728d366a956a72868",
    "n5-m2-random-all-full": "a4f4935f491b3cf23d185a121b439b2d167085303d5280d5e61f703a0381d175",
    "n5-m2-rr-channels-faults": "682dc1c264ae7204b3b4cdf29d24951750a327dec316968095989c7663ec9692",
    "n5-m4-random-all-full": "76f8b37829b5fbfc765011e452ba9efaeed519720262be90f7a615d25236c1f7",
    "n5-m4-rr-channels-faults": "1a9e53d84e6d0339534c5f3115d6c45d59f76dfe1051bb5c48091e68a8cc079f",
    "n5-m64-random-all-full": "63fe8d15f4993b579f1cff085d88f9b2e92c0aa86c48bedaad03139c3848e1c2",
    "n5-m64-rr-channels-faults": "e2bae3bc2c6b46f20d2512c64b60c9203c4da57f3d2965fefa2bbfff8f3cfbfc",
}


def _grid_cases():
    cases = []
    for cell, (n, maxint) in enumerate((n, m) for n in (2, 3, 5) for m in (2, 4, 64)):
        seed = 100 + cell
        steps = 3000 if n == 5 else 4000
        if cell % 3 == 0:
            faults = dict(crash_at={2: 150}, restart_at={2: 500})
        elif cell % 3 == 1:
            faults = dict(duplications=[(2, 1, 40), (1, 2, 333)])
        else:
            faults = dict(reorders=[(1, 2, 3), (2, 1, 260)], duplications=[(1, 2, 90)])
        rates = {0: 0.3, 1: 1.0} if cell % 2 else {0: 0.3, n: 0.0}
        cases.append((f"n{n}-m{maxint}-random-all-full", n, maxint, seed, "random",
                      "all", faults, "full", rates, steps))
        channel_faults = dict(faults)
        channel_faults["duplications"] = [(1, 2, 0)] + faults.get("duplications", [])
        cases.append((f"n{n}-m{maxint}-rr-channels-faults", n, maxint, seed, "round_robin",
                      "channels", channel_faults, "faults", rates, steps))
    return {case[0]: case[1:] for case in cases}


GRID = _grid_cases()


def grid_digest(name: str) -> str:
    n, maxint, seed, scheduler, scope, faults, level, rates, steps = GRID[name]
    config = SystemConfig(n=n, c=2, maxint=maxint)
    world = World.clean_start(config)
    sched = RandomScheduler(seed) if scheduler == "random" else RoundRobinScheduler()
    sched.configure_workload(seed, rates)
    plan = FaultPlan(transient_seed=seed, transient_scope=scope, **faults)
    monitor = InvariantMonitor()
    observers = [monitor] if level == "faults" else []
    trace = run(world, sched, steps, fault_plan=plan, observers=observers,
                trace_level=level)
    lines = [f"#{TRACE_VERSION}", f"#steps {trace.steps}"]
    lines += [event.render() for event in trace.events]
    lines += [f"{kind}={trace.counts[kind]}" for kind in sorted(trace.counts)]
    for i in config.proc_ids:
        lines += [format_pair(pair) for pair in world.procs[i].pairs[1:]]
    lines.append(f"monitor {monitor.checked} {[str(v) for v in monitor.violations]}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def c4_digest(seed: int) -> str:
    config = SystemConfig(n=4, c=2, maxint=64)
    world = World.clean_start(config)
    sched = RandomScheduler(seed)
    sched.configure_workload(seed, {0: 0.05})
    trace = run(world, sched, 200000, fault_plan=FaultPlan(transient_seed=seed),
                trace_level="faults")
    digest = hashlib.sha256()
    for event in trace.events:
        digest.update((event.render() + "\n").encode())
    for kind in sorted(trace.counts):
        digest.update(f"{kind}={trace.counts[kind]}\n".encode())
    for i in config.proc_ids:
        digest.update((format_pair(world.procs[i].local) + "\n").encode())
    return digest.hexdigest()


def scenario_digest(name: str, out_dir) -> str:
    scenario = load_scenario(os.path.join(SCENARIOS, name + ".scenario"))
    _world, trace, _summary, failures = execute_scenario(scenario)
    assert failures == []
    path = os.path.join(str(out_dir), name + ".trace")
    trace.write(path, scenario.to_text())
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("seed", sorted(C4_DIGESTS))
def test_c4_seed_digest(seed):
    assert c4_digest(seed) == C4_DIGESTS[seed]


@pytest.mark.parametrize("name", sorted(SCENARIO_DIGESTS))
def test_scenario_trace_digest(name, tmp_path):
    assert scenario_digest(name, tmp_path) == SCENARIO_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(GRID))
def test_grid_digest(name):
    assert grid_digest(name) == GRID_DIGESTS[name]
