"""Scenario parsing and CLI behavior: exit codes, replay, stats."""

import dataclasses
import os
from concurrent.futures import ThreadPoolExecutor

import pytest

import stablevc.cli
from stablevc.cli import EXIT_CHECK_FAILED, EXIT_CONFIG_ERROR, EXIT_OK, execute_scenario, main
from stablevc.errors import PreconditionViolated, ScenarioError
from stablevc.labels import Label
from stablevc.scenario import Scenario, load_scenario, parse_checks, parse_scenario
from stablevc.simnet import FaultPlan, run
from stablevc.trace import TRACE_VERSION, read_trace_file
from stablevc.vcpair import VectorClockPair

GOOD = """
n = 3
c = 1
maxint = 16
steps = 300
seed = 4
scheduler = round_robin
increment_rate = 0.5
checks = all
"""

FAULTY = """
n = 3
c = 1
maxint = 16
steps = 400
seed = 4
scheduler = random
increment_rate = 0.1
checks = segments,global_inv
[faults]
transient_seed = 5
transient_scope = channels
crash = 2@100
restart = 2@150
duplicate = 1>3@40
reorder = 3>1@60
"""

# "#steps 10" and the scenario lines ``stablevc run`` writes for a 10-step
# run: trace lines 2 to 10, "#scenario:seed = 9" on line 7.
EMBEDDED = "#steps 10\n" + "".join(
    f"#scenario:{line}\n"
    for line in Scenario(n=3, c=1, maxint=16, steps=10, seed=9).to_text().splitlines())
SEED = "#scenario:seed = 9\n"


class TestParsing:
    def test_round_trip(self):
        scenario = parse_scenario(FAULTY)
        again = parse_scenario(scenario.to_text())
        assert again == scenario

    def test_defaults(self):
        scenario = parse_scenario(GOOD)
        assert scenario.scheduler == "round_robin"
        assert scenario.faults == FaultPlan()
        assert scenario.checks == ("req1", "causal", "segments", "global_inv", "local_inv")

    def test_missing_key(self):
        with pytest.raises(ScenarioError):
            parse_scenario("n = 3\nc = 1\nmaxint = 16\n")

    def test_bad_value(self):
        with pytest.raises(ScenarioError):
            parse_scenario(GOOD.replace("maxint = 16", "maxint = lots"))

    def test_bad_proc_id(self):
        with pytest.raises(ScenarioError):
            parse_scenario(FAULTY.replace("crash = 2@100", "crash = 9@100"))

    def test_bad_scheduler(self):
        with pytest.raises(ScenarioError):
            parse_scenario(GOOD.replace("round_robin", "psychic"))

    def test_unknown_check(self):
        with pytest.raises(ScenarioError):
            parse_scenario(GOOD.replace("checks = all", "checks = vibes"))

    def test_k_override_too_small(self):
        with pytest.raises(ScenarioError, match="k override 10 below"):
            parse_scenario(GOOD + "k = 10\n")

    def test_rate_override(self):
        scenario = parse_scenario(GOOD + "increment_rate.2 = 0.9\n")
        assert scenario.rate_overrides == {2: 0.9}
        assert "increment_rate.2" in scenario.to_text()

    def test_rate_outside_unit_interval(self):
        with pytest.raises(ScenarioError):
            parse_scenario(GOOD.replace("increment_rate = 0.5", "increment_rate = 7.5"))
        with pytest.raises(ScenarioError):
            parse_scenario(GOOD + "increment_rate.2 = -0.1\n")

    def test_rate_override_bad_proc_id(self):
        with pytest.raises(ScenarioError):
            parse_scenario(GOOD + "increment_rate.9 = 0.5\n")

    def test_restart_without_crash(self):
        with pytest.raises(ScenarioError):
            parse_scenario(FAULTY.replace("crash = 2@100", "crash = 1@100"))
        with pytest.raises(PreconditionViolated):
            FaultPlan(restart_at={2: 5})

    def test_unknown_key(self):
        # A misspelt key used to be dropped: rate 0.0, no crash, exit 0.
        with pytest.raises(ScenarioError, match="unknown key 'increment_rte'"):
            parse_scenario(GOOD + "increment_rte = 0.9\n")
        with pytest.raises(ScenarioError, match="unknown key 'crashes'"):
            parse_scenario(GOOD + "[faults]\ncrashes = 2@50\n")
        with pytest.raises(ScenarioError, match="unknown key 'crash'"):
            parse_scenario(GOOD.replace("seed = 4", "crash = 2@50"))

    def test_key_given_twice(self):
        with pytest.raises(ScenarioError, match="'increment_rate' given twice"):
            parse_scenario(GOOD + "increment_rate = 0.1\n")
        with pytest.raises(ScenarioError, match="'crash' given twice"):
            parse_scenario(FAULTY + "crash = 3@200\n")

    def test_processor_named_twice(self):
        with pytest.raises(ScenarioError, match="processor 2 named twice"):
            parse_scenario(FAULTY.replace("crash = 2@100", "crash = 2@10, 2@100"))
        with pytest.raises(ScenarioError, match="processor 2 named twice"):
            parse_scenario(FAULTY.replace("restart = 2@150", "restart = 2@150, 2@300"))

    def test_rate_override_processor_spelled_twice(self):
        # Both keys named processor 2, and the later value used to win
        # silently; a processor has one spelling now, the canonical one.
        with pytest.raises(ScenarioError, match="increment_rate.02: not a canonical integer"):
            parse_scenario(GOOD + "increment_rate.2 = 0.9\nincrement_rate.02 = 0.1\n")
        with pytest.raises(ScenarioError, match="'increment_rate.2' given twice"):
            parse_scenario(GOOD + "increment_rate.2 = 0.9\nincrement_rate.2 = 0.1\n")

    def test_transient_scope_needs_a_seed(self):
        # A scope without a seed was accepted, and to_text dropped it.
        with pytest.raises(ScenarioError, match="transient_scope needs a transient_seed"):
            parse_scenario(FAULTY.replace("transient_seed = 5\n", ""))

    def test_converged_is_opt_in(self):
        assert "converged" not in parse_scenario(GOOD).checks
        scenario = parse_scenario(GOOD.replace("checks = all", "checks = segments,converged"))
        assert scenario.checks == ("segments", "converged")
        assert parse_scenario(scenario.to_text()).checks == scenario.checks

    def test_all_combines_with_other_checks(self):
        everything = ("req1", "causal", "segments", "global_inv", "local_inv")
        for value, checks in (("all,converged", everything + ("converged",)),
                              ("converged, all", ("converged",) + everything),
                              ("segments,all,req1,segments", ("segments", "req1", "causal",
                                                              "global_inv", "local_inv")),
                              ("all,all", everything)):
            scenario = parse_scenario(GOOD.replace("checks = all", f"checks = {value}"))
            assert scenario.checks == checks
            assert parse_scenario(scenario.to_text()).checks == checks
        with pytest.raises(ScenarioError, match=r"unknown checks \['nope'\]"):
            parse_scenario(GOOD.replace("checks = all", "checks = all,nope"))

    def test_transient_all_leaves_out_shadow_and_local_checks(self):
        for value, checks in (("all", ("segments", "global_inv")),
                              ("all,converged", ("segments", "global_inv", "converged")),
                              ("local_inv,all", ("local_inv", "segments", "global_inv"))):
            scenario = parse_scenario(FAULTY.replace("checks = segments,global_inv",
                                                     f"checks = {value}"))
            assert scenario.checks == checks
            assert parse_scenario(scenario.to_text()).checks == checks
        no_key = FAULTY.replace("checks = segments,global_inv\n", "")
        assert parse_scenario(no_key).checks == ("segments", "global_inv")

    def test_transient_run_rejects_shadow_checks(self):
        for value in ("req1", "causal", "segments,req1,causal"):
            with pytest.raises(ScenarioError, match="need a fault-free start"):
                parse_scenario(FAULTY.replace("checks = segments,global_inv",
                                              f"checks = {value}"))
        # The dataclass default names req1 and causal too.
        with pytest.raises(ScenarioError, match="need a fault-free start"):
            Scenario(n=3, c=1, maxint=16, steps=10, faults=FaultPlan(transient_seed=1))


class TestCli:
    def _write(self, tmp_path, text, name="case.scenario"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_run_clean_exit_zero(self, tmp_path):
        path = self._write(tmp_path, GOOD)
        assert main(["run", path, "--out", str(tmp_path)]) == EXIT_OK
        assert (tmp_path / "case.trace").exists()
        assert (tmp_path / "case.stats").read_text().startswith("stats ")

    def test_run_malformed_exit_two(self, tmp_path, capsys):
        path = self._write(tmp_path, "nonsense without equals\n")
        assert main(["run", path, "--out", str(tmp_path)]) == EXIT_CONFIG_ERROR
        utf16 = tmp_path / "utf16.scenario"
        utf16.write_bytes(b"\xff\xfe" + GOOD.encode("utf-16-le"))
        capsys.readouterr()
        assert main(["run", str(utf16), "--out", str(tmp_path)]) == EXIT_CONFIG_ERROR
        assert len(capsys.readouterr().err.splitlines()) == 1
        for bad in ("increment_rate = 7.5", "increment_rate.9 = 0.5"):
            path = self._write(tmp_path, GOOD + bad + "\n")
            assert main(["run", path, "--out", str(tmp_path)]) == EXIT_CONFIG_ERROR
        path = self._write(tmp_path, GOOD + "[faults]\nrestart = 2@5\n")
        assert main(["run", path, "--out", str(tmp_path)]) == EXIT_CONFIG_ERROR
        # An unknown key, a key given twice, a processor crashed twice, one
        # processor's rate under two spellings.
        for bad in ("increment_rte = 0.9\n", "increment_rate = 0.1\n",
                    "[faults]\ncrash = 2@10, 2@100\n",
                    "increment_rate.2 = 0.9\nincrement_rate.02 = 0.1\n"):
            path = self._write(tmp_path, GOOD + bad)
            capsys.readouterr()
            assert main(["run", path, "--out", str(tmp_path)]) == EXIT_CONFIG_ERROR
            assert len(capsys.readouterr().err.splitlines()) == 1

    def test_error_line_names_the_file_once(self, tmp_path, capsys):
        path = self._write(tmp_path, GOOD + "increment_rte = 0.9\n")
        lineno = len(GOOD.splitlines()) + 1
        capsys.readouterr()
        assert main(["run", path, "--out", str(tmp_path)]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == f"{path}:{lineno}: error: unknown key 'increment_rte'\n"
        path = self._write(tmp_path, GOOD.replace("n = 3\n", ""))
        assert main(["run", path, "--out", str(tmp_path)]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == f"{path}: error: missing required key 'n'\n"
        # An error that carries no path gets one.
        path = self._write(tmp_path, GOOD)
        assert main(["run", path, "--out", str(tmp_path), "--steps", "0"]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == f"{path}: error: steps must be >= 1\n"
        missing = str(tmp_path / "nope.scenario")
        assert main(["run", missing, "--out", str(tmp_path)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"{missing}: error: cannot read: ") and err.count(missing) == 1

    def test_run_missing_file_exit_two(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.scenario"),
                     "--out", str(tmp_path)]) == EXIT_CONFIG_ERROR

    def test_transient_run_exit_zero_with_restarts(self, tmp_path):
        path = self._write(tmp_path, FAULTY)
        assert main(["run", path, "--out", str(tmp_path)]) == EXIT_OK

    def test_replay_byte_identical(self, tmp_path):
        path = self._write(tmp_path, FAULTY)
        main(["run", path, "--out", str(tmp_path)])
        assert main(["replay", str(tmp_path / "case.trace")]) == EXIT_OK

    def test_replay_detects_tampering(self, tmp_path, capsys):
        path = self._write(tmp_path, GOOD)
        main(["run", path, "--out", str(tmp_path)])
        trace_path = tmp_path / "case.trace"
        lines = trace_path.read_text().splitlines()
        step, proc, kind, _detail = lines[-1].split("\t")
        # A well-formed line the run did not write diverges ...
        lines[-1] = f"{step}\t{proc}\t{kind}\ttampered=t"
        trace_path.write_text("\n".join(lines) + "\n")
        assert main(["replay", str(trace_path)]) == EXIT_CHECK_FAILED
        # ... and one the simulator never writes (a detail chunk without
        # "="), which replay used to report as diverging, is malformed.
        lines[-1] += " tampered"
        trace_path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["replay", str(trace_path)]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == \
            f"{trace_path}:{len(lines)}: error: malformed trace line: {lines[-1]!r}\n"

    def test_replay_version_mismatch_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.trace"
        bad.write_text("#stablevc-trace v9\n0\t1\tsend\t-\n")
        assert main(["replay", str(bad)]) == EXIT_CONFIG_ERROR
        capsys.readouterr()
        assert main(["replay", str(tmp_path / "missing.trace")]) == EXIT_CONFIG_ERROR
        assert len(capsys.readouterr().err.splitlines()) == 1
        utf16 = tmp_path / "utf16.trace"
        utf16.write_bytes(b"\xff\xfe" + "#stablevc-trace v1\n".encode("utf-16-le"))
        assert main(["replay", str(utf16)]) == EXIT_CONFIG_ERROR
        assert len(capsys.readouterr().err.splitlines()) == 1

    def test_unreadable_trace_names_its_path_once(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.trace")
        for command in ("replay", "stats"):
            capsys.readouterr()
            assert main([command, missing]) == EXIT_CONFIG_ERROR
            err = capsys.readouterr().err
            assert err == f"{missing}: error: cannot read: No such file or directory\n"

    @pytest.mark.parametrize("body, message", [
        ("#steps -5\n", "2: error: #steps must be >= 1, got -5"),
        ("#steps 0\n0\t1\tsend\t-\n", "2: error: #steps must be >= 1, got 0"),
        ("#steps 10\n3\t1\tsend\t-\n50\t1\trestart_local\t-\n",
         "4: error: event step 50 is outside [0, #steps)"),
        ("#steps 10\n10\t1\tsend\t-\n", "3: error: event step 10 is outside [0, #steps)"),
        ("#steps 10\n5\t1\tsend\t-\n3\t1\tsend\t-\n",
         "4: error: event step 3 is below the step before it"),
        ("-1\t1\tsend\t-\n", "2: error: malformed or missing #steps header: '-1\\t1\\tsend\\t-'"),
        ("3\t1\tsend\t-\n50\t1\tsend\t-\n#steps 10\n",
         "2: error: malformed or missing #steps header: '3\\t1\\tsend\\t-'"),
        # Non-canonical numerals and a second header, once read through int()
        # or skipped as a comment; a header is now a line out of the layout.
        ("#steps 10\n0\t1\tsend\t-\n#steps 5\n", "4: error: malformed trace line: '#steps 5'"),
        ("#steps 10\n#steps 10\n", "3: error: malformed trace line: '#steps 10'"),
        ("#steps 1_0\n", "2: error: malformed or missing #steps header: '#steps 1_0'"),
        ("#steps +10\n", "2: error: malformed or missing #steps header: '#steps +10'"),
        ("#steps 010\n", "2: error: malformed or missing #steps header: '#steps 010'"),
        ("#steps  10\n", "2: error: malformed or missing #steps header: '#steps  10'"),
        ("#steps 10\n+3\t1\tsend\t-\n", "3: error: malformed trace line: '+3\\t1\\tsend\\t-'"),
        ("#steps 10\n3\t 1\tsend\t-\n", "3: error: malformed trace line: '3\\t 1\\tsend\\t-'"),
        ("#steps 10\n3\t01\tsend\t-\n", "3: error: malformed trace line: '3\\t01\\tsend\\t-'"),
        ("0_3\t1\tsend\t-\n",
         "2: error: malformed or missing #steps header: '0_3\\t1\\tsend\\t-'"),
        # Lines out of the layout Trace.lines writes: stats read each of these
        # with exit 0, and replay reported them as diverging.
        ("#steps 10\n#note\n0\t1\tsend\t-\n", "3: error: malformed trace line: '#note'"),
        ("#steps 10\n0\t1\tsend\t-\n#note\n", "4: error: malformed trace line: '#note'"),
        ("0\t1\tsend\t-\n",
         "2: error: malformed or missing #steps header: '0\\t1\\tsend\\t-'"),
        ("0\t1\tsend\t-\n#steps 10\n",
         "2: error: malformed or missing #steps header: '0\\t1\\tsend\\t-'"),
        ("#steps 10\n0\t1\tsend\t-\n#scenario:n = 3\n",
         "4: error: malformed trace line: '#scenario:n = 3'"),
        # Detail keys out of order, repeated, or without "=".
        ("#steps 10\n0\t1\tsend\tto=2 first=t\n",
         "3: error: malformed trace line: '0\\t1\\tsend\\tto=2 first=t'"),
        ("#steps 10\n0\t1\tsend\tto=2 to=2\n",
         "3: error: malformed trace line: '0\\t1\\tsend\\tto=2 to=2'"),
        ("#steps 10\n0\t1\tsend\tfirst\n",
         "3: error: malformed trace line: '0\\t1\\tsend\\tfirst'"),
        # Line ends the writer never writes.
        ("#steps 10\n0\t1\tsend\t-", "3: error: the last line has no line end"),
        ("#steps 10\n0\t1\tsend\t-\r\n",
         "3: error: malformed trace line: '0\\t1\\tsend\\t-\\r'"),
        # Embedded scenario lines other than those Scenario.to_text writes:
        # stats read each of these with exit 0, and replay exited 2 or 1.
        (EMBEDDED.replace(SEED, SEED * 2), "8: error: key 'seed' given twice"),
        (EMBEDDED.replace(SEED, "#scenario:seed =  9\n"),
         "7: error: embedded scenario not as Scenario.to_text writes it: "
         "trace 'seed =  9', to_text 'seed = 9'"),
        (EMBEDDED.replace(SEED, SEED + "#scenario:# note\n"),
         "8: error: embedded scenario not as Scenario.to_text writes it: "
         "trace '# note', to_text 'scheduler = round_robin'"),
        (EMBEDDED.replace(SEED, SEED + "#scenario:\n"),
         "8: error: embedded scenario not as Scenario.to_text writes it: "
         "trace '', to_text 'scheduler = round_robin'"),
        (EMBEDDED.rpartition("#scenario:")[0],
         "10: error: embedded scenario not as Scenario.to_text writes it: "
         "trace None, to_text 'checks = req1,causal,segments,global_inv,local_inv'"),
        # A #steps other than the embedded steps, and a sizing SystemConfig
        # rejects: stats read each with exit 0, and replay exited 1 or 2.
        (EMBEDDED.replace("#steps 10\n", "#steps 5\n"),
         "2: error: #steps 5 is not the embedded scenario's steps 10"),
        # Scenario errors of no line of their own name line 3, where the
        # embedded scenario starts (they named no line before).
        (EMBEDDED.replace("#scenario:maxint = 16\n", "#scenario:maxint = 1\n"),
         "3: error: MAXINT must be in [2, 2^62], got 1"),
        (EMBEDDED.replace("#scenario:n = 3\n", ""), "3: error: missing required key 'n'"),
    ])
    def test_bad_steps_exit_two_naming_the_line(self, tmp_path, capsys, body, message):
        bad = tmp_path / "bad.trace"
        bad.write_text(f"#{TRACE_VERSION}\n{body}")
        for command in ("stats", "replay"):
            capsys.readouterr()
            assert main([command, str(bad)]) == EXIT_CONFIG_ERROR
            assert capsys.readouterr() == ("", f"{bad}:{message}\n")

    @pytest.mark.parametrize("old, new, message", [
        ("steps = 400", "steps = 1_000", "5: error: steps: not a canonical integer: '1_000'"),
        ("seed = 4", "seed = +7", "6: error: seed: not a canonical integer: '+7'"),
        ("n = 3", "n = 03", "2: error: n: not a canonical integer: '03'"),
        ("maxint = 16", "maxint = 1 6", "4: error: maxint: invalid literal for int() "
                                        "with base 10: '1 6'"),
        ("transient_seed = 5", "transient_seed = -0",
         "11: error: transient_seed: not a canonical integer: '-0'"),
        ("crash = 2@100", "crash = 2@+100", "13: error: crash: not a canonical integer: '+100'"),
        ("duplicate = 1>3@40", "duplicate = 01>3@40",
         "15: error: duplicate: not a canonical integer: '01'"),
        ("reorder = 3>1@60", "reorder = 3>1@6_0",
         "16: error: reorder: not a canonical integer: '6_0'"),
        ("increment_rate = 0.1", "increment_rate = x",
         "8: error: increment_rate: could not convert string to float: 'x'"),
        # Rates and the <p> of increment_rate.<p>, once read through float()
        # and int().
        ("increment_rate = 0.1", "increment_rate = 0_0.5",
         "8: error: increment_rate: not a canonical float: '0_0.5'"),
        ("increment_rate = 0.1", "increment_rate = 1e-1",
         "8: error: increment_rate: not a canonical float: '1e-1'"),
        ("increment_rate = 0.1", "increment_rate = 1",
         "8: error: increment_rate: not a canonical float: '1'"),
        ("increment_rate = 0.1", "increment_rate = 0.1\nincrement_rate.+2 = 0.5",
         "9: error: increment_rate.+2: not a canonical integer: '+2'"),
        ("increment_rate = 0.1", "increment_rate = 0.1\nincrement_rate.02 = 0.5",
         "9: error: increment_rate.02: not a canonical integer: '02'"),
        ("increment_rate = 0.1", "increment_rate = 0.1\nincrement_rate.2 = .5",
         "9: error: increment_rate.2: not a canonical float: '.5'"),
    ])
    def test_run_rejects_non_canonical_numerals(self, tmp_path, capsys, old, new, message):
        assert old in FAULTY
        path = self._write(tmp_path, FAULTY.replace(old, new))
        capsys.readouterr()
        assert main(["run", path, "--out", str(tmp_path)]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr() == ("", f"{path}:{message}\n")
        assert not (tmp_path / "case.trace").exists()

    @pytest.mark.parametrize("flag, value", [("--steps", "1_00"), ("--seed", "+3"),
                                             ("--steps", "0100"), ("--seed", " 3"),
                                             ("--jobs", "+2")])
    def test_run_rejects_non_canonical_flags(self, tmp_path, capsys, flag, value):
        # Each flag was read through int(): 100 steps with seed 3, exit 0.
        path = self._write(tmp_path, GOOD)
        capsys.readouterr()
        with pytest.raises(SystemExit) as exited:
            main(["run", path, "--out", str(tmp_path), flag, value])
        assert exited.value.code == EXIT_CONFIG_ERROR
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: stablevc run ")
        assert err.splitlines()[-1] == \
            f"stablevc run: error: argument {flag}: invalid canonical_int value: {value!r}"
        assert not (tmp_path / "case.trace").exists()

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_run_rejects_jobs_below_one(self, tmp_path, capsys, value):
        # Both ran sequentially with exit 0.
        path = self._write(tmp_path, GOOD)
        capsys.readouterr()
        with pytest.raises(SystemExit) as exited:
            main(["run", path, "--out", str(tmp_path), "--jobs", value])
        assert exited.value.code == EXIT_CONFIG_ERROR
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: stablevc run ")
        assert err.splitlines()[-1] == \
            f"stablevc run: error: argument --jobs: must be >= 1, got {value}"
        assert not (tmp_path / "case.trace").exists()

    def test_replay_rejects_a_non_canonical_scenario_numeral(self, tmp_path, capsys):
        path = self._write(tmp_path, GOOD)
        main(["run", path, "--out", str(tmp_path)])
        lines = (tmp_path / "case.trace").read_text().splitlines(keepends=True)
        assert lines[5] == "#scenario:steps = 300\n"
        lines[5] = "#scenario:steps = +300\n"
        bad = tmp_path / "bad.trace"
        bad.write_text("".join(lines))
        capsys.readouterr()
        assert main(["replay", str(bad)]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == \
            f"{bad}:6: error: steps: not a canonical integer: '+300'\n"

    def test_steps_bounds_admit_every_event_step_below_them(self, tmp_path, capsys):
        good = tmp_path / "good.trace"
        good.write_text(f"#{TRACE_VERSION}\n#steps 10\n0\t1\tsend\t-\n9\t1\trestart_local\t-\n")
        assert main(["stats", str(good)]) == EXIT_OK
        assert capsys.readouterr().out.startswith("stats steps=10 ")

    def test_replay_names_the_first_differing_line(self, tmp_path, capsys):
        path = self._write(tmp_path, GOOD)
        main(["run", path, "--out", str(tmp_path)])
        text = (tmp_path / "case.trace").read_text()
        lines = text.splitlines(keepends=True)
        edited = tmp_path / "edited.trace"
        idx = next(i for i in range(40, len(lines)) if "\tsend\t" in lines[i])
        lines[idx] = lines[idx].replace("\tsend\t", "\tsent\t")
        edited.write_text("".join(lines))
        capsys.readouterr()
        assert main(["replay", str(edited)]) == EXIT_CHECK_FAILED
        err = capsys.readouterr().err
        assert err.startswith(f"{edited}:{idx + 1}: replay diverges: trace ")
        assert len(err.splitlines()) == 1
        # A copy with CRLF line ends, which diverged at line 1, is no trace.
        crlf = tmp_path / "crlf.trace"
        crlf.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
        assert main(["replay", str(crlf)]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == \
            f"{crlf}:1: error: missing or unsupported trace header\n"

    def test_replay_names_the_trace_line_of_a_scenario_error(self, tmp_path, capsys):
        # The embedded scenario starts on the trace's third line; an error
        # in it was named by its line inside the scenario text.
        path = self._write(tmp_path, GOOD)
        main(["run", path, "--out", str(tmp_path)])
        lines = (tmp_path / "case.trace").read_text().splitlines(keepends=True)
        assert lines[2].startswith("#scenario:") and lines[6].startswith("#scenario:")
        lines[6] = "#scenario:bogus = 1\n"
        bad = tmp_path / "bad.trace"
        bad.write_text("".join(lines))
        capsys.readouterr()
        assert main(["replay", str(bad)]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == f"{bad}:7: error: unknown key 'bogus'\n"

    def test_replay_writes_no_copy_beside_the_trace(self, tmp_path, capsys):
        # Replay wrote <trace>.replay and read it back; a directory there
        # gave a traceback.
        path = self._write(tmp_path, GOOD)
        main(["run", path, "--out", str(tmp_path)])
        (tmp_path / "case.trace.replay").mkdir()
        assert main(["replay", str(tmp_path / "case.trace")]) == EXIT_OK
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "case.scenario", "case.stats", "case.trace", "case.trace.replay"]

    def test_stats_command(self, tmp_path, capsys):
        path = self._write(tmp_path, GOOD)
        main(["run", path, "--out", str(tmp_path)])
        capsys.readouterr()
        assert main(["stats", str(tmp_path / "case.trace")]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("stats steps=300 ")

    def test_stats_parse_failure_exit_two(self, tmp_path, capsys):
        junk = tmp_path / "junk.trace"
        junk.write_text("not a trace\n")
        assert main(["stats", str(junk)]) == EXIT_CONFIG_ERROR
        capsys.readouterr()
        assert main(["stats", str(tmp_path / "missing.trace")]) == EXIT_CONFIG_ERROR
        assert len(capsys.readouterr().err.splitlines()) == 1

    def test_stats_names_the_malformed_line(self, tmp_path, capsys):
        path = self._write(tmp_path, GOOD)
        main(["run", path, "--out", str(tmp_path)])
        lines = (tmp_path / "case.trace").read_text().splitlines(keepends=True)
        lines[39] = "x" + lines[39].split("\t", 1)[1]
        bad = tmp_path / "bad.trace"
        bad.write_text("".join(lines))
        capsys.readouterr()
        assert main(["stats", str(bad)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"{bad}:40: error: malformed trace line: 'x")
        assert len(err.splitlines()) == 1

    def test_transient_run_naming_shadow_checks_exits_two(self, tmp_path, capsys):
        # Both checks used to be skipped without a word, and the run printed
        # "all enabled checks passed".
        text = ("n = 3\nc = 1\nmaxint = 16\nsteps = 2000\nseed = 3\nscheduler = random\n"
                "increment_rate = 0.5\nchecks = req1,causal\n[faults]\ntransient_seed = 9\n")
        path = self._write(tmp_path, text)
        assert main(["run", path, "--out", str(tmp_path)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err == f"{path}: error: checks req1,causal need a fault-free start, " \
                      f"and transient_seed is set\n"
        assert not (tmp_path / "case.trace").exists()
        # An override is validated too; ``all`` leaves both out.
        path = self._write(tmp_path, FAULTY)
        assert main(["run", path, "--out", str(tmp_path), "--checks", "req1"]) \
            == EXIT_CONFIG_ERROR
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert main(["run", path, "--out", str(tmp_path), "--checks", "all"]) == EXIT_OK

    def test_negative_fault_step_exits_two(self, tmp_path, capsys):
        # Such a fault never fired, and the run printed "all enabled checks
        # passed".
        for old, new in (("crash = 2@100", "crash = 2@-5"),
                         ("crash = 2@100\nrestart = 2@150", "crash = 2@-9\nrestart = 2@-5"),
                         ("duplicate = 1>3@40", "duplicate = 1>2@-3"),
                         ("reorder = 3>1@60", "reorder = 3>1@-1")):
            path = self._write(tmp_path, FAULTY.replace(old, new))
            capsys.readouterr()
            assert main(["run", path, "--out", str(tmp_path)]) == EXIT_CONFIG_ERROR
            err = capsys.readouterr().err
            assert err.startswith(f"{path}: error: fault steps must be >= 0, got -")
            assert len(err.splitlines()) == 1
        assert not (tmp_path / "case.trace").exists()

    def test_unreachable_fault_step_exits_two(self, tmp_path, capsys):
        # Such a fault never fired, and the run printed "all enabled checks
        # passed".
        for old, new, late in (("crash = 2@100\nrestart = 2@150",
                                "crash = 2@4000\nrestart = 2@5000", 5000),
                               ("restart = 2@150", "restart = 2@400", 400),
                               ("duplicate = 1>3@40", "duplicate = 1>3@900", 900),
                               ("reorder = 3>1@60", "reorder = 3>1@401", 401)):
            path = self._write(tmp_path, FAULTY.replace(old, new))
            capsys.readouterr()
            assert main(["run", path, "--out", str(tmp_path)]) == EXIT_CONFIG_ERROR
            assert capsys.readouterr().err == \
                f"{path}: error: fault step {late} is past the last step 399\n"
        # A --steps override is checked the same way.
        path = self._write(tmp_path, FAULTY)
        assert main(["run", path, "--out", str(tmp_path), "--steps", "150"]) \
            == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == \
            f"{path}: error: fault step 150 is past the last step 149\n"
        assert not (tmp_path / "case.trace").exists()
        assert main(["run", path, "--out", str(tmp_path), "--steps", "151"]) == EXIT_OK

    def test_unwritable_out_exits_two(self, tmp_path, capsys):
        # The writes ran after the error path: a traceback and exit 1.
        path = self._write(tmp_path, GOOD)
        out = os.path.join(path, "sub")
        capsys.readouterr()
        assert main(["run", path, "--out", out]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == \
            f"{path}: error: cannot write {out}: Not a directory\n"

    def test_checks_override(self, tmp_path):
        path = self._write(tmp_path, GOOD)
        assert main(["run", path, "--out", str(tmp_path),
                     "--checks", "none"]) == EXIT_OK

    def test_seed_and_steps_override_affect_trace(self, tmp_path):
        path = self._write(tmp_path, GOOD)
        main(["run", path, "--out", str(tmp_path), "--steps", "120"])
        text = (tmp_path / "case.trace").read_text()
        assert "#steps 120" in text

    def test_bad_steps_override_exit_two(self, tmp_path, capsys):
        path = self._write(tmp_path, GOOD)
        for steps in ("0", "-5"):
            capsys.readouterr()
            assert main(["run", path, "--out", str(tmp_path), "--steps", steps]) == EXIT_CONFIG_ERROR
            assert len(capsys.readouterr().err.splitlines()) == 1
        assert not (tmp_path / "case.trace").exists()

    def test_jobs_parallel_runs(self, tmp_path):
        paths = [self._write(tmp_path, GOOD, f"case{i}.scenario") for i in range(2)]
        assert main(["run", *paths, "--out", str(tmp_path), "--jobs", "2"]) == EXIT_OK
        assert (tmp_path / "case0.trace").exists()
        assert (tmp_path / "case1.trace").exists()

    def test_jobs_start_no_more_workers_than_files(self, tmp_path, monkeypatch):
        # Under fork the pool starts all its workers at once, so --jobs 64
        # with two files started 64 processes.
        sizes = []

        class Pool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(stablevc.cli, "ProcessPoolExecutor", Pool)
        paths = [self._write(tmp_path, GOOD, f"case{i}.scenario") for i in range(2)]
        assert main(["run", *paths, "--out", str(tmp_path), "--jobs", "64"]) == EXIT_OK
        assert sizes == [2]


class TestConvergedCheck:
    def test_clean_run_converges(self, tmp_path):
        path = tmp_path / "clean.scenario"
        path.write_text(GOOD)
        assert main(["run", str(path), "--out", str(tmp_path), "--checks",
                     "req1,causal,segments,global_inv,local_inv,converged"]) == EXIT_OK

    def test_c4_seed_32004_converges(self):
        # C4's seed 32004 restarted until step 189,794 before the successor
        # chain's overflow trim kept each successor above its parent.
        scenario = load_scenario(os.path.join(TestBundledScenarios.BUNDLE, "regress",
                                              "c4_32004.scenario"))
        assert "converged" in scenario.checks
        checks = parse_checks("all,converged", transient=True)
        assert checks == ("segments", "global_inv", "converged")
        scenario = dataclasses.replace(scenario, checks=checks)
        _world, trace, _summary, failures = execute_scenario(scenario)
        assert failures == []
        last = max(e.step for e in trace.by_kind("restart_local"))
        assert last < trace.steps // 2

    def test_late_restart_fails_converged_in_one_line(self):
        # After the undetectable restart at step 700, restart_local runs at
        # steps 708-751, in the final half of 1000 steps.
        scenario = parse_scenario(GOOD.replace("steps = 300", "steps = 1000").replace(
            "checks = all", "checks = converged\n[faults]\ncrash = 2@300\nrestart = 2@700"))
        _world, trace, _summary, failures = execute_scenario(scenario)
        last = max(e.step for e in trace.by_kind("restart_local"))
        assert last >= trace.steps // 2
        assert len(failures) == 1 and "\n" not in failures[0]
        assert failures[0].startswith("converged: ")
        assert failures[0].endswith(f"the last at step {last}")


# Every event kind fires in these runs: revives (small MAXINT), crash and
# restart, duplicates and reorders of non-empty channels, and a transient.
EVERY_KIND = """
n = 3
c = 2
maxint = 8
steps = 600
seed = {seed}
scheduler = random
increment_rate = 0.5
checks = segments
[faults]
transient_seed = {seed}
transient_scope = {scope}
crash = 2@100
restart = 2@150
duplicate = 1>3@40, 3>1@200, 2>3@201
reorder = 3>1@60, 1>2@220, 2>1@230
"""
KINDS = {"send", "receive", "ignored", "increment", "revive", "restart_local", "new_label",
         "crash", "restart", "transient", "duplicate", "reorder"}


def _ref_value(value):
    """TRACE_SCHEMA.md's detail value forms, spelled out on their own."""
    if isinstance(value, bool):
        return "t" if value else "f"
    if isinstance(value, Label):
        anti = value.ml.antistings
        lo, hi = (min(anti), max(anti)) if anti else (0, 0)
        mark = f"!{value.cl.sting}" if value.cl is not None else ""
        return f"{value.creator}.{value.ml.sting}.{lo}-{hi}{mark}"
    if isinstance(value, VectorClockPair):
        return f"{_ref_value(value.curr_label)}[{','.join(str(v) for v in value.curr_m)}]"
    return str(value)


def _ref_line(event):
    detail = " ".join(f"{key}={_ref_value(event.detail[key])}"
                      for key in sorted(event.detail)) if event.detail else "-"
    return f"{event.step}\t{event.proc}\t{event.kind}\t{detail}\n"


class TestTraceLines:
    """``Trace.lines`` renders each shared label and pair once per call;
    its lines are still the header plus each event's own rendering."""

    @staticmethod
    def _lines(scope, seed):
        scenario = parse_scenario(EVERY_KIND.format(scope=scope, seed=seed))
        trace = run(scenario.build_world(), scenario.build_scheduler(), scenario.steps,
                    fault_plan=scenario.faults)
        text = scenario.to_text()
        header = [f"#{TRACE_VERSION}\n", f"#steps {trace.steps}\n"]
        header += [f"#scenario:{line}\n" for line in text.splitlines()]
        lines = list(trace.lines(text))
        assert lines == header + [event.render() + "\n" for event in trace.events]
        assert lines == header + [_ref_line(event) for event in trace.events]
        return trace, lines

    def test_every_kind_with_canceled_labels(self):
        trace, lines = self._lines("all", 1)
        assert set(trace.counts) == KINDS
        # A transient leaves labels that carry a canceling component.
        assert any("!" in line for line in lines if not line.startswith("#"))

    def test_channels_transient_marks_injected_messages(self):
        trace, lines = self._lines("channels", 2)
        assert set(trace.counts) == KINDS
        assert any("injected=t" in line for line in lines)

    def test_read_back_trace(self, tmp_path):
        path = tmp_path / "case.scenario"
        path.write_text(EVERY_KIND.format(scope="all", seed=2))
        assert main(["run", str(path), "--out", str(tmp_path)]) == EXIT_OK
        trace, scenario_text = read_trace_file(str(tmp_path / "case.trace"))
        assert all(type(value) is str for event in trace.events if event.detail
                   for value in event.detail.values())
        text = (tmp_path / "case.trace").read_text(encoding="utf-8")
        written = text.splitlines(keepends=True)
        events = [event.render() + "\n" for event in trace.events]
        assert written[len(written) - len(events):] == events
        assert list(trace.lines()) == written[:2] + events
        # The scenario text read back renders the file byte for byte.
        assert "".join(trace.lines(scenario_text)) == text
        # Its lines are the file's from line 3 on.
        assert [n for n, line in enumerate(written, 1) if line.startswith("#scenario:")] \
            == list(range(3, 3 + len(scenario_text.splitlines())))


class TestBundledScenarios:
    BUNDLE = os.path.join(os.path.dirname(__file__), "..", "scenarios")

    def test_bundled_files_parse(self):
        for name in ("clean.scenario", "transient.scenario", "wraparound.scenario"):
            scenario = load_scenario(os.path.join(self.BUNDLE, name))
            assert isinstance(scenario, Scenario)

    @pytest.mark.parametrize("name", sorted(os.listdir(os.path.join(BUNDLE, "regress"))))
    def test_regression_scenarios_pass_every_check(self, name, tmp_path):
        path = os.path.join(self.BUNDLE, "regress", name)
        assert main(["run", path, "--out", str(tmp_path)]) == EXIT_OK


def test_env_var_default_out_dir(tmp_path, monkeypatch):
    scenario = tmp_path / "env.scenario"
    scenario.write_text(GOOD)
    out_dir = tmp_path / "outputs"
    monkeypatch.setenv("STABLEVC_OUT", str(out_dir))
    assert main(["run", str(scenario)]) == EXIT_OK
    assert (out_dir / "env.trace").exists()
