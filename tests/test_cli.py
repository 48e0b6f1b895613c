import argparse
import csv
import json
import shlex
import subprocess
import sys

import numpy as np
import pytest

from oracles import pack, register_shape
from test_readme import readme_commands
from tracing import traced_peak
from shorsim import distributions, numtheory, pipeline
from shorsim.cli import _top_rows, build_parser, main
from shorsim.distributions import measurement_distribution
from shorsim.pipeline import run_pipeline
from shorsim.registers import ProblemInstance, StateVector


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def verdicts(doc) -> dict[str, bool]:
    """Check name -> passed, from a report envelope."""
    return {c["name"]: c["passed"] for c in doc["checks"]}


def flip_low_bit(transform):
    """Fault: flip the low bit of the last function register after the
    transform. Norm-preserving, but the registers now disagree."""

    def faulty(state):
        index, amps = transform(state).nonzero_arrays()
        return StateVector.from_arrays(state.layout, state.backend, index ^ 1, amps)

    return faulty


def scale_first_column(transform):
    """Fault: scale the function-register column of the first entry after the
    transform and renormalise. The control | function spectrum changes."""

    def faulty(state):
        index, amps = transform(state).nonzero_arrays()
        right = state.layout.right_dim
        amps = amps * np.where(index % right == index[0] % right, 1.01, 1.0)
        amps /= np.vdot(amps, amps).real ** 0.5
        return StateVector.from_arrays(state.layout, state.backend, index, amps)

    return faulty


class TestDistributionCommand:
    def test_one_full_size_table_at_a_time(self, tmp_path):
        # The state is dumped, then measured into its own buffer; the total
        # is taken once the state is gone, and the table goes before the JSON
        # is written: about 1.98 times the complex (q x m) matrix's bytes,
        # 2.75 with the probabilities beside the amplitudes.
        inst = ProblemInstance(99, 73)
        m = np.unique(numtheory.mod_pow_range(inst.x, inst.q, inst.n)).size
        argv = ["distribution", "--n", "99", "--x", "73", "--output-dir", str(tmp_path)]
        code, peak = traced_peak(lambda: main(argv))
        assert code == 0
        assert peak < 2.3 * 16 * inst.q * m

    def test_writes_csv_and_json(self, tmp_path, capsys):
        code = main(
            ["distribution", "--n", "15", "--x", "7", "--output-dir", str(tmp_path)]
        )
        assert code == 0
        with open(tmp_path / "distribution.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["c", "y1", "probability"]
        assert len(rows) == 17  # header + 16 outcomes
        assert all(float(row[2]) == pytest.approx(0.0625, abs=1e-12) for row in rows[1:])
        doc = read_json(tmp_path / "distribution.json")
        assert doc["schema_version"] == 3
        assert doc["checks"] == []
        assert doc["config"]["n"] == 15
        assert doc["config"]["x"] == 7
        assert doc["report"]["r"] == 4
        assert doc["report"]["outcome_count"] == 16

    def test_two_register_rows_agree(self, tmp_path):
        code = main(
            ["distribution", "--n", "15", "--x", "7", "--ell", "2",
             "--output-dir", str(tmp_path)]
        )
        assert code == 0
        with open(tmp_path / "distribution.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["c", "y1", "y2", "probability"]
        assert all(row[1] == row[2] for row in rows[1:])

    def test_even_n_rejected(self, tmp_path, capsys):
        code = main(["distribution", "--n", "14", "--output-dir", str(tmp_path)])
        assert code == 1
        assert "unsuitable" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "x, named",
        [("1", "x=1, n=15"), ("15", "x=15, n=15"), ("5", "gcd(5, 15)"), ("20", "x=20, n=15")],
    )
    def test_unusable_base_exits_one(self, tmp_path, capsys, x, named):
        code = main(["distribution", "--n", "15", "--x", x, "--output-dir", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err

    def test_random_base_is_seeded(self, tmp_path):
        assert main(
            ["distribution", "--n", "15", "--seed", "5", "--output-dir", str(tmp_path / "a")]
        ) == 0
        assert main(
            ["distribution", "--n", "15", "--seed", "5", "--output-dir", str(tmp_path / "b")]
        ) == 0
        x_a = read_json(tmp_path / "a" / "distribution.json")["config"]["x"]
        x_b = read_json(tmp_path / "b" / "distribution.json")["config"]["x"]
        assert x_a == x_b

    def test_dump_state_round_trips(self, tmp_path):
        code = main(
            ["distribution", "--n", "15", "--x", "7", "--dump-state",
             "--output-dir", str(tmp_path)]
        )
        assert code == 0
        state = StateVector.load(tmp_path / "state.txt")
        amps = state.nonzero_arrays()[1]
        assert np.vdot(amps, amps).real == pytest.approx(1.0, abs=1e-12)
        assert state.layout.s == 8

    def test_top_outcomes_are_the_most_probable_in_order(self, tmp_path):
        code = main(
            ["distribution", "--n", "21", "--x", "2", "--top", "7", "--format", "json",
             "--output-dir", str(tmp_path)]
        )
        assert code == 0
        top = read_json(tmp_path / "distribution.json")["report"]["top_outcomes"]
        dist = measurement_distribution(run_pipeline(ProblemInstance.create(21, 2), ell=1))
        ranked = sorted(dist.entries.items(), key=lambda kv: (-kv[1], kv[0]))
        assert [(tuple(t["outcome"]), t["probability"]) for t in top] == ranked[:7]

    @pytest.mark.parametrize("n,x,ell", [(15, 7, 1), (21, 2, 1), (21, 2, 2)])
    def test_top_rows_are_the_head_of_the_full_lexsort(self, n, x, ell):
        # At n = 15, x = 7, ell = 1 all 16 outcomes tie at 1/16.
        dist = measurement_distribution(run_pipeline(ProblemInstance.create(n, x), ell=ell))
        full = np.lexsort((dist.index, -dist.probs))
        size = dist.probs.size
        for k in (0, 1, 3, size - 1, size, size + 5):
            assert np.array_equal(_top_rows(dist, k), full[:k]), k

    def test_capacity_error_exits_one(self, tmp_path, capsys):
        code = main(["distribution", "--n", "5001", "--x", "2", "--output-dir", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: sparse state needs up to 2^38 amplitudes, cap is 2^26 "
            "(raise the cap explicitly to allow this)\n"
        )
        assert not any(tmp_path.iterdir())

    def test_dense_run_beyond_s_plus_ell_L_qubits(self, tmp_path):
        # 11 + 3*6 = 29 qubits as a flat vector, above the default cap of 26;
        # both backends hold at most q * 2^L entries and take the same s + L rule.
        written = {}
        for backend in ("dense", "sparse"):
            out = tmp_path / backend
            code = main(["distribution", "--n", "35", "--x", "2", "--ell", "3",
                         "--backend", backend, "--output-dir", str(out)])
            assert code == 0
            written[backend] = (out / "distribution.csv").read_bytes()
        assert written["dense"] == written["sparse"]

    def test_negative_top_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["distribution", "--n", "15", "--x", "7", "--top", "-1",
                  "--output-dir", str(tmp_path)])
        assert err.value.code == 2


class TestAuditCommand:
    @pytest.mark.parametrize("ell", ["2", "3"])
    def test_verdict_zero_exit(self, tmp_path, ell):
        code = main(
            ["audit", "--n", "15", "--x", "7", "--ell", ell, "--output-dir", str(tmp_path)]
        )
        assert code == 0
        doc = read_json(tmp_path / "audit.json")
        assert doc["report"]["equal_outcome_discrepancy"] <= 1e-12
        assert doc["report"]["unequal_register_mass"] <= 1e-12

    def test_qft_flag_selects_the_audited_transform(self, tmp_path, monkeypatch):
        faulty = flip_low_bit(pipeline.apply_qft_register1_gates)
        monkeypatch.setattr(pipeline, "apply_qft_register1_gates", faulty)
        argv = ["audit", "--n", "15", "--x", "7", "--output-dir", str(tmp_path)]
        assert main(argv + ["--qft", "gates"]) == 1
        # The faulted one-register table holds its mass off the powers of x,
        # where the equal-outcome comparison now looks too.
        assert verdicts(read_json(tmp_path / "audit.json")) == {
            "equal_outcome_discrepancy": False, "unequal_register_mass": False,
        }
        assert main(argv + ["--qft", "direct"]) == 0
        assert all(verdicts(read_json(tmp_path / "audit.json")).values())

    @pytest.mark.parametrize("qft", ["direct", "gates"])
    def test_fanout_fault_fails_the_audit(self, tmp_path, monkeypatch, qft):
        fanout = pipeline.apply_modexp_fanout

        def faulty(state, instance):
            # Write x^(a+1) mod n into the last function register: still a
            # permutation of basis states, but the registers now disagree.
            out = fanout(state, instance)
            layout = out.layout
            index, amps = out.nonzero_arrays()
            *registers, _ = np.unravel_index(index, register_shape(layout))
            shifted = [pow(instance.x, v + 1, instance.n) for v in registers[0].tolist()]
            index = pack(layout, *registers, shifted)
            wrong = StateVector.from_arrays(layout, out.backend, index, amps)
            moved = wrong.nonzero_arrays()[1]
            assert abs(np.vdot(moved, moved).real - np.vdot(amps, amps).real) <= 1e-15
            return wrong

        monkeypatch.setattr(pipeline, "apply_modexp_fanout", faulty)
        code = main(["audit", "--n", "15", "--x", "7", "--ell", "2", "--qft", qft,
                     "--output-dir", str(tmp_path)])
        assert code == 1
        doc = read_json(tmp_path / "audit.json")
        assert doc["report"]["unequal_register_mass"] > 1e-12
        assert verdicts(doc)["unequal_register_mass"] is False

    def test_dump_state_reuses_the_audited_state(self, tmp_path, monkeypatch):
        calls = []
        run = pipeline.run_pipeline

        def recording(*args, **kwargs):
            calls.append(kwargs["ell"])
            return run(*args, **kwargs)

        monkeypatch.setattr(pipeline, "run_pipeline", recording)
        code = main(["audit", "--n", "21", "--x", "2", "--ell", "2", "--dump-state",
                     "--output-dir", str(tmp_path)])
        assert code == 0
        assert calls == [1, 2]
        assert StateVector.load(tmp_path / "state.txt").layout.ell == 2

    def test_single_register_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["audit", "--n", "15", "--x", "7", "--ell", "1",
                  "--output-dir", str(tmp_path)])
        assert err.value.code == 2

    def test_sparse_run_beyond_the_dense_qubit_cap(self, tmp_path):
        # 11 + 3*6 = 29 qubits as a dense vector, but the sparse state holds
        # q * r entries: the default cap counts s + L = 17 qubits.
        code = main(["audit", "--n", "35", "--x", "2", "--ell", "3",
                     "--output-dir", str(tmp_path)])
        assert code == 0
        assert read_json(tmp_path / "audit.json")["report"]["unequal_register_mass"] <= 1e-12

    def test_gate_route_beyond_the_dense_qubit_cap(self, tmp_path):
        # 13 + 2*7 = 27 qubits as a dense vector; the gate circuit runs on the
        # r = 30 occupied function-register columns only.
        argv = ["audit", "--n", "77", "--x", "2", "--ell", "2", "--output-dir"]
        assert main(argv + [str(tmp_path / "gates"), "--qft", "gates"]) == 0
        assert main(argv + [str(tmp_path / "direct"), "--qft", "direct"]) == 0
        gates = read_json(tmp_path / "gates" / "audit.json")["report"]
        direct = read_json(tmp_path / "direct" / "audit.json")["report"]
        assert gates.keys() == direct.keys()
        for key, value in direct.items():
            if isinstance(value, float):
                assert abs(gates[key] - value) <= 1e-12, key
            else:
                assert gates[key] == value, key


class TestBoundCommand:
    @pytest.mark.parametrize(
        "n,x,good", [("15", "7", 4), ("21", "2", 6), ("15", "4", 2)]
    )
    def test_reports(self, tmp_path, n, x, good):
        code = main(["bound", "--n", n, "--x", x, "--output-dir", str(tmp_path)])
        assert code == 0
        doc = read_json(tmp_path / "bound.json")
        assert doc["report"]["good_c_count"] == good
        assert verdicts(doc) == {"good_c_probability_floor": True}


class TestFactorCommand:
    def test_factors_fifteen(self, tmp_path, capsys):
        code = main(["factor", "--n", "15", "--seed", "1", "--output-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "15 = 3 × 5" in out
        doc = read_json(tmp_path / "factor_trace.json")
        assert doc["report"]["factors"] == [3, 5]

    def test_factors_twentyone(self, tmp_path, capsys):
        code = main(["factor", "--n", "21", "--seed", "1", "--output-dir", str(tmp_path)])
        assert code == 0
        assert "21 = 3 × 7" in capsys.readouterr().out

    def test_prime_power_rejected(self, tmp_path, capsys):
        code = main(["factor", "--n", "9", "--output-dir", str(tmp_path)])
        assert code == 1
        assert "prime power" in capsys.readouterr().err

    def test_dump_state_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["factor", "--n", "15", "--dump-state", "--output-dir", str(tmp_path)])
        assert err.value.code == 2

    def test_no_factors_is_a_failed_run(self, tmp_path, capsys):
        code = main(["factor", "--n", "21", "--seed", "2", "--max-attempts", "1",
                     "--samples-per-attempt", "1", "--output-dir", str(tmp_path)])
        assert code == 1
        assert "no factors found for 21 within 1 attempts" in capsys.readouterr().err
        doc = read_json(tmp_path / "factor_trace.json")
        assert doc["checks"] == [] and doc["report"]["factors"] is None

    def test_qubit_cap_bounds_the_sampler_arrays(self, tmp_path, capsys):
        # n = 1007 has q = 2^20: refused under a cap of 19 qubits, before
        # anything is allocated or written.
        code = main(["factor", "--n", "1007", "--qubit-cap", "19", "--output-dir", str(tmp_path)])
        assert code == 1
        assert "order finding needs length-2^20 arrays, cap is 2^19" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_trace_flag_prints_attempts(self, tmp_path, capsys):
        code = main(
            ["factor", "--n", "15", "--seed", "1", "--trace", "--output-dir", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert '"attempts"' in out
        # The printed trace and the file come from the same writer.
        report = read_json(tmp_path / "factor_trace.json")["report"]
        assert out.startswith(json.dumps(report, indent=2) + "\n")


class TestEntanglementCommand:
    def test_single_register(self, tmp_path):
        code = main(
            ["entanglement", "--n", "15", "--x", "7", "--output-dir", str(tmp_path)]
        )
        assert code == 0
        doc = read_json(tmp_path / "entanglement.json")
        ent = doc["report"]["entanglement"]
        assert ent["locality"]["max_deviation"] <= 1e-10
        assert ent["pre_transform_cuts"][0]["entropy_bits"] == pytest.approx(
            2.0, abs=1e-10
        )

    def test_two_registers_correlation(self, tmp_path):
        code = main(
            ["entanglement", "--n", "15", "--x", "7", "--ell", "2",
             "--output-dir", str(tmp_path)]
        )
        assert code == 0
        ent = read_json(tmp_path / "entanglement.json")["report"]["entanglement"]
        assert ent["correlations"][0]["p_equal"] == pytest.approx(1.0, abs=1e-12)
        assert ent["correlations"][0]["p_unequal"] <= 1e-12
        assert ent["locality"]["max_deviation"] <= 1e-10

    def test_transform_fault_fails_the_locality_verdict(self, tmp_path, monkeypatch):
        faulty = scale_first_column(pipeline.apply_qft_register1_direct)
        argv = ["entanglement", "--n", "15", "--x", "7", "--ell", "2", "--output-dir"]
        assert main(argv + [str(tmp_path / "direct")]) == 0
        assert verdicts(read_json(tmp_path / "direct" / "entanglement.json")) == {
            "control_cut_spectrum_deviation": True
        }
        monkeypatch.setattr(pipeline, "apply_qft_register1_direct", faulty)
        assert main(argv + [str(tmp_path / "faulty")]) == 1
        assert verdicts(read_json(tmp_path / "faulty" / "entanglement.json")) == {
            "control_cut_spectrum_deviation": False
        }

    def test_sparse_run_beyond_the_dense_qubit_cap(self, tmp_path):
        # 13 + 2*7 = 27 qubits as a dense vector; the full 8192 x 16384 cut
        # matrix has only r = 30 occupied columns.
        code = main(["entanglement", "--n", "77", "--x", "2", "--ell", "2",
                     "--output-dir", str(tmp_path)])
        assert code == 0
        ent = read_json(tmp_path / "entanglement.json")["report"]["entanglement"]
        assert len(ent["locality"]["eigenvalues_before"]) == 30
        assert ent["correlations"][0]["p_equal"] == pytest.approx(1.0, abs=1e-12)

    def test_gate_route_beyond_the_dense_qubit_cap(self, tmp_path):
        code = main(["entanglement", "--n", "77", "--x", "2", "--ell", "2", "--qft", "gates",
                     "--output-dir", str(tmp_path)])
        assert code == 0
        doc = read_json(tmp_path / "entanglement.json")
        assert verdicts(doc) == {"control_cut_spectrum_deviation": True}


class TestDeterminism:
    def test_factor_report_identical_across_runs(self, tmp_path):
        main(["factor", "--n", "21", "--seed", "4", "--output-dir", str(tmp_path / "a")])
        main(["factor", "--n", "21", "--seed", "4", "--output-dir", str(tmp_path / "b")])
        a = read_json(tmp_path / "a" / "factor_trace.json")["report"]
        b = read_json(tmp_path / "b" / "factor_trace.json")["report"]
        assert json.dumps(a) == json.dumps(b)

    def test_shared_parser_keeps_no_state_between_runs(self, tmp_path):
        # The parser is built once per process; a base resolved in one run's
        # namespace must not become the next run's default.
        assert build_parser() is build_parser()
        for name, extra in (("explicit", ["--x", "2"]), ("drawn", []), ("again", [])):
            main(["bound", "--n", "15", "--seed", "3", *extra,
                  "--output-dir", str(tmp_path / name)])
        x = {name: read_json(tmp_path / name / "bound.json")["config"]["x"]
             for name in ("explicit", "drawn", "again")}
        assert x["explicit"] == 2
        assert x["drawn"] == x["again"]
        assert build_parser().parse_args(["bound", "--n", "15"]).x is None


def _subcommand_dests() -> dict[str, list[str]]:
    """Subcommand -> the destinations its parser declares, in order."""
    (action,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: [a.dest for a in sub._actions if a.dest != "help"]
        for name, sub in action.choices.items()
    }


class TestRecordedConfig:
    RUNS = {
        "distribution": (["--n", "15", "--x", "7"], "distribution.json"),
        "audit": (["--n", "15", "--x", "7"], "audit.json"),
        "bound": (["--n", "15", "--seed", "3"], "bound.json"),
        "factor": (["--n", "15", "--seed", "1"], "factor_trace.json"),
        "entanglement": (["--n", "15", "--x", "7"], "entanglement.json"),
    }

    @pytest.mark.parametrize("command", sorted(_subcommand_dests()))
    def test_config_keys_are_the_parser_dests(self, tmp_path, command):
        flags, filename = self.RUNS[command]
        assert main([command, *flags, "--output-dir", str(tmp_path)]) == 0
        config = read_json(tmp_path / filename)["config"]
        assert list(config) == ["command", *_subcommand_dests()[command]]
        assert config["command"] == command
        if "x" in config:
            # The base is recorded resolved, also when drawn from the seed.
            assert isinstance(config["x"], int) and 1 < config["x"] < 15

    @pytest.mark.parametrize(
        "command,faulted",
        [(command, False) for command in sorted(RUNS)]
        + [(command, True) for command in ("audit", "bound", "entanglement")],
    )
    def test_exit_code_is_all_checks_passed(self, tmp_path, monkeypatch, command, faulted):
        if faulted:
            transform = flip_low_bit(scale_first_column(pipeline.apply_qft_register1_direct))
            monkeypatch.setattr(pipeline, "apply_qft_register1_direct", transform)
            monkeypatch.setattr(distributions, "analytic_joint_probability", lambda *a: 0.0)
        flags, filename = self.RUNS[command]
        code = main([command, *flags, "--output-dir", str(tmp_path)])
        doc = read_json(tmp_path / filename)
        assert code == (0 if all(c["passed"] for c in doc["checks"]) else 1)
        assert code == faulted
        assert [list(c) for c in doc["checks"]] == [
            ["name", "value", "relation", "bound", "margin", "passed"]
        ] * len(doc["checks"])

    def test_distribution_records_top(self, tmp_path):
        assert main(["distribution", "--n", "15", "--x", "7", "--top", "3",
                     "--output-dir", str(tmp_path)]) == 0
        doc = read_json(tmp_path / "distribution.json")
        assert doc["config"]["top"] == 3
        assert len(doc["report"]["top_outcomes"]) == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "--n", "15", "--x", "7", "--backend", "dense"],
            ["bound", "--n", "15", "--x", "7", "--qft", "gates"],
            ["bound", "--n", "15", "--x", "7", "--qubit-cap", "3"],
            ["bound", "--n", "15", "--x", "7", "--format", "csv"],
            ["bound", "--n", "15", "--x", "7", "--dump-state"],
            ["audit", "--n", "15", "--x", "7", "--format", "csv"],
            ["entanglement", "--n", "15", "--x", "7", "--format", "csv"],
            ["factor", "--n", "15", "--format", "csv"],
            ["factor", "--n", "15", "--backend", "dense"],
        ],
        ids=" ".join,
    )
    def test_flag_the_command_does_not_read_is_usage_error(self, tmp_path, argv, capsys):
        with pytest.raises(SystemExit) as err:
            main([*argv, "--output-dir", str(tmp_path)])
        assert err.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ["distribution", "--n", "15", "--x", "7", "--ell", "0"],
        ["entanglement", "--n", "15", "--x", "7", "--ell", "0"],
        ["audit", "--n", "15", "--x", "7", "--ell", "1"],
        ["distribution", "--n", "15", "--x", "7", "--top", "-1"],
        ["distribution", "--n", "15", "--x", "7", "--qubit-cap", "0"],
        ["distribution", "--n", "15", "--x", "7", "--qubit-cap", "-1"],
        ["factor", "--n", "35", "--seed", "1", "--max-attempts", "0"],
        ["factor", "--n", "35", "--seed", "1", "--samples-per-attempt", "0"],
        ["factor", "--n", "35", "--seed", "1", "--multiplier-bound", "0"],
        ["factor", "--n", "35", "--seed", "1", "--multiplier-bound", "two"],
    ],
    ids=" ".join,
)
def test_out_of_range_integer_is_usage_error(tmp_path, argv, capsys):
    with pytest.raises(SystemExit) as err:
        main([*argv, "--output-dir", str(tmp_path)])
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert f"argument {argv[-2]}:" in message
    assert ("must be at least" in message) or ("invalid int value" in message)
    assert not any(tmp_path.iterdir())


def test_readme_command_lines_run():
    # test_readme.py runs each line of the README's command block; here the
    # block must show every subcommand.
    assert {shlex.split(line)[1] for line in readme_commands()} == set(_subcommand_dests())


def test_console_entry_point_runs(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "shorsim", "bound", "--n", "15", "--x", "7",
         "--output-dir", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "4 good c" in result.stdout
