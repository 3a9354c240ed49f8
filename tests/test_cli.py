"""Experiment runner: subcommands, config files, determinism, error records."""

import json
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import run_fresh
from hypothesis import example, given
from hypothesis import strategies as st

from ptsim import embedding
from ptsim.cli import EXPERIMENTS, _run_seed, load_config, main, write_csv
from ptsim.dynamics import distinguishability_series
from ptsim.errors import ConfigError
from ptsim.models import Family, HamiltonianSpec
from ptsim.optics import realize_two_qubit
from ptsim.qcore import KET_H, KET_V, mat_exp, pure_state

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def read_csv(path):
    meta, header, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, val = line[1:].partition("=")
            meta[key.strip()] = val.strip()
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


class TestDistinguishability:
    def test_writes_series_and_prints_fit(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        code = main([
            "distinguishability", "--family", "pt", "--a", "0.5",
            "--initial", "H,V", "--t-max", "15", "--points", "512",
            "--out", str(out),
        ])
        assert code == 0
        meta, header, rows = read_csv(out)
        assert header == ["t", "D"]
        assert len(rows) == 512
        assert float(rows[0][1]) == pytest.approx(1.0)
        printed = capsys.readouterr().out
        assert "T_fit=" in printed
        t_fit = float(printed.split("T_fit=")[1].split()[0])
        assert t_fit == pytest.approx(np.pi / np.sqrt(0.75), rel=0.01)

    def test_unresolved_peaks_say_why(self, tmp_path, capsys):
        # the default 512-point grid at a = 0.99999 has a step of 5.5, and
        # the peaks of D are about 1.9 wide: the series recurs, unresolved
        code = main(["distinguishability", "--a", "0.99999", "--out", str(tmp_path / "d.csv")])
        assert code == 0
        printed = capsys.readouterr().out
        assert "no-recurrence (" in printed and "grid step 5.49889 " in printed

    @pytest.mark.parametrize("t_max", [[], ["--t-max", "50"]], ids=["default", "uniform"])
    def test_no_fit_at_the_exceptional_point(self, t_max, tmp_path, capsys):
        # D(t) decays as a power law at a = 1, so no recurrence time is fitted
        assert main(["distinguishability", "--a", "1.0", *t_max,
                     "--out", str(tmp_path / "d.csv")]) == 0
        printed = capsys.readouterr().out
        assert "no-recurrence (D(t) does not recur at the exceptional point)" in printed

    @pytest.mark.parametrize("argv, tau", [
        (["--a", "1.25"], 2 / 3),
        (["--family", "nosym", "--a", "0.5", "--c", "0.5"],
         1 / (2 * np.sqrt(1 + (0.5 + 0.5j) ** 2).imag)),
    ], ids=["broken", "nosym"])
    def test_relaxing_runs_print_tau_theory(self, argv, tau, tmp_path, capsys):
        # D(t) decays monotonically, so the line says no-recurrence and
        # still carries the relaxation time
        assert main(["distinguishability", *argv, "--out", str(tmp_path / "d.csv")]) == 0
        printed = capsys.readouterr().out
        assert "no-recurrence (" in printed and "T_theory" not in printed
        assert float(printed.split("tau_theory=")[1].split()[0]) == pytest.approx(tau, rel=1e-5)

    def test_excursion_cut_by_the_window_still_fits(self, tmp_path, capsys):
        # D(0) sits just above the mid level, a one-sample excursion at t = 0
        code = main(["distinguishability", "--a", "0.87", "--initial", "H,L",
                     "--out", str(tmp_path / "d.csv")])
        assert code == 0
        printed = capsys.readouterr().out
        t_fit = float(printed.split("T_fit=")[1].split()[0])
        assert t_fit == pytest.approx(np.pi / np.sqrt(1 - 0.87**2), abs=1e-3)

    def test_sweep_fans_out(self, tmp_path):
        out = tmp_path / "d_{a}.csv"
        code = main([
            "distinguishability", "--family", "pt", "--a", "0.2;0.5",
            "--points", "128", "--t-max", "10", "--out", str(out),
        ])
        assert code == 0
        assert (tmp_path / "d_0.2.csv").exists()
        assert (tmp_path / "d_0.5.csv").exists()


class TestPowerlaw:
    def test_exponent_printed(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        code = main([
            "powerlaw", "--family", "t", "--a", "1.0", "--initial", "H,V",
            "--window", "20,200", "--points", "256", "--out", str(out),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        exponent = float(printed.split("exponent=")[1].split()[0])
        assert exponent == pytest.approx(-1.0, abs=0.05)


class TestLongTimesAtTheExceptionalPoint:
    # a ket grows as t at a = 1; its square would overflow past t ~ 1.3e154
    @pytest.mark.parametrize("argv", [
        ["distinguishability", "--a", "1.0", "--t-max", "1e160"],
        # 2,048 points leave 7 in the window (20, 200)
        ["powerlaw", "--a", "1.0", "--t-max", "1e300", "--points", "2048"],
        ["tomography", "--a", "1.0", "--t", "1e200"],
    ], ids=" ".join)
    def test_runs(self, argv, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main([*argv, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        _, _, rows = read_csv(out)
        assert all(np.isfinite(float(v)) for row in rows for v in row[1:])


class TestScaling:
    def test_unbroken_csv(self, tmp_path):
        out = tmp_path / "s.csv"
        code = main([
            "scaling", "--regime", "unbroken", "--a", "0.5,0.8",
            "--points", "256", "--out", str(out),
        ])
        assert code == 0
        meta, header, rows = read_csv(out)
        assert header == ["a", "T_fit", "T_theory"]
        for a_str, t_fit, t_theory in rows:
            assert float(t_fit) == pytest.approx(float(t_theory), rel=0.01)

    def test_near_exceptional_point(self, tmp_path):
        # 20,000 points keep the grid step below 0.45 down to a = 0.999999
        out = tmp_path / "s.csv"
        code = main(["scaling", "--a", "0.9999,0.99999,0.999999", "--points", "20000",
                     "--out", str(out)])
        assert code == 0
        _, _, rows = read_csv(out)
        for a_str, t_fit, t_theory in rows:
            assert float(t_fit) == pytest.approx(float(t_theory), rel=1e-4)

    def test_unresolved_peaks_fail_naming_the_step(self, tmp_path, capsys):
        code = main(["scaling", "--a", "0.99999", "--out", str(tmp_path / "s.csv")])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "NoOscillation"
        assert "grid step 5.49889 " in err["message"]


class TestEmbed:
    def test_columns_and_entropy_metadata(self, tmp_path):
        out = tmp_path / "e.csv"
        code = main([
            "embed", "--a", "0.5", "--initial", "H,V",
            "--points", "64", "--out", str(out),
        ])
        assert code == 0
        meta, header, rows = read_csv(out)
        assert header == ["t", "D", "S", "I"]
        assert meta["entropy_log_base"] == "2"
        d0 = float(rows[0][1])
        assert d0 == pytest.approx(1.0, abs=1e-9)

    def test_columns_match_library_series(self, tmp_path):
        out = tmp_path / "e.csv"
        code = main([
            "embed", "--a", "0.5", "--initial", "H,V",
            "--points", "64", "--t-max", "9", "--out", str(out),
        ])
        assert code == 0
        _, _, rows = read_csv(out)
        t, d, s, i = np.array(rows, dtype=float).T
        grid = np.linspace(0.0, 9.0, 64)
        np.testing.assert_array_equal(t, grid)
        np.testing.assert_array_equal(d, distinguishability_series(
            HamiltonianSpec(Family.PT, 0.5), pure_state(KET_H), pure_state(KET_V), grid).values)
        np.testing.assert_array_equal(
            s, embedding.entanglement_entropy_series(0.5, KET_H, grid).values)
        np.testing.assert_array_equal(
            i, embedding.mutual_information_series(0.5, KET_H, grid).values)


class TestSummaryLine:
    @pytest.mark.parametrize("argv", [
        ["distinguishability", "--points", "16"],
        ["powerlaw", "--points", "64"],
        ["embed", "--points", "16"],
        ["tomography", "--shots", "100", "--t", "1.00000001"],
    ], ids=lambda argv: argv[0])
    def test_parameters_print_unrounded(self, argv, tmp_path, capsys):
        # a = 1 - 1e-10 is in the unbroken regime; to six digits it reads as
        # the exceptional point a = 1
        assert main([*argv, "--a", "0.9999999999", "--out", str(tmp_path / "o.csv")]) == 0
        printed = " " + capsys.readouterr().out
        assert " a=0.9999999999 " in printed
        if "--t" in argv:
            assert " t=1.00000001 " in printed


class TestTomography:
    def test_counts_csv(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code = main([
            "tomography", "--a", "0.5", "--t", "1.0", "--state", "H",
            "--shots", "18000", "--seed", "5", "--out", str(out),
        ])
        assert code == 0
        meta, header, rows = read_csv(out)
        assert header == ["basis_label", "counts", "shots", "seed"]
        assert [r[0] for r in rows] == ["H", "V", "P+", "P-"]
        assert all(int(r[2]) == 18000 for r in rows)
        fid = float(capsys.readouterr().out.split("mle_fidelity=")[1].split()[0])
        assert fid > 0.99


class TestCompile:
    def test_target_file(self, tmp_path, capsys):
        target = tmp_path / "U.csv"
        target.write_text("0,1\n1,0\n")
        out = tmp_path / "angles.txt"
        code = main([
            "compile", "--variant", "full12", "--target-file", str(target),
            "--restarts", "50", "--seed", "5", "--out", str(out),
        ])
        assert code == 0
        record = dict(
            line.split(" = ", 1) for line in out.read_text().strip().splitlines()
        )
        assert record["success"] == "true"
        assert float(record["residual"]) < 1e-6

    def test_hamiltonian_target(self, tmp_path):
        out = tmp_path / "angles.txt"
        code = main([
            "compile", "--variant", "pt-simplified", "--family", "passive-pt",
            "--a", "0.5", "--t", "1.0", "--restarts", "30", "--seed", "3",
            "--out", str(out),
        ])
        assert code == 0

    def test_two_qubit_embedded_target(self, tmp_path):
        out = tmp_path / "angles.txt"
        code = main([
            "compile", "--variant", "two-qubit", "--family", "embedded",
            "--a", "0.5", "--t", "0.5", "--seed", "2", "--out", str(out),
        ])
        assert code == 0
        record = dict(
            line.split(" = ", 1) for line in out.read_text().strip().splitlines()
        )
        assert record["success"] == "true"
        assert float(record["residual"]) < 1e-6
        # every mount angle, G2's two held at pi/4 included
        angles = {k: float(v) for k, v in record.items() if k not in (
            "variant", "residual", "global_phase", "success", "restarts_used", "evaluations")}
        assert len(angles) == 22
        assert record["delta75"] == record["delta86"] == "0.78539816339744828"
        target = np.exp(1j * float(record["global_phase"])) * mat_exp(
            embedding.build_h_tot(0.5), 0.5)
        rebuilt = np.linalg.norm(realize_two_qubit(angles) - target)
        assert abs(rebuilt - float(record["residual"])) <= 1e-9

    def test_default_record_path_is_text(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main([
            "compile", "--variant", "pt-simplified", "--family", "passive-pt",
            "--a", "0.5", "--t", "1.0", "--restarts", "30", "--seed", "3",
        ])
        assert code == 0
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["compile_0.txt"]
        assert "residual = " in (tmp_path / "out" / "compile_0.txt").read_text()

    def test_non_finite_target_reported(self, tmp_path, capsys):
        target = tmp_path / "U.csv"
        target.write_text("nan,0\n0,1\n")
        code = main(["compile", "--variant", "full12", "--target-file", str(target),
                     "--out", str(tmp_path / "a.txt")])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "InvalidMatrix",
                       "message": "target has non-finite entries at (0, 0)"}
        assert not (tmp_path / "a.txt").exists()

    def test_failure_reports_residual(self, tmp_path, capsys):
        # an unreachable target at a starved budget: failure is reported
        # with the best residual, not raised
        target = tmp_path / "U.csv"
        target.write_text("0,1\n0.5,0\n")
        code = main([
            "compile", "--variant", "pt-simplified", "--target-file", str(target),
            "--restarts", "1", "--seed", "1", "--out", str(tmp_path / "a.txt"),
        ])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "CompileFailed"
        assert err["residual"] > 1e-6
        assert (tmp_path / "a.txt").exists()


class TestConfigHandling:
    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "# comment line\n"
            "experiment = distinguishability\n"
            "family = pt\n"
            "a = 0.5\n"
            "t-max = 10\n"
            "points = 128\n"
            f"out = {tmp_path}/cfg_run.csv\n"
        )
        code = main(["run", "--config", str(cfg)])
        assert code == 0
        assert (tmp_path / "cfg_run.csv").exists()
        # flags win over file values
        code = main([
            "distinguishability", "--config", str(cfg),
            "--points", "64", "--out", str(tmp_path / "over.csv"),
        ])
        assert code == 0
        _, _, rows = read_csv(tmp_path / "over.csv")
        assert len(rows) == 64

    def test_all_violations_reported(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(
            "experiment = distinguishability\n"
            "bogus-key = 1\n"
            "another = 2\n"
        )
        code = main(["run", "--config", str(cfg)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert len(err["violations"]) == 2

    def test_consecutive_calls_share_no_values(self, tmp_path, capsys):
        first = tmp_path / "d.csv"
        code = main([
            "distinguishability", "--a", "0.5", "--initial", "V,H", "--points", "64",
            "--t-max", "5", "--seed", "7", "--out", str(first),
        ])
        assert code == 0
        second = tmp_path / "e.csv"
        assert main(["embed", "--a", "0.3", "--out", str(second)]) == 0
        meta, _, rows = read_csv(second)
        assert len(rows) == 256
        assert meta["initial"] == "H|V"
        assert meta["seed"] == str(_run_seed(0, 0))
        assert float(rows[-1][0]) == pytest.approx(2 * np.pi / np.sqrt(1 - 0.3**2))
        assert capsys.readouterr().out.splitlines()[-1].endswith(f"-> {second}")

    def test_parse_errors_collected(self, tmp_path):
        cfg = tmp_path / "syntax.cfg"
        cfg.write_text("experiment distinguishability\n= nothing\n")
        with pytest.raises(ConfigError) as exc:
            load_config(cfg)
        assert len(exc.value.violations) == 2

    def test_negative_seed_in_config_refused(self, tmp_path, capsys):
        cfg = tmp_path / "seed.cfg"
        cfg.write_text("experiment = embed\nseed = -3\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "e.csv")]) == 2
        assert json.loads(capsys.readouterr().err)["violations"] == [
            "seed: must be an integer >= 0, got '-3'"]

    def test_bad_values_all_listed(self, tmp_path, capsys):
        code = main([
            "distinguishability", "--a", "abc", "--points", "-3",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert any("a:" in v for v in err["violations"])
        assert any("points:" in v for v in err["violations"])


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        args = [
            "tomography", "--a", "0.5", "--t", "1.0", "--state", "H",
            "--shots", "2000", "--seed", "11",
        ]
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_changes_output(self, tmp_path):
        base = [
            "tomography", "--a", "0.5", "--t", "1.0", "--state", "H",
            "--shots", "2000",
        ]
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert main(base + ["--seed", "1", "--out", str(out1)]) == 0
        assert main(base + ["--seed", "2", "--out", str(out2)]) == 0
        assert out1.read_bytes() != out2.read_bytes()


def per_value_text(value) -> str:
    """The CSV text of one value, formatted on its own."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


_doubles = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


class TestCsvFormat:
    @given(st.lists(st.tuples(st.integers(-2**70, 2**70), _doubles, _doubles.map(np.float64),
                              st.integers(-2**62, 2**62).map(np.int64), st.text("HVPM+-")),
                    max_size=8))
    @example([(0, -0.0, np.float64(5e-324), np.int64(-1), "P+"),
              (-7, float("nan"), np.float64(-np.inf), np.int64(2**62), ""),
              (2**64, float("inf"), np.float64(-2.2250738585072014e-308), np.int64(0), "H")])
    def test_row_format_matches_per_value_text(self, rows):
        meta = {"seed": 3, "a": -0.0, "tiny": 5e-324, "label": "H|V", "n": np.int64(4)}
        header = ["i", "x", "y", "j", "s"]
        want = "".join(f"# {k} = {per_value_text(v)}\n" for k, v in meta.items())
        want += ",".join(header) + "\n"
        want += "".join(",".join(map(per_value_text, row)) + "\n" for row in rows)
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "t.csv"
            write_csv(out, meta, header, iter(rows))
            assert out.read_bytes() == want.encode()

    def test_series_table_matches_per_value_text(self, tmp_path):
        # the shape of a D(t) table: 512 rows of two doubles, one % call
        t = np.linspace(0.0, 30.0, 512)
        d = np.exp(-t / 7) * np.cos(t) ** 2
        write_csv(tmp_path / "d.csv", {"seed": 0}, ["t", "D"], zip(t, d))
        want = "# seed = 0\nt,D\n" + "".join(
            f"{per_value_text(x)},{per_value_text(y)}\n" for x, y in zip(t, d))
        assert (tmp_path / "d.csv").read_bytes() == want.encode()


def violations_of(capsys):
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    return err["violations"]


class TestPlanning:
    """Every run of a command is parsed and checked before the first one runs."""

    @pytest.mark.parametrize("experiment", ["distinguishability", "powerlaw", "tomography"])
    def test_missing_a_is_reported(self, experiment, tmp_path, capsys):
        code = main([experiment, "--family", "pt", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert [v for v in violations_of(capsys) if v.startswith("a:")]
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("out", ["d_{a}.csv", "d.csv"])
    def test_sweep_runs_sharing_an_output_path_are_rejected(self, out, tmp_path, capsys):
        code = main([
            "distinguishability", "--a", "0.5", "--initial", "H,V;P+,M",
            "--points", "16", "--out", str(tmp_path / out),
        ])
        assert code == 2
        violations = violations_of(capsys)
        assert len(violations) == 1 and violations[0].startswith("out:")
        assert not list(tmp_path.iterdir())

    def test_run_rejects_flags_of_other_experiments(self, tmp_path, capsys):
        code = main([
            "run", "--config", str(CONFIG_DIR / "fig4a.cfg"),
            "--shots", "5", "--variant", "full12", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        violations = violations_of(capsys)
        assert len(violations) == 2
        assert "--shots" in violations[0] and "--variant" in violations[1]
        assert not list(tmp_path.iterdir())

    def test_run_without_config_is_reported(self, capsys):
        assert main(["run", "--a", "0.5"]) == 2
        assert violations_of(capsys)[0].startswith("experiment:")

    def test_bad_later_run_stops_the_whole_sweep(self, tmp_path, capsys):
        code = main([
            "distinguishability", "--a", "0.5;abc", "--points", "16",
            "--out", str(tmp_path / "d_{i}.csv"),
        ])
        assert code == 2
        assert violations_of(capsys) == ["a: cannot parse 'abc'"]
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["distinguishability", "--a", "0.5", "--family", "pt;embedded", "--points", "16"],
        ["powerlaw", "--a", "1.0", "--family", "pt;embedded", "--points", "16"],
        ["tomography", "--a", "0.5", "--family", "embedded"],
    ], ids=lambda argv: argv[0])
    def test_embedded_family_rejected_while_planning(self, argv, tmp_path, capsys):
        # these experiments evolve a 2x2 Hamiltonian; the embedded family
        # used to fail only once its run started, after the earlier runs of
        # the sweep had written their files
        assert main(argv + ["--out", str(tmp_path / "d_{i}.csv")]) == 2
        assert violations_of(capsys) == [
            "family: embedded is the two-qubit dilation; use embed or compile"]
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["distinguishability", "--family", "pt", "--a", "0.5", "--c", "-0"],
        ["distinguishability", "--a", "0.5", "--initial", "H,H"],
        ["embed", "--initial", "V,V", "--points", "16"],
    ], ids=" ".join)
    def test_c_of_minus_zero_and_one_state_twice_still_run(self, argv, tmp_path):
        # pin: -0 is the zero c that every family takes, and distinguishability
        # and embed write D = 0 for one state given twice
        out = tmp_path / "d.csv"
        assert main([*argv, "--out", str(out)]) == 0
        meta, header, rows = read_csv(out)
        if "H,H" in argv or "V,V" in argv:
            assert all(float(row[1]) == 0.0 for row in rows)

    def test_sweep_length_mismatch(self, tmp_path, capsys):
        code = main([
            "distinguishability", "--a", "0.5;0.6", "--c", "1;2;3",
            "--out", str(tmp_path / "d_{i}.csv"),
        ])
        assert code == 2
        assert violations_of(capsys) == ["a: sweep length 2 does not match 3"]

    @pytest.mark.parametrize("argv", [
        ["scaling", "--a", "0.2;0.3"],
        ["tomography", "--a", "0.5;0.6"],
        ["compile", "--variant", "full12", "--a", "0.5;0.6"],
    ])
    def test_sweeps_not_supported(self, argv, tmp_path, capsys):
        assert main(argv + ["--out", str(tmp_path / "x_{i}.csv")]) == 2
        assert violations_of(capsys) == [f"{argv[0]}: sweeps are not supported"]
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("a", ["0.5", "0.5;0.6"])
    def test_bad_out_placeholder_reported_once(self, a, tmp_path, capsys):
        code = main(["distinguishability", "--a", a, "--out", str(tmp_path / "x{bogus}.csv")])
        assert code == 2
        violations = violations_of(capsys)
        assert len(violations) == 1 and violations[0].startswith("out: bad placeholder")

    @pytest.mark.parametrize("cfg", sorted(CONFIG_DIR.glob("*.cfg")), ids=lambda p: p.stem)
    def test_every_config_runs(self, cfg, tmp_path):
        assert main(["run", "--config", str(cfg), "--out", f"{tmp_path}/{{i}}.csv"]) == 0
        values = load_config(cfg)
        width = max(len(values.get(key, "").split(";")) for key in ("family", "a", "c", "initial"))
        assert sorted(p.name for p in tmp_path.iterdir()) == [f"{i}.csv" for i in range(width)]

    @pytest.mark.parametrize("command, keys", [
        ("distinguishability", "family a c initial t-max points"),
        ("scaling", "regime a initial points"),
        ("powerlaw", "family a c initial t-min t-max points window"),
        ("embed", "a initial t-max points"),
        ("tomography", "family a c state t shots"),
        ("compile", "variant target-file family a c t restarts"),
        ("run", "a c family initial points regime restarts shots state t t-max t-min "
                "target-file variant window"),
    ])
    def test_help_lists_the_flags(self, command, keys, capsys):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        flags = re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out, flags=re.M)
        assert flags == ["--config", "--seed", "--out"] + [
            f"--{key}" for key in keys.split()]


class TestFailureRecords:
    """A failing run exits 1 or 2 with exactly one JSON record on stderr;
    none ends in a traceback."""

    @pytest.mark.parametrize("argv, code, says", [
        # within 1e-12 of the exceptional point, a is in neither regime
        (["scaling", "--regime", "unbroken", "--a", "0.9999999999999"], 2,
         "a: 0.9999999999999 is in the exceptional-point regime, not the unbroken one"),
        (["scaling", "--regime", "broken", "--a", "1.0000000000001"], 2,
         "a: 1.0000000000001 is in the exceptional-point regime, not the broken one"),
        (["embed", "--a", "0.9999999999999"], 2,
         "a: embedding needs the unbroken regime, got 0.9999999999999"),
        (["scaling", "--regime", "broken", "--a", "1.5,inf"], 2,
         "a: must be finite and >= 0, got inf"),
        (["scaling", "--points", "16"], 2, "points: the recurrence fit needs >= 64, got 16"),
        # the variant fixes the target's dimension
        (["compile", "--variant", "two-qubit", "--a", "0.5"], 2,
         "variant: two-qubit needs a 4x4 target; family passive-pt gives shape (2, 2)"),
        (["compile", "--variant", "full12", "--family", "embedded", "--a", "0.5"], 2,
         "variant: full12 needs a 2x2 target; family embedded gives shape (4, 4)"),
        (["compile", "--variant", "full12", "--target-file", "EYE3"], 2,
         "variant: full12 needs a 2x2 target; the target file gives shape (3, 3)"),
        # config files: unreadable, a key given twice, another experiment
        (["run", "--config", "MISSING"], 2,
         "config: cannot read MISSING: [Errno 2] No such file or directory: 'MISSING'"),
        (["run", "--config", "DUPLICATE"], 2, "config line 3: duplicate key 'a'"),
        (["distinguishability", "--config", "EMBED"], 2,
         "experiment: config says 'embed' but the subcommand is 'distinguishability'"),
        # tau = 2/3: the fit window (4 tau, 12 tau) holds 2 of the 4 samples
        (["scaling", "--regime", "broken", "--a", "1.25", "--points", "4"], 1,
         "window (2.66667, 8) holds 2 points; need >= 3"),
        # time options: finite, t >= 0, t-min and t-max > 0, and a strictly
        # increasing grid (5e-324 over 511 steps rounds every step to 0)
        *((["distinguishability", "--a", "0.5", "--t-max", raw], 2,
           f"t-max: must be finite and > 0, got {value}")
          for raw, value in [("0", "0.0"), ("-1", "-1.0"), ("inf", "inf"), ("nan", "nan")]),
        (["distinguishability", "--a", "0.5", "--t-max", "5e-324"], 2,
         "times: 512 points from 0 to 4.94066e-324 do not strictly increase"),
        (["embed", "--t-max", "0"], 2, "t-max: must be finite and > 0, got 0.0"),
        (["embed", "--t-max", "-1"], 2, "t-max: must be finite and > 0, got -1.0"),
        (["powerlaw", "--a", "1.0", "--t-min", "0"], 2, "t-min: must be finite and > 0, got 0.0"),
        (["powerlaw", "--a", "1.0", "--t-min", "300"], 2,
         "times: 512 points from 300 to 200 do not strictly increase"),
        (["powerlaw", "--a", "1.0", "--t-max", "0"], 2, "t-max: must be finite and > 0, got 0.0"),
        (["powerlaw", "--a", "1.0", "--t-max", "1e-9"], 2,
         "times: 512 points from 0.1 to 1e-09 do not strictly increase"),
        (["tomography", "--a", "0.5", "--t", "-1"], 2, "t: must be finite and >= 0, got -1.0"),
        (["tomography", "--a", "0.5", "--t", "nan"], 2, "t: must be finite and >= 0, got nan"),
        (["compile", "--variant", "full12", "--a", "0.5", "--t", "inf"], 2,
         "t: must be finite and >= 0, got inf"),
        # numpy's SeedSequence takes no negative seed
        *(([*argv, "--seed", "-1"], 2, "seed: must be an integer >= 0, got '-1'")
          for argv in (["distinguishability", "--a", "0.5"], ["scaling"], ["powerlaw", "--a", "1"],
                       ["embed"], ["tomography", "--a", "0.5"],
                       ["compile", "--variant", "full12", "--a", "0.5"])),
        # counts must be positive; text that is no integer cannot be parsed
        (["distinguishability", "--a", "0.5", "--points", "0"], 2,
         "points: must be an integer > 0, got '0'"),
        (["tomography", "--a", "0.5", "--shots", "-3"], 2, "shots: must be an integer > 0, got '-3'"),
        (["compile", "--variant", "full12", "--a", "0.5", "--restarts", "0"], 2,
         "restarts: must be an integer > 0, got '0'"),
        (["distinguishability", "--a", "0.5", "--points", "2.5"], 2, "points: cannot parse '2.5'"),
        # D(t) compares two initial states; tomography reconstructs one
        (["distinguishability", "--a", "0.5", "--initial", "H,V,R"], 2,
         "initial: expected two comma-separated states, got 'H,V,R'"),
        (["tomography", "--a", "0.5", "--state", "H,V"], 2, "state: expected one state, got 'H,V'"),
        # the power-law window must hold 3 points of the planned grid
        *((["powerlaw", "--a", "1.0", *flags], 2, f"window: window {window} holds {n} points; "
                                                  "need >= 3")
          for flags, window, n in [(["--t-max", "3"], "(20, 200)", 0),
                                   (["--points", "3"], "(20, 200)", 1),
                                   (["--t-min", "1e-300"], "(20, 200)", 2),
                                   (["--window", "200,20"], "(200, 20)", 0),
                                   (["--window", "nan,5"], "(nan, 5)", 0)]),
        # the Hamiltonian refuses a spec whose w^2 = 1 + (c + ia)^2 overflows
        *(([*argv, "--a", "1e300"], 2,
           f"{key}: w^2 = 1 + (c + ia)^2 overflows at a = 1e+300, c = 0.0")
          for argv, key in ((["powerlaw"], "hamiltonian"), (["tomography"], "hamiltonian"),
                            (["compile", "--variant", "pt-simplified"], "hamiltonian"),
                            (["scaling", "--regime", "broken"], "a"))),
        (["distinguishability", "--family", "nosym", "--a", "0.5", "--c", "1e300"], 2,
         "hamiltonian: w^2 = 1 + (c + ia)^2 overflows at a = 0.5, c = 1e+300"),
        # at a = 0 H is Hermitian and D(t) constant, with no period to fit
        *((["scaling", "--a", raw], 2,
           f"a: {value} makes H Hermitian, so D(t) is constant and has no timescale")
          for raw, value in [("0", "0.0"), ("-0", "-0.0"), ("0.5,0", "0.0")]),
    ], ids=lambda x: " ".join(x) if isinstance(x, list) else None)
    def test_one_json_record(self, argv, code, says, tmp_path, capsys):
        inputs = {"EYE3": "1,0,0\n0,1,0\n0,0,1\n", "EMBED": "experiment = embed\n",
                  "DUPLICATE": "a = 0.5\nexperiment = embed\na = 0.6\n"}
        for name, text in inputs.items():
            (tmp_path / name).write_text(text)
        out = tmp_path / "out" / "x.csv"
        argv = [str(tmp_path / arg) if arg in {*inputs, "MISSING"} else arg for arg in argv]
        says = says.replace("MISSING", str(tmp_path / "MISSING"))
        assert main([*argv, "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err.splitlines()) == 1
        record = json.loads(err)
        assert (record["violations"] if code == 2 else [record["message"]]) == [says]
        assert not out.parent.exists()

    @pytest.mark.parametrize("family, a, code, error", [
        ("passive-pt", "0.9994", 1, "StateAnnihilated"),
        ("passive-pt", "0.9993", 0, None),
        ("pt", "0.9995", 0, None),
    ])
    def test_passive_pt_stops_where_its_survival_leaves_the_floor(self, family, a, code, error,
                                                                  tmp_path, capsys):
        # passive-pt's survival is pt's times e^{-2at}, below TRACE_FLOOR =
        # 1e-300 past t ~ 345/a: the default four periods reach that from
        # a ~ 0.9994 (at 0.9993 they end at t = 335.9); pt's has no e^{-2at}
        out = tmp_path / "out" / "x.csv"
        assert main(["distinguishability", "--family", family, "--a", a, "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert (json.loads(err)["error"] if err else None) == error
        assert out.exists() == (code == 0)

    @pytest.mark.parametrize("argv, says", [
        # the dilation exists only in the unbroken regime; these runs passed
        # planning and exited 1 with MetricUndefined
        *((["compile", "--variant", "two-qubit", "--family", "embedded", "--a", a],
          f"a: embedding needs the unbroken regime, got {a}")
          for a in ("1.5", "1.0", "0.9999999999999")),
        # only nosym has a c; these runs recorded the c they ignored
        *(([*argv, "--c", c], f"c: family {family} takes no c (only nosym does), got {c}.0")
          for argv, family, c in [
              (["distinguishability", "--family", "pt", "--a", "0.5"], "pt", "7"),
              (["powerlaw", "--family", "t", "--a", "1.0"], "t", "3"),
              (["tomography", "--family", "passive-pt", "--a", "0.5"], "passive-pt", "-2"),
              (["compile", "--variant", "pt-simplified", "--family", "passive-pt", "--a", "0.5"],
               "passive-pt", "9"),
              (["compile", "--variant", "two-qubit", "--family", "embedded", "--a", "0.5"],
               "embedded", "3")]),
        # D(t) of one state given twice is 0 at every t; these runs exited 1
        # with NoOscillation or an InvalidWindow that blamed the window
        *(([*argv, "--initial", pair],
           f"initial: {pair} gives one state twice, so D(t) = 0 at every t: nothing to fit")
          for argv, pair in [(["scaling"], "P+,P+"), (["scaling", "--regime", "broken"], "H,H"),
                             (["powerlaw", "--a", "1.0"], "H,H")]),
    ], ids=lambda x: " ".join(x) if isinstance(x, list) else None)
    def test_refused_while_planning_with_one_violation(self, argv, says, tmp_path, capsys):
        out = tmp_path / "out" / "x.csv"
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert json.loads(err)["violations"] == [says]
        assert not out.parent.exists()

    @pytest.mark.parametrize("argv", [
        ["powerlaw", "--a", "1e300"], ["tomography", "--a", "1e300"],
        ["compile", "--variant", "pt-simplified", "--a", "1e300"],
        ["scaling", "--regime", "broken", "--a", "1e300"],
        ["embed", "--a", "1e300"],
        ["distinguishability", "--family", "nosym", "--a", "0.5", "--c", "1e300"],
    ], ids=" ".join)
    def test_overflowing_hamiltonian_is_one_violation(self, argv, tmp_path, capsys):
        assert main([*argv, "--out", str(tmp_path / "x.csv")]) == 2
        violations = json.loads(capsys.readouterr().err)["violations"]
        assert len(violations) == 1 and "w^2 = 1 + (c + ia)^2 overflows" in violations[0]


def test_import_leaves_scipy_optimize_unloaded():
    # ptsim needs numpy alone, so importing the package and its runner costs
    # neither scipy's import time nor its memory
    run_fresh("import sys, ptsim, ptsim.cli; sys.exit('scipy' in sys.modules)")


def test_figure_runs_leave_scipy_optimize_unloaded(tmp_path):
    # the fits are linear least squares in numpy, the 4x4 mat_exp uses
    # numpy's eigh, and MLE its own Newton steps
    runs = [["run", "--config", str(CONFIG_DIR / "fig2.cfg"), "--out", f"{tmp_path}/f{{i}}.csv"],
            ["scaling", "--regime", "unbroken", "--out", str(tmp_path / "s.csv")],
            ["embed", "--a", "0.5", "--out", str(tmp_path / "e.csv")],
            ["tomography", "--a", "0.5", "--shots", "2000", "--out", str(tmp_path / "t.csv")]]
    run_fresh("import sys\nfrom ptsim.cli import main\n"
              f"for argv in {runs!r}:\n    assert main(argv) == 0\n"
              "sys.exit('scipy' in sys.modules)")


def test_compile_runs_leave_scipy_optimize_unloaded(tmp_path):
    # angle synthesis takes Levenberg-Marquardt steps in numpy
    runs = [["compile", "--variant", "full12", "--family", "passive-pt", "--a", "0.5",
             "--out", str(tmp_path / "f.txt")],
            ["compile", "--variant", "pt-simplified", "--family", "passive-pt", "--a", "1.5",
             "--out", str(tmp_path / "p.txt")],
            ["compile", "--variant", "two-qubit", "--family", "embedded", "--a", "0.5",
             "--t", "0.5", "--out", str(tmp_path / "t.txt")]]
    run_fresh("import sys\nfrom ptsim.cli import main\n"
              f"for argv in {runs!r}:\n    assert main(argv) == 0\n"
              "sys.exit('scipy' in sys.modules)")


# A valid run of each experiment, small enough that the whole boundary table
# below runs in seconds.
_BASE_OPTIONS = {
    "distinguishability": {"a": "0.5", "points": "64"},
    "scaling": {"a": "0.5", "points": "64"},
    "powerlaw": {"a": "1.0", "points": "64"},
    "embed": {"points": "16"},
    "tomography": {"a": "0.5", "shots": "200"},
    "compile": {"variant": "pt-simplified", "a": "0.5", "restarts": "2"},
}
_BOUNDARY_VALUES = ("0", "-1", "-0", "nan", "inf", "-inf", "1e-300", "5e-324", "1e300", "abc",
                    "1,2")
_SWAPPED_BOUNDS = {"t-min": "200", "t-max": "0.1", "window": "200,20"}


def _boundary_cases():
    for name, experiment in EXPERIMENTS.items():
        for key in (*experiment.options, "seed"):
            values = list(_BOUNDARY_VALUES)
            if name == "powerlaw" and key in _SWAPPED_BOUNDS:
                values.append(_SWAPPED_BOUNDS[key])
            yield from ((name, key, value) for value in values)


@pytest.fixture(scope="module")
def boundary_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("boundary")


@pytest.mark.parametrize("name, key, value", list(_boundary_cases()))
def test_boundary_value_gives_one_honest_record(name, key, value, boundary_dir, monkeypatch,
                                                capsys):
    # every option of every experiment, one boundary value at a time: a run
    # succeeds silently or fails with exactly one JSON record, never a traceback
    monkeypatch.chdir(boundary_dir)   # a value read as a target-file path names no file
    options = {**_BASE_OPTIONS[name], key: value}
    # --key=value, since argparse reads a separate "-inf" as a flag
    argv = [name, *(f"--{k}={v}" for k, v in options.items()),
            "--out", str(boundary_dir / f"{name}-{key}-{{i}}.out")]
    # pytest captures warnings, which a plain run would print to stderr
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    err = capsys.readouterr().err
    assert not caught, [str(w.message) for w in caught]
    assert code in (0, 1, 2)
    if code == 0:
        assert err == ""
    else:
        assert len(err.splitlines()) == 1 and "error" in json.loads(err)
