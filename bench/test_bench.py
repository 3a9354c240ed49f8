"""Tests of the benchmark's reference module and of its output checks.

Run from the repository root with ``python3 -m pytest bench -q``.  The
perturbation tests show that each check rejects a wrong output.
"""

import sys
from pathlib import Path

import numpy as np
from scipy.linalg import expm

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import ptsim.cli  # noqa: E402
from ptsim import optics  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402


def test_reference_full_retrieval_at_one_period():
    a = 0.5
    period = reference.recurrence_time(a)
    d = reference.distinguishability("pt", a, 0.0, ("H", "V"), [0.0, period / 2, period])
    assert abs(d[0] - 1) < 1e-14 and abs(d[2] - 1) < 1e-12
    assert d[1] < 1


def test_reference_propagator_is_linear_at_the_exceptional_point():
    H = reference.hamiltonian("pt", 1.0)
    for t in (0.1, 3.0, 200.0):
        np.testing.assert_allclose(reference.propagator2(H, t), np.eye(2) - 1j * H * t,
                                   atol=1e-13 * t)


def test_reference_propagator_matches_expm_in_both_regimes():
    for family, a, c in (("pt", 0.5, 0.0), ("passive-pt", 1.6, 0.0), ("t", 0.9, 0.0),
                         ("nosym", 0.5, 0.5)):
        H = reference.hamiltonian(family, a, c)
        for t in (0.3, 2.0, 7.5):
            np.testing.assert_allclose(reference.propagator2(H, t), expm(-1j * t * H),
                                       rtol=1e-12, atol=1e-12)


def test_reference_scaled_propagator_survives_the_broken_regime_at_long_times():
    d = reference.distinguishability("pt", 2.0, 0.0, ("H", "V"), np.linspace(0, 300, 512))
    assert np.all(np.isfinite(d)) and d[0] == 1.0 and d[-1] < 1e-12


def test_reference_pure_dilation_has_mutual_information_twice_the_entropy():
    a = 0.5
    times = np.linspace(0, 2 * reference.recurrence_time(a), 16)
    psis = reference.dilation_states(a, "H", times)
    blocks = psis.reshape(-1, 2, 2)
    ancilla = np.einsum("nas,nbs->nab", blocks, blocks.conj())
    s_sys = reference.system_entropy(psis)
    s_anc = reference.entropy2(ancilla)
    # the total state is pure, so I = S_sys + S_anc - 0 = 2 S_sys
    np.testing.assert_allclose(s_sys + s_anc, 2 * s_sys, atol=1e-12)
    assert s_sys.min() >= 0 and s_sys.max() <= 1 and s_sys.max() > 0.1


def test_reference_postselected_dilation_matches_the_qubit():
    a = 0.8
    times = np.linspace(0, 10, 9)
    rho_h = reference.postselected(reference.dilation_states(a, "H", times))
    rho_v = reference.postselected(reference.dilation_states(a, "V", times))
    np.testing.assert_allclose(
        reference.trace_distance2(rho_h, rho_v),
        reference.distinguishability("pt", a, 0.0, ("H", "V"), times), atol=1e-10)


def _cli_csv(tmp_path, argv):
    out = tmp_path / "out.csv"
    assert ptsim.cli.main(argv + ["--out", str(out)]) == 0
    return out


def _perturb_row(path, row, column, delta):
    lines = path.read_text().splitlines()
    data_start = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
    cells = lines[data_start + row].split(",")
    cells[column] = repr(float(cells[column]) + delta)
    lines[data_start + row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_perturbed_distinguishability_row_fails(tmp_path):
    path = _cli_csv(tmp_path, ["distinguishability", "--family", "t", "--a", "0.5",
                               "--initial", "P+,M", "--points", "64"])
    assert checks.check_series(*checks.read_csv(path), 64) == []
    _perturb_row(path, 17, 1, 1e-7)
    assert checks.check_series(*checks.read_csv(path), 64)


def test_perturbed_embed_row_fails(tmp_path):
    path = _cli_csv(tmp_path, ["embed", "--a", "0.5", "--points", "32"])
    assert checks.check_embed(*checks.read_csv(path), 32) == []
    _perturb_row(path, 5, 3, 1e-6)   # the I column
    assert any("2S" in p for p in checks.check_embed(*checks.read_csv(path), 32))


def _pt_simplified_record():
    target = reference.propagator2(reference.hamiltonian("passive-pt", 1.2), 1.5)
    sol = optics.compile_single_qubit(target, optics.DecompositionVariant.PT_SIMPLIFIED,
                                      restarts=50, seed=11)
    record = {"variant": sol.variant.value, "angles": dict(sol.angles),
              "residual": sol.residual, "global_phase": sol.global_phase,
              "success": sol.success}
    return record, target


def test_rebuilt_angle_record_passes():
    record, target = _pt_simplified_record()
    assert record["success"]
    assert checks.check_angle_record(record, target, 1e-6) == []


def test_perturbed_angle_fails():
    record, target = _pt_simplified_record()
    record["angles"]["theta_H"] += 1e-5
    assert checks.check_angle_record(record, target, 1e-6)


def test_false_success_claim_fails():
    record, target = _pt_simplified_record()
    worse = reference.propagator2(reference.hamiltonian("passive-pt", 0.3), 1.5)
    problems = checks.check_angle_record(record, worse, 1e-6)
    assert any("success claimed" in p for p in problems)
