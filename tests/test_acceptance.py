"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Every check is against analytic predictions or the independent
oracles used in the unit tests; tolerances are stated inline.
"""

import numpy as np
import pytest

from ptsim.cli import main
from ptsim.dynamics import (
    distinguishability_series,
    evolve,
    fit_power_law_exponent,
    fit_recurrence_time,
    fit_relaxation_time,
)
from ptsim.embedding import (
    build_h_tot,
    embed_initial,
    entanglement_entropy_series,
    mutual_information_series,
    postselect_pt,
)
from ptsim.models import Family, HamiltonianSpec
from ptsim.optics import (
    DecompositionVariant,
    compile_single_qubit,
    compile_two_qubit,
    realize_single,
)
from ptsim.qcore import (
    KET_H,
    KET_V,
    mat_exp,
    polarization_ket,
    pure_state,
    trace_distance,
)
from ptsim.tomography import (
    born_probabilities,
    mle_reconstruct,
    simulate_counts,
    standard_bases,
)

RHO_H = pure_state(KET_H)
RHO_V = pure_state(KET_V)


def report(number, description, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {number}: {description} ({detail})")
    assert ok, f"criterion {number}: {description}: {detail}"


def pt(a):
    return HamiltonianSpec(Family.PT, a)


def test_criterion_01_recurrence_law():
    worst = 0.0
    for a in (0.2, 0.5, 0.8, 0.9):
        T_theory = np.pi / np.sqrt(1 - a * a)
        grid = np.linspace(0.0, 4 * T_theory, 512)
        series = distinguishability_series(pt(a), RHO_H, RHO_V, grid)
        T_fit = fit_recurrence_time(series).parameter
        worst = max(worst, abs(T_fit * np.sqrt(1 - a * a) - np.pi) / np.pi)
    report(1, "recurrence time follows pi/sqrt(1-a^2) within 1%",
           worst < 0.01, f"worst relative error {worst:.2e}")


def test_criterion_02_full_information_retrieval():
    a = 0.5
    T = np.pi / np.sqrt(1 - a * a)
    grid = np.linspace(0.0, T, 513)
    series = distinguishability_series(pt(a), RHO_H, RHO_V, grid)
    d_at_T = abs(series.values[-1] - 1.0)
    d_min = series.values.min()
    report(2, "D(T) = 1 within 1e-8 and min D > 0 over one period",
           d_at_T < 1e-8 and d_min > 0.0,
           f"|D(T)-1| = {d_at_T:.2e}, min D = {d_min:.4f}")


def test_criterion_03_relaxation_law():
    worst = 0.0
    for a in (1.1, 1.25, 1.5, 2.0):
        tau_theory = 1.0 / (2 * np.sqrt(a * a - 1))
        grid = np.linspace(0.0, 13 * tau_theory, 512)
        series = distinguishability_series(pt(a), RHO_H, RHO_V, grid)
        tau_fit = fit_relaxation_time(series, (4 * tau_theory, 12 * tau_theory)).parameter
        worst = max(worst, abs(2 * tau_fit * np.sqrt(a * a - 1) - 1.0))
    report(3, "relaxation time follows 1/(2 sqrt(a^2-1)) within 2%",
           worst < 0.02, f"worst |2 tau sqrt(a^2-1) - 1| = {worst:.2e}")


def test_criterion_04_exceptional_point_power_laws():
    cases = [
        (Family.PT, ("H", "V"), -2.0),
        (Family.TIME_REVERSAL, ("P+", "M"), -2.0),
        (Family.TIME_REVERSAL, ("H", "V"), -1.0),
        (Family.PT, ("R", "L"), -1.0),
    ]
    grid = np.geomspace(0.1, 200.0, 512)
    worst, details = 0.0, []
    for family, labels, want in cases:
        spec = HamiltonianSpec(family, 1.0)
        series = distinguishability_series(
            spec,
            pure_state(polarization_ket(labels[0])),
            pure_state(polarization_ket(labels[1])),
            grid,
        )
        got = fit_power_law_exponent(series, (20.0, 200.0)).parameter
        worst = max(worst, abs(got - want))
        details.append(f"{family.value}/{'+'.join(labels)}: {got:.3f} (want {want:g})")
    report(4, "exceptional-point exponents within 0.05",
           worst < 0.05, "; ".join(details))


def test_criterion_05_no_symmetry_decay():
    spec = HamiltonianSpec(Family.NO_SYMMETRY, 0.5, 0.5)
    grid = np.linspace(0.0, 10.0, 256)
    series = distinguishability_series(spec, RHO_H, RHO_V, grid)
    non_increasing = bool(np.all(np.diff(series.values) <= 1e-12))
    never_returns = bool(series.values[1:].max() < 1.0 - 1e-6)
    report(5, "no-symmetry dynamics never retrieves information",
           non_increasing and never_returns,
           f"non-increasing={non_increasing}, max D(t>0) = {series.values[1:].max():.6f}")


def test_criterion_06_dilation_equivalence():
    worst = 0.0
    for a in (0.2, 0.5, 0.8):
        T = np.pi / np.sqrt(1 - a * a)
        h_tot = build_h_tot(a)
        for chi in (KET_H, KET_V):
            psi0 = embed_initial(chi, a)
            rho0 = pure_state(chi)
            for t in np.linspace(0.0, 2 * T, 64):
                got = postselect_pt(mat_exp(h_tot, t) @ psi0)
                want = evolve(pt(a), rho0, t)
                worst = max(worst, trace_distance(got, want))
    report(6, "post-selected dilation matches direct evolution within 1e-9",
           worst < 1e-9, f"worst trace distance {worst:.2e}")


def test_criterion_07_half_period_entanglement():
    a = 0.5
    T = np.pi / np.sqrt(1 - a * a)
    grid = np.linspace(0.0, 2 * T, 256)
    s_fit = fit_recurrence_time(entanglement_entropy_series(a, KET_H, grid)).parameter
    i_fit = fit_recurrence_time(mutual_information_series(a, KET_H, grid)).parameter
    d_series = distinguishability_series(pt(a), RHO_H, RHO_V, np.linspace(0, 4 * T, 512))
    d_fit = fit_recurrence_time(d_series).parameter
    err_s = abs(s_fit - T / 2) / (T / 2)
    err_ratio = abs(s_fit / d_fit - 0.5) / 0.5
    err_i = abs(i_fit - s_fit) / s_fit
    ok = err_s < 0.01 and err_ratio < 0.01 and err_i < 0.01
    report(7, "entanglement entropy and mutual information oscillate at half the D period",
           ok,
           f"S period {s_fit:.4f} vs {T/2:.4f}, S/D ratio err {err_ratio:.2e}, "
           f"I vs S err {err_i:.2e}")


def test_criterion_08_compiler_round_trip():
    rng = np.random.default_rng(2024)
    hits = 0
    for i in range(100):
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(z)
        target = rng.uniform(0.3, 1.0) * q * (np.diag(r) / np.abs(np.diag(r)))
        sol = compile_single_qubit(
            target, DecompositionVariant.FULL12,
            restarts=50, seed=5000 + i, success_residual=1e-5,
        )
        realized = realize_single(DecompositionVariant.FULL12, sol.angles)
        if np.linalg.norm(realized - np.exp(1j * sol.global_phase) * target) < 1e-5:
            hits += 1
    two_qubit_ok, residuals = True, []
    h_tot = build_h_tot(0.5)
    for t in (0.3, 0.7, 1.5):
        sol = compile_two_qubit(mat_exp(h_tot, t), restarts=60, seed=int(10 * t))
        residuals.append(sol.residual)
        two_qubit_ok = two_qubit_ok and sol.residual < 1e-6
    report(8, "compiler round trip (>= 95/100 single-qubit; two-qubit < 1e-6)",
           hits >= 95 and two_qubit_ok,
           f"single hits {hits}/100; two-qubit residuals "
           + ", ".join(f"{r:.1e}" for r in residuals))


def test_criterion_09_tomography_pipeline():
    a, shots = 0.5, 18000
    bases = standard_bases(2)
    labels = [b.label for b in bases]
    T = np.pi / np.sqrt(1 - a * a)
    grid = np.linspace(0.0, 2 * T, 32)
    pairs = [(evolve(pt(a), RHO_H, t), evolve(pt(a), RHO_V, t)) for t in grid]
    exact = np.array([trace_distance(r1, r2) for r1, r2 in pairs])
    physical = True
    maes = []
    for seed in range(100):
        estimates = []
        for i, (r1, r2) in enumerate(pairs):
            recon = []
            for j, rho in enumerate((r1, r2)):
                probs = born_probabilities(rho, bases)
                records = simulate_counts(probs, shots, seed * 10000 + 2 * i + j, labels)
                est = mle_reconstruct(records, bases, max_iter=2000, tol=1e-8)
                w = np.linalg.eigvalsh(est)
                physical = physical and w.min() >= -1e-10 and abs(np.trace(est).real - 1) < 1e-10
                recon.append(est)
            estimates.append(trace_distance(*recon))
        maes.append(np.mean(np.abs(np.array(estimates) - exact)))
    mae = float(np.mean(maes))
    report(9, "MLE-reconstructed D(t) tracks exact within 0.02 (mean over 100 seeds)",
           mae < 0.02 and physical,
           f"mean absolute error {mae:.4f}; outputs physical: {physical}")


def test_criterion_10_determinism(tmp_path):
    args = [
        "tomography", "--a", "0.5", "--t", "1.0", "--state", "H",
        "--shots", "18000", "--seed", "7",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    identical = out1.read_bytes() == out2.read_bytes()

    cfg = tmp_path / "fig.cfg"
    cfg.write_text(
        "experiment = distinguishability\nfamily = pt\na = 0.5\n"
        "t-max = 10\npoints = 128\nseed = 3\n"
        f"out = {tmp_path}/c{{i}}.csv\n".replace("{i}", "{i}")
    )
    assert main(["run", "--config", str(cfg)]) == 0
    first = (tmp_path / "c0.csv").read_bytes()
    assert main(["run", "--config", str(cfg)]) == 0
    identical = identical and first == (tmp_path / "c0.csv").read_bytes()
    report(10, "identical config and seed give byte-identical CSV output",
           identical, "tomography and distinguishability reruns compared")
