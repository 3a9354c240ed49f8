"""Correctness checks on ptsim's outputs.

Every check compares against the reference module or against a property the
method must have; none compares against a stored copy of earlier output.
Each check returns a list of problems, empty when the output passes.
"""

from pathlib import Path

import numpy as np

import reference

D_TOL = 1e-9                 # D(t) against the closed form
MONOTONE_TOL = 1e-12         # allowed rise of a non-increasing series
RECURRENCE_REL_TOL = 0.01
RELAXATION_REL_TOL = 0.02
EXPONENT_TOL = 0.05
ENTROPY_TOL = 1e-9
DENSITY_TOL = 1e-10          # Hermiticity, trace and eigenvalue floor
LOGLIKE_SLACK = 1e-15        # ascent slack the MLE line search allows itself
QUBIT_MAE_LIMIT = 0.02
RESIDUAL_AGREEMENT = 1e-9    # rebuilt against reported synthesis residual
TARGET_TOL = 1e-10           # ptsim target against the reference target


def read_csv(path):
    """Parse a ptsim CSV: '# key = value' header lines, a column row, numbers."""
    meta, header, rows = {}, None, []
    for line in Path(path).read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    data = np.array(rows, dtype=float).reshape(-1, len(header or ()))
    return meta, header, data


def _column(header, data, name):
    return data[:, header.index(name)]


def _labels(meta):
    return tuple(meta["initial"].split("|"))


def check_series(meta, header, data, points):
    """distinguishability and powerlaw CSVs: t, D rows."""
    problems = []
    if len(data) != points:
        problems.append(f"{len(data)} rows, expected {points}")
    if len(data) == 0:
        return problems
    family, a, c = meta["family"], float(meta["a"]), float(meta["c"])
    t, d = _column(header, data, "t"), _column(header, data, "D")
    err = np.abs(d - reference.distinguishability(family, a, c, _labels(meta), t)).max()
    if not err <= D_TOL:
        problems.append(f"D differs from the closed form by {err:.3g}")
    if family == "nosym" and np.diff(d).max(initial=0.0) > MONOTONE_TOL:
        problems.append(f"nosym D rises by {np.diff(d).max():.3g}")
    if meta["experiment"] == "powerlaw":
        want = reference.EP_EXPONENTS.get((family, _labels(meta)))
        got = float(meta["exponent_fit"])
        if want is None or not abs(got - want) <= EXPONENT_TOL:
            problems.append(f"exponent {got:.4f}, expected {want}")
    return problems


def check_embed(meta, header, data, points):
    """embed CSVs: t, D, S, I rows of the two-qubit dilation."""
    problems = []
    if meta.get("entropy_log_base") != "2":
        problems.append(f"entropy_log_base is {meta.get('entropy_log_base')!r}, expected 2")
    if len(data) != points:
        problems.append(f"{len(data)} rows, expected {points}")
    if len(data) == 0:
        return problems
    a, labels = float(meta["a"]), _labels(meta)
    t = _column(header, data, "t")
    d, s, i = (_column(header, data, n) for n in ("D", "S", "I"))
    err_d = np.abs(d - reference.distinguishability("pt", a, 0.0, labels, t)).max()
    if not err_d <= D_TOL:
        problems.append(f"D differs from the direct 2x2 D by {err_d:.3g}")
    err_s = np.abs(s - reference.system_entropy(
        reference.dilation_states(a, labels[0], t))).max()
    if not err_s <= ENTROPY_TOL:
        problems.append(f"S differs from the reference entropy by {err_s:.3g}")
    err_i = np.abs(i - 2 * s).max()
    if not err_i <= ENTROPY_TOL:
        problems.append(f"I differs from 2S by {err_i:.3g}")
    if s.min() < -ENTROPY_TOL or s.max() > 1 + ENTROPY_TOL:
        problems.append(f"S leaves [0, 1]: [{s.min():.6g}, {s.max():.6g}]")
    return problems


def check_scaling(meta, header, data, expected_a):
    """scaling CSVs: a, fitted time, theory rows."""
    problems = []
    a = _column(header, data, "a") if len(data) else np.array([])
    if not np.array_equal(a, np.asarray(expected_a, dtype=float)):
        problems.append(f"a values {a.tolist()}, expected {list(expected_a)}")
    if meta["regime"] == "unbroken":
        fit = _column(header, data, "T_fit")
        want, tol = np.array([reference.recurrence_time(x) for x in a]), RECURRENCE_REL_TOL
    else:
        fit = _column(header, data, "tau_fit")
        want, tol = np.array([reference.relaxation_time(x) for x in a]), RELAXATION_REL_TOL
    rel = np.abs(fit / want - 1)
    if len(rel) and not rel.max() < tol:
        problems.append(f"fit off the law by {rel.max():.3g} (limit {tol})")
    return problems


def check_estimate(rho, loglike):
    """MLE output: a density matrix, reached by a non-decreasing likelihood."""
    problems = []
    rho = np.asarray(rho)
    herm = np.abs(rho - rho.conj().T).max()
    if not herm <= DENSITY_TOL:
        problems.append(f"estimate not Hermitian ({herm:.3g})")
    tr = np.trace(rho).real
    if not abs(tr - 1) <= DENSITY_TOL:
        problems.append(f"estimate trace {tr!r}")
    lo = np.linalg.eigvalsh((rho + rho.conj().T) / 2).min()
    if not lo >= -DENSITY_TOL:
        problems.append(f"estimate eigenvalue {lo:.3g}")
    drop = -np.diff(np.asarray(loglike, dtype=float)).max(initial=-np.inf)
    if drop > LOGLIKE_SLACK:
        problems.append(f"log-likelihood decreases by {drop:.3g}")
    return problems


def fidelity_bound(dim: int, shots: int) -> float:
    """Lowest acceptable mean pure-state fidelity of an MLE estimate.

    Each basis frequency has standard deviation at most 1/(2 sqrt(shots)).
    An estimate off by that much in each of the dim - 1 directions
    orthogonal to the true ket loses about (dim - 1)/(2 sqrt(shots)) of
    fidelity.
    """
    return 1 - (dim - 1) / (2 * np.sqrt(shots))


def check_angle_record(record, target, goal):
    """Rebuild a synthesis result with the reference Jones matrices.

    ``record`` holds variant, angles, residual, global_phase and success as
    ptsim reported them; ``target`` is the reference target operator.
    """
    variant = record["variant"]
    if variant == "two-qubit":
        realized = reference.realize_two_qubit(record["angles"])
    else:
        realized = reference.realize_single(variant, record["angles"])
    rebuilt = reference.aligned_residual(realized, target)
    at_phase = float(np.linalg.norm(
        realized - np.exp(1j * record["global_phase"]) * np.asarray(target)))
    problems = []
    for name, value in (("aligned", rebuilt), ("at the reported phase", at_phase)):
        if not abs(value - record["residual"]) <= RESIDUAL_AGREEMENT:
            problems.append(
                f"rebuilt residual {name} {value:.3g} != reported {record['residual']:.3g}")
    if record["success"] and not rebuilt < goal:
        problems.append(f"success claimed but rebuilt residual {rebuilt:.3g} >= {goal:g}")
    return problems


def check_target(ptsim_target, reference_target):
    err = np.abs(np.asarray(ptsim_target) - reference_target).max()
    return [] if err <= TARGET_TOL else [f"target differs from the reference by {err:.3g}"]
