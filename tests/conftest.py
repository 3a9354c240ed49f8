"""Shared helpers and independent oracles for the test suite.

The matrix-exponential oracles here deliberately avoid the code paths of the
library implementation: a fixed-order Taylor series applied on successively
halved substeps until the result stops changing, and mpmath's expm in
40-digit arithmetic.  The Taylor oracle is the weaker one near the exceptional
point under loss (4e-11 at a = 1 + 1e-5, t = 45) and at subnormal times,
where its norm fails; the mpmath oracle covers those cases.

Property tests run under one hypothesis profile: no per-example deadline,
since timings on a shared machine vary by far more than the examples do,
and derandomized, so every run draws the same examples.
"""

import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
from hypothesis import settings

import ptsim

settings.register_profile("ptsim", deadline=None, derandomize=True)
settings.load_profile("ptsim")


def run_fresh(code: str) -> str:
    """Run code in a new interpreter that imports ptsim from this tree, and
    return its standard output; fail if it exits nonzero."""
    src = str(Path(ptsim.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr or f"exit status {proc.returncode}"
    return proc.stdout


def taylor_expm_oracle(H, t, order: int = 20, tol: float = 1e-13) -> np.ndarray:
    """e^{-iHt} by high-order Taylor with step halving until convergence."""
    H = np.asarray(H, dtype=complex)
    eye = np.eye(H.shape[0], dtype=complex)
    prev = None
    steps = 1
    for _ in range(40):
        A = -1j * t * H / steps
        X = eye.copy()
        term = eye.copy()
        for k in range(1, order + 1):
            term = term @ A / k
            X = X + term
        result = np.linalg.matrix_power(X, steps)
        if prev is not None:
            scale = max(np.linalg.norm(result, 2), 1e-300)
            if np.linalg.norm(result - prev, 2) <= tol * scale:
                return result
        prev = result
        steps *= 2
    return prev


def mpmath_expm_oracle(H, t, dps: int = 40) -> np.ndarray:
    """e^{-iHt} from mpmath's expm at ``dps`` significant digits."""
    with mpmath.workdps(dps):
        tH = mpmath.mpf(t) * mpmath.matrix(np.asarray(H, dtype=complex).tolist())
        return np.array(mpmath.expm(-1j * tH).tolist(), dtype=complex)


def propagator_stack(H, times):
    """``(W, g)`` with W = c 1 - i s K stacked over the grid from the
    coefficients ``(c, s, K, g)`` of ``ptsim.qcore.propagator``, so that
    e^{-iHt} = e^{-i Re(tr H) t/2} e^{g} W at each time."""
    c, s, K, g = ptsim.qcore.propagator(H, times)
    return c[:, None, None] * np.eye(2) - 1j * s[:, None, None] * K, g


def random_density(rng, dim: int = 2) -> np.ndarray:
    """Full-rank random density matrix (Ginibre construction)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_pure(rng, dim: int = 2) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_unitary(rng, dim: int = 2) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def partial_trace_oracle(rho, keep: str) -> np.ndarray:
    """Reduced state of a two-qubit operator, or a stack (..., 4, 4), ordered
    ancilla (x) system; ``keep`` is "system" or "ancilla"."""
    blocks = np.asarray(rho, dtype=complex).reshape(np.shape(rho)[:-2] + (2, 2, 2, 2))
    return np.einsum({"system": "...asat->...st", "ancilla": "...asbs->...ab"}[keep], blocks)


def entropy_oracle(rho):
    """Von Neumann entropy in bits, -sum lambda log2 lambda over the
    eigenvalues above 1e-12; a float, or an array for a stack."""
    w = np.linalg.eigvalsh(np.asarray(rho, dtype=complex))
    w = np.where(w > 1e-12, w, 1.0)   # 1 log 1 = 0
    val = -np.sum(w * np.log2(w), axis=-1)
    return float(val) if val.ndim == 0 else val


def qubit_mle_oracle(records) -> np.ndarray:
    """Exact maximum-likelihood qubit state for counts in the bases H, V, P+
    and P- = (H - iV)/sqrt2, solved per Bloch coordinate.

    H and V measure z, P+ measures x and P- measures -y.  Each coordinate c
    has log-likelihood A log(1 + c) + B log(1 - c), where A counts the
    outcomes that favour +c and B those that favour -c.  Inside the Bloch
    ball the optimum is c = (A - B)/(A + B): with equal shots z = f_H - f_V,
    x = 2 f_P+ - 1 and y = 1 - 2 f_P-.  Otherwise it lies on the sphere, where
    A/(1 + c) - B/(1 - c) = 2 mu c with the multiplier mu > 0 set by bisection
    so that |r| = 1; for a given mu each c follows by bisection too, since the
    left side minus the right decreases in c.
    """
    favour = {"H": (0, 1), "V": (0, -1), "P+": (1, 1), "P-": (2, -1)}
    up, down = np.zeros(3), np.zeros(3)   # outcomes favouring +z, +x, +y / -z, -x, -y
    for r in records:
        axis, sign = favour[r.basis_label]
        plus, minus = (r.counts, r.shots - r.counts)[::sign]
        up[axis] += plus
        down[axis] += minus
    # Bloch vector order (x, y, z) from the (z, x, y) accumulation order
    up, down = up[[1, 2, 0]], down[[1, 2, 0]]
    r = (up - down) / (up + down)
    if r @ r <= 1:
        return _bloch_state(r)

    def coordinates(mu):
        lo, hi = -np.ones(3), np.ones(3)
        for _ in range(60):
            c = (lo + hi) / 2
            with np.errstate(divide="ignore", invalid="ignore"):   # c = -1 or 1 with no count
                rising = up / (1 + c) - down / (1 - c) - 2 * mu * c > 0
            lo, hi = np.where(rising, c, lo), np.where(rising, hi, c)
        return (lo + hi) / 2

    mu_lo, mu_hi = 0.0, 1.0
    while np.sum(coordinates(mu_hi) ** 2) > 1:
        mu_hi *= 2
    for _ in range(60):
        mu = (mu_lo + mu_hi) / 2
        if np.sum(coordinates(mu) ** 2) > 1:
            mu_lo = mu
        else:
            mu_hi = mu
    r = coordinates((mu_lo + mu_hi) / 2)
    return _bloch_state(r / np.linalg.norm(r))


def _bloch_state(r) -> np.ndarray:
    x, y, z = r
    return np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]]) / 2
