"""Shared helpers and independent oracles for the test suite.

The matrix-exponential oracle here deliberately avoids the code paths of the
library implementation: a fixed-order Taylor series applied on successively
halved substeps until the result stops changing.

Property tests run under one hypothesis profile: no per-example deadline,
since timings on a shared machine vary by far more than the examples do,
and derandomized, so every run draws the same examples.
"""

import numpy as np
from hypothesis import settings

settings.register_profile("ptsim", deadline=None, derandomize=True)
settings.load_profile("ptsim")


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
