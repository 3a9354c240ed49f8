"""Simulated photon-counting tomography: Born-rule probabilities in the
experiment's bases, binomial count generation, and density-matrix
reconstruction by linear inversion and by iterative maximum likelihood."""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimMismatch,
    MleFailed,
    NotInformationallyComplete,
    UnsupportedDimension,
)
from .qcore import as_density_matrix, polarization_ket

MLE_MAX_ITER = 10000
MLE_TOL = 1e-10
MLE_DILUTION = 0.1
_PROB_CLIP = 1e-12

# basis labels of the experiment -> polarization_ket labels, in basis order;
# the ancilla's spatial modes u, d take the places of H, V
_QUBIT_LABELS = {"H": "H", "V": "V", "P+": "P+", "P-": "L"}
_ANCILLA_LABELS = {"u": "H", "d": "V", "S+": "P+", "S-": "L"}


@dataclass(frozen=True)
class MeasurementBasis:
    """A rank-1 projective measurement outcome."""

    label: str
    projector: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.projector, dtype=complex)
        if np.abs(p @ p - p).max() > 1e-12 or abs(np.trace(p).real - 1) > 1e-12:
            raise ValueError(f"projector for {self.label!r} is not a rank-1 projector")
        object.__setattr__(self, "projector", p)


@dataclass(frozen=True)
class CountRecord:
    """Photon counts observed in one basis."""

    basis_label: str
    counts: int
    shots: int
    seed: int | None = None

    def __post_init__(self):
        if not 0 <= self.counts <= self.shots:
            raise ValueError(f"counts {self.counts} outside [0, shots={self.shots}]")

    @property
    def frequency(self) -> float:
        return self.counts / self.shots


def standard_bases(dim: int) -> list:
    """Measurement bases of the experiment.

    dim 2: {H, V, P+, P-} with P+ = (H+V)/sqrt2 and P- = (H-iV)/sqrt2, the
    ``polarization_ket`` labels H, V, P+ and L.
    dim 4: the 16 tensor products {u, d, S+, S-} (x) {H, V, P+, P-}, where the
    ancilla kets u, d, S+, S- are the qubit's H, V, P+, L.
    """
    qubit = {lbl: polarization_ket(name) for lbl, name in _QUBIT_LABELS.items()}
    if dim == 2:
        kets = qubit
    elif dim == 4:
        kets = {f"{albl}:{qlbl}": np.kron(polarization_ket(aname), qket)
                for albl, aname in _ANCILLA_LABELS.items() for qlbl, qket in qubit.items()}
    else:
        raise UnsupportedDimension(f"no standard bases for dimension {dim}")
    return [MeasurementBasis(lbl, np.outer(k, k.conj())) for lbl, k in kets.items()]


def born_probabilities(rho, bases) -> np.ndarray:
    """Tr[rho Pi_b] for each basis, clipped into [0, 1]."""
    r = np.asarray(rho, dtype=complex)
    for b in bases:
        if b.projector.shape != r.shape:
            raise DimMismatch(
                f"basis {b.label!r} has shape {b.projector.shape}, state {r.shape}"
            )
    p = np.array([np.trace(r @ b.projector).real for b in bases])
    return np.clip(p, 0.0, 1.0)


def simulate_counts(probs, shots: int, seed: int, labels=None) -> list:
    """Independent binomial counts for each basis, deterministic in the seed."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    p = np.asarray(probs, dtype=float)
    if np.any((p < 0) | (p > 1)):
        raise ValueError("probabilities must lie in [0, 1]")
    if labels is None:
        labels = [str(i) for i in range(len(p))]
    rng = np.random.default_rng(seed)
    counts = rng.binomial(shots, p)
    return [
        CountRecord(basis_label=lbl, counts=int(c), shots=shots, seed=seed)
        for lbl, c in zip(labels, counts)
    ]


def _hermitian_basis(dim: int) -> np.ndarray:
    """Traceless Hermitian basis, orthonormal under Tr[B_i B_j]."""
    mats = []
    for i in range(dim):
        for j in range(i + 1, dim):
            m = np.zeros((dim, dim), dtype=complex)
            m[i, j] = m[j, i] = 1 / np.sqrt(2)
            mats.append(m)
            m = np.zeros((dim, dim), dtype=complex)
            m[i, j] = -1j / np.sqrt(2)
            m[j, i] = 1j / np.sqrt(2)
            mats.append(m)
    for k in range(1, dim):
        diag = np.zeros(dim)
        diag[:k] = 1.0
        diag[k] = -k
        mats.append(np.diag(diag).astype(complex) / np.sqrt(k * (k + 1)))
    return np.stack(mats)


def _design_matrix(bases, dim: int) -> np.ndarray:
    basis_ops = _hermitian_basis(dim)
    return np.array(
        [[np.trace(b.projector @ op).real for op in basis_ops] for b in bases]
    )


def _check_complete(design: np.ndarray, dim: int):
    if np.linalg.matrix_rank(design) < dim * dim - 1:
        raise NotInformationallyComplete(
            f"{design.shape[0]} bases span rank {np.linalg.matrix_rank(design)} "
            f"< {dim * dim - 1}"
        )


def _linear_inversion(freqs, bases) -> np.ndarray:
    dim = bases[0].projector.shape[0]
    design = _design_matrix(bases, dim)
    _check_complete(design, dim)
    offsets = np.array([np.trace(b.projector).real / dim for b in bases])
    coef, *_ = np.linalg.lstsq(design, np.asarray(freqs, float) - offsets, rcond=None)
    rho = np.eye(dim, dtype=complex) / dim
    rho += np.tensordot(coef, _hermitian_basis(dim), axes=1)
    lo = np.linalg.eigvalsh(rho).min()
    if lo < -1e-10:
        warnings.warn(
            f"linear inversion produced a negative eigenvalue ({lo:.3e}); "
            "returning the unphysical estimate",
            stacklevel=3,
        )
    return rho


def linear_inversion(records, bases) -> np.ndarray:
    """Least-squares state estimate from counts; Hermitian and unit trace by
    construction but possibly non-positive under noise (flagged via warning)."""
    return _linear_inversion([r.frequency for r in records], bases)


def linear_inversion_from_probabilities(probs, bases) -> np.ndarray:
    """Linear inversion with exact probabilities in place of frequencies."""
    return _linear_inversion(probs, bases)


def _mle(freqs, weights, bases, max_iter, tol, full_output):
    dim = bases[0].projector.shape[0]
    projs = np.stack([b.projector for b in bases])
    _check_complete(_design_matrix(bases, dim), dim)
    f = np.asarray(freqs, dtype=float)
    if np.all(f == 0):
        raise MleFailed("all counts are zero; the likelihood is degenerate")
    w = np.asarray(weights, dtype=float)
    w = w / w.sum()
    wf, wg = w * f, w * (1 - f)
    has_f, has_g = f > 0, f < 1

    projs_flat = projs.reshape(len(bases), -1)
    compl_flat = (np.eye(dim, dtype=complex)[None] - projs).reshape(len(bases), -1)
    eye = np.eye(dim, dtype=complex)

    def probs_of(rho):
        return np.clip(np.real(projs_flat @ rho.conj().reshape(-1)),
                       _PROB_CLIP, 1 - _PROB_CLIP)

    def loglike(p):
        s = np.sum(wf[has_f] * np.log(p[has_f]))
        s += np.sum(wg[has_g] * np.log(1 - p[has_g]))
        return float(s)

    rho = eye / dim
    p = probs_of(rho)
    current = loglike(p)
    history = [current]
    alpha = MLE_DILUTION
    for _ in range(max_iter):
        R = (
            np.where(has_f, wf / p, 0.0) @ projs_flat
            + np.where(has_g, wg / (1 - p), 0.0) @ compl_flat
        ).reshape(dim, dim)
        # diluted multiplicative update; shrink the step until the
        # likelihood does not decrease, so ascent is guaranteed
        while True:
            K = (1 - alpha) * eye + alpha * R
            cand = K @ rho @ K
            cand = (cand + cand.conj().T) / 2
            cand /= np.trace(cand).real
            p_cand = probs_of(cand)
            new = loglike(p_cand)
            if new >= current - 1e-15:
                break
            alpha *= 0.5
            if alpha < 1e-6:
                raise MleFailed(
                    f"likelihood decreases even at dilution {alpha:.1e}"
                )
        gain = new - current
        rho, p, current = cand, p_cand, new
        history.append(current)
        if alpha < 1.0:
            alpha = min(1.0, 1.5 * alpha)
        if 0 <= gain < tol:
            break
    result = as_density_matrix(rho)
    if full_output:
        return result, {"loglike": history, "iterations": len(history) - 1}
    return result


def mle_reconstruct(records, bases, max_iter: int = MLE_MAX_ITER,
                    tol: float = MLE_TOL, full_output: bool = False):
    """Maximum-likelihood state estimate from counts.

    Iterates the diluted multiplicative fixed-point update rho -> K rho K
    with K = (1 - alpha) 1 + alpha R, where R reweights each basis projector
    and its complement by observed/predicted frequency ratios.  The dilution
    starts at 0.1 and adapts, shrinking whenever a step would lower the
    likelihood, so the log-likelihood never decreases and the output is
    always a valid density matrix.  Stops when the log-likelihood gain drops
    below ``tol`` or after ``max_iter`` iterations.
    """
    return _mle(
        [r.frequency for r in records],
        [r.shots for r in records],
        bases, max_iter, tol, full_output,
    )


def mle_from_probabilities(probs, bases, max_iter: int = MLE_MAX_ITER,
                           tol: float = MLE_TOL, full_output: bool = False):
    """Maximum likelihood in the infinite-shot limit: exact probabilities
    stand in for observed frequencies, with equal weight per basis."""
    return _mle(probs, np.ones(len(bases)), bases, max_iter, tol, full_output)
