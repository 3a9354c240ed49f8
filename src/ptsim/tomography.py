"""Simulated photon-counting tomography: Born-rule probabilities in the
experiment's bases, binomial count generation, and density-matrix
reconstruction by linear inversion and by certified maximum likelihood."""

import functools
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
        if self.shots < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots}")
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


def _projectors(bases) -> np.ndarray:
    """The bases' projectors as one (n, d, d) stack; DimMismatch names the
    first basis whose projector's shape differs from the first one's."""
    projs = [b.projector for b in bases]
    for b, proj in zip(bases, projs):
        if proj.shape != projs[0].shape:
            raise DimMismatch(f"basis {b.label!r} has shape {proj.shape}, "
                              f"basis {bases[0].label!r} {projs[0].shape}")
    return np.stack(projs)


def born_probabilities(rho, bases) -> np.ndarray:
    """Tr[rho Pi_b] for each basis, clipped into [0, 1]."""
    r = np.asarray(rho, dtype=complex)
    if len(bases) == 0:
        return np.zeros(0)
    projs = _projectors(bases)
    if projs.shape[1:] != r.shape:
        raise DimMismatch(f"basis {bases[0].label!r} has shape {projs.shape[1:]}, state {r.shape}")
    return np.clip(np.trace(r @ projs, axis1=1, axis2=2).real, 0.0, 1.0)


def simulate_counts(probs, shots: int, seed: int, labels=None) -> list:
    """Independent binomial counts for each basis, deterministic in the seed."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1:
        raise ValueError(f"probabilities must be 1-D, got shape {p.shape}")
    if np.any((p < 0) | (p > 1)):
        raise ValueError("probabilities must lie in [0, 1]")
    if labels is None:
        labels = [str(i) for i in range(len(p))]
    elif len(labels) != len(p):
        raise DimMismatch(f"{len(labels)} labels for {len(p)} probabilities")
    rng = np.random.default_rng(seed)
    counts = rng.binomial(shots, p)
    return [
        CountRecord(basis_label=lbl, counts=int(c), shots=shots, seed=seed)
        for lbl, c in zip(labels, counts)
    ]


@functools.cache
def _hermitian_basis(dim: int) -> np.ndarray:
    """Traceless Hermitian basis, orthonormal under Tr[B_i B_j]; read-only."""
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
    basis = np.stack(mats)
    basis.setflags(write=False)
    return basis


def _design_matrix(projs) -> np.ndarray:
    """Tr[Pi_b B_k] for each projector Pi_b and traceless basis element B_k."""
    return np.einsum("bij,kji->bk", projs, _hermitian_basis(projs.shape[-1])).real


def _check_complete(design: np.ndarray, dim: int):
    if np.linalg.matrix_rank(design) < dim * dim - 1:
        raise NotInformationallyComplete(
            f"{design.shape[0]} bases span rank {np.linalg.matrix_rank(design)} "
            f"< {dim * dim - 1}"
        )


def _linear_inversion(freqs, bases) -> np.ndarray:
    projs = _projectors(bases)
    dim = projs.shape[-1]
    design = _design_matrix(projs)
    _check_complete(design, dim)
    offsets = np.trace(projs, axis1=1, axis2=2).real / dim
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


def _check_count(values, bases, what: str):
    if len(values) != len(bases):
        raise DimMismatch(f"{len(values)} {what} for {len(bases)} bases")


def _frequencies_and_shots(records, bases) -> tuple:
    """Frequencies and shots of records paired with the bases by position;
    DimMismatch names the count or the first label that does not match."""
    _check_count(records, bases, "count records")
    for i, (r, b) in enumerate(zip(records, bases)):
        if r.basis_label != b.label:
            raise DimMismatch(f"record {i} counts basis {r.basis_label!r}, "
                              f"but basis {i} is {b.label!r}")
    return [r.frequency for r in records], [r.shots for r in records]


def linear_inversion(records, bases) -> np.ndarray:
    """Least-squares state estimate from counts; Hermitian and unit trace by
    construction but possibly non-positive under noise (flagged via warning)."""
    return _linear_inversion(_frequencies_and_shots(records, bases)[0], bases)


def linear_inversion_from_probabilities(probs, bases) -> np.ndarray:
    """Linear inversion with exact probabilities in place of frequencies."""
    _check_count(probs, bases, "probabilities")
    return _linear_inversion(probs, bases)


@functools.cache
def _factor_basis(dim: int) -> np.ndarray:
    """Real basis E_k of the lower-triangular matrices with real diagonal,
    orthonormal under Re Tr[E_k E_l^dag]: T = sum_k theta_k E_k has
    Tr[T T^dag] = |theta|^2 and dim^2 real parameters; read-only."""
    rows, cols = np.tril_indices(dim)
    units = [(i, j, 1) for i, j in zip(rows, cols)]
    units += [(i, j, 1j) for i, j in zip(rows, cols) if i != j]
    basis = np.zeros((len(units), dim, dim), dtype=complex)
    for k, (i, j, unit) in enumerate(units):
        basis[k, i, j] = unit
    basis.setflags(write=False)
    return basis


def _factor(rho, basis) -> np.ndarray:
    """Unit theta whose triangular T has T T^dag = rho, for rho of any rank."""
    w, v = np.linalg.eigh(rho)
    # rho = A A^dag with A = v sqrt(w); A^dag = Q r gives rho = r^dag r
    _, r = np.linalg.qr((v * np.sqrt(np.clip(w, 0.0, None))).conj().T)
    # T = r^dag, its columns rephased so that the diagonal is real
    r = np.exp(-1j * np.angle(np.diag(r)))[:, None] * r
    theta = np.einsum("kij,ji->k", basis.conj(), r.conj()).real
    return theta / np.linalg.norm(theta)


def _quadratic_forms(ops, basis) -> np.ndarray:
    """K[o, k, l] = Re Tr[O_o E_k E_l^dag], so that theta^T K[o] theta =
    Tr[O_o T T^dag] for T = sum_k theta_k E_k."""
    # O E_k for every outcome O and basis element E_k, one row (i j) each
    op_basis = np.tensordot(ops, basis, axes=([2], [1])).transpose(0, 2, 1, 3)
    flat = basis.reshape(len(basis), -1)
    forms = (op_basis.reshape(-1, flat.shape[1]) @ flat.conj().T).real
    return forms.reshape(len(ops), len(basis), -1)


def _mle(freqs, weights, bases, max_iter, tol, full_output):
    projs = _projectors(bases)
    dim = projs.shape[-1]
    _check_complete(_design_matrix(projs), dim)
    f = np.asarray(freqs, dtype=float)
    if np.all(f == 0):
        raise MleFailed("all counts are zero; the likelihood is degenerate")
    w = np.asarray(weights, dtype=float)
    w = w / w.sum()
    # each basis has two outcomes, its projector and the complement, weighted
    # by their observed frequencies; an outcome never observed drops out
    ops = np.concatenate([projs, np.eye(dim) - projs])
    weight = np.concatenate([w * f, w * (1 - f)])
    seen = weight > 0
    ops, weight = ops[seen], weight[seen]
    ops_flat = ops.reshape(len(ops), -1)
    # rho = T T^dag / |theta|^2, so each outcome probability is a ratio of
    # quadratic forms theta^T K theta / theta^T theta, and as the weights sum
    # to 1, L(theta) = sum weight log(theta^T K theta) - log(theta^T theta)
    basis = _factor_basis(dim)
    forms = _quadratic_forms(ops, basis)

    def density(theta):
        t = np.tensordot(theta, basis, axes=1)
        return t @ t.conj().T

    theta = _factor(np.eye(dim) / dim, basis)
    kt = forms @ theta
    p = kt @ theta
    loglike = [float(weight @ np.log(p))]
    for it in range(max_iter + 1):
        # R is the likelihood gradient in rho, with Tr[R rho] = 1; concavity
        # gives L* - L <= lambda_max(R) - 1
        grad_rho = ((weight / p) @ ops_flat).reshape(dim, dim)
        gap = float(np.linalg.eigvalsh(grad_rho)[-1] - 1)
        if gap <= tol:
            break
        if it == max_iter:
            raise MleFailed(f"no certified estimate after {max_iter} iterations: "
                            f"gap {gap:.3e} > tol {tol:.3e}")
        step = _newton_step(theta, kt, p, weight, forms)
        if step is None:
            # no Newton ascent: the factor sits at a stationary point that
            # the certificate rejects, or is flat there within roundoff; move
            # rho toward R's top eigenvector, then factor again
            top = np.linalg.eigh(grad_rho)[1][:, -1]
            step = _ascent_step(density(theta), top, p, weight, ops)
            if step is None:
                raise MleFailed(f"no step raises the likelihood; gap {gap:.3e} > tol {tol:.3e}")
            rho, gain = step
            theta = _factor(rho, basis)
        else:
            theta, gain = step
        kt = forms @ theta
        p = kt @ theta
        loglike.append(loglike[-1] + gain)
    rho = density(theta)
    result = as_density_matrix(rho / np.trace(rho).real)
    if full_output:
        return result, {"loglike": loglike, "iterations": len(loglike) - 1, "gap": gap}
    return result


def _newton_step(theta, kt, p, weight, forms):
    """Damped Newton step on the unit sphere of theta: (theta, gain) with
    gain > 0, or None.  L is scale-free, so its gradient g is orthogonal to
    theta and the step stays in that tangent plane, where the Hessian H acts
    as H + theta g^T + g theta^T (H theta = -g).  Curvature is taken in
    absolute value, so that a saddle is left, not approached."""
    c = weight / p
    grad = 2 * (c @ kt) - 2 * theta
    hess = 2 * (c @ forms.reshape(len(c), -1)).reshape(len(theta), -1)
    hess -= 4 * (kt.T * (c / p)) @ kt
    hess += np.outer(3 * theta + grad, theta) + np.outer(theta, grad)
    hess.flat[::len(theta) + 1] -= 2
    # theta itself gets eigenvalue -1, and g has no component along it
    lam, u = np.linalg.eigh(hess)
    delta = u @ (u.T @ grad / np.maximum(np.abs(lam), 1e-12 * np.abs(lam).max()))
    dp1, dp2, dn = 2 * (kt @ delta) / p, (forms @ delta) @ delta / p, delta @ delta
    s = 1.0
    while s > 1e-15:
        # the gain in closed form, exact also for steps far below roundoff of L
        dp = s * dp1 + s * s * dp2
        if np.all(dp > -1):
            gain = weight @ np.log1p(dp) - np.log1p(s * s * dn)
            if gain > 0:
                new = theta + s * delta
                return new / np.linalg.norm(new), float(gain)
        s *= 0.5
    return None


def _ascent_step(rho, v, p, weight, ops):
    """(rho, gain) on the segment rho -> (1 - s) rho + s v v^dag at the s that
    maximizes L (concave in s), or None if no s > 0 raises it."""
    pv = np.einsum("i,kij,j->k", v.conj(), ops, v).real
    lo, hi = 0.0, 1.0
    for _ in range(50):
        mid = (lo + hi) / 2
        if weight @ ((pv - p) / ((1 - mid) * p + mid * pv)) > 0:
            lo = mid
        else:
            hi = mid
    gain = float(weight @ np.log1p(lo * (pv - p) / p))
    if not gain > 0:
        return None
    return (1 - lo) * rho + lo * np.outer(v, v.conj()), gain


def mle_reconstruct(records, bases, max_iter: int = MLE_MAX_ITER,
                    tol: float = MLE_TOL, full_output: bool = False):
    """Maximum-likelihood state estimate from counts, with a certificate.

    The log-likelihood L sums, over the bases, each basis's projector and
    its complement weighted by the observed frequencies, with the bases
    weighted by their shots.  It is maximized by damped Newton steps on
    rho = T T^dag / Tr[T T^dag], with T lower-triangular (dim^2 real
    parameters), from rho = 1/dim; a step is halved until L rises, so the
    log-likelihood never decreases and the output is always a valid density
    matrix.  Where the triangular factor
    stalls at a stationary point that is not the optimum, rho moves toward
    the top eigenvector of R = dL/drho and is factored again.

    Stops when the certificate gap = lambda_max(R) - 1 is at most ``tol``;
    since L is concave in rho and Tr[R rho] = 1, the maximum L* obeys
    L* - L <= gap.  Raises MleFailed, naming the gap, when ``max_iter``
    steps end without that certificate; an uncertified estimate is never
    returned.  With ``full_output`` also returns {"loglike": history,
    "iterations": steps, "gap": final gap}.  Records pair with bases by position.
    """
    return _mle(*_frequencies_and_shots(records, bases), bases, max_iter, tol, full_output)


def mle_from_probabilities(probs, bases, max_iter: int = MLE_MAX_ITER,
                           tol: float = MLE_TOL, full_output: bool = False):
    """Maximum likelihood in the infinite-shot limit: exact probabilities
    stand in for observed frequencies, with equal weight per basis."""
    _check_count(probs, bases, "probabilities")
    return _mle(probs, np.ones(len(bases)), bases, max_iter, tol, full_output)
