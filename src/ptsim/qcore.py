"""Complex linear algebra kernel: the 2x2 propagator's coefficients over a
time grid (exact at exceptional points) and the ket evolution they give,
e^{-iHt} of a 2x2 or a Hermitian 4x4, and the trace distance of one
matrix or a stack (..., d, d).

All operators are plain complex ndarrays of dimension 2 or 4 (hbar = 1
throughout).  Density matrices are validated ndarrays; ``as_density_matrix``
is the single entry point that symmetrizes and checks the invariants.
"""

import cmath
import math

import numpy as np

from .errors import DimMismatch, InvalidDensityMatrix, InvalidMatrix

ID2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

KET_H = np.array([1, 0], dtype=complex)
KET_V = np.array([0, 1], dtype=complex)

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-10   # more negative than this is a hard error
ENTROPY_CUTOFF = 1e-12

_POLARIZATION_KETS = {
    "H": KET_H,
    "V": KET_V,
    "P+": np.array([1, 1], dtype=complex) / np.sqrt(2),
    "M": np.array([1, -1], dtype=complex) / np.sqrt(2),
    "R": np.array([1, 1j], dtype=complex) / np.sqrt(2),
    "L": np.array([1, -1j], dtype=complex) / np.sqrt(2),
}


def polarization_ket(label: str) -> np.ndarray:
    """Qubit basis ket by polarization label: H, V, P+ = (H+V)/sqrt2,
    M = (H-V)/sqrt2, R = (H+iV)/sqrt2, L = (H-iV)/sqrt2."""
    try:
        return _POLARIZATION_KETS[label].copy()
    except KeyError:
        raise ValueError(
            f"unknown state label {label!r}; expected one of {sorted(_POLARIZATION_KETS)}"
        ) from None


def check_matrix(mat, dims=(2, 4)) -> np.ndarray:
    """Coerce to a square complex ndarray of an allowed dimension."""
    m = np.asarray(mat, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidMatrix(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] not in dims:
        raise InvalidMatrix(f"dimension {m.shape[0]} not in {dims}")
    if not np.all(np.isfinite(m.view(float))):
        raise InvalidMatrix("matrix has non-finite entries")
    return m


def as_density_matrix(mat) -> np.ndarray:
    """Validate a density matrix and return its Hermitian-symmetrized form.

    The input must be Hermitian within 1e-10 (max entry of M - M^dag), have
    unit trace within 1e-10, and eigenvalues >= -1e-10.  Roundoff from
    arithmetic is absorbed by returning (M + M^dag)/2.  A 2x2's smaller
    eigenvalue is taken in closed form, (a + d)/2 - hypot((a - d)/2, |b|).
    """
    m = check_matrix(mat)
    herm_defect = np.abs(m - m.conj().T).max()
    if herm_defect > HERMITICITY_TOL:
        raise InvalidDensityMatrix(f"not Hermitian: defect {herm_defect:.3e}")
    m = (m + m.conj().T) / 2
    tr = np.trace(m).real
    if abs(tr - 1.0) > TRACE_TOL:
        raise InvalidDensityMatrix(f"trace {tr!r} is not 1")
    if len(m) == 2:
        (a, b), (_, d) = m.tolist()
        lo = (a.real + d.real) / 2 - math.hypot((a.real - d.real) / 2, abs(b))
    else:
        lo = np.linalg.eigvalsh(m).min()
    if lo < EIGENVALUE_FLOOR:
        raise InvalidDensityMatrix(f"negative eigenvalue {lo:.3e}")
    return m


def pure_state(ket) -> np.ndarray:
    """Projector |psi><psi| of a (not necessarily normalized) state vector."""
    v = np.asarray(ket, dtype=complex).reshape(-1)
    n2 = np.vdot(v, v).real
    if n2 <= 0:
        raise InvalidMatrix("cannot project a zero vector")
    return np.outer(v, v.conj()) / n2


def _two_product(x: float, y: float):
    """(p, e) with p = fl(x y) and p + e = x y exactly: Dekker's TwoProduct
    on Veltkamp's split of each factor into two 26-bit halves (Numer. Math.
    18, 224 (1971)).  Exact unless a product overflows or underflows."""
    p = x * y
    c = 134217729.0 * x   # 2^27 + 1
    x1 = c - (c - x)
    c = 134217729.0 * y
    y1 = c - (c - y)
    x2, y2 = x - x1, y - y1
    return p, ((x1 * y1 - p) + x1 * y2 + x2 * y1) + x2 * y2


def squared_frequency(k00: complex, k01: complex, k10: complex) -> complex:
    """w^2 = k01 k10 + k00^2 of a traceless 2x2 K, rounded once, and not
    finite if it overflows; the propagator and every family's regime read it.

    Near an exceptional point w^2 cancels to O(epsilon) from O(1) products,
    so a product rounded before the sum leaves w a relative error of order
    u/epsilon; summing the exact halves of every real product with fsum
    does not.
    """
    (p, q), (r, s), (x, y) = ((z.real, z.imag) for z in (k01, k10, k00))
    re = [*_two_product(p, r), *_two_product(-q, s), *_two_product(x, x), *_two_product(-y, y)]
    im = [*_two_product(p, s), *_two_product(q, r), *_two_product(2 * x, y)]
    try:   # fsum raises on inf - inf and on a partial sum past the largest double
        return complex(math.fsum(re), math.fsum(im))
    except (OverflowError, ValueError):
        return complex(math.nan, math.nan)


def propagator(H, times):
    """Scale-free coefficients ``(c, s, K, g)`` of a 2x2 evolution over a
    time grid: K = H - (tr H/2) 1 and, at each time,
    e^{-iHt} = e^{-i Re(tr H) t/2} e^{g} (c 1 - i s K).

    K squares to w^2 1 with w^2 = k01 k10 + k00^2, so e^{-iKt} =
    cos(wt) 1 - i t sinc(wt) K; c and s are cos(wt) and t sinc(wt) scaled
    by e^{-|Im wt|}, which g takes up.  At an exceptional point (w = 0)
    c = 1 and s = t exactly, so K's null vector is not moved.
    """
    H = check_matrix(H, dims=(2,))
    ts = np.asarray(times, dtype=float).reshape(-1)
    if not np.isfinite(ts).all():
        raise InvalidMatrix("times must be finite")
    shift = np.trace(H) / 2
    K = H - shift * ID2
    (k00, k01), (k10, _) = K.tolist()
    w2 = squared_frequency(k00, k01, k10)
    if not cmath.isfinite(w2):
        raise InvalidMatrix(f"w^2 = k01 k10 + k00^2 of K = H - (tr H/2) 1 is {w2}, not finite")
    w = cmath.sqrt(w2)
    x = w * ts
    # cosh and sinh of Im(wt), both scaled by e^{-|Im wt|}
    e2 = np.expm1(-2 * np.abs(x.imag))
    ch, sh = 1 + e2 / 2, np.copysign(e2 / 2, x.imag)
    cr, sr = np.cos(x.real), np.sin(x.real)
    c = cr * ch - 1j * (sr * sh)
    s = (sr * ch + 1j * (cr * sh)) / w if w != 0 else ts
    return c, s, K, shift.imag * ts + np.abs(x.imag)


def evolve_ket(prop, ket):
    """Entries (u0, u1) of u = c f - i s (K f), the ket f evolved over the
    grid of ``prop = propagator(H, times)`` up to e^{-i Re(tr H) t/2} e^{g};
    K f is formed once, so a null vector of K comes back exactly."""
    c, s, K, _ = prop
    (f0, f1), (kf0, kf1) = ket, K @ ket
    return c * f0 - 1j * s * kf0, c * f1 - 1j * s * kf1


def mat_exp(H, t: float) -> np.ndarray:
    """Evolution operator e^{-iHt} for a 2x2 complex matrix H, or a 4x4 one
    that is Hermitian up to a multiple of the identity.

    A 2x2 is the one-point ``propagator`` with its scalar factor restored,
    so it is exact at exceptional points and overflows only where e^{-iHt}
    itself does.  A 4x4 K = H - (tr H/4) 1 must be Hermitian, as the
    dilation generator is, and e^{-iKt} = V e^{-i Lambda t} V^dag from one
    ``eigh``; otherwise InvalidMatrix.
    """
    H = check_matrix(H)
    if len(H) == 2:
        (c,), (s,), K, (g,) = propagator(H, [t])
        return np.exp(g - 1j * (np.trace(H).real / 2) * t) * (c * ID2 - 1j * s * K)
    if not np.isfinite(t):
        raise InvalidMatrix("times must be finite")
    shift = np.trace(H) / 4
    K = H - shift * np.eye(4)
    defect = np.abs(K - K.conj().T).max()
    if defect > HERMITICITY_TOL * max(1.0, np.abs(K).max()):
        raise InvalidMatrix(f"a 4x4 generator must be Hermitian up to its trace: "
                            f"K - K^dag has an entry of size {defect:.3e}")
    lam, V = np.linalg.eigh(K)
    return np.exp(-1j * shift * t) * ((V * np.exp(-1j * t * lam)) @ V.conj().T)


def trace_distance(rho1, rho2):
    """Half the trace norm of rho1 - rho2, in [0, 1]; an array for stacks."""
    r1 = np.asarray(rho1, dtype=complex)
    r2 = np.asarray(rho2, dtype=complex)
    if r1.shape != r2.shape:
        raise DimMismatch(f"shape {r1.shape} vs {r2.shape}")
    d = r1 - r2
    d = (d + d.conj().swapaxes(-1, -2)) / 2
    val = np.clip(0.5 * np.abs(np.linalg.eigvalsh(d)).sum(axis=-1), 0.0, 1.0)
    return float(val) if val.ndim == 0 else val


def fidelity(rho, sigma) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2."""
    r = np.asarray(rho, dtype=complex)
    s = np.asarray(sigma, dtype=complex)
    if r.shape != s.shape:
        raise DimMismatch(f"shape {r.shape} vs {s.shape}")
    w, V = np.linalg.eigh((r + r.conj().T) / 2)
    sq = (V * np.sqrt(np.clip(w, 0.0, None))) @ V.conj().T
    inner = sq @ s @ sq
    ev = np.clip(np.linalg.eigvalsh((inner + inner.conj().T) / 2), 0.0, None)
    if ev.max() > 0:
        # the square root amplifies epsilon-level eigenvalue noise of
        # rank-deficient inner matrices; drop modes below the noise floor
        ev[ev < 8 * np.finfo(float).eps * ev.max()] = 0.0
    val = np.sum(np.sqrt(ev)) ** 2
    return float(min(max(val, 0.0), 1.0))
