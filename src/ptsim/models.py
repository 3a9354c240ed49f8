"""Hamiltonian families of the PT-symmetric qubit, the Hermitian generator
of its two-qubit dilation, the metric operator certifying
pseudo-Hermiticity, and the regime classifier."""

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DimMismatch, MetricUndefined
from .qcore import ID2, SIGMA_X, SIGMA_Y, SIGMA_Z, check_matrix, squared_frequency

EP_TOL = 1e-12


class Family(str, Enum):
    PT = "pt"
    PASSIVE_PT = "passive-pt"
    TIME_REVERSAL = "t"
    NO_SYMMETRY = "nosym"
    EMBEDDED = "embedded"


@dataclass(frozen=True)
class HamiltonianSpec:
    """Which Hamiltonian family is in play, with its parameters.

    ``a`` >= 0 controls non-Hermiticity; ``c`` is the real sigma_z
    coefficient and is only meaningful for the no-symmetry family.  K = H -
    (tr H/2) 1 is similar to sigma_x + (c + ia) sigma_z, c = 0 but for nosym
    (embedded dilates pt), so ``w2`` = w^2 = 1 + (c + ia)^2; a spec whose w^2
    overflows is refused.
    """

    family: Family
    a: float
    c: float = 0.0
    w2: complex = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "family", Family(self.family))
        if not np.isfinite(self.a) or self.a < 0:
            raise ValueError(f"a must be finite and >= 0, got {self.a!r}")
        if not np.isfinite(self.c):
            raise ValueError(f"c must be finite, got {self.c!r}")
        c = self.c if self.family is Family.NO_SYMMETRY else 0.0
        w2 = squared_frequency(complex(c, self.a), 1.0, 1.0)
        if not np.isfinite(w2):
            raise ValueError(f"w^2 = 1 + (c + ia)^2 overflows at a = {self.a!r}, c = {c!r}")
        object.__setattr__(self, "w2", w2)


@dataclass(frozen=True)
class Regime:
    kind: str            # "unbroken" | "exceptional-point" | "broken"
    timescale: float     # recurrence time T, relaxation time tau, inf at the EP


def build_hamiltonian(spec: HamiltonianSpec) -> np.ndarray:
    """Generator of the requested family.

    pt:          sigma_x + i a sigma_z        (balanced gain and loss)
    passive-pt:  sigma_x + i a (sigma_z - 1)  (loss only; pt shifted by -ia)
    t:           sigma_x + i a sigma_y        (time-reversal symmetric)
    nosym:       sigma_x + (c + i a) sigma_z  (no protecting symmetry)
    embedded:    4x4 dilation of pt, build_h_tot (unbroken a only)
    """
    fam = spec.family
    if fam is Family.PT:
        return SIGMA_X + 1j * spec.a * SIGMA_Z
    if fam is Family.PASSIVE_PT:
        return SIGMA_X + 1j * spec.a * (SIGMA_Z - ID2)
    if fam is Family.TIME_REVERSAL:
        return SIGMA_X + 1j * spec.a * SIGMA_Y
    if fam is Family.NO_SYMMETRY:
        return SIGMA_X + (spec.c + 1j * spec.a) * SIGMA_Z
    return build_h_tot(spec.a)


def metric_eta(a: float) -> np.ndarray:
    """Metric operator (1/w) [[1, -ia], [ia, 1]] of the gain-loss family,
    positive definite when unbroken."""
    spec = HamiltonianSpec(Family.PT, a)
    if classify_regime(spec).kind != "unbroken":
        raise MetricUndefined(f"metric is singular at and beyond the exceptional point (a = {a})")
    return (1.0 / np.sqrt(spec.w2.real)) * np.array([[1, -1j * a], [1j * a, 1]])


def build_h_tot(a: float) -> np.ndarray:
    """Hermitian two-qubit generator 1 (x) H_s + sigma_y (x) V_s.

    H_s and V_s are built from the gain-loss Hamiltonian, its metric eta and
    the normalization c = 2 eta_00 so that the |u>-block of the evolved
    state carries exactly the non-unitary single-qubit dynamics.
    """
    H = build_hamiltonian(HamiltonianSpec(Family.PT, a))
    eta = metric_eta(a)
    c = float(2 * eta[0, 0].real)
    h_s = (H @ np.linalg.inv(eta) + eta @ H) / c
    v_s = 1j * (H - H.conj().T) / c
    h_tot = np.kron(ID2, h_s) + np.kron(SIGMA_Y, v_s)
    return (h_tot + h_tot.conj().T) / 2


def classify_regime(spec: HamiltonianSpec) -> Regime:
    """Regime of a spec and its timescale from its w^2; the one owner of the
    EP boundary.

    The exceptional point for c = 0 and |1 - a| <= EP_TOL = 1e-12, timescale
    inf; else unbroken for a real w^2 > 0, where D(t) recurs with T = pi/w,
    and broken otherwise, where it relaxes with tau = 1/(2 |Im w|).
    """
    if abs(1.0 - spec.a) <= EP_TOL and spec.w2.imag == 0:   # Im w^2 = 2ac
        return Regime("exceptional-point", np.inf)
    w = np.sqrt(spec.w2)
    if spec.w2.imag == 0 and spec.w2.real > 0:
        return Regime("unbroken", float(np.pi / w.real))
    return Regime("broken", float(1.0 / (2 * abs(w.imag))))


def check_pseudo_hermiticity(H, eta) -> float:
    """Max-entry residual of eta H - H^dag eta; <= 1e-10 certifies it."""
    Hm = check_matrix(H)
    em = check_matrix(eta)
    if Hm.shape != em.shape:
        raise DimMismatch(f"shape {Hm.shape} vs {em.shape}")
    return float(np.abs(em @ Hm - Hm.conj().T @ em).max())
