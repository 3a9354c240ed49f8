"""Hamiltonian families of the PT-symmetric qubit, the metric operator
certifying pseudo-Hermiticity, and the regime classifier."""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimMismatch, MetricUndefined, UnsupportedFamily
from .qcore import ID2, SIGMA_X, SIGMA_Y, SIGMA_Z, check_matrix

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
    coefficient and is only meaningful for the no-symmetry family.
    """

    family: Family
    a: float
    c: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "family", Family(self.family))
        if not np.isfinite(self.a) or self.a < 0:
            raise ValueError(f"a must be finite and >= 0, got {self.a!r}")
        if not np.isfinite(self.c):
            raise ValueError(f"c must be finite, got {self.c!r}")


@dataclass(frozen=True)
class Regime:
    kind: str            # "unbroken" | "exceptional-point" | "broken"
    epsilon: float       # 1 - a
    timescale: float     # recurrence time T, relaxation time tau, inf at the EP


def build_hamiltonian(spec: HamiltonianSpec) -> np.ndarray:
    """2x2 Hamiltonian of the requested family.

    pt:          sigma_x + i a sigma_z        (balanced gain and loss)
    passive-pt:  sigma_x + i a (sigma_z - 1)  (loss only; pt shifted by -ia)
    t:           sigma_x + i a sigma_y        (time-reversal symmetric)
    nosym:       sigma_x + (c + i a) sigma_z  (no protecting symmetry)
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
    raise UnsupportedFamily(
        "the embedded family is a two-qubit construction; use ptsim.embedding"
    )


def metric_eta(a: float) -> np.ndarray:
    """Metric operator of the gain-loss family, positive definite when unbroken."""
    if classify_regime(a).kind != "unbroken":
        raise MetricUndefined(f"metric is singular at and beyond the exceptional point (a = {a})")
    return (1.0 / np.sqrt((1.0 - a) * (1.0 + a))) * np.array([[1, -1j * a], [1j * a, 1]])


def normalization_c(a: float) -> float:
    """Dilation normalization: the metric's eigenvalues are (1 +- a)/sqrt(1 - a^2),
    so their reciprocals sum to 2/sqrt(1 - a^2) = 2 eta_00, which diverges
    as a -> 1."""
    return float(2 * metric_eta(a)[0, 0].real)


def classify_regime(a: float) -> Regime:
    """Regime at a and its timescale; the one owner of the EP boundary.

    Unbroken for 1 - a > EP_TOL, where D(t) recurs with T = pi/sqrt(1 - a^2);
    broken for a - 1 > EP_TOL, where it relaxes with tau = 1/(2 sqrt(a^2 - 1));
    the exceptional point for |1 - a| <= EP_TOL = 1e-12, timescale inf.
    """
    if not np.isfinite(a) or a < 0:
        raise ValueError(f"a must be finite and >= 0, got {a!r}")
    eps = 1.0 - a
    if eps > EP_TOL:   # 1 - a^2 as (1 - a)(1 + a), which does not cancel near the EP
        return Regime("unbroken", eps, float(np.pi / np.sqrt(eps * (1 + a))))
    if eps < -EP_TOL:
        return Regime("broken", eps, float(1.0 / (2 * np.sqrt((a - 1) * (a + 1)))))
    return Regime("exceptional-point", eps, np.inf)


def check_pseudo_hermiticity(H, eta) -> float:
    """Max-entry residual of eta H - H^dag eta; <= 1e-10 certifies it."""
    Hm = check_matrix(H)
    em = check_matrix(eta)
    if Hm.shape != em.shape:
        raise DimMismatch(f"shape {Hm.shape} vs {em.shape}")
    return float(np.abs(em @ Hm - Hm.conj().T @ em).max())
