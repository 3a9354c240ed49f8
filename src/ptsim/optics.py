"""Jones-calculus wave-plate models and numeric circuit synthesis.

A single-qubit non-unitary operator is realized as rotation / loss / rotation,
where rotations are quarter-half-quarter wave-plate sandwiches and the loss
element is an anti-diagonal polarization-flipping attenuator built from beam
displacers.  Several variants constrain subsets of the twelve mount angles:

* ``full12``        all twelve angles free, loss entries complex
* ``symmetric5``    simplified loss, outermost first-stage QWP fixed at 0;
                    the variant used to synthesize operators with equal
                    off-diagonal entries (five independent target parameters)
* ``pt-simplified`` three free angles (theta2, theta_H, theta_V); every
                    realized matrix has the form [[A, iB], [iB, D]] with
                    A, B, D real
* ``two-qubit``     the layered four-mode circuit U5,6 . G2 . U3,4 . G1 . U1,2

Angle synthesis fits the real and imaginary parts of the global-phase-aligned
difference to a target (8 residuals for 2x2, 32 for 4x4) with the
trust-region-reflective method of ``scipy.optimize.least_squares`` from
uniform-random restarts.
"""

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import NotPassive, NotUnitary

SUCCESS_RESIDUAL = 1e-6
_LSQ_TOL = 1e-14   # two-qubit fits stop near 1e-6 at scipy's 1e-8, 1e-10 at 1e-12


class DecompositionVariant(str, Enum):
    FULL12 = "full12"
    SYMMETRIC5 = "symmetric5"
    PT_SIMPLIFIED = "pt-simplified"
    TWO_QUBIT = "two-qubit"


_FREE_ANGLES = {
    DecompositionVariant.FULL12: (
        "phi1", "theta1", "phi2",
        "phi3", "phi4", "theta_V", "phi5", "phi6", "theta_H",
        "phi7", "theta2", "phi8",
    ),
    DecompositionVariant.SYMMETRIC5: (
        "phi1", "theta1", "theta_H", "theta_V", "phi7", "theta2", "phi8",
    ),
    DecompositionVariant.PT_SIMPLIFIED: ("theta2", "theta_H", "theta_V"),
    DecompositionVariant.TWO_QUBIT: tuple(
        [f"phi{j}" for j in range(1, 7)]
        + [f"theta{j}" for j in range(1, 7)]
        + [f"nu{j}" for j in range(1, 7)]
        + ["delta41", "delta75", "delta85", "delta86"]
    ),
}


def free_angle_names(variant: DecompositionVariant) -> tuple:
    """Ordered free-parameter names of a decomposition variant."""
    return _FREE_ANGLES[DecompositionVariant(variant)]


@dataclass
class AngleSolution:
    """Wave-plate setting angles with the achieved synthesis residual.

    ``residual`` is the Frobenius distance to the target after optimal
    global-phase alignment; ``success`` means it beat the 1e-6 goal.
    ``evaluations`` sums ``least_squares``' ``nfev`` over the restarts used;
    scipy 1.17 leaves the finite-difference Jacobian calls out of that count.
    Angle values are wrapped to (-pi, pi]; solutions are highly degenerate
    under wave-plate periodicity and no canonical representative is claimed.
    """

    variant: DecompositionVariant
    angles: dict = field(default_factory=dict)
    residual: float = np.inf
    global_phase: float = 0.0
    success: bool = False
    restarts_used: int = 0
    evaluations: int = 0


def qwp(phi: float) -> np.ndarray:
    """Jones matrix of a quarter-wave plate at mount angle phi."""
    c, s = np.cos(phi), np.sin(phi)
    off = (1 - 1j) * s * c
    return np.array([[c * c + 1j * s * s, off], [off, s * s + 1j * c * c]])


def hwp(theta: float) -> np.ndarray:
    """Jones matrix of a half-wave plate at mount angle theta."""
    c, s = np.cos(2 * theta), np.sin(2 * theta)
    return np.array([[c, s], [s, -c]], dtype=complex)


def loss_simplified(theta_H: float, theta_V: float) -> np.ndarray:
    """Anti-diagonal loss element with the four inner QWPs at fixed settings."""
    return np.array(
        [[0, np.sin(2 * theta_V)], [np.sin(2 * theta_H), 0]], dtype=complex
    )


def loss_full(phi3, phi4, theta_V, phi5, phi6, theta_H) -> np.ndarray:
    """Anti-diagonal loss element with the inner QWP angles free."""
    xi, eta = _loss_full_entries(phi3, phi4, theta_V, phi5, phi6, theta_H)
    return np.array([[0, xi], [eta, 0]])


def loss_operator(variant, angles: dict) -> np.ndarray:
    """Loss element of a single-qubit variant from named angles."""
    variant = DecompositionVariant(variant)
    if variant is DecompositionVariant.FULL12:
        return loss_full(
            angles["phi3"], angles["phi4"], angles["theta_V"],
            angles["phi5"], angles["phi6"], angles["theta_H"],
        )
    if variant in (DecompositionVariant.SYMMETRIC5, DecompositionVariant.PT_SIMPLIFIED):
        return loss_simplified(angles["theta_H"], angles["theta_V"])
    raise ValueError("the two-qubit variant has no single loss element")


def realize_single(variant, angles: dict) -> np.ndarray:
    """Matrix realized by a single-qubit variant at the given angles."""
    variant = DecompositionVariant(variant)
    x = np.array([angles[n] for n in _FREE_ANGLES[variant]], dtype=float)
    return _realize_single_vec(variant, x)


# The finite-difference Jacobian of the synthesis fit rebuilds the realized
# matrix n + 1 times per iteration, so the 2x2 chain is composed in plain
# complex scalars (entry tuples ordered a00, a01, a10, a11): 18 us per full12
# evaluation, against 78 us for the qwp() @ hwp() @ ... ndarray products
# (2-vCPU x86-64 machine, Python 3.11, numpy 2.4).

def _mm2(a, b):
    return (
        a[0] * b[0] + a[1] * b[2],
        a[0] * b[1] + a[1] * b[3],
        a[2] * b[0] + a[3] * b[2],
        a[2] * b[1] + a[3] * b[3],
    )


def _qwp_entries(phi):
    c, s = math.cos(phi), math.sin(phi)
    off = (1 - 1j) * s * c
    return (c * c + 1j * s * s, off, off, s * s + 1j * c * c)


def _hwp_entries(theta):
    c, s = math.cos(2 * theta), math.sin(2 * theta)
    return (complex(c), complex(s), complex(s), complex(-c))


def _sandwich(phi_out, theta, phi_in):
    return _mm2(_qwp_entries(phi_out), _mm2(_hwp_entries(theta), _qwp_entries(phi_in)))


def _loss_full_entries(phi3, phi4, theta_V, phi5, phi6, theta_H):
    # xi and eta of the full loss element [[0, xi], [eta, 0]]
    xi = 0.5 * (
        1j * math.sin(2 * theta_V)
        - math.sin(2 * (theta_V - phi3))
        + math.sin(2 * (theta_V - phi4))
        + 1j * math.sin(2 * (theta_V - phi3 - phi4))
    )
    eta = 0.5 * (
        1j * math.sin(2 * theta_H)
        + math.sin(2 * (theta_H - phi5))
        - math.sin(2 * (theta_H - phi6))
        + 1j * math.sin(2 * (theta_H - phi5 - phi6))
    )
    return xi, eta


def _apply_loss(xi, eta, r):
    # [[0, xi], [eta, 0]] @ r
    return (xi * r[2], xi * r[3], eta * r[0], eta * r[1])


def _single_entries(variant: DecompositionVariant, x):
    if variant is DecompositionVariant.FULL12:
        r1 = _sandwich(x[2], x[1], x[0])
        xi, eta = _loss_full_entries(*x[3:9])
        return _mm2(_sandwich(x[11], x[10], x[9]), _apply_loss(xi, eta, r1))
    if variant is DecompositionVariant.SYMMETRIC5:
        # the stage-1 QWP next to the loss element is fixed at 0
        r1 = _sandwich(0.0, x[1], x[0])
        lossed = _apply_loss(math.sin(2 * x[3]), math.sin(2 * x[2]), r1)
        return _mm2(_sandwich(x[6], x[5], x[4]), lossed)
    if variant is DecompositionVariant.PT_SIMPLIFIED:
        # outer QWPs removed; phi1 = 0, theta1 = theta2 + pi/4, phi7 = 2 theta2
        theta2, th, tv = x
        r1 = _mm2(_hwp_entries(theta2 + np.pi / 4), _qwp_entries(0.0))
        r2 = _mm2(_hwp_entries(theta2), _qwp_entries(2 * theta2))
        return _mm2(r2, _apply_loss(math.sin(2 * tv), math.sin(2 * th), r1))
    raise ValueError("use realize_two_qubit for the two-qubit variant")


def _realize_single_vec(variant: DecompositionVariant, x) -> np.ndarray:
    return np.array(_single_entries(variant, x)).reshape(2, 2)


def build_g1(delta41: float) -> np.ndarray:
    """First beam-displacer block; unitary for any delta41."""
    s, c = np.sin(2 * delta41), np.cos(2 * delta41)
    return np.array(
        [
            [0, -1, 0, 0],
            [s, 0, 0, c],
            [c, 0, 0, -s],
            [0, 0, 1, 0],
        ],
        dtype=complex,
    )


def build_g2(delta75: float, delta85: float, delta86: float) -> np.ndarray:
    """Second beam-displacer block; unitary only when |sin 2delta75| =
    |sin 2delta86| = 1, which the synthesis is free to select."""
    s75 = np.sin(2 * delta75)
    s85, c85 = np.sin(2 * delta85), np.cos(2 * delta85)
    s86 = np.sin(2 * delta86)
    return np.array(
        [
            [0, -s75, 0, 0],
            [s85, 0, 0, c85],
            [c85, 0, 0, -s85],
            [0, 0, s86, 0],
        ],
        dtype=complex,
    )


def realize_two_qubit(angles: dict) -> np.ndarray:
    """Layered two-qubit circuit from named angles."""
    x = np.array(
        [angles[n] for n in _FREE_ANGLES[DecompositionVariant.TWO_QUBIT]], dtype=float
    )
    return _realize_two_qubit_vec(x)


def _qwp_stack(phis: np.ndarray) -> np.ndarray:
    c, s = np.cos(phis), np.sin(phis)
    out = np.empty((len(phis), 2, 2), dtype=complex)
    out[:, 0, 0] = c * c + 1j * s * s
    out[:, 1, 1] = s * s + 1j * c * c
    out[:, 0, 1] = out[:, 1, 0] = (1 - 1j) * s * c
    return out


def _hwp_stack(thetas: np.ndarray) -> np.ndarray:
    c, s = np.cos(2 * thetas), np.sin(2 * thetas)
    out = np.empty((len(thetas), 2, 2), dtype=complex)
    out[:, 0, 0] = c
    out[:, 1, 1] = -c
    out[:, 0, 1] = out[:, 1, 0] = s
    return out


def _realize_two_qubit_vec(x: np.ndarray) -> np.ndarray:
    # x: phi1..6, theta1..6, nu1..6, delta41, delta75, delta85, delta86
    rot = _qwp_stack(x[12:18]) @ _hwp_stack(x[6:12]) @ _qwp_stack(x[0:6])
    layers = np.zeros((3, 4, 4), dtype=complex)
    layers[:, :2, :2] = rot[0::2]
    layers[:, 2:, 2:] = rot[1::2]
    g1 = build_g1(x[18])
    g2 = build_g2(x[19], x[20], x[21])
    return layers[2] @ g2 @ layers[1] @ g1 @ layers[0]


def _wrap_angle(x: float) -> float:
    """Wrap to the half-open interval (-pi, pi]."""
    return float(np.pi - np.mod(np.pi - x, 2 * np.pi))


def _aligned_residual(realized: np.ndarray, target: np.ndarray):
    """Global phase maximizing overlap, and the Frobenius residual at it."""
    z = np.vdot(target, realized)
    phase = z / abs(z) if abs(z) > 1e-300 else 1.0 + 0j
    return phase, float(np.linalg.norm(realized - phase * target))


def _compile(target, variant, residuals, realize_vec, restarts, seed, success_residual):
    # imported here: scipy.optimize adds about 20 MB and 0.1 s to the import
    # of ptsim, and only the angle synthesis uses it
    from scipy.optimize import least_squares

    names = _FREE_ANGLES[variant]
    n = len(names)
    seeds = np.random.SeedSequence(seed).spawn(restarts)
    best_f, best_x, used, evaluations = np.inf, None, 0, 0
    for i in range(restarts):
        used = i + 1
        rng = np.random.default_rng(seeds[i])
        # not method="lm": scipy 1.17's MINPACK takes different steps from
        # identical residuals from one call to the next, so a seed would not
        # reproduce its angles
        fit = least_squares(
            residuals, rng.uniform(-np.pi, np.pi, n), method="trf",
            xtol=_LSQ_TOL, ftol=_LSQ_TOL, gtol=_LSQ_TOL,
        )
        evaluations += fit.nfev
        fx = math.sqrt(2.0 * fit.cost)
        if fx < best_f:
            best_f, best_x = fx, fit.x
        if best_f < success_residual:
            break

    phase, residual = _aligned_residual(realize_vec(best_x), target)
    return AngleSolution(
        variant=variant,
        angles={name: _wrap_angle(v) for name, v in zip(names, best_x)},
        residual=residual,
        global_phase=float(np.angle(phase)),
        success=residual < success_residual,
        restarts_used=used,
        evaluations=evaluations,
    )


def compile_single_qubit(
    target,
    variant,
    restarts: int = 50,
    seed: int | None = None,
    success_residual: float = SUCCESS_RESIDUAL,
) -> AngleSolution:
    """Find wave-plate angles realizing a passive single-qubit operator.

    The target must have spectral norm <= 1 (up to 1e-9); the circuit is a
    contraction and cannot amplify.  A failed budget is reported through
    ``success=False`` on the returned solution rather than an exception, so
    the best residual found stays available to the caller.
    """
    variant = DecompositionVariant(variant)
    if variant is DecompositionVariant.TWO_QUBIT:
        raise ValueError("use compile_two_qubit for the two-qubit variant")
    target = np.asarray(target, dtype=complex)
    if target.shape != (2, 2):
        raise ValueError(f"expected a 2x2 target, got {target.shape}")
    norm = np.linalg.norm(target, 2)
    if norm > 1 + 1e-9:
        raise NotPassive(f"spectral norm {norm:.6g} exceeds 1")

    t00, t01, t10, t11 = target.reshape(-1)
    c00, c01, c10, c11 = target.conj().reshape(-1)

    def residuals(x):
        r = _single_entries(variant, x)
        z = c00 * r[0] + c01 * r[1] + c10 * r[2] + c11 * r[3]
        mag = abs(z)
        phase = z / mag if mag > 1e-300 else 1.0 + 0j
        d0, d1 = r[0] - phase * t00, r[1] - phase * t01
        d2, d3 = r[2] - phase * t10, r[3] - phase * t11
        return [d0.real, d1.real, d2.real, d3.real, d0.imag, d1.imag, d2.imag, d3.imag]

    return _compile(
        target, variant, residuals,
        lambda x: _realize_single_vec(variant, x),
        restarts, seed, success_residual,
    )


def compile_two_qubit(
    target,
    restarts: int = 50,
    seed: int | None = None,
    success_residual: float = SUCCESS_RESIDUAL,
) -> AngleSolution:
    """Find angles for the layered two-qubit circuit realizing a unitary."""
    target = np.asarray(target, dtype=complex)
    if target.shape != (4, 4):
        raise ValueError(f"expected a 4x4 target, got {target.shape}")
    defect = np.abs(target.conj().T @ target - np.eye(4)).max()
    if defect > 1e-9:
        raise NotUnitary(f"unitarity defect {defect:.3g}")

    def residuals(x):
        realized = _realize_two_qubit_vec(x)
        z = np.vdot(target, realized)
        mag = abs(z)
        phase = z / mag if mag > 1e-300 else 1.0 + 0j
        d = (realized - phase * target).ravel()
        return np.concatenate([d.real, d.imag])

    return _compile(
        target, DecompositionVariant.TWO_QUBIT, residuals,
        _realize_two_qubit_vec, restarts, seed, success_residual,
    )


def solution_record(sol: AngleSolution) -> str:
    """Flat key-value text record of an angle solution (one pair per line)."""
    lines = [
        f"variant = {sol.variant.value}",
        f"residual = {sol.residual:.17g}",
        f"global_phase = {sol.global_phase:.17g}",
        f"success = {str(sol.success).lower()}",
        f"restarts_used = {sol.restarts_used}",
        f"evaluations = {sol.evaluations}",
    ]
    lines += [f"{name} = {val:.17g}" for name, val in sol.angles.items()]
    return "\n".join(lines) + "\n"
