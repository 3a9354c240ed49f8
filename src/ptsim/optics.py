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
* ``two-qubit``     the layered four-mode circuit U5,6 . G2 . U3,4 . G1 . U1,2,
                    with G2's delta75 and delta86 held at pi/4

Each variant is one chain: an ordered product of the Jones elements below,
whose arguments are fixed angles or affine functions of the free angles the
chain names, listed in the order light meets them.  Every
entry of an element is a + b sin 2alpha + c cos 2alpha in each of its angles
alpha, so the shift rule dF/dalpha = F(alpha + pi/4) - F(alpha - pi/4) is
exact, and the product rule over prefix and suffix products of the chain
gives the exact Jacobian of the realized matrix.

Angle synthesis fits the real and imaginary parts of the global-phase-aligned
difference to a target (8 residuals for 2x2, 32 for 4x4) by Levenberg-
Marquardt steps on that Jacobian (Marquardt, SIAM J. Appl. Math. 11, 431
(1963); damping update of Nielsen, IMM-REP-1999-05), from uniform-random
restarts.

The two-qubit chain holds G2's delta75 and delta86 at pi/4.  G2 is unitary
only where |sin 2delta75| = |sin 2delta86| = 1, a stationary point of the
sine, where free angles make the Jacobian lose rank at every solution and
the fit converge only linearly.
"""

import functools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import InvalidMatrix, NotPassive, NotUnitary

SUCCESS_RESIDUAL = 1e-6
_TOL = 1e-14   # the fit's tolerance on gradient/|r|, step and relative decrease


class DecompositionVariant(str, Enum):
    FULL12 = "full12"
    SYMMETRIC5 = "symmetric5"
    PT_SIMPLIFIED = "pt-simplified"
    TWO_QUBIT = "two-qubit"


# mount angles a chain holds fixed, listed in its records after the free ones
_G2_HELD = {"delta75": np.pi / 4, "delta86": np.pi / 4}
_HELD_ANGLES = {DecompositionVariant.TWO_QUBIT: _G2_HELD}


@dataclass
class AngleSolution:
    """Wave-plate setting angles with the achieved synthesis residual.

    ``residual`` is the Frobenius distance to the target after optimal
    global-phase alignment; ``success`` means it beat the 1e-6 goal.
    ``evaluations`` counts the evaluations of the residual together with its
    Jacobian, summed over the restarts used.
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


def _matrix(rows) -> np.ndarray:
    """Complex matrix from rows of entries of one shape; array entries give
    a stack of matrices along leading axes."""
    m = np.array(rows, dtype=complex)
    return m.transpose(tuple(range(2, m.ndim)) + (0, 1))


def qwp(phi) -> np.ndarray:
    """Jones matrix of a quarter-wave plate at mount angle phi.

    Every Jones element here also takes arrays of angles of one shape and
    then returns the stack of matrices along leading axes."""
    c, s = np.cos(phi), np.sin(phi)
    off = (1 - 1j) * s * c
    return _matrix([[c * c + 1j * s * s, off], [off, s * s + 1j * c * c]])


def hwp(theta) -> np.ndarray:
    """Jones matrix of a half-wave plate at mount angle theta."""
    c, s = np.cos(2 * theta), np.sin(2 * theta)
    return _matrix([[c, s], [s, -c]])


def loss_simplified(theta_H, theta_V) -> np.ndarray:
    """Anti-diagonal loss element with the four inner QWPs at fixed settings."""
    xi, eta = np.sin(2 * theta_V), np.sin(2 * theta_H)
    zero = np.zeros(np.broadcast(xi, eta).shape)
    return _matrix([[zero, xi], [eta, zero]])


def loss_full(phi3, phi4, theta_V, phi5, phi6, theta_H) -> np.ndarray:
    """Anti-diagonal loss element with the inner QWP angles free."""
    xi = 0.5 * (np.sin(2 * (theta_V - phi4)) - np.sin(2 * (theta_V - phi3))
                + 1j * (np.sin(2 * theta_V) + np.sin(2 * (theta_V - phi3 - phi4))))
    eta = 0.5 * (np.sin(2 * (theta_H - phi5)) - np.sin(2 * (theta_H - phi6))
                 + 1j * (np.sin(2 * theta_H) + np.sin(2 * (theta_H - phi5 - phi6))))
    zero = np.zeros(np.broadcast(xi, eta).shape)
    return _matrix([[zero, xi], [eta, zero]])


def build_g1(delta41) -> np.ndarray:
    """First beam-displacer block; unitary for any delta41."""
    s, c = np.sin(2 * delta41), np.cos(2 * delta41)
    o, z = np.ones_like(s), np.zeros_like(s)
    return _matrix([[z, -o, z, z], [s, z, z, c], [c, z, z, -s], [z, z, o, z]])


def build_g2(delta75, delta85, delta86) -> np.ndarray:
    """Second beam-displacer block; unitary only when |sin 2delta75| =
    |sin 2delta86| = 1.  The two-qubit synthesis holds both at pi/4: at a
    free solution the sines sit at their stationary point, where the fit's
    Jacobian loses rank and its convergence turns linear."""
    s75 = np.sin(2 * delta75)
    s85, c85 = np.sin(2 * delta85), np.cos(2 * delta85)
    s86 = np.sin(2 * delta86)
    z = np.zeros(np.broadcast(s75, s85, s86).shape)
    return _matrix([[z, -s75, z, z], [s85, z, z, c85], [c85, z, z, -s85], [z, z, s86, z]])


def _mode_pair(element):
    """4x4 element acting as element(a) on modes 1, 2 and element(b) on 3, 4."""
    def pair(a, b):
        out = np.zeros(np.broadcast(a, b).shape + (4, 4), dtype=complex)
        out[..., :2, :2] = element(a)
        out[..., 2:, 2:] = element(b)
        return out
    return pair


_QWP_PAIR, _HWP_PAIR = _mode_pair(qwp), _mode_pair(hwp)


def _layer(k):
    # blockdiag(rot_{2k-1}, rot_{2k}) with rot_j = qwp(nu_j) hwp(theta_j) qwp(phi_j)
    return tuple((pair, f"{name}{2 * k - 1}", f"{name}{2 * k}")
                 for pair, name in ((_QWP_PAIR, "nu"), (_HWP_PAIR, "theta"), (_QWP_PAIR, "phi")))


# Each chain lists its factors left to right (light meets them right to left);
# a factor is a Jones element and its arguments, each a free angle's name, a
# (name, scale, offset) tuple for scale * angle + offset, or a fixed angle.
_CHAIN_SPECS = {
    DecompositionVariant.FULL12: (
        (qwp, "phi8"), (hwp, "theta2"), (qwp, "phi7"),
        (loss_full, "phi3", "phi4", "theta_V", "phi5", "phi6", "theta_H"),
        (qwp, "phi2"), (hwp, "theta1"), (qwp, "phi1"),
    ),
    DecompositionVariant.SYMMETRIC5: (
        (qwp, "phi8"), (hwp, "theta2"), (qwp, "phi7"),
        (loss_simplified, "theta_H", "theta_V"),
        # the stage-1 QWP next to the loss element is fixed at 0
        (qwp, 0.0), (hwp, "theta1"), (qwp, "phi1"),
    ),
    DecompositionVariant.PT_SIMPLIFIED: (
        # outer QWPs removed; phi1 = 0, theta1 = theta2 + pi/4, phi7 = 2 theta2
        (hwp, "theta2"), (qwp, ("theta2", 2.0, 0.0)),
        (loss_simplified, "theta_H", "theta_V"),
        (hwp, ("theta2", 1.0, np.pi / 4)), (qwp, 0.0),
    ),
    DecompositionVariant.TWO_QUBIT: (
        _layer(3) + ((build_g2, _G2_HELD["delta75"], "delta85", _G2_HELD["delta86"]),)
        + _layer(2) + ((build_g1, "delta41"),) + _layer(1)
    ),
}


@dataclass(frozen=True)
class _Chain:
    """A chain compiled to one call per distinct element.  ``names`` are its
    free angles in the order light meets them, the order of x.  The call of
    ``element`` takes the arguments ``scale * x[index] + offset``, one row of
    (index, scale, offset) per matrix it returns: each factor once as it
    stands and, by the shift rule, once per free argument shifted by +pi/4
    and once by -pi/4.  ``values`` are the rows of the factors as they stand,
    in chain order, ``owner`` the factor of each row, and ``weights`` (free
    angles x rows) sum the rows' product-rule terms into the Jacobian."""

    names: tuple
    calls: tuple
    values: np.ndarray
    owner: np.ndarray
    weights: np.ndarray


def _build_chain(spec) -> _Chain:
    # factors right to left, each name where it first appears
    names = tuple(dict.fromkeys(a if isinstance(a, str) else a[0] for _, *args in reversed(spec)
                                for a in args if isinstance(a, (str, tuple))))
    calls = {}            # element -> its rows of (index, scale, offset)
    rows, values = [], []  # (element, position in calls[element], factor)
    terms = []            # (angle, weight, row) of the shift rule
    for f, (element, *args) in enumerate(spec):
        args = [(a, 1.0, 0.0) if isinstance(a, str) else a for a in args]
        index = [names.index(a[0]) if isinstance(a, tuple) else 0 for a in args]
        scale = [a[1] if isinstance(a, tuple) else 0.0 for a in args]
        offset = [a[2] if isinstance(a, tuple) else a for a in args]
        values.append(len(rows))
        for i, shift in [(0, 0.0)] + [(i, s) for i, a in enumerate(args) if isinstance(a, tuple)
                                      for s in (np.pi / 4, -np.pi / 4)]:
            shifted = list(offset)
            shifted[i] += shift
            calls.setdefault(element, []).append((index, scale, shifted))
            rows.append((element, len(calls[element]) - 1, f))
            if shift:
                terms.append((index[i], math.copysign(scale[i], shift), len(rows) - 1))
    start = dict(zip(calls, np.cumsum([0] + [len(c) for c in calls.values()])))
    order = [start[element] + k for element, k, _ in rows]   # rows as the calls stack them
    owner = np.empty(len(rows), dtype=int)
    owner[order] = [f for *_, f in rows]
    weights = np.zeros((len(names), len(rows)))
    for j, w, row in terms:
        weights[j, order[row]] += w
    return _Chain(names, tuple((element, *(np.array(col) for col in zip(*c)))
                               for element, c in calls.items()),
                  np.array([order[row] for row in values]), owner, weights)


_CHAINS = {variant: _build_chain(spec) for variant, spec in _CHAIN_SPECS.items()}


def _factor_rows(chain: _Chain, x) -> np.ndarray:
    return np.concatenate([element(*(scale * x[index] + offset).T)
                           for element, index, scale, offset in chain.calls])


def _realize(variant, x) -> np.ndarray:
    """Product of a chain's factors at free angles x."""
    chain = _CHAINS[variant]
    return functools.reduce(np.matmul, _factor_rows(chain, x)[chain.values])


def _realize_with_jacobian(variant, x):
    """Realized matrix at x and its (n, d, d) derivatives along the angles,
    by the product rule over prefix and suffix products of the chain."""
    chain = _CHAINS[variant]
    rows = _factor_rows(chain, x)
    factors = rows[chain.values]
    left, right = [np.eye(rows.shape[-1])], [np.eye(rows.shape[-1])]
    for i in range(1, len(factors)):
        left.append(left[-1] @ factors[i - 1])
        right.append(factors[-i] @ right[-1])
    terms = np.array(left)[chain.owner] @ rows @ np.array(right[::-1])[chain.owner]
    jacobian = chain.weights @ terms.reshape(len(rows), -1)
    return left[-1] @ factors[-1], jacobian.reshape(len(jacobian), *rows.shape[1:])


def _residual_and_jacobian(variant, target, x):
    """Real and imaginary parts of d = realized - p target, with p = z/|z|
    and z = <target, realized> (p = 1 where |z| <= 1e-300), and their exact
    Jacobian, (2 d^2, n)."""
    realized, jacobian = _realize_with_jacobian(variant, x)
    t, r = target.ravel(), realized.ravel()
    dr = jacobian.reshape(len(jacobian), -1)
    z = np.vdot(t, r)
    mag = abs(z)
    if mag > 1e-300:
        phase = z / mag
        # dp = i p Im(conj(p) dz) / |z|
        dphase = 1j * phase * (phase.conjugate() * (dr @ t.conj())).imag / mag
        dr = dr - dphase[:, None] * t
    else:
        phase = 1.0
    d = r - phase * t
    return np.concatenate([d.real, d.imag]), np.concatenate([dr.real, dr.imag], axis=1).T


def _levenberg_marquardt(fun, x, max_evaluations):
    """Minimize |r(x)|^2 from x by damped Gauss-Newton steps, where
    ``fun(x)`` returns r and its Jacobian.  Returns the last accepted x,
    |r(x)| and the evaluations of ``fun`` used."""
    r, jacobian = fun(x)
    evaluations, cost = 1, r @ r
    hess, grad = jacobian.T @ jacobian, jacobian.T @ r
    damping, growth = 1e-3 * hess.diagonal().max(), 2.0
    eye = np.eye(len(x))
    while evaluations < max_evaluations and np.abs(grad).max() > _TOL * math.sqrt(cost):
        step = np.linalg.solve(hess + damping * eye, -grad)
        if np.linalg.norm(step) <= _TOL * (np.linalg.norm(x) + _TOL):
            break
        r_new, jacobian_new = fun(x + step)
        evaluations += 1
        cost_new = r_new @ r_new
        # the model predicts |r|^2 to fall by step . (damping step - grad)
        gain = (cost - cost_new) / (step @ (damping * step - grad))
        if gain > 0:
            converged = cost - cost_new <= _TOL * cost
            x, cost = x + step, cost_new
            hess, grad = jacobian_new.T @ jacobian_new, jacobian_new.T @ r_new
            damping *= max(1 / 3, 1 - (2 * gain - 1) ** 3)
            growth = 2.0
            if converged:
                break
        else:
            damping *= growth
            growth *= 2
    return x, math.sqrt(cost), evaluations


def _wrap_angle(x: float) -> float:
    """Wrap to the half-open interval (-pi, pi]."""
    return float(np.pi - np.mod(np.pi - x, 2 * np.pi))


def _aligned_residual(realized: np.ndarray, target: np.ndarray):
    """Global phase maximizing overlap, and the Frobenius residual at it."""
    z = np.vdot(target, realized)
    phase = z / abs(z) if abs(z) > 1e-300 else 1.0 + 0j
    return phase, float(np.linalg.norm(realized - phase * target))


def _checked_target(target, dim: int) -> np.ndarray:
    target = np.asarray(target, dtype=complex)
    if target.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} target, got {target.shape}")
    bad = np.argwhere(~np.isfinite(target))
    if len(bad):
        raise InvalidMatrix("target has non-finite entries at "
                            + ", ".join(f"({i}, {j})" for i, j in bad))
    return target


def _compile(target, variant, restarts, seed, success_residual):
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    names = _CHAINS[variant].names
    n = len(names)
    # one child at a time: the children of SeedSequence(seed).spawn(restarts),
    # without spawning (about 5 us each) those a success leaves unused
    seeds = np.random.SeedSequence(seed)
    best_f, best_x, used, evaluations = np.inf, None, 0, 0
    for i in range(restarts):
        used = i + 1
        rng = np.random.default_rng(seeds.spawn(1)[0])
        x, fx, spent = _levenberg_marquardt(
            functools.partial(_residual_and_jacobian, variant, target),
            rng.uniform(-np.pi, np.pi, n), 100 * n)
        evaluations += spent
        if fx < best_f:
            best_f, best_x = fx, x
        if best_f < success_residual:
            break

    phase, residual = _aligned_residual(_realize(variant, best_x), target)
    return AngleSolution(
        variant=variant,
        angles={**{name: _wrap_angle(v) for name, v in zip(names, best_x)},
                **_HELD_ANGLES.get(variant, {})},
        residual=residual,
        global_phase=float(np.angle(phase)),
        success=residual < success_residual,
        restarts_used=used,
        evaluations=evaluations,
    )


def realize_single(variant, angles: dict) -> np.ndarray:
    """Matrix realized by a single-qubit variant at the given angles; refuses two-qubit."""
    variant = DecompositionVariant(variant)
    if variant is DecompositionVariant.TWO_QUBIT:
        raise ValueError("realize_single realizes single-qubit variants only")
    return _realize(variant, np.array([angles[n] for n in _CHAINS[variant].names], dtype=float))


def compile_single_qubit(
    target,
    variant,
    restarts: int,
    seed: int,
    success_residual: float = SUCCESS_RESIDUAL,
) -> AngleSolution:
    """Find wave-plate angles realizing a passive single-qubit operator.

    The target must be finite with spectral norm <= 1 (up to 1e-9); the
    circuit is a contraction and cannot amplify.  A failed budget is
    reported through ``success=False`` on the returned solution rather than
    an exception, so the best residual found stays available to the caller.
    """
    variant = DecompositionVariant(variant)
    if variant is DecompositionVariant.TWO_QUBIT:
        raise ValueError("use compile_two_qubit for the two-qubit variant")
    target = _checked_target(target, 2)
    norm = np.linalg.norm(target, 2)
    if norm > 1 + 1e-9:
        raise NotPassive(f"spectral norm {norm:.6g} exceeds 1")
    return _compile(target, variant, restarts, seed, success_residual)


def compile_two_qubit(
    target,
    restarts: int,
    seed: int,
    success_residual: float = SUCCESS_RESIDUAL,
) -> AngleSolution:
    """Find angles for the layered two-qubit circuit realizing a unitary.
    The fit varies 20 angles; the solution lists all 22 mount settings, G2's
    delta75 and delta86 held at pi/4 (where G2 is unitary) included."""
    target = _checked_target(target, 4)
    defect = np.abs(target.conj().T @ target - np.eye(4)).max()
    if defect > 1e-9:
        raise NotUnitary(f"unitarity defect {defect:.3g}")
    return _compile(target, DecompositionVariant.TWO_QUBIT, restarts, seed, success_residual)


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
