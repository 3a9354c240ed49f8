"""Independent reference for the benchmark's correctness checks.

Nothing here imports ptsim or repeats its code paths:

* 2x2 propagators use the Cayley-Hamilton closed form.  With
  K = H - tr(H)/2 and w^2 = -det K, K^2 = w^2 1, so
  e^{-iHt} = e^{-i tr(H) t/2} [cos(wt) 1 - i t sinc(wt) K], exact at the
  exceptional point (w = 0) where it reduces to 1 - iHt up to the scalar.
* The 2x2 trace distance is sqrt(|det(rho1 - rho2)|): the difference of two
  qubit density matrices is traceless, so its eigenvalues are +-lambda.
* The 4x4 dilation propagator comes from scipy.linalg.expm.
* Wave plates are built as rotated retarders R(-x) diag(1, e^{i delta}) R(x);
  the loss element and the beam-displacer blocks are written out from their
  published closed forms.
* Pure-state fidelity is <psi|rho|psi>.
"""

import numpy as np
from scipy.linalg import expm

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

_R2 = 1 / np.sqrt(2)
KETS = {
    "H": np.array([1, 0], dtype=complex),
    "V": np.array([0, 1], dtype=complex),
    "P+": np.array([_R2, _R2], dtype=complex),
    "M": np.array([_R2, -_R2], dtype=complex),
    "R": np.array([_R2, 1j * _R2], dtype=complex),
    "L": np.array([_R2, -1j * _R2], dtype=complex),
}

# |Im(w t)| above which cos(w t) is replaced by its scaled form, so that
# propagators deep in the broken regime do not overflow
_SCALE_SWITCH = 20.0


def hamiltonian(family: str, a: float, c: float = 0.0) -> np.ndarray:
    """2x2 Hamiltonian of a qubit family: pt, passive-pt, t or nosym."""
    if family == "pt":
        return SX + 1j * a * SZ
    if family == "passive-pt":
        return SX + 1j * a * (SZ - I2)
    if family == "t":
        return SX + 1j * a * SY
    if family == "nosym":
        return SX + (c + 1j * a) * SZ
    raise ValueError(f"no reference Hamiltonian for family {family!r}")


def _split(H):
    """Traceless part K and w with K^2 = w^2 1 (principal square root)."""
    H = np.asarray(H, dtype=complex)
    half_tr = (H[0, 0] + H[1, 1]) / 2
    K = H - half_tr * I2
    w = np.sqrt(complex(-(K[0, 0] * K[1, 1] - K[0, 1] * K[1, 0])))
    return half_tr, K, w


def _t_sinc(w: complex, t):
    """t * sin(w t)/(w t), with its Taylor series where w t is tiny."""
    t = np.asarray(t, dtype=float)
    z = w * t
    small = np.abs(z) < 1e-3
    safe = np.where(small, 1.0, z)
    return np.where(small, t * (1 - z * z / 6 + z**4 / 120), t * np.sin(safe) / safe)


def propagator2(H, t: float) -> np.ndarray:
    """Exact e^{-iHt} of a 2x2 matrix by the Cayley-Hamilton closed form."""
    half_tr, K, w = _split(H)
    return np.exp(-1j * half_tr * t) * (np.cos(w * t) * I2 - 1j * _t_sinc(w, t) * K)


def scaled_propagators2(H, times) -> np.ndarray:
    """Matrices proportional to e^{-iHt} at each time, shape (N, 2, 2).

    Only the direction matters for normalized states, so the scalar
    e^{-i tr(H) t/2} is dropped; where cos(wt) would overflow, everything is
    divided by it: 1 - i (tan(wt)/w) K.
    """
    _, K, w = _split(H)
    ts = np.asarray(times, dtype=float)
    z = w * ts
    big = np.abs(z.imag) > _SCALE_SWITCH
    cos_part = np.where(big, 1.0, np.cos(np.where(big, 0.0, z)))
    sin_part = _t_sinc(w, ts)
    if np.any(big):
        tan_over_w = np.tan(z[big]) / w   # w != 0 wherever big holds
        sin_part = sin_part.astype(complex)
        sin_part[big] = tan_over_w
    return cos_part[:, None, None] * I2 - 1j * sin_part[:, None, None] * K


def evolved_pure(H, ket, times) -> np.ndarray:
    """Normalized kets U(t) ket at each time, shape (N, 2)."""
    vecs = scaled_propagators2(H, times) @ np.asarray(ket, dtype=complex)
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


def projectors(vecs) -> np.ndarray:
    """|v><v| for each row of a (N, d) array of normalized kets."""
    v = np.asarray(vecs, dtype=complex)
    return v[:, :, None] * v[:, None, :].conj()


def trace_distance2(rho1, rho2):
    """Qubit trace distance sqrt(|det(rho1 - rho2)|), batched over leading axes."""
    d = np.asarray(rho1) - np.asarray(rho2)
    det = d[..., 0, 0] * d[..., 1, 1] - d[..., 0, 1] * d[..., 1, 0]
    return np.sqrt(np.abs(det))


def distinguishability(family, a, c, labels, times) -> np.ndarray:
    """Closed-form D(t) between two pure initial states named by polarization labels."""
    H = hamiltonian(family, a, c)
    r1 = projectors(evolved_pure(H, KETS[labels[0]], times))
    r2 = projectors(evolved_pure(H, KETS[labels[1]], times))
    return trace_distance2(r1, r2)


def recurrence_time(a: float) -> float:
    """Period of D(t) in the unbroken regime, pi/sqrt(1 - a^2)."""
    return np.pi / np.sqrt(1 - a * a)


def relaxation_time(a: float) -> float:
    """Decay constant of D(t) in the broken regime, 1/(2 sqrt(a^2 - 1))."""
    return 1 / (2 * np.sqrt(a * a - 1))


# Exceptional-point power laws D ~ t^p, keyed by (family, initial pair)
EP_EXPONENTS = {
    ("pt", ("H", "V")): -2.0,
    ("t", ("P+", "M")): -2.0,
    ("t", ("H", "V")): -1.0,
    ("pt", ("R", "L")): -1.0,
}


# --- two-qubit dilation (ancilla (x) system ordering) -----------------------

def metric(a: float) -> np.ndarray:
    return np.array([[1, -1j * a], [1j * a, 1]]) / np.sqrt(1 - a * a)


def h_tot(a: float) -> np.ndarray:
    """Hermitian dilation generator 1 (x) H_s + sigma_y (x) V_s.

    The metric has eigenvalues (1 -+ a)/sqrt(1 - a^2), so the normalization
    (sum of their reciprocals) is 2/sqrt(1 - a^2).
    """
    H = hamiltonian("pt", a)
    eta = metric(a)
    norm = 2 / np.sqrt(1 - a * a)
    h_s = (H @ np.linalg.inv(eta) + eta @ H) / norm
    v_s = 1j * (H - H.conj().T) / norm
    return np.kron(I2, h_s) + np.kron(SY, v_s)


def embedded_ket(label: str, a: float) -> np.ndarray:
    chi = KETS[label]
    psi = np.concatenate([chi, metric(a) @ chi])
    return psi / np.linalg.norm(psi)


def dilation_states(a: float, label: str, times) -> np.ndarray:
    """Evolved four-mode kets expm(-i h_tot t) psi0, shape (N, 4)."""
    h = h_tot(a)
    psi0 = embedded_ket(label, a)
    return np.array([expm(-1j * t * h) @ psi0 for t in times])


def postselected(psis) -> np.ndarray:
    """Qubit states conditioned on the ancilla in |u>, shape (N, 2, 2)."""
    block = np.asarray(psis)[:, :2]
    return projectors(block / np.linalg.norm(block, axis=1, keepdims=True))


def entropy2(rho) -> np.ndarray:
    """Base-2 von Neumann entropy of qubit density matrices from the closed-form
    eigenvalues (1 +- sqrt(1 - 4 det rho))/2, batched over leading axes."""
    r = np.asarray(rho)
    det = (r[..., 0, 0] * r[..., 1, 1] - r[..., 0, 1] * r[..., 1, 0]).real
    gap = np.sqrt(np.clip(1 - 4 * det, 0.0, 1.0))
    out = np.zeros(gap.shape)
    for lam in ((1 + gap) / 2, (1 - gap) / 2):
        pos = lam > 0
        out[pos] -= lam[pos] * np.log2(lam[pos])
    return out


def system_entropy(psis) -> np.ndarray:
    """Entanglement entropy of the system qubit for four-mode kets."""
    blocks = np.asarray(psis).reshape(-1, 2, 2)   # [ancilla, system]
    reduced = np.einsum("nas,nat->nst", blocks, blocks.conj())
    return entropy2(reduced)


def pure_fidelity(psi, rho) -> float:
    """<psi|rho|psi> for a normalized ket psi."""
    psi = np.asarray(psi, dtype=complex)
    return float(np.real(psi.conj() @ np.asarray(rho) @ psi))


# --- Jones calculus ---------------------------------------------------------

def _rotation(x: float) -> np.ndarray:
    c, s = np.cos(x), np.sin(x)
    return np.array([[c, s], [-s, c]], dtype=complex)


def retarder(x: float, delta: float) -> np.ndarray:
    """Wave plate of retardance delta with its fast axis at angle x."""
    return _rotation(-x) @ np.diag([1, np.exp(1j * delta)]) @ _rotation(x)


def qwp(phi: float) -> np.ndarray:
    return retarder(phi, np.pi / 2)


def hwp(theta: float) -> np.ndarray:
    return retarder(theta, np.pi)


def _loss_entry(theta, p, q, sign):
    return 0.5 * (
        1j * np.sin(2 * theta)
        - sign * np.sin(2 * (theta - p))
        + sign * np.sin(2 * (theta - q))
        + 1j * np.sin(2 * (theta - p - q))
    )


def loss(variant: str, ang: dict) -> np.ndarray:
    """Anti-diagonal loss element [[0, xi], [eta, 0]]."""
    if variant == "full12":
        xi = _loss_entry(ang["theta_V"], ang["phi3"], ang["phi4"], 1)
        eta = _loss_entry(ang["theta_H"], ang["phi5"], ang["phi6"], -1)
    else:
        xi, eta = np.sin(2 * ang["theta_V"]), np.sin(2 * ang["theta_H"])
    return np.array([[0, xi], [eta, 0]], dtype=complex)


def realize_single(variant: str, ang: dict) -> np.ndarray:
    """Second rotation . loss . first rotation of a single-qubit variant."""
    if variant == "pt-simplified":
        th = ang["theta2"]
        first = hwp(th + np.pi / 4) @ qwp(0.0)
        second = hwp(th) @ qwp(2 * th)
    else:
        outer = 0.0 if variant == "symmetric5" else ang["phi2"]
        first = qwp(outer) @ hwp(ang["theta1"]) @ qwp(ang["phi1"])
        second = qwp(ang["phi8"]) @ hwp(ang["theta2"]) @ qwp(ang["phi7"])
    return second @ loss(variant, ang) @ first


def _g1(d41):
    s, c = np.sin(2 * d41), np.cos(2 * d41)
    return np.array([[0, -1, 0, 0], [s, 0, 0, c], [c, 0, 0, -s], [0, 0, 1, 0]], dtype=complex)


def _g2(d75, d85, d86):
    s85, c85 = np.sin(2 * d85), np.cos(2 * d85)
    return np.array(
        [[0, -np.sin(2 * d75), 0, 0], [s85, 0, 0, c85], [c85, 0, 0, -s85],
         [0, 0, np.sin(2 * d86), 0]],
        dtype=complex,
    )


def realize_two_qubit(ang: dict) -> np.ndarray:
    """U5,6 . G2 . U3,4 . G1 . U1,2, each U a pair of QWP-HWP-QWP rotations."""
    def rot(j):
        return qwp(ang[f"nu{j}"]) @ hwp(ang[f"theta{j}"]) @ qwp(ang[f"phi{j}"])

    def layer(j):
        out = np.zeros((4, 4), dtype=complex)
        out[:2, :2], out[2:, 2:] = rot(j), rot(j + 1)
        return out

    g1 = _g1(ang["delta41"])
    g2 = _g2(ang["delta75"], ang["delta85"], ang["delta86"])
    return layer(5) @ g2 @ layer(3) @ g1 @ layer(1)


def aligned_residual(realized, target) -> float:
    """min over phi of ||realized - e^{i phi} target||_F."""
    r, t = np.asarray(realized), np.asarray(target)
    z = np.vdot(t, r)
    phase = z / abs(z) if abs(z) > 0 else 1.0
    return float(np.linalg.norm(r - phase * t))
