"""Hermitian two-qubit dilation of the PT-symmetric qubit.

An ancilla qubit encoded in two spatial modes {|u>, |d>} extends the
non-Hermitian dynamics to a unitary evolution on four modes; post-selecting
the ancilla on |u> recovers the non-unitary qubit evolution exactly.  Basis
ordering is ancilla (x) system: |u,H>, |u,V>, |d,H>, |d,V>.
"""

import numpy as np

from .errors import InvalidDensityMatrix, PostselectionImpossible
from .models import Family, HamiltonianSpec, build_hamiltonian, metric_eta, normalization_c
from .qcore import (
    ID2,
    SIGMA_Y,
    as_density_matrix,
    mat_exp,
    normalized,
    partial_trace,
    propagator,
    pure_state,
    trace_distance,
    von_neumann_entropy,
)
from .dynamics import TimeSeries

_PURITY_TOL = 1e-8


def build_h_tot(a: float) -> np.ndarray:
    """Hermitian two-qubit generator 1 (x) H_s + sigma_y (x) V_s.

    H_s and V_s are built from the gain-loss Hamiltonian, its metric, and
    the normalization c so that the |u>-block of the evolved state carries
    exactly the non-unitary single-qubit dynamics.
    """
    H = build_hamiltonian(HamiltonianSpec(Family.PT, a))
    eta = metric_eta(a)
    c = normalization_c(a)
    h_s = (H @ np.linalg.inv(eta) + eta @ H) / c
    v_s = 1j * (H - H.conj().T) / c
    h_tot = np.kron(ID2, h_s) + np.kron(SIGMA_Y, v_s)
    return (h_tot + h_tot.conj().T) / 2


def embed_initial(chi, a: float) -> np.ndarray:
    """Normalized two-qubit state |u> (x) chi + |d> (x) eta chi."""
    chi = np.asarray(chi, dtype=complex).reshape(-1)
    if chi.shape != (2,):
        raise ValueError(f"chi must be a 2-vector, got shape {chi.shape}")
    if abs(np.linalg.norm(chi) - 1.0) > 1e-10:
        raise ValueError("chi must be normalized")
    psi = np.concatenate([chi, metric_eta(a) @ chi])
    return normalized(psi)


def evolve_embedded(a: float, psi0, t: float) -> np.ndarray:
    """Unitary evolution of the embedded state to time t."""
    psi0 = np.asarray(psi0, dtype=complex).reshape(-1)
    if psi0.shape != (4,):
        raise ValueError(f"embedded state must be a 4-vector, got {psi0.shape}")
    return mat_exp(build_h_tot(a), t) @ psi0


def postselect_pt(psi) -> np.ndarray:
    """Qubit density matrix conditioned on finding the ancilla in |u>."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.shape != (4,):
        raise ValueError(f"embedded state must be a 4-vector, got {psi.shape}")
    block = psi[:2]
    if np.linalg.norm(block) <= 1e-150:
        raise PostselectionImpossible("the |u> component has vanishing weight")
    return as_density_matrix(pure_state(block))


def postselect_pt_density(rho_tot) -> np.ndarray:
    """Post-selection for a (possibly mixed) two-qubit density matrix:
    project onto |u><u| (x) 1, trace out the ancilla, renormalize.  A stack
    (..., 4, 4) is post-selected matrix by matrix and returned unvalidated."""
    rho = np.asarray(rho_tot, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix, got {rho.shape}")
    block = rho[..., :2, :2]
    weight = np.trace(block, axis1=-2, axis2=-1).real
    if np.any(weight <= 1e-150):
        raise PostselectionImpossible("the |u> block has vanishing weight")
    post = block / weight[..., None, None]
    return post if post.ndim > 2 else as_density_matrix(post)


def _evolved_total_density(a: float, chi, times) -> np.ndarray:
    """Pure two-qubit states of the dilation along the grid, shape (N, 4, 4)."""
    W, _ = propagator(build_h_tot(a), times)
    psi = W @ embed_initial(chi, a)
    rho = psi[:, :, None] * psi[:, None, :].conj()
    return rho / np.sum(np.abs(psi) ** 2, axis=1)[:, None, None]


def distinguishability_series(a: float, chi1, chi2, times) -> TimeSeries:
    """Trace distance of the post-selected states of two embedded initial states."""
    ts = np.asarray(times, dtype=float)
    rho1, rho2 = (postselect_pt_density(_evolved_total_density(a, chi, ts))
                  for chi in (chi1, chi2))
    return TimeSeries(ts, trace_distance(rho1, rho2), label=f"D(t) embedded a={a:g}")


def entanglement_entropy_series(a: float, chi, times) -> TimeSeries:
    """System-ancilla entanglement entropy (base-2) along the time grid."""
    ts = np.asarray(times, dtype=float)
    rho = _evolved_total_density(a, chi, ts)
    vals = von_neumann_entropy(partial_trace(rho, "system"))
    return TimeSeries(times=ts, values=vals, label=f"S(t) a={a:g}")


def mutual_information_series(a: float, chi, times) -> TimeSeries:
    """Quantum mutual information S_s + S_a - S_tot along the time grid.

    The total state is pure by construction, so S_tot is only roundoff; it
    is checked to stay below 1e-8 and subtracted anyway.
    """
    ts = np.asarray(times, dtype=float)
    rho = _evolved_total_density(a, chi, ts)
    s_tot = von_neumann_entropy(rho)
    if not np.all(s_tot < _PURITY_TOL):
        raise InvalidDensityMatrix(f"total state not pure: S_tot = {np.max(s_tot):.3e}")
    vals = (von_neumann_entropy(partial_trace(rho, "system"))
            + von_neumann_entropy(partial_trace(rho, "ancilla")) - s_tot)
    return TimeSeries(times=ts, values=vals, label=f"I(t) a={a:g}")
