"""State of the Hermitian two-qubit dilation of the PT-symmetric qubit.

An ancilla qubit encoded in two spatial modes {|u>, |d>} extends the
non-Hermitian dynamics to a unitary evolution on four modes, generated by
``models.build_h_tot``; post-selecting the ancilla on |u> recovers the
non-unitary qubit evolution exactly.  Basis ordering is ancilla (x) system:
|u,H>, |u,V>, |d,H>, |d,V>.

The evolved dilation state is fixed by the qubit state (Guenther and
Samsonov, PRL 101, 230404 (2008)), so the entropy and mutual information
series come from the qubit ket evolved by ``evolve_ket``; the tests check
them against the 4x4 unitary e^{-i H_tot t} applied to the embedded state.
"""

import numpy as np

from .errors import PostselectionImpossible
# build_h_tot is unused here: the benchmark and the acceptance tests read it as embedding's
from .models import Family, HamiltonianSpec, build_h_tot, build_hamiltonian, metric_eta
from .qcore import ENTROPY_CUTOFF, as_density_matrix, evolve_ket, propagator, pure_state
from .dynamics import TimeSeries


def embed_initial(chi, a: float) -> np.ndarray:
    """Normalized two-qubit state |u> (x) chi + |d> (x) eta chi."""
    chi = np.asarray(chi, dtype=complex).reshape(-1)
    if chi.shape != (2,):
        raise ValueError(f"chi must be a 2-vector, got shape {chi.shape}")
    if abs(np.linalg.norm(chi) - 1.0) > 1e-10:
        raise ValueError("chi must be normalized")
    psi = np.concatenate([chi, metric_eta(a) @ chi])
    return psi / np.linalg.norm(psi)


def postselect_pt(psi) -> np.ndarray:
    """Qubit density matrix conditioned on finding the ancilla in |u>."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.shape != (4,):
        raise ValueError(f"embedded state must be a 4-vector, got {psi.shape}")
    block = psi[:2]
    if np.linalg.norm(block) <= 1e-150:
        raise PostselectionImpossible("the |u> component has vanishing weight")
    return as_density_matrix(pure_state(block))


def entanglement_entropy_series(a: float, chi, times) -> TimeSeries:
    """System-ancilla entanglement entropy (base-2) along the time grid.

    The evolved state is |u> (x) phi + |d> (x) eta phi, normalized, with
    phi = chi evolved by ``evolve_ket``.  It is pure, so system and
    ancilla share one entropy; the ancilla's state is the trace-normalized
    Gram matrix of the blocks (phi, psi = eta phi).  Its determinant is
    |phi_0 psi_1 - phi_1 psi_0|^2 (Lagrange's identity), never negative, so
    its smaller eigenvalue is lambda = 2 det/(1 + sqrt(1 - 4 det)) after
    normalization, and the larger 1 - lambda.  An eigenvalue at or below
    ENTROPY_CUTOFF = 1e-12 contributes nothing.
    """
    ts = np.asarray(times, dtype=float)
    prop = propagator(build_hamiltonian(HamiltonianSpec(Family.PT, a)), ts)
    phi0, phi1 = evolve_ket(prop, embed_initial(chi, a)[:2])   # the |u> block validates chi
    (e00, e01), (e10, e11) = metric_eta(a)
    psi0, psi1 = e00 * phi0 + e01 * phi1, e10 * phi0 + e11 * phi1
    tr = sum(z.real**2 + z.imag**2 for z in (phi0, phi1, psi0, psi1))
    cross = phi0 * psi1 - phi1 * psi0
    det = (cross.real**2 + cross.imag**2) / tr**2
    lam = 2 * det / (1 + np.sqrt(np.maximum(1 - 4 * det, 0.0)))
    minor = np.where(lam > ENTROPY_CUTOFF, lam, 1.0)   # 1 log 1 = 0
    s = -(minor * np.log(minor) + (1 - lam) * np.log1p(-lam)) / np.log(2)
    return TimeSeries(times=ts, values=s)


def mutual_information_series(a: float, chi, times) -> TimeSeries:
    """Quantum mutual information S_s + S_a - S_tot along the time grid.

    The dilation evolves a pure total state, so S_tot = 0 and S_s = S_a:
    the mutual information is twice the entanglement entropy.
    """
    s = entanglement_entropy_series(a, chi, times)
    return TimeSeries(times=s.times, values=2 * s.values)
