"""Desk-scale simulator for PT-symmetric non-unitary qubit dynamics.

Subpackages cover the complex-linear-algebra kernel (qcore), the Hamiltonian
families and metric (models), non-unitary evolution and critical-scaling fits
(dynamics), wave-plate circuit synthesis (optics), the Hermitian two-qubit
dilation (embedding), simulated photon-counting tomography (tomography), and
a batch experiment runner (cli).
"""

from . import dynamics, embedding, errors, models, optics, qcore, tomography
from .dynamics import (
    FitResult,
    TimeSeries,
    distinguishability_series,
    evolve,
    fit_power_law_exponent,
    fit_recurrence_time,
    fit_relaxation_time,
)
from .models import Family, HamiltonianSpec, Regime, build_hamiltonian, classify_regime
from .qcore import (
    fidelity,
    mat_exp,
    partial_trace,
    trace_distance,
    von_neumann_entropy,
)

__version__ = "0.1.0"
