"""Desk-scale simulator for PT-symmetric non-unitary qubit dynamics.

Modules cover the complex-linear-algebra kernel (qcore), the Hamiltonian
families and metric (models), non-unitary evolution and critical-scaling fits
(dynamics), wave-plate circuit synthesis (optics), the Hermitian two-qubit
dilation (embedding), simulated photon-counting tomography (tomography), and
a batch experiment runner (cli).
"""

from . import dynamics, embedding, errors, models, optics, qcore, tomography
