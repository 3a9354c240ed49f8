"""Linear-algebra kernel: exponentials and distances; and the entropy and
partial-trace oracles that the dilation's tests compare against."""

import cmath

import numpy as np
import pytest
from conftest import (
    entropy_oracle,
    mpmath_expm_oracle,
    partial_trace_oracle,
    propagator_stack,
    random_density,
    random_pure,
    random_unitary,
    taylor_expm_oracle,
)
from hypothesis import assume, given
from hypothesis import strategies as st

from ptsim.errors import DimMismatch, InvalidDensityMatrix, InvalidMatrix
from ptsim.models import Family, HamiltonianSpec, build_hamiltonian
from ptsim.qcore import (
    EIGENVALUE_FLOOR,
    ID2,
    KET_H,
    KET_V,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    as_density_matrix,
    evolve_ket,
    fidelity,
    mat_exp,
    polarization_ket,
    propagator,
    pure_state,
    squared_frequency,
    trace_distance,
)

H_PT_HALF = SIGMA_X + 0.5j * SIGMA_Z


def spectral_rel_err(got, want):
    return np.linalg.norm(got - want, 2) / np.linalg.norm(want, 2)


class TestMatExp:
    @pytest.mark.parametrize("t", [0.0, 0.3, np.pi / 2, 2.0, 7.5])
    def test_pauli_x_closed_form(self, t):
        want = np.cos(t) * ID2 - 1j * np.sin(t) * SIGMA_X
        np.testing.assert_allclose(mat_exp(SIGMA_X, t), want, atol=1e-14)

    @pytest.mark.parametrize("t", [0.5, 2.0, 10.0, 200.0])
    def test_exceptional_point_series_truncates(self, t):
        # H = sigma_x + i sigma_z squares to zero, so e^{-iHt} = 1 - itH exactly
        H = SIGMA_X + 1j * SIGMA_Z
        assert np.abs(H @ H).max() == 0.0
        np.testing.assert_allclose(mat_exp(H, t), np.eye(2) - 1j * t * H, atol=1e-12)

    def test_pt_half_vs_taylor_oracle(self):
        got = mat_exp(H_PT_HALF, 1.0)
        want = taylor_expm_oracle(H_PT_HALF, 1.0)
        assert spectral_rel_err(got, want) < 1e-12

    def test_random_matrices_vs_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            H = rng.uniform(-2, 2, (2, 2)) + 1j * rng.uniform(-2, 2, (2, 2))
            t = rng.uniform(0, 3)
            assert spectral_rel_err(mat_exp(H, t), taylor_expm_oracle(H, t)) < 1e-12

    def test_additivity(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            H = rng.uniform(-2, 2, (2, 2)) + 1j * rng.uniform(-2, 2, (2, 2))
            t1, t2 = rng.uniform(0, 1, 2)
            prod = mat_exp(H, t1) @ mat_exp(H, t2)
            whole = mat_exp(H, t1 + t2)
            assert np.abs(prod - whole).max() / np.linalg.norm(whole, 2) < 1e-10

    def test_hermitian_gives_unitary(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            g = rng.uniform(-2, 2, (2, 2)) + 1j * rng.uniform(-2, 2, (2, 2))
            H = g + g.conj().T
            U = mat_exp(H, rng.uniform(0, 4))
            np.testing.assert_allclose(U @ U.conj().T, ID2, atol=1e-10)

    def test_dim_4(self):
        H = np.kron(SIGMA_Z, SIGMA_X)
        assert spectral_rel_err(mat_exp(H, 0.8), taylor_expm_oracle(H, 0.8)) < 1e-12

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidMatrix):
            mat_exp(np.array([[np.nan, 0], [0, 1]]), 1.0)
        with pytest.raises(InvalidMatrix):
            mat_exp(np.eye(3), 1.0)
        with pytest.raises(InvalidMatrix, match="expected a square matrix"):
            mat_exp(np.ones((2, 3)), 1.0)
        with pytest.raises(InvalidMatrix):
            mat_exp(SIGMA_X, np.inf)
        with pytest.raises(InvalidMatrix, match="times must be finite"):
            mat_exp(np.kron(SIGMA_Z, SIGMA_X), np.nan)


def oracle_mismatch(H, times, oracle=taylor_expm_oracle):
    """Largest relative spectral error of the propagator, rebuilt as
    e^{-i Re(tr H) t/2} e^g (c 1 - i s K), against an oracle (Taylor by
    default).

    The oracle's own roundoff grows with its number of substeps, which is
    proportional to ||tH||, so the error is returned in units of
    1e-13 (1 + ||tH||).
    """
    W, g = propagator_stack(H, times)
    phase = np.trace(H).real / 2
    worst = 0.0
    for t, w, gt in zip(times, W, g):
        got = np.exp(gt - 1j * phase * t) * w
        err = spectral_rel_err(got, oracle(H, t))
        worst = max(worst, err / (1e-13 * (1 + t * np.linalg.norm(H, 2))))
    return worst


_entry = st.floats(-2.0, 2.0)
# subnormal times break the oracle's norm; test_tiny_time covers them
_times = st.lists(st.floats(0.0, 50.0, allow_subnormal=False), min_size=1, max_size=4)


class TestPropagator:
    @given(st.lists(_entry, min_size=8, max_size=8), _times)
    def test_random_2x2_vs_oracle(self, entries, times):
        H = (np.array(entries[:4]) + 1j * np.array(entries[4:])).reshape(2, 2)
        assert oracle_mismatch(H, times) < 1

    @given(st.integers(-8, 8), st.integers(-8, 8), st.sampled_from([1, 1j, -1, -1j]), _times)
    def test_exactly_defective_vs_oracle(self, m, n, unit, times):
        # [[imn, m^2], [n^2, -imn]] squares to zero exactly in floating point
        H = unit * np.array([[1j * m * n, m * m], [n * n, -1j * m * n]]) / 8
        assert np.all(H @ H == 0)
        assert oracle_mismatch(H, times) < 1

    @given(st.sampled_from([Family.PT, Family.PASSIVE_PT]), st.integers(3, 12),
           st.sampled_from([1, -1]), st.lists(st.floats(0.0, 50.0), min_size=1, max_size=4))
    def test_near_exceptional_point_vs_oracle(self, family, k, sign, times):
        # passive-pt adds the e^{-at} loss, which only the 40-digit oracle
        # resolves; it handles subnormal times too
        H = build_hamiltonian(HamiltonianSpec(family, 1 + sign * 10.0**-k))
        assert oracle_mismatch(H, times, mpmath_expm_oracle) < 1

    def test_tiny_time(self):
        c, s, _, g = propagator(SIGMA_X + 0.5j * SIGMA_Z, [5e-324, 1e-300])
        np.testing.assert_allclose(c, [1, 1], rtol=0, atol=1e-15)
        np.testing.assert_allclose(s, [5e-324, 1e-300], rtol=1e-15, atol=0)
        assert np.all(g == 0)

    def test_scale_free_far_past_overflow(self):
        # e^{-iHt} is ~e^{8660} at a = 2, t = 5000; c, s and g stay finite
        c, s, _, g = propagator(SIGMA_X + 2j * SIGMA_Z, [0.0, 5000.0])
        assert np.all(np.isfinite(c)) and np.abs(c).max() <= 1
        assert np.all(np.isfinite(s)) and np.abs(s).max() < 1
        np.testing.assert_allclose(g, [0.0, np.sqrt(3) * 5000.0], rtol=1e-15)

    def test_overflowing_frequency_refused(self):
        # w^2 = 1 - a^2 overflows at a = 1e300, and no NaN may reach a caller
        with pytest.raises(InvalidMatrix, match="not finite"):
            propagator(SIGMA_X + 1e300j * SIGMA_Z, [1.0])

    def test_overflowing_frequency_sum_refused(self):
        # at z = (1 + i) 1e200 the exact halves of w^2 = 1 + z^2 hold both
        # inf and -inf, whose sum fsum refuses; the propagator refuses H
        assert not cmath.isfinite(squared_frequency(1e200 + 1e200j, 1.0, 1.0))
        with pytest.raises(InvalidMatrix, match="not finite"):
            propagator(SIGMA_X + (1e200 + 1e200j) * SIGMA_Z, [1.0])

    def test_two_by_two_only(self):
        with pytest.raises(InvalidMatrix, match=r"dimension 4 not in \(2,\)"):
            propagator(np.eye(4), [0.0])

    @given(st.lists(_entry, min_size=12, max_size=12), _times)
    def test_evolve_ket_matches_mat_exp(self, entries, times):
        H = (np.array(entries[:4]) + 1j * np.array(entries[4:8])).reshape(2, 2)
        ket = np.array(entries[8:10]) + 1j * np.array(entries[10:])
        prop = propagator(H, times)
        u0, u1 = evolve_ket(prop, ket)
        g = prop[3]
        phase = np.trace(H).real / 2
        for i, t in enumerate(times):
            U = mat_exp(H, t)
            got = np.exp(g[i] - 1j * phase * t) * np.array([u0[i], u1[i]])
            tol = 1e-13 * (1 + t * np.linalg.norm(H, 2)) * np.linalg.norm(U, 2)
            assert np.linalg.norm(got - U @ ket) <= tol * np.linalg.norm(ket)

    @given(st.integers(-8, 8), st.integers(-8, 8), st.sampled_from([1, 1j, -1, -1j]),
           st.lists(st.floats(0.0, 1e12), min_size=1, max_size=4))
    def test_evolve_ket_keeps_the_null_vector_exactly(self, m, n, unit, times):
        # K (m, -i n) = 0 in floating point, and c = 1 exactly at w = 0
        H = unit * np.array([[1j * m * n, m * m], [n * n, -1j * m * n]]) / 8
        u0, u1 = evolve_ket(propagator(H, times), np.array([m, -1j * n]))
        assert np.all(u0 == m) and np.all(u1 == -1j * n)

    def test_hermitian_4x4_batched(self):
        H = np.kron(SIGMA_Z, SIGMA_X) + np.kron(SIGMA_Y, SIGMA_Y)
        for t in np.linspace(0.0, 3.0, 7):
            assert spectral_rel_err(mat_exp(H, t), taylor_expm_oracle(H, t)) < 1e-12

    def test_non_hermitian_4x4(self):
        H = np.kron(SIGMA_Z, SIGMA_X + 0.5j * SIGMA_Z)
        with pytest.raises(InvalidMatrix, match="must be Hermitian up to its trace: "
                                                "K - K\\^dag has an entry of size 1.000e\\+00"):
            mat_exp(H, 0.8)

    def test_trace_of_4x4_may_be_complex(self):
        # only K = H - (tr H/4) 1 must be Hermitian; Im tr H scales the result
        H = np.kron(SIGMA_Z, SIGMA_X) + 0.25j * np.eye(4)
        assert spectral_rel_err(mat_exp(H, 2.0), taylor_expm_oracle(H, 2.0)) < 1e-12

    @pytest.mark.parametrize("a", [0.5, 0.99])
    def test_dilation_generator_vs_mpmath(self, a):
        from ptsim.embedding import build_h_tot

        H = build_h_tot(a)
        for t in [0.0, 0.3, 2.0, 7.5, 19.0, 40.0]:
            assert spectral_rel_err(mat_exp(H, t), mpmath_expm_oracle(H, t)) < 1e-12


class TestTraceDistance:
    def test_orthogonal_pure_states(self):
        assert trace_distance(pure_state(KET_H), pure_state(KET_V)) == pytest.approx(1.0)

    def test_identical_states(self):
        rho = random_density(np.random.default_rng(0))
        assert trace_distance(rho, rho) == 0.0

    def test_h_versus_diagonal(self):
        # eigenvalues of the explicit difference matrix are +-1/sqrt(2)
        plus = pure_state(np.array([1, 1]) / np.sqrt(2))
        assert trace_distance(pure_state(KET_H), plus) == pytest.approx(np.sqrt(0.5), abs=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            trace_distance(np.eye(2) / 2, np.eye(4) / 4)

    def test_metric_properties(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            a, b, c = (random_density(rng) for _ in range(3))
            dab, dba = trace_distance(a, b), trace_distance(b, a)
            assert dab == pytest.approx(dba, abs=1e-12)
            assert 0.0 <= dab <= 1.0
            assert trace_distance(a, c) <= dab + trace_distance(b, c) + 1e-12

    def test_unitary_invariance(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            a, b = random_density(rng), random_density(rng)
            U = random_unitary(rng)
            before = trace_distance(a, b)
            after = trace_distance(U @ a @ U.conj().T, U @ b @ U.conj().T)
            assert after == pytest.approx(before, abs=1e-10)


class TestEntropy:
    """The entropy oracle of tests/conftest.py."""

    def test_pure_state_zero(self):
        assert entropy_oracle(pure_state(KET_H)) == 0.0

    def test_maximally_mixed_is_one_bit(self):
        assert entropy_oracle(ID2 / 2) == pytest.approx(1.0, abs=1e-12)

    def test_direct_evaluation(self):
        want = -(0.75 * np.log2(0.75) + 0.25 * np.log2(0.25))
        assert entropy_oracle(np.diag([0.75, 0.25])) == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(0.8113, abs=5e-5)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            rho = random_density(rng)
            U = random_unitary(rng)
            assert entropy_oracle(U @ rho @ U.conj().T) == pytest.approx(
                entropy_oracle(rho), abs=1e-10
            )


class TestPartialTrace:
    """The partial-trace oracle of tests/conftest.py."""

    def test_product_state(self):
        rho = np.kron(pure_state(np.array([1, 0])), pure_state(KET_H))
        np.testing.assert_allclose(
            partial_trace_oracle(rho, "system"), pure_state(KET_H), atol=1e-14
        )
        np.testing.assert_allclose(
            partial_trace_oracle(rho, "ancilla"), pure_state(np.array([1, 0])), atol=1e-14
        )

    def test_bell_state_is_maximally_mixed(self):
        bell = pure_state(np.array([1, 0, 0, 1]) / np.sqrt(2))
        np.testing.assert_allclose(partial_trace_oracle(bell, "ancilla"), ID2 / 2, atol=1e-14)

    def test_trace_preserved_on_embedded_state(self):
        from ptsim.embedding import embed_initial, evolve_embedded

        psi = evolve_embedded(0.5, embed_initial(KET_H, 0.5), 0.7)
        rho = pure_state(psi)
        assert np.trace(partial_trace_oracle(rho, "system")).real == pytest.approx(1.0, abs=1e-12)

    def test_kron_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            ga = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            gb = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            A, B = ga @ ga.conj().T, gb @ gb.conj().T
            np.testing.assert_allclose(
                partial_trace_oracle(np.kron(A, B), "system"),
                np.trace(A) * B,
                atol=1e-12,
            )


class TestDensityValidation:
    def test_symmetrizes_roundoff(self):
        rho = pure_state(KET_H).astype(complex)
        rho[0, 1] += 1e-12
        out = as_density_matrix(rho)
        np.testing.assert_allclose(out, out.conj().T)

    def test_rejects_non_hermitian(self):
        bad = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
        with pytest.raises(InvalidDensityMatrix, match="Hermitian"):
            as_density_matrix(bad)

    def test_rejects_bad_trace(self):
        with pytest.raises(InvalidDensityMatrix, match="trace"):
            as_density_matrix(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(InvalidDensityMatrix, match="eigenvalue"):
            as_density_matrix(np.diag([1.2, -0.2]))

    @staticmethod
    def _rotated(theta, phi, lam):
        """Unit-trace Hermitian 2x2 with eigenvalues 1 - lam and lam."""
        u = np.array([[np.cos(theta), -np.exp(-1j * phi) * np.sin(theta)],
                      [np.exp(1j * phi) * np.sin(theta), np.cos(theta)]])
        return (u * [1 - lam, lam]) @ u.conj().T

    @staticmethod
    def _admitted(rho):
        try:
            as_density_matrix(rho)
        except InvalidDensityMatrix as exc:
            assert "negative eigenvalue" in str(exc)
            return False
        return True

    @given(st.floats(0.0, np.pi), st.floats(0.0, 2 * np.pi), st.floats(-3e-10, 1e-10))
    def test_two_by_two_floor_near_the_boundary_agrees_with_eigvalsh(self, theta, phi, lam):
        # a 2x2's smaller eigenvalue is taken in closed form
        rho = self._rotated(theta, phi, lam)
        lo = np.linalg.eigvalsh(rho).min()
        assume(abs(lo - EIGENVALUE_FLOOR) > 1e-15)
        assert self._admitted(rho) == (lo >= EIGENVALUE_FLOOR)

    @given(st.floats(-0.5, 1.5), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
    def test_two_by_two_floor_agrees_with_eigvalsh(self, a, re_b, im_b):
        rho = np.array([[a, re_b + 1j * im_b], [re_b - 1j * im_b, 1 - a]])
        lo = np.linalg.eigvalsh(rho).min()
        assume(abs(lo - EIGENVALUE_FLOOR) > 1e-15)
        assert self._admitted(rho) == (lo >= EIGENVALUE_FLOOR)

    @pytest.mark.parametrize("lam, admitted", [(-0.9e-10, True), (-1.1e-10, False)])
    def test_two_by_two_floor_at_the_boundary(self, lam, admitted):
        for theta, phi in [(0.0, 0.0), (0.3, 1.1), (np.pi / 4, 2.5), (1.2, 4.0)]:
            assert self._admitted(self._rotated(theta, phi, lam)) is admitted


class TestFidelityAndKets:
    def test_fidelity_of_identical_states(self):
        rho = random_density(np.random.default_rng(2))
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)

    def test_fidelity_pure_overlap(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            u, v = random_pure(rng), random_pure(rng)
            assert fidelity(pure_state(u), pure_state(v)) == pytest.approx(
                abs(np.vdot(u, v)) ** 2, abs=1e-10
            )

    def test_fidelity_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            fidelity(pure_state(KET_H), np.eye(4) / 4)

    def test_pure_state_of_zero_vector(self):
        with pytest.raises(InvalidMatrix, match="zero vector"):
            pure_state(np.zeros(2))

    def test_polarization_labels(self):
        np.testing.assert_allclose(polarization_ket("H"), KET_H)
        np.testing.assert_allclose(
            polarization_ket("L"), np.array([1, -1j]) / np.sqrt(2)
        )
        for label in ("H", "V", "P+", "M", "R", "L"):
            assert np.linalg.norm(polarization_ket(label)) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            polarization_ket("Q")
