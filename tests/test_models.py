"""Hamiltonian constructors, the metric operator, and the regime classifier."""

import mpmath
import numpy as np
import pytest

from ptsim import embedding
from ptsim.errors import MetricUndefined
from ptsim.models import (
    Family,
    HamiltonianSpec,
    build_h_tot,
    build_hamiltonian,
    classify_regime,
    metric_eta,
)
from ptsim.qcore import ID2, SIGMA_X, SIGMA_Y


def pt(a):
    return HamiltonianSpec(Family.PT, a)


def dilation_c(a):
    """The dilation normalization c = 2 eta_00 that build_h_tot reads."""
    return 2 * metric_eta(a)[0, 0].real


def pseudo_hermiticity_residual(H, eta) -> float:
    """Largest entry of eta H - H^dag eta; <= 1e-10 certifies it."""
    return float(np.abs(eta @ H - H.conj().T @ eta).max())


class TestBuildHamiltonian:
    def test_hermitian_limit(self):
        np.testing.assert_allclose(
            build_hamiltonian(HamiltonianSpec(Family.PT, 0.0)), SIGMA_X
        )

    def test_pt_half(self):
        want = np.array([[0.5j, 1], [1, -0.5j]])
        np.testing.assert_allclose(build_hamiltonian(HamiltonianSpec(Family.PT, 0.5)), want)

    def test_time_reversal_half(self):
        want = np.array([[0, 1.5], [0.5, 0]], dtype=complex)
        np.testing.assert_allclose(
            build_hamiltonian(HamiltonianSpec(Family.TIME_REVERSAL, 0.5)), want
        )

    def test_no_symmetry(self):
        got = build_hamiltonian(HamiltonianSpec(Family.NO_SYMMETRY, 0.5, 0.3))
        want = np.array([[0.3 + 0.5j, 1], [1, -0.3 - 0.5j]])
        np.testing.assert_allclose(got, want)

    def test_passive_is_shifted_pt(self):
        for a in (0.0, 0.3, 0.9, 1.7):
            pt = build_hamiltonian(HamiltonianSpec(Family.PT, a))
            passive = build_hamiltonian(HamiltonianSpec(Family.PASSIVE_PT, a))
            np.testing.assert_array_equal(passive, pt - 1j * a * ID2)

    @pytest.mark.parametrize("a", [0.0, 0.5, 0.999999])
    def test_embedded_is_the_dilation_generator(self, a):
        got = build_hamiltonian(HamiltonianSpec(Family.EMBEDDED, a))
        assert got.shape == (4, 4)
        np.testing.assert_array_equal(got, build_h_tot(a))

    def test_embedding_evolves_by_the_models_generator(self):
        assert embedding.build_h_tot is build_h_tot

    @pytest.mark.parametrize("a", [1 - 1e-13, 1.0, 1.5])
    def test_embedded_has_no_dilation_outside_the_unbroken_regime(self, a):
        with pytest.raises(MetricUndefined):
            build_hamiltonian(HamiltonianSpec(Family.EMBEDDED, a))

    @pytest.mark.parametrize("a", [0.0, 0.2, 0.5, 0.8, 0.99])
    def test_eigenvalues_of_pt_and_t_families(self, a):
        want = np.sqrt(1 - a * a)
        for fam in (Family.PT, Family.TIME_REVERSAL):
            ev = np.linalg.eigvals(build_hamiltonian(HamiltonianSpec(fam, a)))
            np.testing.assert_allclose(sorted(ev.real), [-want, want], atol=1e-10)
            np.testing.assert_allclose(ev.imag, 0.0, atol=1e-10)

    @pytest.mark.parametrize("a", [0.1, 0.5, 1.3])
    def test_time_reversal_symmetry(self, a):
        H = build_hamiltonian(HamiltonianSpec(Family.TIME_REVERSAL, a))
        assert np.abs(np.conj(H) - H).max() < 1e-12

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            HamiltonianSpec(Family.PT, -0.1)
        with pytest.raises(ValueError):
            HamiltonianSpec(Family.NO_SYMMETRY, 0.5, np.nan)

    @pytest.mark.parametrize("family, a, c", [
        (Family.PT, 1e300, 0.0), (Family.TIME_REVERSAL, 1e155, 0.0),
        (Family.NO_SYMMETRY, 0.5, 1e300), (Family.NO_SYMMETRY, 1e200, 1e200),
    ])
    def test_spec_with_overflowing_squared_frequency_refused(self, family, a, c):
        with pytest.raises(ValueError, match=r"w\^2 = 1 \+ \(c \+ ia\)\^2 overflows"):
            HamiltonianSpec(family, a, c)

    def test_c_is_ignored_outside_the_no_symmetry_family(self):
        spec = HamiltonianSpec(Family.PT, 0.5, 1e300)
        assert spec.w2 == 0.75
        np.testing.assert_array_equal(build_hamiltonian(spec), build_hamiltonian(pt(0.5)))


class TestMetric:
    def test_identity_at_zero(self):
        np.testing.assert_allclose(metric_eta(0.0), ID2)

    def test_half(self):
        got = metric_eta(0.5)
        s = 1 / np.sqrt(0.75)
        want = s * np.array([[1, -0.5j], [0.5j, 1]])
        np.testing.assert_allclose(got, want)
        assert got[0, 0].real == pytest.approx(1.1547, abs=5e-5)
        assert got[0, 1].imag == pytest.approx(-0.5774, abs=5e-5)

    def test_eigenvalues_half(self):
        # closed form (1 +- a)/sqrt(1 - a^2), cross-checked numerically
        lam = np.linalg.eigvalsh(metric_eta(0.5))
        want = np.array([0.5, 1.5]) / np.sqrt(0.75)
        np.testing.assert_allclose(np.sort(lam), want, atol=1e-12)
        np.testing.assert_allclose(np.sort(lam), [0.5774, 1.7321], atol=5e-5)

    def test_positive_definite_sweep(self):
        for a in np.linspace(0.0, 0.999, 40):
            assert np.linalg.eigvalsh(metric_eta(a)).min() > 0

    def test_undefined_at_and_beyond_ep(self):
        for a in (1.0 - 1e-13, 1.0, 1.5):
            with pytest.raises(MetricUndefined):
                metric_eta(a)
        with pytest.raises(ValueError):
            metric_eta(-0.2)


class TestNormalization:
    @pytest.mark.parametrize("a", [0.0, 0.3, 0.5, 0.9, 0.999999])
    def test_dilation_assembled_from_metric_and_normalization(self, a):
        # pin: build_h_tot is (H eta^-1 + eta H)/c and i(H - H^dag)/c, bit for bit
        H = build_hamiltonian(pt(a))
        eta, c = metric_eta(a), dilation_c(a)
        h_s = (H @ np.linalg.inv(eta) + eta @ H) / c
        v_s = 1j * (H - H.conj().T) / c
        h_tot = np.kron(ID2, h_s) + np.kron(SIGMA_Y, v_s)
        np.testing.assert_array_equal(build_h_tot(a), (h_tot + h_tot.conj().T) / 2)

    def test_trivial(self):
        assert dilation_c(0.0) == pytest.approx(2.0, abs=1e-12)

    def test_half(self):
        assert dilation_c(0.5) == pytest.approx(2 / np.sqrt(0.75), abs=1e-12)
        assert dilation_c(0.5) == pytest.approx(2.3094, abs=5e-5)

    def test_divergence_toward_ep(self):
        assert dilation_c(0.99) == pytest.approx(2 / np.sqrt(1 - 0.99**2), abs=1e-10)
        assert dilation_c(0.99) == pytest.approx(14.1779, abs=5e-4)
        assert dilation_c(0.999) > dilation_c(0.99) > dilation_c(0.9)

    def test_undefined(self):
        with pytest.raises(MetricUndefined):
            dilation_c(1.0)


class TestRegime:
    def test_unbroken(self):
        r = classify_regime(pt(0.5))
        assert r.kind == "unbroken"

    def test_exceptional_point(self):
        assert classify_regime(pt(1.0)).kind == "exceptional-point"
        assert classify_regime(pt(1.0 + 1e-13)).kind == "exceptional-point"
        assert classify_regime(pt(1.0 - 1e-13)).kind == "exceptional-point"

    def test_broken(self):
        r = classify_regime(pt(1.25))
        assert r.kind == "broken"

    def test_timescale(self):
        # T = pi/sqrt(1 - a^2) unbroken, tau = 1/(2 sqrt(a^2 - 1)) broken
        assert classify_regime(pt(0.5)).timescale == pytest.approx(2 * np.pi / np.sqrt(3),
                                                                   rel=1e-15)
        assert classify_regime(pt(1.25)).timescale == pytest.approx(2 / 3, rel=1e-15)
        for a in (1.0, 1.0 - 1e-13, 1.0 + 1e-13):
            assert classify_regime(pt(a)).timescale == np.inf

    def test_deterministic_boundaries(self):
        assert classify_regime(pt(1.0 - 1e-9)).kind == "unbroken"
        assert classify_regime(pt(1.0 + 1e-9)).kind == "broken"
        with pytest.raises(ValueError):
            classify_regime(pt(-0.5))

    @pytest.mark.parametrize("a", [0.0, 0.5, 1 - 1e-9, 1 - 1e-13, 1.0, 1 + 1e-13, 1 + 1e-9, 1.25])
    def test_every_family_without_c_classifies_as_pt(self, a):
        # passive-pt and t share pt's w^2 = 1 - a^2, and so does nosym at c = 0
        for family in (Family.PASSIVE_PT, Family.TIME_REVERSAL, Family.NO_SYMMETRY,
                       Family.EMBEDDED):
            assert classify_regime(HamiltonianSpec(family, a)) == classify_regime(pt(a))

    @pytest.mark.parametrize("c", [0.5, -0.5, 2.0, 1e-3])
    def test_no_symmetry_at_a_zero_is_hermitian_and_unbroken(self, c):
        r = classify_regime(HamiltonianSpec(Family.NO_SYMMETRY, 0.0, c))
        assert r.kind == "unbroken"
        assert r.timescale == pytest.approx(np.pi / np.sqrt(1 + c * c), rel=4.4e-16)

    @pytest.mark.parametrize("a, c", [(0.5, 0.5), (0.8, 0.5), (0.5, 0.1), (1.0, 0.5), (2.0, 0.5),
                                      (0.5, 2.0), (1.0, 1e-3), (1.0, 1e-8), (1.0 + 1e-13, 1e-3),
                                      (0.999, -1e-6), (3.0, 0.1), (0.1, -2.0)])
    def test_no_symmetry_relaxes_everywhere(self, a, c):
        # w^2 = 1 + (c + ia)^2 has Im w^2 = 2ac != 0: no exceptional point,
        # and tau = 1/(2 |Im w|) at every a > 0, against 50-digit mpmath
        r = classify_regime(HamiltonianSpec(Family.NO_SYMMETRY, a, c))
        with mpmath.workdps(50):
            w = mpmath.sqrt(1 + (mpmath.mpf(c) + 1j * mpmath.mpf(a)) ** 2)
            want = 1 / (2 * abs(mpmath.im(w)))
            assert r.kind == "broken" and abs(r.timescale / want - 1) <= 4.4e-16


# a = 1 +- {1, 3} 10^-k, k = 2..11: 1 - a^2 cancels to O(epsilon) near the EP
_NEAR_EP = [1 + sign * m * 10.0**-k for k in range(2, 12) for m in (1, 3) for sign in (-1, 1)]


class TestClosedFormsNearTheExceptionalPoint:
    """Against 50-digit mpmath at the double a, each closed form stays within
    two ulps, which a rounded 1 - a*a does not (2.5e-9 for T and tau)."""

    @pytest.mark.parametrize("a", _NEAR_EP)
    def test_timescale(self, a):
        with mpmath.workdps(50):
            w2 = 1 - mpmath.mpf(a) ** 2
            want = mpmath.pi / mpmath.sqrt(w2) if a < 1 else 1 / (2 * mpmath.sqrt(-w2))
            assert abs(classify_regime(pt(a)).timescale / want - 1) <= 4.4e-16

    @pytest.mark.parametrize("a", [a for a in _NEAR_EP if a < 1])
    def test_metric_and_normalization(self, a):
        with mpmath.workdps(50):
            scale = 1 / mpmath.sqrt(1 - mpmath.mpf(a) ** 2)
            assert abs(metric_eta(a)[0, 0].real / scale - 1) <= 4.4e-16
            assert abs(dilation_c(a) / (2 * scale) - 1) <= 4.4e-16


class TestPseudoHermiticity:
    def test_certifies_pt(self):
        H = build_hamiltonian(HamiltonianSpec(Family.PT, 0.5))
        assert pseudo_hermiticity_residual(H, metric_eta(0.5)) < 1e-10

    def test_hermitian_with_identity_metric(self):
        assert pseudo_hermiticity_residual(SIGMA_X, ID2) == 0.0

    def test_rejects_no_symmetry_family(self):
        H = build_hamiltonian(HamiltonianSpec(Family.NO_SYMMETRY, 0.5, 0.5))
        assert pseudo_hermiticity_residual(H, metric_eta(0.5)) > 0.1
