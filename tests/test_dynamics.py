"""Non-unitary evolution, distinguishability series, and the scaling fits."""

import itertools

import mpmath
import numpy as np
import pytest
from conftest import propagator_stack, random_pure
from hypothesis import given
from hypothesis import strategies as st

from ptsim.dynamics import (
    TRACE_FLOOR,
    TimeSeries,
    _line_fit,
    default_time_grid,
    distinguishability_series,
    evolve,
    fit_power_law_exponent,
    fit_recurrence_time,
    fit_relaxation_time,
)
from ptsim.errors import InvalidWindow, NoOscillation, StateAnnihilated
from ptsim.models import Family, HamiltonianSpec, build_hamiltonian, classify_regime
from ptsim.qcore import (
    KET_H,
    KET_V,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    polarization_ket,
    pure_state,
    trace_distance,
)

RHO_H = pure_state(KET_H)
RHO_V = pure_state(KET_V)


def pt(a):
    return HamiltonianSpec(Family.PT, a)


def recurrence_period(a):
    return np.pi / np.sqrt(1 - a * a)


def hv_series(spec, t_max, points):
    grid = np.linspace(0.0, t_max, points)
    return distinguishability_series(spec, RHO_H, RHO_V, grid)


class TestEvolve:
    def test_rabi_flip_in_hermitian_limit(self):
        got = evolve(pt(0.0), RHO_H, np.pi / 2)
        np.testing.assert_allclose(got, RHO_V, atol=1e-12)

    def test_state_restored_after_one_period(self):
        rng = np.random.default_rng(1)
        T = recurrence_period(0.5)
        for rho0 in (RHO_H, RHO_V, pure_state(random_pure(rng))):
            assert trace_distance(evolve(pt(0.5), rho0, T), rho0) < 1e-8

    def test_balanced_and_passive_agree(self):
        for t in (0.2, 1.0, 3.0):
            balanced = evolve(pt(0.5), RHO_H, t)
            passive = evolve(HamiltonianSpec(Family.PASSIVE_PT, 0.5), RHO_H, t)
            assert np.abs(balanced - passive).max() < 1e-12

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            evolve(pt(0.5), RHO_H, -1.0)

    def test_annihilated_state(self):
        # passive loss e^{-2at} underflows the normalization trace eventually
        with pytest.raises(StateAnnihilated):
            evolve(HamiltonianSpec(Family.PASSIVE_PT, 0.5), RHO_H, 800.0)

    def test_amplified_state_is_not_annihilated(self):
        # at a = 2, U rho U^dag overflows from t ~ 205 while U stays finite
        rho = evolve(pt(2.0), RHO_H, 300.0)
        assert np.all(np.isfinite(rho))
        np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(rho).min() >= -1e-12

    def test_amplified_state_past_propagator_overflow(self):
        # e^{-iHt} itself overflows at a = 2 from t ~ 409.8
        rho = evolve(pt(2.0), RHO_H, 420.0)
        assert np.all(np.isfinite(rho))
        np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(rho).min() >= -1e-12

    def test_broken_state_converges_to_dominant_eigenvector(self):
        w, V = np.linalg.eig(build_hamiltonian(pt(2.0)))
        dominant = pure_state(V[:, np.argmax(w.imag)])
        np.testing.assert_allclose(evolve(pt(2.0), RHO_H, 5000.0), dominant, atol=1e-12)


class TestDistinguishabilitySeries:
    def test_unitary_case_is_constant(self):
        series = hv_series(pt(0.0), 10.0, 128)
        np.testing.assert_allclose(series.values, 1.0, atol=1e-12)

    def test_unbroken_oscillation_restores(self):
        T = recurrence_period(0.5)
        series = hv_series(pt(0.5), T, 257)
        assert series.values.min() > 0.0
        assert series.values[-1] == pytest.approx(1.0, abs=1e-8)

    def test_broken_is_strictly_decreasing(self):
        series = hv_series(pt(1.25), 5.0, 128)
        assert np.all(np.diff(series.values) < 0)

    def test_broken_long_times_past_product_overflow(self):
        series = hv_series(pt(2.0), 300.0, 512)
        assert np.all(np.isfinite(series.values))
        assert np.diff(series.values).max() <= 1e-12

    def test_broken_long_times_past_propagator_overflow(self):
        series = hv_series(pt(2.0), 2000.0, 512)
        assert np.all(np.isfinite(series.values))
        assert np.diff(series.values).max() <= 1e-12

    def test_periodicity_property(self):
        for a in (0.2, 0.5, 0.8):
            T = recurrence_period(a)
            grid = np.linspace(0.0, T, 64)
            base = distinguishability_series(pt(a), RHO_H, RHO_V, grid)
            shifted = distinguishability_series(pt(a), RHO_H, RHO_V, grid + T)
            np.testing.assert_allclose(shifted.values, base.values, atol=1e-8)

    def test_series_validation(self):
        with pytest.raises(ValueError):
            TimeSeries(times=np.array([0.0, 0.0, 1.0]), values=np.zeros(3))
        with pytest.raises(ValueError):
            TimeSeries(times=np.array([0.0, 1.0]), values=np.array([1.0, np.nan]))
        with pytest.raises(ValueError, match="equal length"):
            TimeSeries(times=[0.0, 1.0], values=[1.0])


_families = st.sampled_from([Family.PT, Family.PASSIVE_PT, Family.TIME_REVERSAL,
                             Family.NO_SYMMETRY])
_ket = st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
    lambda v: np.linalg.norm(v) > 0.1).map(lambda v: np.array(v[:2]) + 1j * np.array(v[2:]))


class TestBatchedSeries:
    @given(_families, st.floats(0.0, 2.5), st.floats(-1.0, 1.0), _ket, _ket,
           st.floats(0.5, 20.0))
    def test_matches_pointwise_evolution(self, family, a, c, k1, k2, t_max):
        spec = HamiltonianSpec(family, a, c)
        rho1, rho2 = pure_state(k1), pure_state(k2)
        grid = np.linspace(0.0, t_max, 16)
        series = distinguishability_series(spec, rho1, rho2, grid)
        pointwise = [trace_distance(evolve(spec, rho1, t), evolve(spec, rho2, t)) for t in grid]
        np.testing.assert_allclose(series.values, pointwise, rtol=0, atol=1e-13)

    @given(st.floats(0.0, 2.5), _ket, _ket, st.floats(0.5, 20.0))
    def test_balanced_and_passive_series_agree(self, a, k1, k2, t_max):
        rho1, rho2 = pure_state(k1), pure_state(k2)
        grid = np.linspace(0.0, t_max, 64)
        balanced = distinguishability_series(pt(a), rho1, rho2, grid)
        passive = distinguishability_series(HamiltonianSpec(Family.PASSIVE_PT, a), rho1, rho2, grid)
        np.testing.assert_allclose(passive.values, balanced.values, rtol=0, atol=1e-12)



class TestLongTimesAtTheExceptionalPoint:
    """At a = 1 an evolved ket grows as t, so its square would overflow past
    t ~ 1.3e154; the series and evolve scale it first."""

    @pytest.mark.parametrize("label", ["V", "L"])
    def test_pt_series_against_mpmath(self, label):
        times = np.array([1e155, 1e200, 1e300])
        H = build_hamiltonian(pt(1.0))
        assert not (H @ H).any()   # so e^{-iHt} = 1 - i t H exactly
        k2 = polarization_ket(label)
        got = distinguishability_series(pt(1.0), RHO_H, pure_state(k2), times).values
        with mpmath.workdps(700):   # resolves 1 against t = 1e300 and D down to 1e-300
            want = [mpmath_pure_distance(mpmath.eye(2) - 1j * mpmath.mpf(t)
                                         * mpmath.matrix(H.tolist()), KET_H, k2) for t in times]
        assert np.all(np.abs(got - want) <= 1e-15)

    def test_pure_state_tends_to_the_null_vector(self):
        got = evolve(pt(1.0), RHO_H, 1e300)
        assert np.abs(got - pure_state(polarization_ket("L"))).max() <= 1e-15

    def test_mixed_state_from_kets_of_different_scale(self):
        # H is the t family's null vector and stays put; the basis ket V grows as t
        got = evolve(HamiltonianSpec(Family.TIME_REVERSAL, 1.0), np.diag([0.7, 0.3]), 1e300)
        assert np.abs(got - RHO_H).max() <= 1e-15


class TestLineFit:
    @given(st.integers(3, 64), st.floats(1.0, 5.0), st.floats(-2.0, 2.0),
           st.floats(0.1, 2.0), st.sampled_from([-1.0, 1.0]), st.floats(-2.0, 2.0),
           st.floats(0.1, 1.0), st.integers(0, 2**32 - 1))
    def test_matches_polyfit(self, n, width, centre, size, sign, intercept, noise, seed):
        # a line through points spread about the origin, plus residuals of RMS
        # ``noise`` that no line absorbs
        rng = np.random.default_rng(seed)
        x = centre + width * (np.sort(rng.random(n)) - 0.5)
        basis = np.column_stack([np.ones(n), x])
        r = rng.standard_normal(n)
        r -= basis @ np.linalg.lstsq(basis, r, rcond=None)[0]
        y = sign * size * x + intercept + noise * r / np.sqrt(np.mean(r**2))
        coef, cov = np.polyfit(x, y, 1, cov=True)
        rms = np.sqrt(np.mean((y - np.polyval(coef, x)) ** 2))
        np.testing.assert_allclose(_line_fit(x, y), (coef[0], np.sqrt(cov[0, 0]), rms),
                                   rtol=1e-12, atol=0)


class TestRecurrenceFit:
    def test_half(self):
        series = hv_series(pt(0.5), 15.0, 512)
        fit = fit_recurrence_time(series)
        assert fit.parameter == pytest.approx(3.6276, rel=0.01)
        assert fit.stderr >= 0

    def test_eight_tenths(self):
        series = hv_series(pt(0.8), 4 * recurrence_period(0.8), 512)
        assert fit_recurrence_time(series).parameter == pytest.approx(np.pi / 0.6, rel=0.01)

    def test_scaling_law_sweep(self):
        # T sqrt(1 - a^2) must stay within 1% of pi as the divergence builds
        for a in (0.5, 0.8, 0.9, 0.99):
            series = hv_series(pt(a), 4 * recurrence_period(a), 512)
            T_fit = fit_recurrence_time(series).parameter
            assert T_fit * np.sqrt(1 - a * a) == pytest.approx(np.pi, rel=0.01)

    def test_decay_has_no_oscillation(self):
        series = hv_series(pt(1.25), 8.0, 256)
        with pytest.raises(NoOscillation):
            fit_recurrence_time(series)

    def test_constant_has_no_oscillation(self):
        series = hv_series(pt(0.0), 10.0, 128)
        with pytest.raises(NoOscillation):
            fit_recurrence_time(series)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            fit_recurrence_time(hv_series(pt(0.5), 15.0, 32))

    def test_needs_uniform_grid(self):
        grid = np.geomspace(0.1, 20.0, 128)
        series = distinguishability_series(pt(0.5), RHO_H, RHO_V, grid)
        with pytest.raises(ValueError):
            fit_recurrence_time(series)

    def test_two_crossings_have_infinite_stderr(self):
        # 2.5 periods from a peak: upward crossings before the peaks at T, 2T
        T = recurrence_period(0.5)
        fit = fit_recurrence_time(hv_series(pt(0.5), 2.5 * T, 256))
        assert fit.parameter == pytest.approx(T, rel=1e-3)
        assert fit.stderr == np.inf and fit.residual_rms < 1e-12

    def test_diagnostics_of_crossing_times(self):
        fit = fit_recurrence_time(hv_series(pt(0.5), 15.0, 512))
        assert 0 < fit.stderr < 1e-3 and 0 < fit.residual_rms < 1e-3
        assert fit.window == (0.0, 15.0)


def near_ep_series(eps, points=None):
    """H,V series over four periods at a = 1 - eps; by default with a step of
    at most 0.5, which resolves the peaks (about 1.9 wide) near the EP."""
    T = recurrence_period(1 - eps)
    return T, hv_series(pt(1 - eps), 4 * T, points or max(512, int(np.ceil(8 * T)) + 1))


class TestRecurrenceNearExceptionalPoint:
    # tolerance |T_fit/T - 1| <= 5e-4; the worst case over eps in [1e-8, 0.95]
    # on these grids is about 2.1e-4
    @given(st.floats(-6.0, np.log10(0.95)))
    def test_period_on_resolving_grids(self, log_eps):
        T, series = near_ep_series(10.0**log_eps)
        assert abs(fit_recurrence_time(series).parameter / T - 1) <= 5e-4

    def test_closest_approach(self):
        T, series = near_ep_series(1e-8)   # 177,717 points
        assert abs(fit_recurrence_time(series).parameter / T - 1) <= 5e-4

    @pytest.mark.parametrize("eps", [3e-5, 1e-4])
    def test_coarse_grid_names_its_step(self, eps):
        # 512 points put a step of 3.2 (1.7) against peaks about 1.9 wide
        _, series = near_ep_series(eps, points=512)
        step = series.times[1] - series.times[0]
        with pytest.raises(NoOscillation, match=f"grid step {step:.6g} "):
            fit_recurrence_time(series)


def closed_form_distinguishability(spec, k1, k2, times):
    """D(t) of two pure states from phi = cos(wt) psi - i sin(wt)/w K psi,
    with K the traceless part of H and w^2 = -det K (unbroken regime)."""
    H = build_hamiltonian(spec)
    K = H - np.trace(H) / 2 * np.eye(2)
    w = np.sqrt(-np.linalg.det(K))
    c, s = np.cos(w * times)[:, None], (np.sin(w * times) / w)[:, None]
    p1, p2 = (c * k - 1j * s * (K @ k) for k in (k1, k2))
    overlap = np.abs(np.sum(p1.conj() * p2, 1)) ** 2 / (
        np.sum(np.abs(p1) ** 2, 1) * np.sum(np.abs(p2) ** 2, 1))
    return np.sqrt(np.clip(1 - overlap, 0, None))


def true_period(spec, k1, k2):
    """Least period of D: the states recur at T = pi/w, and D for some pairs
    already at T/2, where phi(t + T/2) = -i K phi(t)/w."""
    T = recurrence_period(spec.a)
    t = np.linspace(0.0, T / 2, 2001)
    d, shifted = (closed_form_distinguishability(spec, k1, k2, s) for s in (t, t + T / 2))
    return T / 2 if np.abs(d - shifted).max() < 1e-9 else T


_LABELS = ("H", "V", "P+", "M", "R", "L")


class TestRecurrenceFitPeriodMultiplicity:
    def series(self, family, pair, a):
        spec = HamiltonianSpec(family, a)
        k1, k2 = (polarization_ket(label) for label in pair)
        T = recurrence_period(a)
        grid = np.linspace(0.0, 4 * T, max(512, int(np.ceil(32 * T)) + 1))
        return (distinguishability_series(spec, pure_state(k1), pure_state(k2), grid),
                true_period(spec, k1, k2))

    @given(st.sampled_from([Family.PT, Family.PASSIVE_PT, Family.TIME_REVERSAL]),
           st.sampled_from(list(itertools.combinations(_LABELS, 2))), st.floats(0.05, 0.99))
    def test_period_matches_the_closed_form(self, family, pair, a):
        series, truth = self.series(family, pair, a)
        try:
            period = fit_recurrence_time(series).parameter
        except NoOscillation as exc:
            # a secondary peak that grazes the mid level is refused, not misread
            assert "spans one sample" in str(exc)
            return
        assert abs(period / truth - 1) <= 1e-3

    @pytest.mark.parametrize("family, pair, a", [
        (Family.PT, ("H", "L"), 0.95), (Family.PT, ("H", "L"), 0.99),
        (Family.PASSIVE_PT, ("P+", "L"), 0.99), (Family.TIME_REVERSAL, ("H", "P+"), 0.95),
        (Family.TIME_REVERSAL, ("H", "R"), 0.99)])
    def test_two_peaks_per_period_give_one_period(self, family, pair, a):
        # both peaks clear the mid level, so every other upward crossing is
        # one period apart; the all-crossings slope reads T/2
        series, truth = self.series(family, pair, a)
        assert truth == recurrence_period(a)
        assert abs(fit_recurrence_time(series).parameter / truth - 1) <= 1e-3

    def test_series_that_never_repeats(self):
        t = np.linspace(0.0, 60.0, 2048)
        series = TimeSeries(t, np.sin(t) + np.sin(np.sqrt(2) * t))
        with pytest.raises(NoOscillation, match="does not overlap itself"):
            fit_recurrence_time(series)


class TestRecurrenceFitWindowEdges:
    # D starts just above the mid level, or a secondary peak clears it just
    # before the window ends: the window cuts that excursion to one sample,
    # while the excursions inside it span 22-30 samples
    @pytest.mark.parametrize("family", [Family.PT, Family.PASSIVE_PT])
    @pytest.mark.parametrize("pair", [("H", "L"), ("V", "L")])
    @pytest.mark.parametrize("a", np.linspace(0.85, 0.905, 12))
    def test_excursion_cut_by_the_window_is_not_a_coarse_step(self, family, pair, a):
        spec = HamiltonianSpec(family, a)
        k1, k2 = (pure_state(polarization_ket(label)) for label in pair)
        series = distinguishability_series(spec, k1, k2, default_time_grid(spec))
        assert abs(fit_recurrence_time(series).parameter - recurrence_period(a)) <= 1e-3


def mpmath_pure_distance(U, k1, k2):
    """Trace distance of two pure states after the mpmath matrix U, at the
    working precision."""
    p1, p2 = (U * mpmath.matrix(k.tolist()) for k in (k1, k2))
    overlap = abs((p1.H * p2)[0]) ** 2 / ((p1.H * p1)[0] * (p2.H * p2)[0]).real
    return float(mpmath.sqrt(1 - overlap))


def mpmath_distinguishability(H, k1, k2, t, dps=40):
    """D(t) of two pure states evolved by mpmath's expm at ``dps`` digits."""
    with mpmath.workdps(dps):
        return mpmath_pure_distance(mpmath.expm(-1j * mpmath.mpf(t) * mpmath.matrix(H.tolist())),
                                    k1, k2)


class TestSeriesNearExceptionalPoint:
    @pytest.mark.parametrize("k", range(3, 9))
    @pytest.mark.parametrize("side", [-1, 1])
    def test_against_mpmath(self, k, side):
        # four recurrence periods below the EP, four relaxation times above
        a = 1 + side * 10.0**-k
        scale = recurrence_period(a) if a < 1 else 1 / (2 * np.sqrt(a * a - 1))
        times = 4 * scale + np.array([0.0, 0.5, 1.0, 3.0])
        got = distinguishability_series(pt(a), RHO_H, RHO_V, times).values
        want = [mpmath_distinguishability(build_hamiltonian(pt(a)), KET_H, KET_V, t)
                for t in times]
        # below the EP, the rounding of t alone moves D by about u t; above
        # it, D is the difference of two nearly equal states
        eps = np.finfo(float).eps
        tol = 16 * eps * times if a < 1 else 8 * eps
        assert np.all(np.abs(got - want) <= tol)

    def test_h_l_close_to_the_exceptional_point(self):
        # L is nearly K's null vector at a = 0.999; every 8th point of embed's
        # default grid, two recurrence periods
        times = np.linspace(0.0, 2 * recurrence_period(0.999), 256)[::8]
        got = distinguishability_series(pt(0.999), RHO_H, pure_state(polarization_ket("L")),
                                        times).values
        want = [mpmath_distinguishability(build_hamiltonian(pt(0.999)), KET_H,
                                          polarization_ket("L"), t) for t in times]
        assert np.all(np.abs(got - want) <= 1e-14)


def bloch_state(r) -> np.ndarray:
    x, y, z = r
    return (np.eye(2) + x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z) / 2


# pure states as kets, and mixed ones (sometimes pure) as Bloch vectors
_states = st.one_of(
    _ket.map(pure_state),
    st.tuples(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(
        lambda v: np.linalg.norm(v) > 0.1), st.sampled_from([1.0, 0.999, 0.5, 0.0])).map(
        lambda p: bloch_state(p[1] * np.array(p[0]) / np.linalg.norm(p[0]))))


def matrix_route_series(spec, rho1, rho2, times):
    """D(t) the matrix way: W rho W^dag over the propagator stack by matmul,
    trace-normalized, and half the absolute eigenvalues of the difference."""
    W, _ = propagator_stack(build_hamiltonian(spec), times)
    Wd = W.conj().transpose(0, 2, 1)
    m1, m2 = (W @ r @ Wd for r in (rho1, rho2))
    diff = (m1 / np.trace(m1, axis1=1, axis2=2).real[:, None, None]
            - m2 / np.trace(m2, axis1=1, axis2=2).real[:, None, None])
    return np.clip(np.abs(np.linalg.eigvalsh((diff + diff.conj().transpose(0, 2, 1)) / 2))
                   .sum(axis=1) / 2, 0.0, 1.0)


def matrix_route_log_survival(spec, rho, times):
    W, g = propagator_stack(build_hamiltonian(spec), times)
    m = W @ rho @ W.conj().transpose(0, 2, 1)
    with np.errstate(divide="ignore"):
        return np.log(np.trace(m, axis1=1, axis2=2).real) + 2 * g


class TestKetRoute:
    """The series evolves a ket factor of each state and takes the 2x2 trace
    distance in closed form; the matrix route judges it."""

    @given(_families, st.floats(0.0, 2.5), st.floats(-1.0, 1.0), _states, _states,
           st.floats(0.5, 20.0))
    def test_matches_the_matrix_route(self, family, a, c, rho1, rho2, t_max):
        spec = HamiltonianSpec(family, a, c)
        grid = np.linspace(0.0, t_max, 32)
        got = distinguishability_series(spec, rho1, rho2, grid).values
        want = matrix_route_series(spec, rho1, rho2, grid)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("family", [Family.PT, Family.TIME_REVERSAL])
    def test_every_pair_at_the_exceptional_point_against_mpmath(self, family):
        times = default_time_grid(HamiltonianSpec(family, 1.0))   # geomspace(0.1, 200, 512)
        H = build_hamiltonian(HamiltonianSpec(family, 1.0))
        with mpmath.workdps(40):
            Us = [mpmath.expm(-1j * mpmath.mpf(t) * mpmath.matrix(H.tolist())) for t in times]
            for pair in itertools.combinations(_LABELS, 2):
                k1, k2 = (polarization_ket(label) for label in pair)
                got = distinguishability_series(HamiltonianSpec(family, 1.0), pure_state(k1),
                                                pure_state(k2), times).values
                want = [mpmath_pure_distance(U, k1, k2) for U in Us]
                assert np.all(np.abs(got - want) <= 1e-15), pair

    @pytest.mark.parametrize("rho", [RHO_H, bloch_state([0.3, -0.4, 0.5])])
    def test_annihilated_where_the_matrix_route_says(self, rho):
        # passive loss: the survival probability falls about e^{-t}
        spec = HamiltonianSpec(Family.PASSIVE_PT, 0.5)
        times = np.linspace(0.0, 1000.0, 401)
        log_p = matrix_route_log_survival(spec, rho, times)
        k = np.argmax(log_p < np.log(TRACE_FLOOR))
        assert k > 0 and np.all(log_p[:k] >= np.log(TRACE_FLOOR))
        message = f"log survival probability {log_p[k]:.6g} is below .* at t = {times[k]}$"
        with pytest.raises(StateAnnihilated, match=message):
            distinguishability_series(spec, rho, rho, times)

    def test_amplified_mixed_state_is_not_annihilated(self):
        mixed = bloch_state([0.3, -0.4, 0.5])
        series = distinguishability_series(pt(2.0), mixed, RHO_V, np.linspace(0.0, 2000.0, 512))
        assert np.all(np.isfinite(series.values))


class TestRelaxationFit:
    @pytest.mark.parametrize(
        "a,tau",
        [(1.25, 0.6667), (1.5, 0.4472), (2.0, 0.2887)],
    )
    def test_spec_window(self, a, tau):
        series = hv_series(pt(a), 10.0, 512)
        fit = fit_relaxation_time(series, (2.0, 8.0))
        assert fit.parameter == pytest.approx(tau, rel=0.02)

    def test_scaling_law_sweep(self):
        for a in (1.1, 1.25, 1.5, 2.0):
            tau = 1 / (2 * np.sqrt(a * a - 1))
            series = hv_series(pt(a), 13 * tau, 512)
            fit = fit_relaxation_time(series, (4 * tau, 12 * tau))
            assert 2 * fit.parameter * np.sqrt(a * a - 1) == pytest.approx(1.0, rel=0.02)

    @pytest.mark.parametrize("a", [1.1, 1.25, 1.5, 2.0])
    def test_later_window_shrinks_the_bias(self, a):
        # D = C e^{-t/tau} [1 + O(e^{-t/tau})]: the bias is about -2.6e-3 on
        # (4 tau, 12 tau) and falls by e^4 to about -4.7e-5 on (8 tau, 16 tau)
        tau = 1 / (2 * np.sqrt(a * a - 1))
        series = hv_series(pt(a), 17 * tau, 512)
        fit = fit_relaxation_time(series, (8 * tau, 16 * tau))
        assert abs(fit.parameter / tau - 1) < 1e-4

    @given(st.floats(0.1, 3.0), st.floats(0.1, 2.0),
           st.sampled_from([("H", "V"), ("P+", "M"), ("H", "L")]))
    def test_no_symmetry_relaxes_with_the_classified_tau(self, a, c, labels):
        # without the symmetry there is no exceptional point: D relaxes with
        # tau = 1/(2 |Im w|) at every a > 0, and the fit on (8 tau, 16 tau)
        # reads it as closely as in the broken pt regime
        spec = HamiltonianSpec(Family.NO_SYMMETRY, a, c)
        tau = classify_regime(spec).timescale
        rho1, rho2 = (pure_state(polarization_ket(label)) for label in labels)
        series = distinguishability_series(spec, rho1, rho2, np.linspace(0.0, 17 * tau, 4001))
        fit = fit_relaxation_time(series, (8 * tau, 16 * tau))
        assert abs(fit.parameter / tau - 1) < 1e-4

    def test_rejects_nonpositive_values(self):
        series = TimeSeries(
            times=np.linspace(1, 10, 64),
            values=np.linspace(1.0, -0.5, 64),
        )
        with pytest.raises(InvalidWindow):
            fit_relaxation_time(series, (1.0, 10.0))

    @pytest.mark.parametrize("rate, slope", [(0.0, "0"), (0.1, "0.1")], ids=["constant", "growing"])
    def test_rejects_a_series_that_does_not_decay(self, rate, slope):
        # a flat log D has no decay constant, and a rising one would read as
        # a negative tau = -1/rate
        t = np.linspace(0.0, 10.0, 50)
        with pytest.raises(InvalidWindow, match=f"^log D has slope {slope} inside the window"):
            fit_relaxation_time(TimeSeries(t, np.exp(rate * t)), (1.0, 9.0))

    def test_rejects_empty_window(self):
        series = hv_series(pt(1.25), 8.0, 128)
        with pytest.raises(InvalidWindow):
            fit_relaxation_time(series, (20.0, 30.0))


class TestPowerLawFit:
    @staticmethod
    def ep_series(family, labels):
        spec = HamiltonianSpec(family, 1.0)
        rho1 = pure_state(polarization_ket(labels[0]))
        rho2 = pure_state(polarization_ket(labels[1]))
        grid = np.geomspace(0.1, 200.0, 512)
        return distinguishability_series(spec, rho1, rho2, grid)

    def test_pt_hv_inverse_square(self):
        fit = fit_power_law_exponent(self.ep_series(Family.PT, ("H", "V")), (20, 200))
        assert fit.parameter == pytest.approx(-2.0, abs=0.05)

    def test_time_reversal_diagonal_pair_inverse_square(self):
        fit = fit_power_law_exponent(
            self.ep_series(Family.TIME_REVERSAL, ("P+", "M")), (20, 200)
        )
        assert fit.parameter == pytest.approx(-2.0, abs=0.05)

    def test_time_reversal_hv_inverse_linear(self):
        # |H> is an eigenstate at the exceptional point; scaling drops to 1/t
        fit = fit_power_law_exponent(
            self.ep_series(Family.TIME_REVERSAL, ("H", "V")), (20, 200)
        )
        assert fit.parameter == pytest.approx(-1.0, abs=0.05)

    def test_requires_positive_window_start(self):
        series = hv_series(pt(0.5), 10.0, 128)
        with pytest.raises(InvalidWindow):
            fit_power_law_exponent(series, (0.0, 10.0))


class TestRegimeBehaviors:
    def test_no_symmetry_monotone_decay(self):
        spec = HamiltonianSpec(Family.NO_SYMMETRY, 0.5, 0.5)
        grid = np.linspace(0.0, 10.0, 256)
        series = distinguishability_series(spec, RHO_H, RHO_V, grid)
        assert np.all(np.diff(series.values) <= 1e-12)
        assert series.values[1:].max() < 1.0 - 1e-6

    def test_time_reversal_minima_depend_on_initial_pair(self):
        spec = HamiltonianSpec(Family.TIME_REVERSAL, 0.5)
        grid = np.linspace(0.0, 4 * recurrence_period(0.5), 512)
        hv = distinguishability_series(spec, RHO_H, RHO_V, grid)
        diag = distinguishability_series(
            spec,
            pure_state(polarization_ket("P+")),
            pure_state(polarization_ket("M")),
            grid,
        )
        # both pairs recur, but their oscillation minima differ
        fit_recurrence_time(hv)
        fit_recurrence_time(diag)
        assert abs(hv.values.min() - diag.values.min()) > 1e-3

    def test_default_grids(self):
        assert len(default_time_grid(pt(0.5))) == 512
        assert default_time_grid(pt(0.5))[-1] == pytest.approx(4 * recurrence_period(0.5))
        assert default_time_grid(pt(1.25))[-1] == pytest.approx(8 / (2 * np.sqrt(1.25**2 - 1)))
        ep = default_time_grid(pt(1.0))
        assert ep[0] == pytest.approx(0.1) and ep[-1] == pytest.approx(200.0)
        # nosym relaxes with tau = 1/(2 |Im w|), w^2 = 1 + (c + ia)^2
        nosym = default_time_grid(HamiltonianSpec(Family.NO_SYMMETRY, 0.5, 0.5))
        assert nosym[-1] == pytest.approx(8 / (2 * np.sqrt(1 + (0.5 + 0.5j) ** 2).imag))
