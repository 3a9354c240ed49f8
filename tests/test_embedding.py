"""Two-qubit dilation: construction, post-selection, entanglement measures."""

import re

import numpy as np
import pytest
from conftest import entropy_oracle, partial_trace_oracle
from hypothesis import given
from hypothesis import strategies as st

from ptsim.dynamics import evolve, fit_recurrence_time
from ptsim.embedding import (
    build_h_tot,
    embed_initial,
    entanglement_entropy_series,
    mutual_information_series,
    postselect_pt,
)
from ptsim.errors import MetricUndefined, PostselectionImpossible
from ptsim.models import Family, HamiltonianSpec
from ptsim.qcore import (
    ID2,
    KET_H,
    KET_V,
    SIGMA_X,
    SIGMA_Z,
    mat_exp,
    pure_state,
    trace_distance,
)


class TestBuildHTot:
    def test_hermitian_limit_decouples(self):
        np.testing.assert_allclose(build_h_tot(0.0), np.kron(ID2, SIGMA_X), atol=1e-14)

    def test_hermitian_at_half(self):
        h = build_h_tot(0.5)
        assert np.abs(h - h.conj().T).max() < 1e-12

    def test_hermitian_random_sweep(self):
        rng = np.random.default_rng(1)
        for a in rng.uniform(0.0, 0.95, 50):
            h = build_h_tot(a)
            assert np.abs(h - h.conj().T).max() < 1e-12

    def test_coupling_block_value(self):
        # H_PT - H_PT^dag = 2ia sigma_z, so the coupling block is -(2a/c) sigma_z
        a = 0.5
        c = 2 / np.sqrt(0.75)
        want = -(2 * a / c) * SIGMA_Z
        got = build_h_tot(a)[:2, 2:] * 1j   # sigma_y (x) V block: upper-right is -i V_s
        np.testing.assert_allclose(got, want, atol=1e-12)
        assert want[0, 0].real == pytest.approx(-0.4330, abs=5e-5)

    def test_rejects_broken_regime(self):
        with pytest.raises(MetricUndefined):
            build_h_tot(1.0)


class TestEmbedInitial:
    def test_hermitian_limit(self):
        want = np.array([1, 0, 1, 0]) / np.sqrt(2)
        np.testing.assert_allclose(embed_initial(KET_H, 0.0), want, atol=1e-14)

    def test_half_amplitudes(self):
        psi = embed_initial(KET_H, 0.5)
        raw = np.array([1, 0, 1 / np.sqrt(0.75), 0.5j / np.sqrt(0.75)])
        np.testing.assert_allclose(psi, raw / np.linalg.norm(raw), atol=1e-12)

    def test_always_normalized(self):
        rng = np.random.default_rng(2)
        for a in rng.uniform(0.0, 0.95, 20):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi = embed_initial(v / np.linalg.norm(v), a)
            assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            embed_initial(np.array([1.0, 1.0]), 0.5)


@pytest.mark.parametrize("call, shape", [
    (lambda: embed_initial(np.ones(3) / np.sqrt(3), 0.5), "(3,)"),
    (lambda: postselect_pt(np.ones(5)), "(5,)"),
], ids=["embed_initial", "postselect_pt"])
def test_wrong_length_refused_naming_the_shape(call, shape):
    with pytest.raises(ValueError, match=f"got (shape )?{re.escape(shape)}$"):
        call()


class TestUnitaryEvolution:
    """The 4x4 route: e^{-i H_tot t} applied to the embedded state."""

    def test_time_zero(self):
        psi0 = embed_initial(KET_H, 0.5)
        np.testing.assert_allclose(mat_exp(build_h_tot(0.5), 0.0) @ psi0, psi0, atol=1e-12)

    def test_decoupled_ancilla_is_static(self):
        psi0 = embed_initial(KET_H, 0.0)
        rho_a0 = partial_trace_oracle(pure_state(psi0), "ancilla")
        for t in (0.5, 1.7, 3.0):
            rho_a = partial_trace_oracle(pure_state(mat_exp(build_h_tot(0.0), t) @ psi0), "ancilla")
            np.testing.assert_allclose(rho_a, rho_a0, atol=1e-12)

    def test_norm_preserved(self):
        psi = mat_exp(build_h_tot(0.5), 0.7) @ embed_initial(KET_H, 0.5)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-10


class TestPostselection:
    def test_pure_u_branch(self):
        psi = np.array([1, 0, 0, 0], dtype=complex)
        np.testing.assert_allclose(postselect_pt(psi), pure_state(KET_H), atol=1e-14)

    def test_vanishing_u_branch(self):
        psi = np.array([0, 0, 0, 1], dtype=complex)
        with pytest.raises(PostselectionImpossible):
            postselect_pt(psi)

    @pytest.mark.parametrize("t", [0.3, 1.1, 2.9])
    def test_dilation_reproduces_direct_evolution(self, t):
        a = 0.5
        psi = mat_exp(build_h_tot(a), t) @ embed_initial(KET_H, a)
        direct = evolve(HamiltonianSpec(Family.PT, a), pure_state(KET_H), t)
        assert trace_distance(postselect_pt(psi), direct) < 1e-10

    def test_dilation_equivalence_sweep(self):
        for a in (0.2, 0.8):
            for chi in (KET_H, KET_V):
                psi0 = embed_initial(chi, a)
                spec = HamiltonianSpec(Family.PT, a)
                T = np.pi / np.sqrt(1 - a * a)
                for t in np.linspace(0.0, 2 * T, 16):
                    got = postselect_pt(mat_exp(build_h_tot(a), t) @ psi0)
                    want = evolve(spec, pure_state(chi), t)
                    assert trace_distance(got, want) < 1e-9


class TestEntanglementMeasures:
    def test_no_coupling_no_entanglement(self):
        grid = np.linspace(0.0, 5.0, 64)
        series = entanglement_entropy_series(0.0, KET_H, grid)
        np.testing.assert_allclose(series.values - series.values[0], 0.0, atol=1e-10)

    def test_entropy_bounds(self):
        grid = np.linspace(0.0, 8.0, 128)
        series = entanglement_entropy_series(0.5, KET_H, grid)
        assert np.all(series.values >= 0.0)
        assert np.all(series.values <= 1.0)

    def test_entropy_period_is_half_recurrence(self):
        T = np.pi / np.sqrt(0.75)
        grid = np.linspace(0.0, 2 * T, 256)
        fit = fit_recurrence_time(entanglement_entropy_series(0.5, KET_H, grid))
        assert fit.parameter == pytest.approx(T / 2, rel=0.01)
        assert fit.parameter == pytest.approx(1.8138, rel=0.01)

    def test_mutual_information_constant_when_decoupled(self):
        grid = np.linspace(0.0, 5.0, 64)
        series = mutual_information_series(0.0, KET_H, grid)
        np.testing.assert_allclose(series.values, series.values[0], atol=1e-10)

    def test_mutual_information_is_twice_entropy_for_pure_total(self):
        grid = np.linspace(0.0, 6.0, 64)
        s = entanglement_entropy_series(0.5, KET_H, grid)
        i = mutual_information_series(0.5, KET_H, grid)
        np.testing.assert_array_equal(i.values, 2 * s.values)

    def test_mutual_information_period_matches_entropy(self):
        T = np.pi / np.sqrt(0.75)
        grid = np.linspace(0.0, 2 * T, 256)
        s_fit = fit_recurrence_time(entanglement_entropy_series(0.5, KET_H, grid))
        i_fit = fit_recurrence_time(mutual_information_series(0.5, KET_H, grid))
        assert i_fit.parameter == pytest.approx(s_fit.parameter, rel=0.01)

    def test_rejects_unnormalized_initial_state(self):
        with pytest.raises(ValueError):
            entanglement_entropy_series(0.5, np.array([1.0, 1.0]), [0.0, 1.0])


def _unit_ket(entries) -> np.ndarray:
    v = np.array(entries[:2]) + 1j * np.array(entries[2:])
    return v / np.linalg.norm(v)


_kets = st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
    lambda v: np.linalg.norm(v) > 0.1).map(_unit_ket)
_grids = st.lists(st.floats(0.0, 30.0), min_size=1, max_size=6, unique=True).map(sorted)


class TestTwoByTwoRoute:
    """The series come from the qubit ket evolved by ``evolve_ket``; the
    reference evolves the 4x4 dilation unitarily and traces it out.  Both must
    agree within 1e-13 in entropy (base 2) for a in [0, 0.999] and any
    initial qubit state."""

    @given(st.floats(0.0, 0.999), _kets, _grids)
    def test_entropy_and_information_match_4x4_route(self, a, chi, times):
        psi0 = embed_initial(chi, a)
        rho = [pure_state(mat_exp(build_h_tot(a), t) @ psi0) for t in times]
        s_sys = np.array([entropy_oracle(partial_trace_oracle(r, "system")) for r in rho])
        s_anc = np.array([entropy_oracle(partial_trace_oracle(r, "ancilla")) for r in rho])
        s_tot = np.array([entropy_oracle(r) for r in rho])
        s = entanglement_entropy_series(a, chi, times)
        i = mutual_information_series(a, chi, times)
        np.testing.assert_allclose(s.values, s_sys, rtol=0, atol=1e-13)
        np.testing.assert_allclose(i.values, s_sys + s_anc - s_tot, rtol=0, atol=1e-13)
