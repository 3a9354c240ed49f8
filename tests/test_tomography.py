"""Measurement bases, count simulation, and state reconstruction."""

import warnings

import numpy as np
import pytest
from conftest import qubit_mle_oracle, random_density, random_pure

from ptsim import embedding, tomography
from ptsim.dynamics import evolve
from ptsim.errors import (
    DimMismatch,
    MleFailed,
    NotInformationallyComplete,
    UnsupportedDimension,
)
from ptsim.models import Family, HamiltonianSpec
from ptsim.qcore import (
    ID2, KET_H, KET_V, fidelity, mat_exp, polarization_ket, pure_state, trace_distance,
)
from ptsim.tomography import (
    CountRecord,
    MeasurementBasis,
    born_probabilities,
    linear_inversion,
    linear_inversion_from_probabilities,
    mle_from_probabilities,
    mle_reconstruct,
    simulate_counts,
    standard_bases,
)

BASES2 = standard_bases(2)
BASES4 = standard_bases(4)


def records_for(rho, shots, seed):
    probs = born_probabilities(rho, BASES2)
    return simulate_counts(probs, shots, seed, labels=[b.label for b in BASES2])


class TestStandardBases:
    def test_single_qubit_set(self):
        assert [b.label for b in BASES2] == ["H", "V", "P+", "P-"]
        np.testing.assert_allclose(BASES2[0].projector, pure_state(KET_H), atol=1e-15)

    def test_two_qubit_set(self):
        bases = standard_bases(4)
        assert len(bases) == 16
        assert bases[0].label == "u:H"
        for b in bases:
            assert np.trace(b.projector).real == pytest.approx(1.0, abs=1e-12)

    def test_projector_traces(self):
        for b in BASES2:
            assert np.trace(b.projector).real == pytest.approx(1.0, abs=1e-12)

    def test_unsupported_dimension(self):
        with pytest.raises(UnsupportedDimension):
            standard_bases(3)

    def test_rank_one_validation(self):
        with pytest.raises(ValueError):
            MeasurementBasis("bad", np.eye(2))


class TestBornProbabilities:
    def test_h_state(self):
        np.testing.assert_allclose(
            born_probabilities(pure_state(KET_H), BASES2), [1, 0, 0.5, 0.5], atol=1e-12
        )

    def test_maximally_mixed(self):
        np.testing.assert_allclose(
            born_probabilities(ID2 / 2, BASES2), [0.5] * 4, atol=1e-12
        )

    def test_diagonal_state(self):
        # overlap of the circular projector with |P+> is exactly one half
        plus = pure_state(np.array([1, 1]) / np.sqrt(2))
        np.testing.assert_allclose(
            born_probabilities(plus, BASES2), [0.5, 0.5, 1.0, 0.5], atol=1e-12
        )

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            born_probabilities(np.eye(4) / 4, BASES2)

    def test_no_bases_no_probabilities(self):
        probs = born_probabilities(ID2 / 2, [])
        assert probs.shape == (0,) and probs.dtype == float

    @pytest.mark.parametrize("dim", [2, 4])
    def test_equals_the_trace_per_basis(self, dim):
        # the stacked product sums each trace as Tr[rho Pi] alone does
        rng = np.random.default_rng(dim)
        random_bases = [MeasurementBasis(str(i), pure_state(random_pure(rng, dim)))
                        for i in range(dim * dim)]
        for bases in (standard_bases(dim), random_bases):
            for _ in range(50):
                rho = random_density(rng, dim)
                per_basis = [np.trace(rho @ b.projector).real for b in bases]
                np.testing.assert_array_equal(born_probabilities(rho, bases),
                                              np.clip(per_basis, 0.0, 1.0))


class TestSimulateCounts:
    def test_certain_outcomes(self):
        records = simulate_counts([1.0, 0.0], 100, seed=1)
        assert records[0].counts == 100
        assert records[1].counts == 0

    def test_deterministic_in_seed(self):
        a = simulate_counts([0.3, 0.7], 500, seed=42)
        b = simulate_counts([0.3, 0.7], 500, seed=42)
        assert [r.counts for r in a] == [r.counts for r in b]
        c = simulate_counts([0.3, 0.7], 500, seed=43)
        assert [r.counts for r in a] != [r.counts for r in c]

    def test_binomial_concentration(self):
        # at 18000 shots the frequency stays within +-0.03 of p = 0.5
        # (an 8-sigma band) for every one of 1000 seeds
        for seed in range(1000):
            (rec,) = simulate_counts([0.5], 18000, seed=seed)
            assert 0.47 <= rec.counts / rec.shots <= 0.53

    def test_records_carry_seed(self):
        (rec,) = simulate_counts([0.5], 10, seed=7)
        assert rec.seed == 7 and rec.shots == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_counts([0.5], 0, seed=1)
        with pytest.raises(ValueError):
            simulate_counts([1.5], 10, seed=1)
        with pytest.raises(ValueError):
            CountRecord("H", counts=11, shots=10)

    def test_labels_must_match_the_probabilities(self):
        # a short label list used to truncate the records without a word
        with pytest.raises(DimMismatch, match="^1 labels for 3 probabilities$"):
            simulate_counts([0.5, 0.5, 0.2], 10, 1, labels=["H"])
        with pytest.raises(DimMismatch, match="^3 labels for 2 probabilities$"):
            simulate_counts([0.5, 0.5], 10, 1, labels=["H", "V", "P+"])

    @pytest.mark.parametrize("probs, shape", [([[0.5, 0.5], [0.2, 0.8]], r"\(2, 2\)"),
                                              (0.5, r"\(\)")])
    def test_probabilities_must_be_one_dimensional(self, probs, shape):
        # a 2-D array used to end in numpy's raw TypeError
        with pytest.raises(ValueError, match=f"^probabilities must be 1-D, got shape {shape}$"):
            simulate_counts(probs, 10, 1)

    @pytest.mark.parametrize("shots", [0, -5])
    def test_record_without_shots_refused(self, shots):
        # a record with no shots has no frequency for linear inversion or MLE
        with pytest.raises(ValueError, match=f"^shots must be >= 1, got {shots}$"):
            CountRecord("H", 0, shots)


class TestLinearInversion:
    def test_noiseless_h_state(self):
        probs = born_probabilities(pure_state(KET_H), BASES2)
        got = linear_inversion_from_probabilities(probs, BASES2)
        np.testing.assert_allclose(got, pure_state(KET_H), atol=1e-10)

    def test_noiseless_random_pure_states(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            rho = pure_state(random_pure(rng))
            probs = born_probabilities(rho, BASES2)
            got = linear_inversion_from_probabilities(probs, BASES2)
            np.testing.assert_allclose(got, rho, atol=1e-10)

    def test_noisy_counts_can_go_negative_but_return(self):
        # frequencies placing the Bloch vector outside the sphere
        records = [
            CountRecord("H", 1000, 1000),
            CountRecord("V", 0, 1000),
            CountRecord("P+", 900, 1000),
            CountRecord("P-", 500, 1000),
        ]
        with pytest.warns(UserWarning, match="negative eigenvalue"):
            rho = linear_inversion(records, BASES2)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(rho).min() < -1e-6

    def test_incomplete_bases_rejected(self):
        with pytest.raises(NotInformationallyComplete):
            linear_inversion_from_probabilities([1.0, 0.0], BASES2[:2])


class TestPairing:
    """Records and probabilities pair with the bases by position."""

    @pytest.mark.parametrize("reconstruct", [mle_reconstruct, linear_inversion])
    def test_reversed_records_rejected(self, reconstruct):
        records = records_for(pure_state(KET_H), 1000, 1)[::-1]
        with pytest.raises(DimMismatch, match="record 0 counts basis 'P-', but basis 0 is 'H'"):
            reconstruct(records, BASES2)

    @pytest.mark.parametrize("reconstruct", [mle_reconstruct, linear_inversion])
    def test_first_mislabelled_record_named(self, reconstruct):
        records = records_for(pure_state(KET_H), 1000, 1)
        records[1], records[2] = records[2], records[1]
        with pytest.raises(DimMismatch, match="record 1 counts basis 'P\\+', but basis 1 is 'V'"):
            reconstruct(records, BASES2)

    @pytest.mark.parametrize("reconstruct", [mle_reconstruct, linear_inversion])
    def test_record_count_must_match(self, reconstruct):
        records = records_for(pure_state(KET_H), 1000, 1)
        with pytest.raises(DimMismatch, match="3 count records for 4 bases"):
            reconstruct(records[:3], BASES2)

    @pytest.mark.parametrize("reconstruct", [mle_reconstruct, linear_inversion])
    def test_bases_of_mixed_dimension_rejected(self, reconstruct):
        bases = [*BASES2[:3], BASES4[0]]
        records = [CountRecord(b.label, 500, 1000) for b in bases]
        with pytest.raises(DimMismatch, match=r"^basis 'u:H' has shape \(4, 4\), basis 'H' \(2, 2\)$"):
            reconstruct(records, bases)

    @pytest.mark.parametrize("reconstruct", [mle_from_probabilities,
                                             linear_inversion_from_probabilities])
    def test_probability_count_must_match(self, reconstruct):
        probs = list(born_probabilities(pure_state(KET_H), BASES2))
        with pytest.raises(DimMismatch, match="3 probabilities for 4 bases"):
            reconstruct(probs[:3], BASES2)
        with pytest.raises(DimMismatch, match="5 probabilities for 4 bases"):
            reconstruct(probs + [0.5], BASES2)


class TestMle:
    def test_noiseless_fixed_point(self):
        probs = born_probabilities(pure_state(KET_H), BASES2)
        rho = mle_from_probabilities(probs, BASES2, tol=1e-14)
        assert fidelity(rho, pure_state(KET_H)) > 1 - 1e-8

    def test_simulated_counts_average_fidelity(self):
        truth = evolve(HamiltonianSpec(Family.PT, 0.5), pure_state(KET_H), 1.0)
        fids = []
        for seed in range(100):
            rho = mle_reconstruct(records_for(truth, 18000, seed), BASES2, tol=1e-9)
            fids.append(fidelity(rho, truth))
        assert np.mean(fids) > 0.995

    def test_all_zero_counts(self):
        records = [CountRecord(b.label, 0, 100) for b in BASES2]
        with pytest.raises(MleFailed):
            mle_reconstruct(records, BASES2)

    def test_output_is_physical(self):
        rng = np.random.default_rng(5)
        for seed in range(10):
            truth = pure_state(random_pure(rng))
            rho = mle_reconstruct(records_for(truth, 2000, seed), BASES2)
            assert abs(np.trace(rho).real - 1) < 1e-10
            assert np.linalg.eigvalsh(rho).min() >= -1e-10
            assert np.abs(rho - rho.conj().T).max() < 1e-12

    def test_loglikelihood_never_decreases(self):
        truth = evolve(HamiltonianSpec(Family.PT, 0.5), pure_state(KET_H), 0.7)
        _, info = mle_reconstruct(
            records_for(truth, 18000, 9), BASES2, full_output=True
        )
        gains = np.diff(info["loglike"])
        assert np.all(gains >= -1e-15)

    def test_matches_linear_inversion_noiseless_full_rank(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            probs = born_probabilities(rho, BASES2)
            lin = linear_inversion_from_probabilities(probs, BASES2)
            mle = mle_from_probabilities(probs, BASES2, tol=1e-14)
            assert np.abs(lin - mle).max() < 1e-6

    def test_incomplete_bases_rejected(self):
        with pytest.raises(NotInformationallyComplete):
            mle_from_probabilities([1.0, 0.0], BASES2[:2])

    @pytest.mark.parametrize("dim", [2, 4])
    def test_quadratic_forms(self, dim):
        # K[o, k, l] = Re Tr[O E_k E_l^dag] for projectors and complements,
        # so theta^T K[o] theta = Tr[O T T^dag]
        rng = np.random.default_rng(dim)
        basis = tomography._factor_basis(dim)
        random_projs = [pure_state(random_pure(rng, dim)) for _ in range(dim * dim)]
        for projs in (np.stack([b.projector for b in standard_bases(dim)]), np.stack(random_projs)):
            ops = np.concatenate([projs, np.eye(dim) - projs])
            forms = tomography._quadratic_forms(ops, basis)
            explicit = np.einsum("oij,kjm,lim->okl", ops, basis, basis.conj()).real
            np.testing.assert_allclose(forms, explicit, rtol=0, atol=1e-15)
            theta = rng.normal(size=len(basis))
            t = np.tensordot(theta, basis, axes=1)
            np.testing.assert_allclose(forms @ theta @ theta,
                                       np.trace(ops @ t @ t.conj().T, axis1=1, axis2=2).real,
                                       rtol=0, atol=1e-12)


def criterion9_records(seeds):
    """Count records of criterion 9: pt at a = 0.5, H and V over two periods."""
    spec, grid = HamiltonianSpec(Family.PT, 0.5), np.linspace(0.0, 2 * np.pi / np.sqrt(0.75), 32)
    for seed in seeds:
        for i, t in enumerate(grid):
            for j, ket in enumerate((KET_H, KET_V)):
                yield records_for(evolve(spec, pure_state(ket), t), 18000, seed * 10000 + 2 * i + j)


def dilation_records(realizations, a=0.5, shots=18000):
    """(state, count records) of the 4x4 dilation states that bench
    `tomography` reconstructs: H and V embedded at a, 16 times over two
    periods."""
    h_tot = embedding.build_h_tot(a)
    labels = [b.label for b in BASES4]
    seed = 0
    for _ in range(realizations):
        for t in np.linspace(0.0, 2 * np.pi / np.sqrt(1 - a * a), 16):
            for label in ("H", "V"):
                rho = pure_state(mat_exp(h_tot, t) @ embedding.embed_initial(polarization_ket(label), a))
                seed += 1
                yield rho, simulate_counts(born_probabilities(rho, BASES4), shots, seed, labels)


class TestMleCertificate:
    def test_qubit_estimates_match_the_exact_optimum(self):
        # criterion-9 counts; about half of the optima lie on the Bloch sphere
        for records in criterion9_records(range(2)):
            rho, info = mle_reconstruct(records, BASES2, full_output=True)
            assert info["gap"] <= tomography.MLE_TOL
            assert trace_distance(rho, qubit_mle_oracle(records)) < 1e-5

    def test_dilation_estimates_are_certified(self):
        records = list(dilation_records(7))
        assert len(records) >= 200
        for _, rec in records:
            _, info = mle_reconstruct(rec, BASES4, max_iter=2000, tol=1e-8, full_output=True)
            assert info["gap"] <= 1e-8
            assert np.all(np.diff(info["loglike"]) >= 0)
            assert info["iterations"] == len(info["loglike"]) - 1

    def test_leaves_a_spurious_stationary_point(self, monkeypatch):
        # started at the true pure state, Newton steps keep the factor's zero
        # columns at zero and stop at the best pure state: stationary for the
        # factor, but rejected by the certificate where the optimum has rank
        # 2, so the step toward R's top eigenvector must take over
        factor, ascent_step = tomography._factor, tomography._ascent_step
        gaps_at_escape = []

        def spy(rho, v, p, weight, ops):
            gaps_at_escape.append(np.linalg.eigvalsh(np.tensordot(weight / p, ops, axes=1))[-1] - 1)
            return ascent_step(rho, v, p, weight, ops)

        monkeypatch.setattr(tomography, "_ascent_step", spy)
        for truth, rec in dilation_records(1):
            starts = iter([truth])
            monkeypatch.setattr(tomography, "_factor",
                                lambda rho, basis, starts=starts: factor(next(starts, rho), basis))
            _, info = mle_reconstruct(rec, BASES4, max_iter=2000, tol=1e-8, full_output=True)
            assert info["gap"] <= 1e-8
            assert np.all(np.diff(info["loglike"]) >= 0)
        assert max(gaps_at_escape, default=0.0) > 1e-6

    def test_exhausted_iterations_raise_with_the_gap(self):
        _, rec = next(dilation_records(1))
        with pytest.raises(MleFailed, match=r"after 1 iterations: gap \d\.\d+e-\d+ > tol 1\.000e-14"):
            mle_reconstruct(rec, BASES4, max_iter=1, tol=1e-14)

    @pytest.mark.parametrize("dim", [2, 4])
    def test_noiseless_pure_states_emit_no_warning(self, dim):
        # each ket is orthogonal to one measured ket (R to P- = L, M to P+),
        # so some frequencies are exactly 0
        bases = standard_bases(dim)
        kets = [polarization_ket(label) for label in ("H", "V", "M", "R")]
        if dim == 4:
            kets = [np.kron(k1, k2) for k1 in kets for k2 in kets]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for ket in kets:
                truth = pure_state(ket)
                probs = born_probabilities(truth, bases)
                assert np.any(probs == 0)
                rho, info = mle_from_probabilities(probs, bases, full_output=True)
                assert info["gap"] <= tomography.MLE_TOL
                assert fidelity(rho, truth) > 1 - 1e-8


class TestPipelineSmoke:
    def test_reconstructed_distinguishability_tracks_exact(self):
        spec = HamiltonianSpec(Family.PT, 0.5)
        grid = np.linspace(0.0, 7.0, 8)
        errs = []
        for seed in range(3):
            for i, t in enumerate(grid):
                r1 = evolve(spec, pure_state(KET_H), t)
                r2 = evolve(spec, pure_state(KET_V), t)
                m1 = mle_reconstruct(records_for(r1, 18000, seed * 1000 + 2 * i), BASES2, tol=1e-8)
                m2 = mle_reconstruct(records_for(r2, 18000, seed * 1000 + 2 * i + 1), BASES2, tol=1e-8)
                errs.append(abs(trace_distance(m1, m2) - trace_distance(r1, r2)))
        assert np.mean(errs) < 0.05
