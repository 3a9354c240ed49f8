"""Wave-plate Jones matrices, beam-displacer blocks, and angle synthesis."""

import numpy as np
import pytest
from conftest import run_fresh, taylor_expm_oracle
from hypothesis import assume, given
from hypothesis import strategies as st

from ptsim.errors import InvalidMatrix, NotPassive, NotUnitary
from ptsim.models import Family, HamiltonianSpec, build_hamiltonian
from ptsim.optics import (
    AngleSolution,
    DecompositionVariant,
    _realize_with_jacobian,
    _residual_and_jacobian,
    build_g1,
    build_g2,
    compile_single_qubit,
    compile_two_qubit,
    free_angle_names,
    hwp,
    loss_full,
    loss_simplified,
    qwp,
    realize_single,
    realize_two_qubit,
    solution_record,
)
from ptsim.qcore import ID2, KET_H, SIGMA_X, SIGMA_Z, mat_exp, pure_state, trace_distance

FULL = DecompositionVariant.FULL12
SYM = DecompositionVariant.SYMMETRIC5
PTS = DecompositionVariant.PT_SIMPLIFIED
TWO = DecompositionVariant.TWO_QUBIT


def angles_of(variant, values):
    return dict(zip(free_angle_names(variant), values))


def realize(variant, angles):
    return realize_two_qubit(angles) if variant is TWO else realize_single(variant, angles)


def written_out(variant, a):
    """Each variant's circuit as the explicit product of its Jones elements."""
    if variant is FULL:
        return (qwp(a["phi8"]) @ hwp(a["theta2"]) @ qwp(a["phi7"])
                @ loss_full(a["phi3"], a["phi4"], a["theta_V"], a["phi5"], a["phi6"], a["theta_H"])
                @ qwp(a["phi2"]) @ hwp(a["theta1"]) @ qwp(a["phi1"]))
    if variant is SYM:
        return (qwp(a["phi8"]) @ hwp(a["theta2"]) @ qwp(a["phi7"])
                @ loss_simplified(a["theta_H"], a["theta_V"])
                @ qwp(0.0) @ hwp(a["theta1"]) @ qwp(a["phi1"]))
    if variant is PTS:
        t2 = a["theta2"]
        return (hwp(t2) @ qwp(2 * t2) @ loss_simplified(a["theta_H"], a["theta_V"])
                @ hwp(t2 + np.pi / 4) @ qwp(0.0))
    rot = [qwp(a[f"nu{j}"]) @ hwp(a[f"theta{j}"]) @ qwp(a[f"phi{j}"]) for j in range(1, 7)]
    zero = np.zeros((2, 2))
    layer = [np.block([[rot[2 * k], zero], [zero, rot[2 * k + 1]]]) for k in range(3)]
    # the circuit holds delta75 and delta86 at pi/4, where G2 is unitary
    return (layer[2] @ build_g2(np.pi / 4, a["delta85"], np.pi / 4) @ layer[1]
            @ build_g1(a["delta41"]) @ layer[0])


class TestWavePlates:
    def test_qwp_at_zero(self):
        np.testing.assert_allclose(qwp(0.0), np.diag([1, 1j]), atol=1e-15)

    def test_qwp_at_quarter_turn(self):
        want = ((1 + 1j) / 2) * np.array([[1, -1j], [-1j, 1]])
        np.testing.assert_allclose(qwp(np.pi / 4), want, atol=1e-15)

    def test_qwp_unitary(self):
        rng = np.random.default_rng(0)
        for phi in rng.uniform(-np.pi, np.pi, 50):
            np.testing.assert_allclose(qwp(phi) @ qwp(phi).conj().T, ID2, atol=1e-12)

    def test_angle_arrays_give_stacks(self):
        angles = np.array([[0.3, -1.2, 2.0], [0.0, 0.7, -3.1]])
        for element in (qwp, hwp, build_g1):
            stack = element(angles)
            assert stack.shape[:2] == angles.shape
            for idx in np.ndindex(angles.shape):
                np.testing.assert_allclose(stack[idx], element(angles[idx]), rtol=0, atol=1e-15)

    def test_hwp_special_angles(self):
        np.testing.assert_allclose(hwp(0.0), SIGMA_Z, atol=1e-15)
        np.testing.assert_allclose(hwp(np.pi / 4), SIGMA_X, atol=1e-15)
        hadamard = (SIGMA_X + SIGMA_Z) / np.sqrt(2)
        np.testing.assert_allclose(hwp(np.pi / 8), hadamard, atol=1e-15)


class TestLossOperator:
    def test_simplified_full_transmission(self):
        got = loss_simplified(np.pi / 4, np.pi / 4)
        np.testing.assert_allclose(got, SIGMA_X, atol=1e-15)

    def test_simplified_asymmetric(self):
        got = loss_simplified(np.pi / 12, np.pi / 4)
        np.testing.assert_allclose(got, np.array([[0, 1], [0.5, 0]]), atol=1e-12)

    def test_full_reduces_at_zero_inner_angles(self):
        # substituting phi3..phi6 = 0 in the displayed entries leaves
        # xi = i sin 2theta_V and eta = i sin 2theta_H
        rng = np.random.default_rng(3)
        for th, tv in rng.uniform(-np.pi, np.pi, (20, 2)):
            got = loss_full(0.0, 0.0, tv, 0.0, 0.0, th)
            want = np.array([[0, 1j * np.sin(2 * tv)], [1j * np.sin(2 * th), 0]])
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_singular_values_bounded(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            assert np.linalg.norm(loss_full(*rng.uniform(-np.pi, np.pi, 6)), 2) <= 1 + 1e-12


class TestRealizeSingle:
    def test_identity_rotations_give_sigma_x(self):
        # qwp(0) hwp(0) qwp(0) = 1 exactly, and the full-transmission loss
        # element is sigma_x
        angles = angles_of(SYM, [0.0, 0.0, np.pi / 4, np.pi / 4, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(realize_single(SYM, angles), SIGMA_X, atol=1e-14)

    def test_pt_simplified_structure(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            angles = angles_of(PTS, rng.uniform(-np.pi, np.pi, 3))
            U = realize_single(PTS, angles)
            assert abs(U[0, 1] - U[1, 0]) < 1e-12
            assert abs(U[0, 0].imag) < 1e-12
            assert abs(U[1, 1].imag) < 1e-12
            assert abs(U[0, 1].real) < 1e-12

    @pytest.mark.parametrize("variant", [FULL, SYM, PTS])
    def test_contraction(self, variant):
        rng = np.random.default_rng(10)
        n = len(free_angle_names(variant))
        for _ in range(100):
            angles = angles_of(variant, rng.uniform(-np.pi, np.pi, n))
            assert np.linalg.norm(realize_single(variant, angles), 2) <= 1 + 1e-12


class TestChains:
    @pytest.mark.parametrize("variant, names", [
        (FULL, ("phi1", "theta1", "phi2", "phi3", "phi4", "theta_V", "phi5", "phi6", "theta_H",
                "phi7", "theta2", "phi8")),
        (SYM, ("phi1", "theta1", "theta_H", "theta_V", "phi7", "theta2", "phi8")),
        (PTS, ("theta2", "theta_H", "theta_V")),
        (TWO, ("phi1", "phi2", "theta1", "theta2", "nu1", "nu2", "delta41",
               "phi3", "phi4", "theta3", "theta4", "nu3", "nu4", "delta85",
               "phi5", "phi6", "theta5", "theta6", "nu5", "nu6")),
    ], ids=lambda x: x.value if isinstance(x, DecompositionVariant) else "")
    def test_free_angles_in_the_order_light_meets_them(self, variant, names):
        assert free_angle_names(variant) == names

    @pytest.mark.parametrize("variant", list(DecompositionVariant))
    def test_each_free_angle_listed_once_and_read(self, variant):
        # a listed name the circuit never reads would be a free angle with a
        # zero Jacobian column; one it reads but does not list a KeyError
        names, read = free_angle_names(variant), set()

        class Recording(dict):
            def __getitem__(self, name):
                read.add(name)
                return super().__getitem__(name)

        written_out(variant, Recording(angles_of(variant, np.zeros(len(names)))))
        assert len(set(names)) == len(names)
        assert read == set(names)

    @pytest.mark.parametrize("variant", list(DecompositionVariant))
    def test_product_is_realized_matrix(self, variant):
        rng = np.random.default_rng(21)
        for _ in range(20):
            x = rng.uniform(-np.pi, np.pi, len(free_angle_names(variant)))
            angles = angles_of(variant, x)
            realized = realize(variant, angles)
            np.testing.assert_array_equal(_realize_with_jacobian(variant, x)[0], realized)
            np.testing.assert_allclose(realized, written_out(variant, angles), rtol=0, atol=1e-14)

    @given(st.sampled_from(list(DecompositionVariant)), st.integers(0, 2**32 - 1), st.booleans())
    def test_jacobian_matches_central_differences(self, variant, seed, zero_target):
        # central differences with step 1e-6 agree to 2e-8 at worst over
        # 6,000 draws like these; a wrong or missing term is off by order one
        rng = np.random.default_rng(seed)
        dim = 4 if variant is TWO else 2
        x = rng.uniform(-np.pi, np.pi, len(free_angle_names(variant)))
        target = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        if zero_target:
            target[:] = 0   # z = 0 at every x: the branch that fixes p = 1
        else:
            # p = z/|z| bends sharply where |z| is small, beyond what a
            # central difference resolves
            z = np.vdot(target, realize(variant, angles_of(variant, x)))
            assume(abs(z) > 0.1 * np.linalg.norm(target))
        _, jacobian = _residual_and_jacobian(variant, target, x)
        h = 1e-6
        central = [(_residual_and_jacobian(variant, target, x + h * e)[0]
                    - _residual_and_jacobian(variant, target, x - h * e)[0]) / (2 * h)
                   for e in np.eye(len(x))]
        np.testing.assert_allclose(jacobian, np.transpose(central), rtol=0, atol=1e-6)


class TestBeamDisplacerBlocks:
    def test_g1_columns_orthonormal(self):
        rng = np.random.default_rng(12)
        for d41 in rng.uniform(-np.pi, np.pi, 25):
            g = build_g1(d41)
            np.testing.assert_allclose(g.conj().T @ g, np.eye(4), atol=1e-12)

    def test_g1_swap_pattern_at_pi_over_4(self):
        got = build_g1(np.pi / 4)
        want = np.array(
            [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], dtype=complex
        )
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_g2_matches_g1_shape_at_unit_sines(self):
        g2 = build_g2(np.pi / 4, 0.7, np.pi / 4)
        g1 = build_g1(0.7)
        np.testing.assert_allclose(g2, g1, atol=1e-12)

    def test_g2_contraction_when_sines_below_one(self):
        g2 = build_g2(0.3, 0.7, 0.2)
        assert np.linalg.norm(g2, 2) <= 1 + 1e-12


class TestCompileSingleQubit:
    def test_passive_pt_target_with_pt_simplified(self):
        spec = HamiltonianSpec(Family.PASSIVE_PT, 0.5)
        target = taylor_expm_oracle(build_hamiltonian(spec), 1.0)
        sol = compile_single_qubit(target, PTS, restarts=50, seed=2)
        assert sol.success and sol.residual < 1e-6
        realized = realize_single(PTS, sol.angles)
        aligned = np.exp(1j * sol.global_phase) * target
        assert np.linalg.norm(realized - aligned) < 1e-6

    def test_sigma_x_with_full_variant(self):
        sol = compile_single_qubit(SIGMA_X, FULL, restarts=50, seed=5)
        assert sol.residual < 1e-9

    def test_symmetric_target_with_symmetric_variant(self):
        # the trace-normalized dynamics is scale invariant, so the no-symmetry
        # evolution (which has gain) is realized through its passive rescaling
        spec = HamiltonianSpec(Family.NO_SYMMETRY, 0.5, 0.5)
        U = taylor_expm_oracle(build_hamiltonian(spec), 0.8)
        target = U / np.linalg.norm(U, 2)
        assert abs(target[0, 1] - target[1, 0]) < 1e-12   # symmetric family
        sol = compile_single_qubit(target, SYM, restarts=50, seed=8)
        assert sol.success and sol.residual < 1e-6

    def test_not_passive(self):
        with pytest.raises(NotPassive):
            compile_single_qubit(2 * ID2, FULL)

    def test_round_trip_smoke(self):
        rng = np.random.default_rng(77)
        hits = 0
        for i in range(5):
            z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            q, r = np.linalg.qr(z)
            target = rng.uniform(0.3, 1.0) * q * (np.diag(r) / np.abs(np.diag(r)))
            sol = compile_single_qubit(target, FULL, restarts=50, seed=100 + i)
            realized = realize_single(FULL, sol.angles)
            if np.linalg.norm(realized - np.exp(1j * sol.global_phase) * target) < 1e-5:
                hits += 1
        assert hits >= 4

    def test_compiled_circuit_reproduces_evolution(self):
        from ptsim.dynamics import evolve

        spec = HamiltonianSpec(Family.PASSIVE_PT, 0.5)
        target = taylor_expm_oracle(build_hamiltonian(spec), 1.0)
        sol = compile_single_qubit(target, PTS, restarts=50, seed=2)
        U = realize_single(PTS, sol.angles)
        rho0 = pure_state(KET_H)
        evolved = U @ rho0 @ U.conj().T
        evolved = evolved / np.trace(evolved).real
        assert trace_distance(evolved, evolve(spec, rho0, 1.0)) < 1e-5

    def test_angles_are_wrapped(self):
        sol = compile_single_qubit(SIGMA_X, FULL, restarts=10, seed=5)
        for v in sol.angles.values():
            assert -np.pi < v <= np.pi

    def test_starved_unreachable_target_reports_failure(self):
        # pt-simplified realizes equal off-diagonal entries only
        target = np.array([[0, 1], [0.5, 0]], dtype=complex)
        sol = compile_single_qubit(target, PTS, restarts=3, seed=1)
        assert not sol.success
        assert sol.restarts_used == 3
        realized = realize_single(PTS, sol.angles)
        rebuilt = np.linalg.norm(realized - np.exp(1j * sol.global_phase) * target)
        assert sol.residual == pytest.approx(rebuilt, abs=1e-12)


class TestCompileTwoQubit:
    def test_identity_target(self):
        sol = compile_two_qubit(np.eye(4, dtype=complex), restarts=40, seed=3)
        assert sol.residual < 1e-9

    def test_embedded_evolution_target(self):
        from ptsim.embedding import build_h_tot

        target = taylor_expm_oracle(build_h_tot(0.5), 0.5)
        sol = compile_two_qubit(target, restarts=60, seed=7)
        assert sol.success and sol.residual < 1e-6
        realized = realize_two_qubit(sol.angles)
        aligned = np.exp(1j * sol.global_phase) * target
        assert np.linalg.norm(realized - aligned) < 1e-6

    def test_controlled_z_like_target(self):
        target = np.diag([1, 1, 1, -1]).astype(complex)
        sol = compile_two_qubit(target, restarts=50, seed=11)
        assert sol.success and sol.residual < 1e-6

    def test_not_unitary(self):
        with pytest.raises(NotUnitary):
            compile_two_qubit(0.5 * np.eye(4))

    @pytest.mark.parametrize("t, seed", [(0.3, 3), (0.7, 7), (1.5, 15)])
    def test_criterion_8_targets_converge_fast(self, t, seed):
        # with delta75 and delta86 free, G2's sines sat at their stationary
        # point at every solution, the Jacobian lost rank, and these targets
        # took 54-61 evaluations of linear convergence
        from ptsim.embedding import build_h_tot

        sol = compile_two_qubit(mat_exp(build_h_tot(0.5), t), restarts=60, seed=seed)
        assert sol.success and sol.residual < 1e-6
        assert sol.restarts_used == 1
        assert sol.evaluations <= 30

    def test_held_g2_angles_reach_every_target(self):
        rng = np.random.default_rng(41)
        targets = [np.eye(4, dtype=complex), np.diag([1, 1, 1, -1]).astype(complex)]
        for _ in range(20):
            # Haar-random: QR of a complex Gaussian with R's diagonal phases removed
            q, r = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
            targets.append(q * (np.diag(r) / np.abs(np.diag(r))))
        for i, target in enumerate(targets):
            sol = compile_two_qubit(target, restarts=50, seed=200 + i)
            assert sol.success and sol.residual < 1e-6, i
            assert sol.angles["delta75"] == sol.angles["delta86"] == np.pi / 4
            aligned = np.exp(1j * sol.global_phase) * target
            for realized in (realize_two_qubit(sol.angles), written_out(TWO, sol.angles)):
                assert abs(np.linalg.norm(realized - aligned) - sol.residual) <= 1e-12, i

    @pytest.mark.parametrize("name", ["delta75", "delta86"])
    def test_unrealizable_held_angle_rejected(self, name):
        angles = {**angles_of(TWO, np.zeros(20)), "delta75": np.pi / 4, "delta86": np.pi / 4}
        realize_two_qubit(angles)
        with pytest.raises(ValueError, match=f"^{name} = 0.3, "):
            realize_two_qubit({**angles, name: 0.3})


class TestInputChecks:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)], ids=["nan", "inf", "-inf j"])
    @pytest.mark.parametrize("dim, compile_target", [
        (2, lambda target: compile_single_qubit(target, FULL)),
        (4, compile_two_qubit),
    ], ids=["2x2", "4x4"])
    def test_non_finite_target_named(self, dim, compile_target, bad):
        # NaN used to end in a LinAlgError from the norm check, inf in the
        # solver's "residuals are not finite"
        target = np.eye(dim, dtype=complex)
        target[1, 0] = bad
        with pytest.raises(InvalidMatrix, match=r"non-finite entries at \(1, 0\)$"):
            compile_target(target)

    @pytest.mark.parametrize("compile_target", [
        lambda restarts: compile_single_qubit(np.eye(2), FULL, restarts=restarts),
        lambda restarts: compile_two_qubit(np.eye(4), restarts=restarts),
    ], ids=["full12", "two-qubit"])
    def test_restarts_below_one(self, compile_target):
        for restarts in (0, -3):
            with pytest.raises(ValueError, match="restarts must be >= 1"):
                compile_target(restarts)

    @pytest.mark.parametrize("call, says", [
        (lambda: compile_single_qubit(np.eye(3), FULL), r"^expected a 2x2 target, got \(3, 3\)$"),
        (lambda: compile_single_qubit(np.eye(2), TWO), "^use compile_two_qubit for the two-qubit"),
        (lambda: realize_single(TWO, {}), "^use realize_two_qubit for the two-qubit"),
    ], ids=["3x3 target", "compile two-qubit", "realize two-qubit"])
    def test_single_qubit_refuses_what_it_cannot_realize(self, call, says):
        with pytest.raises(ValueError, match=says):
            call()


class TestSolutionRecord:
    @pytest.mark.parametrize("compile_target", [
        lambda seed: compile_single_qubit(SIGMA_X, FULL, restarts=10, seed=seed),
        lambda seed: compile_two_qubit(np.diag([1, 1, 1, -1]).astype(complex),
                                       restarts=10, seed=seed),
    ], ids=["full12", "two-qubit"])
    def test_same_seed_gives_identical_record(self, compile_target):
        first = solution_record(compile_target(4))
        assert solution_record(compile_target(4)) == first
        parsed = dict(line.split(" = ", 1) for line in first.strip().splitlines())
        assert int(parsed["evaluations"]) > 0

    def test_same_seed_gives_identical_record_in_new_interpreters(self):
        # the angles a seed gives must not depend on the process: a solver
        # that steps differently from identical residuals would break it
        code = ("import numpy as np\n"
                "from ptsim.optics import compile_single_qubit, compile_two_qubit, "
                "solution_record\n"
                "print(solution_record(compile_single_qubit("
                "[[0, 0.5], [0.5j, 0.25]], 'full12', restarts=10, seed=4)))\n"
                "print(solution_record(compile_two_qubit("
                "np.diag([1, 1, 1, -1]), restarts=10, seed=4)))\n")
        first = run_fresh(code)
        assert run_fresh(code) == first
        assert first.count("success = true") == 2

    def test_round_trips_as_key_value_text(self):
        sol = AngleSolution(
            variant=PTS,
            angles={"theta2": 0.25, "theta_H": -1.5, "theta_V": 3.0},
            residual=1e-8,
            global_phase=0.5,
            success=True,
            restarts_used=2,
            evaluations=41,
        )
        record = solution_record(sol)
        parsed = dict(
            line.split(" = ", 1) for line in record.strip().splitlines()
        )
        assert parsed["variant"] == "pt-simplified"
        assert float(parsed["residual"]) == pytest.approx(1e-8)
        assert parsed["success"] == "true"
        assert float(parsed["theta_V"]) == pytest.approx(3.0)
        assert parsed["evaluations"] == "41"
