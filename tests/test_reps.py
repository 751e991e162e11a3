import numpy as np
import pytest

import braidforge as bf
from braidforge.errors import NoRepresentationFound, ValidationError
from braidforge.presentation import FPGroup
from braidforge.reps import (ComponentLabel, SolveOptions, _loss_and_grads,
                             haar_unitary, locally_abelian_assignment,
                             polar_retract, unitarity_defect)

from helpers import complex_for, minimized, morse, theta_loop_specs

GAMMA = "{e(5,9),1,2,6}"
A1 = "{e(1,8),2,3,4}"
A2 = "{e(1,11),2,3,4}"

SWAP = np.array([[0, 1], [1, 0]], dtype=complex)
EYE2 = np.eye(2, dtype=complex)


def theta4_group() -> FPGroup:
    return minimized("theta", 4).group


def assign(k=2, **mats) -> bf.UnitaryAssignment:
    return bf.UnitaryAssignment(k, dict(mats))


def theta4_assign(u_gamma, u1, u2) -> bf.UnitaryAssignment:
    return bf.UnitaryAssignment(2, {GAMMA: u_gamma, A1: u1, A2: u2})


# -- evaluation -----------------------------------------------------------------


def test_eval_word_inverse_pair():
    rng = np.random.default_rng(3)
    a = assign(u=haar_unitary(2, rng))
    m = bf.eval_word((1, -1), a, ("u",))
    assert np.linalg.norm(m - EYE2) < 1e-14


def test_eval_word_commutator_of_diagonals():
    a = assign(u=np.diag([1j, -1j]), v=np.diag([np.exp(0.4j), np.exp(2.2j)]))
    m = bf.eval_word((1, 2, -1, -2), a, ("u", "v"))
    assert np.linalg.norm(m - EYE2) < 1e-14


def test_eval_word_identity_exchange_matrix():
    fp = theta4_group()
    a = theta4_assign(EYE2, haar_unitary(2, np.random.default_rng(5)),
                      haar_unitary(2, np.random.default_rng(6)))
    m = bf.eval_word(fp.relators[0], a, fp.generators)
    assert np.linalg.norm(m - EYE2) < 1e-12


def test_unitarity_enforced():
    with pytest.raises(ValidationError, match="unitary"):
        assign(u=np.array([[1, 1], [0, 1]], dtype=complex))


# -- verification -----------------------------------------------------------------


def test_free_presentation_always_passes():
    fp = minimized("theta", 2).group
    rng = np.random.default_rng(0)
    a = bf.UnitaryAssignment(3, {g: haar_unitary(3, rng) for g in fp.generators})
    report = bf.verify_representation(fp, a)
    assert report.passed and report.max_deviation == 0.0


def test_hand_built_assignment_passes():
    fp = theta4_group()
    a = theta4_assign(np.diag([np.exp(0.9j), np.exp(-1.3j)]), SWAP, EYE2)
    report = bf.verify_representation(fp, a, tol=1e-12)
    assert report.passed


def test_non_monomial_assignment_fails():
    fp = theta4_group()
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    a = theta4_assign(np.diag([1, 1j]), hadamard, EYE2)
    report = bf.verify_representation(fp, a, tol=1e-8)
    assert not report.passed
    assert report.max_deviation > 1e-2


def test_gauge_invariance():
    fp = theta4_group()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        a = theta4_assign(haar_unitary(2, rng), haar_unitary(2, rng),
                          haar_unitary(2, rng))
        v = haar_unitary(2, rng)
        r1 = bf.verify_representation(fp, a)
        r2 = bf.verify_representation(fp, a.conjugated(v))
        worst = max(worst, max(abs(x - y) for x, y in
                               zip(r1.deviations, r2.deviations)))
    assert worst < 1e-12


def test_scalar_center_invariance_on_commutator_relator():
    fp = theta4_group()
    rng = np.random.default_rng(11)
    a = theta4_assign(haar_unitary(2, rng), haar_unitary(2, rng),
                      haar_unitary(2, rng))
    base = bf.verify_representation(fp, a).deviations
    for name in (GAMMA, A1, A2):
        mats = dict(a.matrices)
        mats[name] = np.exp(0.77j) * mats[name]
        scaled = bf.UnitaryAssignment(2, mats)
        devs = bf.verify_representation(fp, scaled).deviations
        assert max(abs(x - y) for x, y in zip(base, devs)) < 1e-12


def test_k1_every_phase_assignment_passes():
    fp = theta4_group()
    rng = np.random.default_rng(9)
    for _ in range(20):
        a = bf.UnitaryAssignment(1, {
            g: np.array([[np.exp(1j * rng.uniform(0, 2 * np.pi))]])
            for g in fp.generators})
        assert bf.verify_representation(fp, a, tol=1e-12).passed


# -- solver -----------------------------------------------------------------------


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(17)
    k = 2
    relators = [(1, 2, -1, -2, 1), (2, 2, -1)]
    mats = [haar_unitary(k, rng) for _ in range(2)]
    loss, grads = _loss_and_grads(relators, mats, k)
    eps = 1e-7
    for gi in range(2):
        for i in range(k):
            for j in range(k):
                for part, direction in ((1.0, 1.0), (1.0, 1j)):
                    bump = np.zeros((k, k), dtype=complex)
                    bump[i, j] = eps * direction
                    plus = list(mats)
                    plus[gi] = mats[gi] + bump
                    minus = list(mats)
                    minus[gi] = mats[gi] - bump
                    lp = _loss_and_grads(relators, plus, k)[0]
                    lm = _loss_and_grads(relators, minus, k)[0]
                    numeric = (lp - lm) / (2 * eps)
                    analytic = 2 * np.real(np.conj(direction) * grads[gi][i, j])
                    assert abs(numeric - analytic) < 1e-5


def test_polar_retract_projects_to_unitary():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert unitarity_defect(polar_retract(m)) < 1e-12


def test_solver_free_presentation_immediate():
    fp = minimized("theta", 2).group
    out = bf.solve_representation(fp, 2, seed=0, opts=SolveOptions(restarts=1))
    assert out.report.passed and out.restart == 0


def test_solver_forced_identity():
    fp = FPGroup(("a",), ((1,),))
    out = bf.solve_representation(fp, 2, seed=0, opts=SolveOptions(restarts=3))
    assert out.report.max_deviation < 1e-8
    assert np.linalg.norm(out.assignment.matrices["a"] - EYE2) < 1e-6


def test_solver_theta4_seed0():
    out = bf.solve_representation(theta4_group(), 2, seed=0)
    assert out.report.max_deviation < 1e-8
    # independent re-verification
    re = bf.verify_representation(theta4_group(), out.assignment, tol=1e-8)
    assert re.passed


def test_solver_deterministic():
    fp = theta4_group()
    a = bf.solve_representation(fp, 2, seed=1, opts=SolveOptions(restarts=4))
    b = bf.solve_representation(fp, 2, seed=1, opts=SolveOptions(restarts=4))
    assert a.restart == b.restart
    for g in fp.generators:
        assert np.array_equal(a.assignment.matrices[g], b.assignment.matrices[g])


def test_solver_reports_failure_honestly():
    # relator a = 1 and the relator forcing a to a reflection cannot both
    # hold; give the solver almost no iterations so it must give up
    fp = FPGroup(("a",), ((1, 1),))
    with pytest.raises(NoRepresentationFound):
        bf.solve_representation(
            fp, 2, seed=0,
            opts=SolveOptions(restarts=1, iterations=1, step=1e-9, tol=1e-14))


# -- locally abelian ----------------------------------------------------------------


def _physical4():
    cx = complex_for("theta", 4)
    return bf.solve_physical_presentation(
        cx, minimized("theta", 4), list(theta_loop_specs(4).values()),
        morse("theta", 4))


def test_locally_abelian_theta_constraints():
    pp = _physical4()
    ansatz = bf.locally_abelian_solve(pp)
    assert ansatz.phase_generators == ["Y(4,6,9;1,2)", "Y(4,6,9;1,10)",
                                       "Y(4,6,9;10,11)"]
    assert ansatz.free_unitaries == ["O(1-2-3-4-5-6-7-8;9,10,11)",
                                     "O(5-6-7-8-1-11-10-9;2,3,4)"]
    assert [c.coefficients for c in ansatz.constraints] == \
        [(1, -1, 0), (0, 1, -1)]
    assert ansatz.residual_relators == []
    assert len(ansatz.trivial_relators) == 1
    assert ansatz.trivial_relators[0].startswith("minimal:")


def test_locally_abelian_assignment_verifies():
    pp = _physical4()
    rng = np.random.default_rng(4)
    phi = 0.813
    a = locally_abelian_assignment(
        pp, [phi, phi, phi],
        {nm: haar_unitary(2, rng) for nm in
         ("O(1-2-3-4-5-6-7-8;9,10,11)", "O(5-6-7-8-1-11-10-9;2,3,4)")}, 2)
    assert bf.verify_representation(pp.group, a, tol=1e-10).passed

    bad = locally_abelian_assignment(
        pp, [phi, phi + 0.5, phi],
        {nm: haar_unitary(2, rng) for nm in
         ("O(1-2-3-4-5-6-7-8;9,10,11)", "O(5-6-7-8-1-11-10-9;2,3,4)")}, 2)
    assert not bf.verify_representation(pp.group, bad, tol=1e-10).passed


def test_locally_abelian_no_y_loops():
    pp = _physical4()
    # restrict to a fake presentation with only O loops and no relators
    from braidforge.loops import PhysicalPresentation
    only_o = PhysicalPresentation(
        [lg for lg in pp.loops if lg.kind == "O"], [], [],
        FPGroup(tuple(lg.name for lg in pp.loops if lg.kind == "O"), ()))
    ansatz = bf.locally_abelian_solve(only_o)
    assert ansatz.constraints == [] and ansatz.phase_generators == []


def test_locally_abelian_residual_equation():
    # a relator whose O-part does not cancel is returned, not an error
    from braidforge.loops import LoopGenerator, PhysicalPresentation
    lg_y = LoopGenerator(bf.YLoopSpec(4, 6, 9), "Y(4,6,9;)", "Y", ())
    lg_o = LoopGenerator(bf.OLoopSpec((1, 2, 3)), "O(1-2-3;)", "O", ())
    pp = PhysicalPresentation(
        [lg_y, lg_o], [], [("test", (1, 2, 2))],
        FPGroup(("Y(4,6,9;)", "O(1-2-3;)"), ((1, 2, 2),)))
    ansatz = bf.locally_abelian_solve(pp)
    assert ansatz.constraints == []
    assert ansatz.residual_relators == [("test", (1,), (1, 1))]


# -- component classification ---------------------------------------------------------


def test_classify_scalar_exchange():
    fp = theta4_group()
    a = theta4_assign(np.exp(0.5j) * EYE2, EYE2, EYE2)
    assert bf.classify_theta_component(fp, a) == ComponentLabel("M0")


def test_classify_identity_permutation():
    fp = theta4_group()
    a = theta4_assign(np.diag([1j, -1j]), EYE2, EYE2)
    label = bf.classify_theta_component(fp, a)
    assert label == ComponentLabel("MP", (0, 1))


def test_classify_transposition():
    fp = theta4_group()
    a = theta4_assign(np.diag([1j, -1j]), SWAP, EYE2)
    label = bf.classify_theta_component(fp, a)
    assert label == ComponentLabel("MP", (1, 0))


def test_classify_partial_degeneracy():
    fp = theta4_group()
    u_gamma = np.diag([np.exp(0.3j), np.exp(0.3j), np.exp(-1.1j)])
    block = np.zeros((3, 3), dtype=complex)
    block[:2, :2] = haar_unitary(2, np.random.default_rng(8))
    block[2, 2] = 1.0
    a = bf.UnitaryAssignment(3, {GAMMA: u_gamma, A1: block, A2: np.eye(3)})
    label = bf.classify_theta_component(fp, a)
    assert label.kind == "MPd" and label.degeneracy == 2


def test_classify_rejects_failing_assignment():
    fp = theta4_group()
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    a = theta4_assign(np.diag([1, 1j]), hadamard, EYE2)
    with pytest.raises(ValidationError, match="fails verification"):
        bf.classify_theta_component(fp, a)


# -- serialization ------------------------------------------------------------------


def test_assignment_json_roundtrip():
    rng = np.random.default_rng(21)
    a = bf.UnitaryAssignment(2, {"x": haar_unitary(2, rng),
                                 "y": haar_unitary(2, rng)})
    data = a.to_json_dict()
    assert all(isinstance(entry, list) and len(entry) == 2
               for entry in data["matrices"]["x"])
    b = bf.UnitaryAssignment.from_json_dict(data)
    for g in ("x", "y"):
        assert np.allclose(a.matrices[g], b.matrices[g])


def test_gauge_invariance_k3():
    fp = theta4_group()
    rng = np.random.default_rng(77)
    for _ in range(20):
        a = bf.UnitaryAssignment(3, {g: haar_unitary(3, rng)
                                     for g in fp.generators})
        v = haar_unitary(3, rng)
        r1 = bf.verify_representation(fp, a)
        r2 = bf.verify_representation(fp, a.conjugated(v))
        assert max(abs(x - y) for x, y in
                   zip(r1.deviations, r2.deviations)) < 1e-12
