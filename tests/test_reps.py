import hashlib
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import braidforge as bf
from braidforge.errors import NoRepresentationFound, ValidationError
from braidforge.presentation import FPGroup
from braidforge.reps import (ITERATIONS, STEP, STEP_DECAY, ComponentLabel, SolveOptions,
                             UnitaryAssignment, _loss_and_grads, haar_unitary,
                             polar_retract, unitarity_defect)

from helpers import (complex_for, minimized, morse, reference_loss_and_grads,
                     theta_loop_specs)

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


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_non_finite_matrix_is_not_unitary(bad):
    # a NaN defect compares False against any tolerance; it must still fail
    with pytest.raises(ValidationError, match="matrix for a is not unitary"):
        bf.UnitaryAssignment(2, {"a": np.array([[bad, 0], [0, 1]], dtype=complex)})
    data = {"k": 2, "matrices": {"a": [[bad, 0], [0, 0], [0, 0], [1, 0]]}}
    with pytest.raises(ValidationError, match="matrix for a is not unitary"):
        bf.UnitaryAssignment.from_json_dict(data)


# -- verification -----------------------------------------------------------------


def test_free_presentation_always_passes():
    fp = minimized("theta", 2).group
    rng = np.random.default_rng(0)
    a = bf.UnitaryAssignment(3, {g: haar_unitary(3, rng) for g in fp.generators})
    report = bf.verify_representation(fp, a)
    assert report.passed and report.max_deviation == 0.0


def _no_identity(*args, **kwargs):
    raise AssertionError("np.eye called")


def test_verify_checks_every_generator_before_numpy(monkeypatch):
    # a missing matrix is named before anything k x k is built, and an empty
    # relator holds without an identity matrix
    a = bf.UnitaryAssignment(2, {"a": EYE2})
    monkeypatch.setattr(bf.reps.np, "eye", _no_identity)
    with pytest.raises(ValidationError, match="no matrix assigned to generator b"):
        bf.verify_representation(FPGroup(("a", "b", "c"), ((1, 2),)), a)
    report = bf.verify_representation(FPGroup(("a",), ((),)), a)
    assert report.deviations == [0.0] and report.passed


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
    # three restarts stacked on the restart axis: each restart's loss moves
    # only with its own matrices, along its own gradient
    rng = np.random.default_rng(17)
    k, restarts = 2, 3
    relators = [(1, 2, -1, -2, 1), (2, 2, -1)]
    mats = np.array([[haar_unitary(k, rng) for _ in range(restarts)]
                     for _ in range(2)])
    losses, grads = _loss_and_grads(relators, mats, k)
    assert len(losses) == restarts and grads.shape == mats.shape
    eps = 1e-7
    for gi in range(2):
        for r in range(restarts):
            for i in range(k):
                for j in range(k):
                    for direction in (1.0, 1j):
                        bump = np.zeros_like(mats)
                        bump[gi, r, i, j] = eps * direction
                        lp = _loss_and_grads(relators, mats + bump, k)[0]
                        lm = _loss_and_grads(relators, mats - bump, k)[0]
                        numeric = [(p - m) / (2 * eps) for p, m in zip(lp, lm)]
                        analytic = 2 * np.real(np.conj(direction) * grads[gi, r, i, j])
                        assert abs(numeric[r] - analytic) < 1e-5
                        assert all(abs(x) < 1e-5 for s, x in enumerate(numeric)
                                   if s != r)



@st.composite
def _solver_inputs(draw):
    """Relator lists over 1-3 generators (repeated generators, inverse
    letters, empty relators, several relators), k in {1, 2, 3}, 1-4
    restarts, and matrices that are unitary or not."""
    gens = draw(st.integers(1, 3))
    letter = st.integers(1, gens).flatmap(lambda g: st.sampled_from((g, -g)))
    relators = draw(st.lists(st.lists(letter, max_size=9).map(tuple),
                             min_size=1, max_size=4))
    k = draw(st.integers(1, 3))
    restarts = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        mats = np.array([[haar_unitary(k, rng) for _ in range(restarts)]
                         for _ in range(gens)])
    else:
        mats = (rng.standard_normal((gens, restarts, k, k))
                + 1j * rng.standard_normal((gens, restarts, k, k)))
    return relators, mats, k


@given(_solver_inputs())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_loss_and_grads_match_per_letter_reference(inputs):
    # the same products in the same association order, so the same bits
    relators, mats, k = inputs
    losses, grads = _loss_and_grads(relators, mats, k)
    ref_losses, ref_grads = reference_loss_and_grads(relators, mats, k)
    assert losses == ref_losses
    assert grads.tobytes() == ref_grads.tobytes()

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


@lru_cache(maxsize=None)
def theta4_outcome(k: int):
    return bf.solve_representation(theta4_group(), k, seed=0)


def test_solver_theta4_seed0():
    out = theta4_outcome(2)
    assert out.report.max_deviation < 1e-8
    # independent re-verification
    re = bf.verify_representation(theta4_group(), out.assignment, tol=1e-8)
    assert re.passed


# restart index and matrix bytes of the default 20-restart solve, computed
# with the solver that ran each restart on its own
@pytest.mark.parametrize("k, restart, digest", [
    (2, 13, "9b24e7301105a9dc7cc9b74f20ddc8a84c926ab37b2c323338530510133281c9"),
    (3, 8, "33b50e287a4affd67d22446d25e347604d0f8b5c49df3e8c168763c051c3fdfa"),
])
def test_solver_answer_pinned(k, restart, digest):
    out = theta4_outcome(k)
    h = hashlib.sha256()
    for g in theta4_group().generators:
        h.update(out.assignment.matrices[g].tobytes())
    assert (out.restart, h.hexdigest()) == (restart, digest)


def test_solver_records_every_restart():
    out = theta4_outcome(2)
    opts = SolveOptions()
    assert len(out.restart_residuals) == len(out.restart_iterations) == opts.restarts
    # the stopping iterations of the solver that ran each restart on its
    # own; five hit the cap
    assert out.restart_iterations == [317, 2000, 58, 33, 73, 2000, 39, 32, 2000, 2000,
                                      77, 30, 19, 19, 22, 41, 1570, 15, 66, 2000]
    assert out.restart_residuals[out.restart] == min(out.restart_residuals)
    # and their final losses, bit for bit
    assert hashlib.sha256(np.array(out.restart_residuals).tobytes()).hexdigest() == \
        "9f254b5756f3ef2670ceb73c01ba2a9f27e2ed8ee7294453414a310ec2c8235d"
    for res, it in zip(out.restart_residuals, out.restart_iterations):
        assert it == ITERATIONS or res < (opts.tol * 0.1) ** 2


def _reference_solve(p, k, seed, opts):
    """The solver before the restarts were stacked: each restart descends on
    its own over 2-D matrices.  Returns the chosen restart, its retracted
    matrices and each restart's final loss and stopping iteration."""
    def loss_and_grads(mats):
        loss = 0.0
        grads = [np.zeros((k, k), dtype=complex) for _ in mats]
        eye = np.eye(k)
        for rel in p.relators:
            letters = [(abs(x) - 1, x > 0) for x in rel]
            factors = [mats[g] if pos else mats[g].conj().T for g, pos in letters]
            prefix = [eye]
            for f in factors:
                prefix.append(prefix[-1] @ f)
            suffix = [eye]
            for f in reversed(factors):
                suffix.append(f @ suffix[-1])
            suffix.reverse()
            m = prefix[-1] - eye
            loss += float(np.linalg.norm(m) ** 2)
            for j, (g, pos) in enumerate(letters):
                y = prefix[j].conj().T @ m @ suffix[j + 1].conj().T
                grads[g] += y if pos else y.conj().T
        return loss, grads

    runs = []
    for i in range(opts.restarts):
        rng = np.random.default_rng(seed + i)
        mats = [haar_unitary(k, rng) for _ in p.generators]
        stop = ITERATIONS
        for it in range(ITERATIONS):
            loss, grads = loss_and_grads(mats)
            if loss < (opts.tol * 0.1) ** 2:
                stop = it
                break
            eta = STEP / (1.0 + STEP_DECAY * it)
            mats = [polar_retract(m - eta * g) for m, g in zip(mats, grads)]
        runs.append((loss_and_grads(mats)[0], stop, mats))
    best = min(range(opts.restarts), key=lambda i: (runs[i][0], i))
    return (best, [polar_retract(m) for m in runs[best][2]],
            [r[0] for r in runs], [r[1] for r in runs])


@pytest.mark.parametrize("fp, k, seed", [
    (theta4_group(), 2, 7),
    (theta4_group(), 3, 2),
    (FPGroup(("a",), ((1, 1),)), 2, 0),
    (FPGroup(("a", "b"), ((1, 2, -1, -2), (1, 1, 1))), 1, 4),
    (FPGroup(("a", "b"), ((1, 2, -1, -2), (1, 1, 1))), 3, 9),
], ids=[  # fixed, as in test_solver_rejects_bad_options: the ids pytest once gave
    "fp0-2-7", "fp1-3-2", "fp2-2-0", "fp3-1-4", "fp4-3-9"])
def test_solver_matches_per_restart_reference(fp, k, seed):
    # same arithmetic per restart, so the same bits
    opts = SolveOptions(restarts=5, tol=1e-3)
    out = bf.solve_representation(fp, k, seed=seed, opts=opts)
    best, mats, residuals, iterations = _reference_solve(fp, k, seed, opts)
    assert (out.restart, out.restart_residuals, out.restart_iterations) == \
        (best, residuals, iterations)
    if (k, seed) == (2, 7):
        # some restarts leave the stack early and one runs to the cap
        assert iterations == [13, 731, ITERATIONS, 30, 14]
    for g, m in zip(fp.generators, mats):
        assert out.assignment.matrices[g].tobytes() == m.tobytes()


def test_solver_empty_relator_and_no_generators():
    # an empty relator holds everywhere; without generators nothing is solved
    for fp in (FPGroup((), ((),)), FPGroup(("a",), ((), (1, 1)))):
        out = bf.solve_representation(fp, 2, seed=3, opts=SolveOptions(restarts=5))
        assert out.report.passed
        assert sorted(out.assignment.matrices) == list(fp.generators)


def test_solver_huge_tolerance_accepts_the_start():
    # (tol / 10)^2 overflows a float; every restart stops at iteration 0
    out = bf.solve_representation(theta4_group(), 2, seed=0,
                                  opts=SolveOptions(restarts=2, tol=1e300))
    assert out.report.passed and out.restart_iterations == [0, 0]


@pytest.mark.parametrize("seed, opts, culprit", [
    (-1, SolveOptions(), "seed"),
    (0, SolveOptions(restarts=0), "restarts"),
    (0, SolveOptions(restarts=-2), "restarts"),
    (0, SolveOptions(tol=float("-inf")), "tol"),
    (0, SolveOptions(tol=-1.0), "tol"),
    (0, SolveOptions(tol=0.0), "tol"),
    (0, SolveOptions(tol=float("nan")), "tol"),
    (0, SolveOptions(tol=float("inf")), "tol"),
], ids=[  # fixed, so deleting a case renames no other; these are the ids pytest
    # once gave by position, kept because earlier test runs name them
    "-1-opts0-seed", "0-opts1-restarts", "0-opts2-restarts", "0-opts3-tol",
    "0-opts4-tol", "0-opts5-tol", "0-opts6-tol", "0-opts7-tol"])
def test_solver_rejects_bad_options(seed, opts, culprit):
    with pytest.raises(ValidationError, match=culprit):
        bf.solve_representation(theta4_group(), 2, seed=seed, opts=opts)


def test_solver_deterministic():
    fp = theta4_group()
    a = bf.solve_representation(fp, 2, seed=1, opts=SolveOptions(restarts=4))
    b = bf.solve_representation(fp, 2, seed=1, opts=SolveOptions(restarts=4))
    assert a.restart == b.restart
    for g in fp.generators:
        assert np.array_equal(a.assignment.matrices[g], b.assignment.matrices[g])


def test_solver_reports_failure_honestly():
    # a^2 = 1 has solutions, but no rounded residual reaches 1e-300, so the
    # one restart runs to the cap and the solver must give up
    fp = FPGroup(("a",), ((1, 1),))
    with pytest.raises(NoRepresentationFound, match="not a nonexistence proof"):
        bf.solve_representation(fp, 2, seed=0,
                                opts=SolveOptions(restarts=1, tol=1e-300))


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


def locally_abelian_assignment(pp, phases, unitaries, k: int) -> UnitaryAssignment:
    """The full assignment from Y-loop phases and O-loop unitaries."""
    mats = {}
    pi = 0
    for lg in pp.loops:
        if lg.kind == "Y":
            mats[lg.name] = np.exp(1j * phases[pi]) * np.eye(k)
            pi += 1
        else:
            mats[lg.name] = np.asarray(unitaries[lg.name], dtype=complex)
    return UnitaryAssignment(k, mats)


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
    lg_y = LoopGenerator("Y(4,6,9;)", "Y", ())
    lg_o = LoopGenerator("O(1-2-3;)", "O", ())
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
    # a single empty relator names no exchange generator
    for fp, a in ((FPGroup(("a",), ((),)), UnitaryAssignment(2, {"a": EYE2})),
                  (FPGroup((), ((),)), UnitaryAssignment(2, {}))):
        with pytest.raises(ValidationError, match="relator is empty"):
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
