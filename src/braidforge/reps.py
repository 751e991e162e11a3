"""Unitary representations of finitely presented groups.

A representation assigns a k x k unitary to each generator; relators then
evaluate to matrices whose Frobenius distance from the identity measures how
far the assignment is from a representation point.  The solver runs
projected gradient descent over products of unitary groups with a polar
retraction after every step, restarted from seeded Haar-random points; the
restarts descend together, stacked on one leading axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NoRepresentationFound, ValidationError, json_int
from .presentation import FPGroup
from .words import free_reduce

UNITARITY_TOL = 1e-10
DEGENERACY_TOL = 1e-6      # eigenvalues this close form one cluster
STEP_DECAY = 0.002         # solver step at iteration it: step / (1 + STEP_DECAY * it)


@dataclass
class UnitaryAssignment:
    k: int
    matrices: dict[str, np.ndarray]

    def __post_init__(self):
        checked = {}
        for name, mat in self.matrices.items():
            mat = np.asarray(mat, dtype=complex)
            if mat.shape != (self.k, self.k):
                raise ValidationError(f"matrix for {name} is not {self.k}x{self.k}")
            defect = unitarity_defect(mat)
            if not defect <= UNITARITY_TOL:     # a NaN defect fails too
                raise ValidationError(f"matrix for {name} is not unitary "
                                      f"(defect {defect:.2e})")
            checked[name] = mat
        self.matrices = checked

    def conjugated(self, v: np.ndarray) -> "UnitaryAssignment":
        return UnitaryAssignment(self.k, {name: v @ m @ v.conj().T
                                          for name, m in self.matrices.items()})

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "matrices": {name: [[float(z.real), float(z.imag)] for z in m.reshape(-1)]
                         for name, m in sorted(self.matrices.items())},
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "UnitaryAssignment":
        if not isinstance(data, dict) or not isinstance(data.get("matrices"), dict):
            raise ValidationError("assignment has no 'matrices' object")
        try:
            k = json_int(data["k"])
        except (KeyError, TypeError, ValueError):
            k = 0
        if k < 1:
            raise ValidationError(f"assignment 'k' is {data.get('k')!r}; "
                                  "expected a positive integer")
        mats = {}
        for name, entries in data["matrices"].items():
            try:
                flat = np.array([complex(re, im) for re, im in entries])
            except (TypeError, ValueError, OverflowError):  # an int beyond float range
                raise ValidationError(
                    f"matrix for {name} is not a list of [re, im] pairs of floats") from None
            if flat.size != k * k:
                raise ValidationError(f"matrix for {name} has {flat.size} entries, needs {k * k}")
            mats[name] = flat.reshape(k, k)
        return cls(k, mats)


def unitarity_defect(mat: np.ndarray) -> float:
    # huge entries overflow to inf or nan, which fails the check without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.linalg.norm(mat.conj().T @ mat - np.eye(mat.shape[0])))


def eval_word(word, assignment: UnitaryAssignment, generators) -> np.ndarray:
    """Ordered product over the word; inverses are conjugate transposes."""
    out = np.eye(assignment.k, dtype=complex)
    for x in word:
        name = generators[abs(x) - 1]
        if name not in assignment.matrices:
            raise ValidationError(f"no matrix assigned to generator {name}")
        m = assignment.matrices[name]
        out = out @ (m if x > 0 else m.conj().T)
    return out


@dataclass
class ResidualReport:
    deviations: list[float]
    tolerance: float

    @property
    def max_deviation(self) -> float:
        return max(self.deviations, default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance


def verify_representation(p: FPGroup, assignment: UnitaryAssignment,
                          tol: float = 1e-8) -> ResidualReport:
    # every generator has a matrix before anything k x k is built
    for name in p.generators:
        if name not in assignment.matrices:
            raise ValidationError(f"no matrix assigned to generator {name}")
    # an empty relator always holds, as in the solver
    eye = np.eye(assignment.k) if any(p.relators) else None
    devs = [float(np.linalg.norm(eval_word(r, assignment, p.generators) - eye)) if r else 0.0
            for r in p.relators]
    return ResidualReport(devs, tol)


# ---------------------------------------------------------------------------
# solver


def haar_unitary(k: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def polar_retract(mat: np.ndarray) -> np.ndarray:
    u, _, vh = np.linalg.svd(mat)
    return u @ vh


def _loss_and_grads(relators, mats: np.ndarray, k: int):
    """Per-restart sums of squared Frobenius residuals and their Euclidean
    gradients, for generator matrices stacked as (generators, restarts, k, k).

    For a relator word with letter matrices A_1..A_L and residual M = prod - I,
    the gradient contribution at letter j is P^dag M S^dag with P, S the
    products before and after the letter (transposed into the variable when
    the letter is an inverse).  Each restart's loss is summed from the 2-D
    norm of its own residual, so it does not depend on the other restarts.

    Per relator of L letters this makes L stacked products, one per step
    that advances the prefix and the suffix chain together, two for all L
    gradient terms and one `np.add.at` that adds them in word order.  Every
    2-D product is the one the per-letter form computes, in the same
    association order, so the answer is the same bit for bit."""
    losses = [0.0] * mats.shape[1]
    grads = np.zeros_like(mats)
    eye = np.eye(k)
    ngens = mats.shape[0]
    stacked = np.concatenate([mats, _dagger(mats)])    # inverse of g at ngens + g
    for rel in filter(None, relators):      # an empty relator always holds
        n = len(rel)
        letters = np.array(rel)
        gens, inverse = np.abs(letters) - 1, letters < 0
        factors = stacked[gens + ngens * inverse]
        # row j: prefix_j, factor_{n-1-j}, factor_j, suffix_{n-j}
        chain = np.empty((n + 1, 4) + mats.shape[1:], dtype=mats.dtype)
        chain[0, 0] = chain[0, 3] = eye
        chain[:n, 1] = factors[::-1]
        chain[:n, 2] = factors
        for j in range(n):
            np.matmul(chain[j, :2], chain[j, 2:], out=chain[j + 1, ::3])
        m = chain[n, 0] - eye
        for r in range(len(losses)):
            losses[r] += float(np.linalg.norm(m[r]) ** 2)
        y = _dagger(chain[:n, 0]) @ m @ _dagger(chain[n - 1::-1, 3])
        y[inverse] = _dagger(y[inverse])
        np.add.at(grads, gens, y)
    return losses, grads


def _dagger(mat: np.ndarray) -> np.ndarray:
    return mat.conj().swapaxes(-1, -2)


@dataclass
class SolveOptions:
    restarts: int = 20
    iterations: int = 2000
    step: float = 0.2
    tol: float = 1e-8


@dataclass
class SolveOutcome:
    assignment: UnitaryAssignment
    report: ResidualReport
    seed: int
    restart: int
    restart_seeds: list[int] = field(default_factory=list)
    restart_residuals: list[float] = field(default_factory=list)
    restart_iterations: list[int] = field(default_factory=list)


def solve_representation(p: FPGroup, k: int, seed: int = 0,
                         opts: SolveOptions | None = None) -> SolveOutcome:
    """Best-of-restarts local minimization; deterministic in `seed`.

    Restart i starts from Haar-random matrices drawn with seed + i.  All
    restarts descend together, stacked on one axis and sharing the step
    schedule step / (1 + STEP_DECAY * it); a restart leaves the stack at the
    iteration where its loss falls below (tol / 10)^2, or stays to the
    iteration cap.  The best final loss wins, ties going to the lower restart
    index."""
    if k < 1:
        raise ValidationError("k must be >= 1")
    opts = opts or SolveOptions()
    if seed < 0:
        raise ValidationError(f"seed must be at least 0, got {seed}")
    if opts.restarts < 1:
        raise ValidationError(f"restarts must be at least 1, got {opts.restarts}")
    if opts.iterations < 0:
        raise ValidationError(f"iterations must be at least 0, got {opts.iterations}")
    if not (math.isfinite(opts.tol) and opts.tol > 0):
        raise ValidationError(f"tol must be a finite positive number, got {opts.tol}")
    if not (math.isfinite(opts.step) and opts.step > 0):
        raise ValidationError(f"step must be a finite positive number, got {opts.step}")
    restart_seeds = [seed + i for i in range(opts.restarts)]
    rngs = [np.random.default_rng(s) for s in restart_seeds]
    mats = np.array([[haar_unitary(k, rng) for rng in rngs] for _ in p.generators],
                    dtype=complex).reshape(len(p.generators), opts.restarts, k, k)
    try:
        done = (opts.tol * 0.1) ** 2
    except OverflowError:       # a tol above about 1e155 accepts any loss
        done = math.inf

    # mats holds the live restarts; each leaves it for `final` at the
    # iteration where it converges, the last ones at the cap
    final = np.empty_like(mats)
    residuals = [0.0] * opts.restarts
    iterations = [0] * opts.restarts
    live = list(range(opts.restarts))
    for it in range(opts.iterations + 1):
        losses, grads = _loss_and_grads(p.relators, mats, k)
        stay = []
        for j, r in enumerate(live):
            if losses[j] < done or it == opts.iterations:
                final[:, r], residuals[r], iterations[r] = mats[:, j], losses[j], it
            else:
                stay.append(j)
        if not stay:
            break
        if len(stay) < len(live):
            live = [live[j] for j in stay]
            mats, grads = mats[:, stay], grads[:, stay]
        eta = opts.step / (1.0 + STEP_DECAY * it)
        mats = polar_retract(mats - eta * grads)
    best = min(range(opts.restarts), key=lambda r: (residuals[r], r))

    assignment = UnitaryAssignment(
        k, dict(zip(p.generators, polar_retract(final[:, best]))))
    report = verify_representation(p, assignment, opts.tol)
    if not report.passed:
        raise NoRepresentationFound(
            f"no representation found at tolerance {opts.tol} after "
            f"{opts.restarts} restarts (best residual {report.max_deviation:.3e}); "
            "this is not a nonexistence proof")
    return SolveOutcome(assignment, report, seed, best, restart_seeds,
                        residuals, iterations)


# ---------------------------------------------------------------------------
# locally abelian ansatz


@dataclass
class PhaseConstraint:
    """Integer congruence sum_j coefficients[j] * phi_j = 0 (mod 2 pi)."""
    coefficients: tuple[int, ...]


@dataclass
class LocallyAbelianAnsatz:
    phase_generators: list[str]          # Y loops, scalar e^{i phi} 1
    free_unitaries: list[str]            # O loops, unconstrained unless residual
    constraints: list[PhaseConstraint]
    trivial_relators: list[str]          # identically satisfied under the ansatz
    residual_relators: list[tuple[str, tuple[int, ...], tuple[int, ...]]]
    # (origin, phase coefficient vector, O-letter word over O indices)


def _normalize_constraint(vec) -> tuple[int, ...] | None:
    g = math.gcd(*vec)
    if g == 0:
        return None
    out = [x // g for x in vec]
    for x in out:
        if x != 0:
            if x < 0:
                out = [-y for y in out]
            break
    return tuple(out)


def locally_abelian_solve(pp) -> LocallyAbelianAnsatz:
    """Scalar phases on Y loops, free unitaries on O loops.

    Scalars are central, so every relator splits into a net phase and the
    O-letter subword.  If the subword freely cancels the relator is a pure
    phase congruence (or trivially satisfied); otherwise it is returned as a
    residual matrix equation."""
    y_idx = [i for i, lg in enumerate(pp.loops) if lg.kind == "Y"]
    o_idx = [i for i, lg in enumerate(pp.loops) if lg.kind == "O"]
    y_pos = {gi: j for j, gi in enumerate(y_idx)}
    o_pos = {gi: j for j, gi in enumerate(o_idx)}

    constraints: list[PhaseConstraint] = []
    trivial: list[str] = []
    residual = []
    seen: set[tuple[int, ...]] = set()
    for origin, rel in pp.relators:
        phases = [0] * len(y_idx)
        o_letters: list[int] = []
        for x in rel:
            gi = abs(x) - 1
            if gi in y_pos:
                phases[y_pos[gi]] += 1 if x > 0 else -1
            else:
                j = o_pos[gi] + 1
                o_letters.append(j if x > 0 else -j)
        o_word = free_reduce(o_letters)
        if o_word:
            residual.append((origin, tuple(phases), o_word))
            continue
        norm = _normalize_constraint(phases)
        if norm is None:
            trivial.append(origin)
        elif norm not in seen:
            seen.add(norm)
            constraints.append(PhaseConstraint(norm))

    return LocallyAbelianAnsatz(
        phase_generators=[pp.loops[i].name for i in y_idx],
        free_unitaries=[pp.loops[i].name for i in o_idx],
        constraints=constraints, trivial_relators=trivial,
        residual_relators=residual)


# ---------------------------------------------------------------------------
# component classification for single-commutator presentations


@dataclass(frozen=True)
class ComponentLabel:
    kind: str                     # "M0", "MP" or "MPd"
    permutation: tuple[int, ...] | None = None
    degeneracy: int | None = None

    def __str__(self) -> str:
        if self.kind == "M0":
            return "M_0"
        perm = "(" + ",".join(map(str, self.permutation)) + ")"
        if self.kind == "MP":
            return f"M_P{perm}"
        return f"M_P{perm}^({self.degeneracy})"


def classify_theta_component(p: FPGroup, assignment: UnitaryAssignment,
                             tol: float = 1e-8) -> ComponentLabel:
    """Connected-component label for a verified point of a single-relator,
    commutator-shaped presentation.

    The exchange generator (the one whose matrix spectrum is inspected) is
    the first letter of the relator; the conjugator is the product of the
    remaining generators in presentation order.  A scalar exchange matrix
    lands in the unique component M_0; a nondegenerate spectrum labels a
    permutation component M_P; partial degeneracy (eigenvalues within
    DEGENERACY_TOL) gives the block variant."""
    if len(p.relators) != 1:
        raise ValidationError("component classification needs exactly one relator")
    report = verify_representation(p, assignment, tol)
    if not report.passed:
        raise ValidationError(
            f"assignment fails verification (max residual {report.max_deviation:.3e})")
    exchange = p.generators[abs(p.relators[0][0]) - 1]
    others = [g for g in p.generators if g != exchange]

    u_gamma = assignment.matrices[exchange]
    conj = np.eye(assignment.k, dtype=complex)
    for g in others:
        conj = conj @ assignment.matrices[g]

    eigvals, eigvecs = np.linalg.eig(u_gamma)
    order = np.argsort(np.mod(np.angle(eigvals), 2 * np.pi), kind="stable")
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]

    # cluster eigenvalues on the unit circle
    clusters: list[list[int]] = []
    for i, lam in enumerate(eigvals):
        if clusters and abs(lam - eigvals[clusters[-1][-1]]) <= DEGENERACY_TOL:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    if len(clusters) > 1 and abs(eigvals[clusters[0][0]] - eigvals[clusters[-1][-1]]) <= DEGENERACY_TOL:
        clusters[0] = clusters.pop() + clusters[0]

    if len(clusters) == 1:
        return ComponentLabel("M0")

    # permutation induced on eigenvalue clusters by conjugation
    b = eigvecs.conj().T @ conj @ eigvecs
    weight = np.abs(b) ** 2
    perm = []
    for cl in clusters:
        mass = [sum(weight[i, j] for i in target for j in cl)
                for target in clusters]
        perm.append(int(np.argmax(mass)))
    if sorted(perm) != list(range(len(clusters))):
        raise ValidationError("conjugation does not permute eigenspaces cleanly")

    if all(len(cl) == 1 for cl in clusters):
        return ComponentLabel("MP", tuple(perm))
    d = max(len(cl) for cl in clusters)
    return ComponentLabel("MPd", tuple(perm), d)
