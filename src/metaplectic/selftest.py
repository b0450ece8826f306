"""The acceptance checks, shared by the CLI selftest command and the
test suite.  Each criterion returns a result record; everything is exact
(no numerical tolerances anywhere in the artifact).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import classify, cover, hecke, oracle
from .characters import GenuineTorusCharacter, SmoothCharacterFx, genuine_equal
from .cover import ALL_CLASSES, LocalFieldDescriptor, ONE_CLASS, PI_CLASS, UNIT_CLASS
from .hecke import HeckeCharacter
from .rootdata import Cocharacter, ParabolicSubset, coroot, pairing, simple_root


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        detail = f": {self.detail}" if self.detail and not self.passed else ""
        return f"criterion {self.number} {status} - {self.name}{detail}"


def criterion_1_satake_identities() -> CriterionResult:
    """Oracle pipeline reproduces the symbolic Satake values for
    n in {1,2}, p in {3,5}, including the forced Sp_4 zeros."""
    name = "Satake identities via counting oracle"
    failures = []
    lam = 2 * hecke.t2lambda_base(2, 2)
    for p in (3, 5):
        if not oracle.verify_metaplectic_pipeline(1, 1, p):
            failures.append(f"sl2 i=1 p={p}")
        for i in (1, 2):
            if not oracle.verify_metaplectic_pipeline(i, 2, p):
                failures.append(f"sp4 i={i} p={p}")
        for point in ((-2, 0), (-1, -1)):
            res = oracle.count_cosets(Cocharacter(point), lam, 4, "sp4", p)
            if res.count_mod_p != 0:
                failures.append(f"sp4 nonzero at {point} p={p}")
    return CriterionResult(1, name, not failures, "; ".join(failures))


def criterion_2_sl2_counts() -> CriterionResult:
    name = "SL_2 raw coset counts and stabilization"
    failures = []
    lam = Cocharacter((-2,))
    for p in (3, 5, 7):
        r1 = oracle.count_cosets(Cocharacter((-1,)), lam, 3, "sl2", p)
        r2 = oracle.count_cosets(Cocharacter((0,)), lam, 3, "sl2", p)
        if r1.raw_count != p - 1 or not r1.stabilized:
            failures.append(f"|S_(2lam+a,2lam)| p={p}: {r1.raw_count}")
        if r2.raw_count != p * p - p or not r2.stabilized:
            failures.append(f"|S_(0,2lam)| p={p}: {r2.raw_count}")
    return CriterionResult(2, name, not failures, "; ".join(failures))


def criterion_3_hilbert() -> CriterionResult:
    name = "Hilbert symbol: tame formula vs solvability oracle"
    failures = []
    for p in (3, 5, 7):
        F = LocalFieldDescriptor(p)
        minus_one = F.square_class_of(-1)
        for x, y in itertools.product(ALL_CLASSES, repeat=2):
            tame = cover.hilbert(x, y, F)
            if tame != cover.hilbert_solvable(x, y, F):
                failures.append(f"oracle mismatch p={p} ({x.name},{y.name})")
            if tame != cover.hilbert(y, x, F):
                failures.append(f"symmetry p={p} ({x.name},{y.name})")
        for x, y, z in itertools.product(ALL_CLASSES, repeat=3):
            if cover.hilbert(x * y, z, F) != cover.hilbert(x, z, F) * cover.hilbert(
                y, z, F
            ):
                failures.append(f"bimultiplicativity p={p}")
        for x in ALL_CLASSES:
            if cover.hilbert(x, minus_one * x, F) != 1:
                failures.append(f"(x,-x) != 1 at p={p} x={x.name}")
    return CriterionResult(3, name, not failures, "; ".join(failures))


def criterion_4_cover() -> CriterionResult:
    name = "cover arithmetic: Q on coroots, Sp commutators, splitting"
    failures = []
    for n in range(1, 9):
        for i in range(1, n + 1):
            want = 1 if i == n else 2
            if cover.eval_Q(coroot(i, n)) != want:
                failures.append(f"Q(coroot {i}) at n={n}")
            if cover.splits_over_Mprime(i, n) != (i != n):
                failures.append(f"splits({i}) at n={n}")
            if cover.splits_over_Mprime(i, n) != (cover.eval_Q(coroot(i, n)) % 2 == 0):
                failures.append(f"splits vs Q parity at {i}, n={n}")
    # B is bilinear, so the sign depends only on the coordinates mod 2; the
    # symbol (pi, u) is -1 at every odd p, so an odd B shows there
    F = LocalFieldDescriptor(3)
    corners = (
        [Cocharacter(c) for c in itertools.product((0, 1), repeat=n)] for n in range(1, 7)
    )
    for lam, lam2 in itertools.chain.from_iterable(
        itertools.product(c, repeat=2) for c in corners
    ):
        if cover.commutator_sign(lam, PI_CLASS, lam2, UNIT_CLASS, F) != 1:
            failures.append(f"Sp-part commutator sign at {lam.coords},{lam2.coords}")
            break
    return CriterionResult(4, name, not failures, "; ".join(failures))


def criterion_5_aset() -> CriterionResult:
    name = "A-set fibers and vanishing sums"
    failures = []
    for n in range(2, 9):
        for i in range(1, n):
            lam = hecke.t2lambda_base(i, n)
            A = hecke.enumerate_A(lam)
            zero = tuple(0 for _ in range(n))
            eps = tuple(1 if k == i - 1 else 0 for k in range(n))
            for fiber in hecke.distinct_fibers(A, i):
                if not hecke.fiber_conforms(fiber, i, n):
                    failures.append(f"fiber dichotomy n={n} i={i}: {sorted(fiber)}")
            # the target coefficient family is accepted ...
            target = {}
            for b in A.elements:
                mu = A.mu_of(b).coords
                target[mu] = 0
            target[A.mu_of(zero).coords] = 1
            target[A.mu_of(eps).coords] = -1
            if not hecke.vanishing_sum_check(target, A, i):
                failures.append(f"target family rejected n={n} i={i}")
            # ... and, with the leading coefficient pinned to 1, it is the
            # only accepted family: any single perturbation must fail
            for b in sorted(A.elements):
                if b == zero:
                    continue
                for delta in (1, -1):
                    tweaked = dict(target)
                    tweaked[A.mu_of(b).coords] += delta
                    if hecke.vanishing_sum_check(tweaked, A, i):
                        failures.append(f"perturbed family accepted n={n} i={i} at {b}")
    return CriterionResult(5, name, not failures, "; ".join(failures))


def _exhaustive_flag_data(n: int):
    for roots in itertools.chain.from_iterable(
        itertools.combinations(range(1, n + 1), r) for r in range(n + 1)
    ):
        levi = ParabolicSubset(n, frozenset(roots))
        eligible = sorted(classify.eligible_flag_roots(levi))
        free = [i for i in eligible if i != n]
        for bits in itertools.product((False, True), repeat=len(free)):
            flags = dict(zip(free, bits))
            if n in eligible:
                flags[n] = False
            yield classify.SupersingularDatum(levi, flags, label=f"L{sorted(roots)}")


def criterion_6_classification() -> CriterionResult:
    name = "classification counts, principal series lengths"
    failures = []
    for n in range(1, 6):
        for datum in _exhaustive_flag_data(n):
            got = len(classify.composition_factors(datum))
            want = 2 ** len(classify.pi_sigma(datum).roots)
            if got != want:
                failures.append(f"factor count n={n} levi={sorted(datum.levi.roots)}")
    q, N = 3, 4
    chars = [
        SmoothCharacterFx(q, N, u, t) for u in range(q - 1) for t in range(N)
    ]
    for n in range(1, 5):
        for xi in itertools.product(chars, repeat=n):
            sigma = GenuineTorusCharacter(tuple(xi), ONE_CLASS)
            length = classify.ps_length(sigma)
            datum = classify.torus_datum(sigma)
            if length != len(classify.composition_factors(datum)):
                failures.append(f"ps_length mismatch n={n}")
            if length > 2 ** (n - 1):
                failures.append(f"ps_length bound n={n}")
            constant = all(xi[k] == xi[0] for k in range(n))
            if (length == 2 ** (n - 1)) != constant:
                failures.append(f"maximal length iff constant tuple fails n={n}")
            if classify.ps_irreducible(sigma) != (length == 1):
                failures.append(f"irreducibility criterion n={n}")
    return CriterionResult(6, name, not failures, "; ".join(failures))


def criterion_7_psi_dependence() -> CriterionResult:
    name = "psi-dependence of principal series equals square-class test"
    failures = []
    F = LocalFieldDescriptor(3)
    q, N = F.q, 2 * (F.q - 1)
    # every character of rank at most 3; the check is the same at every rank
    chars = [SmoothCharacterFx(q, N, u, t) for u in range(q - 1) for t in range(N)]
    every_xi = itertools.chain.from_iterable(
        itertools.product(chars, repeat=n) for n in range(1, 4)
    )
    for xi, a in itertools.product(every_xi, ALL_CLASSES):
        s1 = GenuineTorusCharacter(xi, ONE_CLASS)
        s2 = GenuineTorusCharacter(xi, a)
        if genuine_equal(s1, s2, F) != a.is_square():
            exps = [(c.unit_exp, c.pi_exp) for c in xi]
            failures.append(f"class {a.name} at xi exponents {exps}")
            break
    return CriterionResult(7, name, not failures, "; ".join(failures))


def criterion_8_change_of_weight() -> CriterionResult:
    name = "change-of-weight decision procedure"
    failures = []
    N = 4
    for n in range(1, 4):
        subsets = itertools.chain.from_iterable(
            itertools.combinations(range(1, n + 1), r) for r in range(n + 1)
        )
        for J in subsets:
            Jset = frozenset(J)
            for exps in itertools.product(range(N), repeat=n):
                chi = HeckeCharacter.from_face(Jset, exps, n, N)
                if hecke.pi_chi(chi).roots != Jset:
                    failures.append(f"Pi(chi) != J for J={sorted(Jset)} exps={exps}")
                    continue
                for i in range(1, n + 1):
                    if i in Jset:
                        continue
                    decision = hecke.change_of_weight_decision(i, chi)
                    if i == n:
                        expect = True
                    else:
                        orthogonal = all(
                            pairing(simple_root(j, n), coroot(i, n)) == 0 for j in Jset
                        )
                        # chi'(tau_{alpha_i^vee}) = 1: its exponent is 0 mod N
                        at_coroot = sum(c * e for c, e in zip(coroot(i, n).coords, exps))
                        expect = not (orthogonal and at_coroot % N == 0)
                    if decision != expect:
                        failures.append(
                            f"n={n} J={sorted(Jset)} i={i} exps={exps}: "
                            f"got {decision}, want {expect}"
                        )
    return CriterionResult(8, name, not failures, "; ".join(failures))


def run_all() -> list[CriterionResult]:
    return [
        criterion_1_satake_identities(),
        criterion_2_sl2_counts(),
        criterion_3_hilbert(),
        criterion_4_cover(),
        criterion_5_aset(),
        criterion_6_classification(),
        criterion_7_psi_dependence(),
        criterion_8_change_of_weight(),
    ]
