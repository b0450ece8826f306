"""Brute-force verification of torus Satake coefficients over Q_p.

The identities computed symbolically in `hecke` are checked here by
honest coset counting: for antidominant lam and mu >= lam the coefficient
of tau_mu in the trivial-weight Satake image of T_lam is, mod p, the size
of

    S_{mu,lam} = {u in (U^- cap K)\\U^- : u mu(pi) in K lam(pi) K}.

Cosets are parametrized by negative-root coordinates in a fixed order,
realized as the designated matrix entries of the canonical (greedily
left-reduced) representative, each running over p^{-w} O / O for its
window w (below); membership in the Cartan cell is decided through
elementary divisor valuations of the matrix u mu(pi), computed by
Smith-style pivoting over Z_(p).

All arithmetic is exact.  Every coordinate is a fraction a / p^w, so
every matrix here has entries in Z[1/p] and is carried as an integer
matrix m together with a known shift k, standing for p^(-k) m; a
valuation of the represented matrix is a p-adic valuation of an integer
entry minus k.  Two groups are realized, SL_2 as Sp_2 and Sp_4, both
as Sp_2n with the antidiagonal symplectic form of size 2n

    J = antidiag(1, ..., 1, -1, ..., -1)   (n ones, then n minus ones),

and torus diag(t_1, ..., t_n, t_n^{-1}, ..., t_1^{-1}); in size 2,
g^T J g = det(g) J, so Sp_2 is SL_2.  Both are generated from the type C
root datum (`_negative_roots`).

Pruning: each coordinate is a bare entry of the unipotent matrix, and
every entry of a matrix in the lam-cell has valuation >= min(lam), so
coordinates may be windowed to p^{-(mu_col - min lam)} O / O with no
loss.  Each cell is walked once, at those windows, so every count is
complete.  The windows are known before the walk starts, and so is the
number of nodes it visits with nothing pruned, counted exactly from the
plan the walk reads (`_walk_nodes`); a cell whose walk may visit more
than ORACLE_NODE_LIMIT nodes is refused with OracleError instead of
counted (`_plan_cell`).
Inside its window box the walk sets the coordinates in order and shares
every prefix product; a column of the matrix is final once the last
generator writing it is applied, and it must then be integral after
scaling by p^(-min lam).  The columns closing below a node are written
by its own generator, so they are affine in the child coordinate y:
(A + y B) / p^e, with y = 0 the child with entry 0.  Every slope B / p^e
is an integer.  No generator writes the last column 2n - 1 (all are
strictly lower triangular), and each write that closes a column b reads
it: the last root to write b is 2 eps_1 or some eps_1 +- eps_i, of
window column 0 (the tests check n = 1..7).  So B is nonzero only in
row 2n - 1, where B / p^e = +-p^(exps[b] - min lam - w) at window w,
and w <= exps[0] - min lam <= exps[b] - min lam, as the exponents
(mu_1..mu_n, -mu_n..-mu_1) ascend for antidominant mu.
So a node's children are all integral or none is: each node checks its
child with entry 0, whose columns are the intercepts A, and counts 0 if
it fails.

Determinantal rule: the last generator (-2 eps_1) writes column 0 alone,
so the leaves below a node that sets the last coordinate differ only
there, affinely in the leaf's coordinate, and so does every minor;
`_leaf_hits` decides them all at once from the determinantal divisors.
Leaf y's column 0 is the entry-0 leaf's plus y times a slope that is
zero off row 2n - 1 (above).  A last window of 0 leaves one leaf, which
`smith_valuations` decides.
Only the minors through one pivot are needed.  Let e = h[pi][pj] be an
entry of h of least valuation.  Clearing its row and column is
invertible over Z_(p) and takes h to e + S' (a direct sum), where S'_ab
= h_ab - h_(a,pj) h_(pi,b) / e and every entry of S' has valuation >=
v(e).  So I_k(h), the k-th determinantal ideal, is e I_(k-1)(S') +
I_k(S') = e I_(k-1)(S'), as each elementary divisor of S' is divisible
by e.  Each k x k minor of h through row pi and column pj is +-e times a
(k - 1)-minor of S', as those row and column operations keep it, so
those minors alone give the least valuation s_k of I_k(h), at every
rank.  Each holds the moving entry (2n - 1, 0) at most once, so it is
still a + t b in the leaf t.  The k = 1 scan of the entries picks the
pivot: the first entry off (2n - 1, 0) whose valuation is s_1 at every
leaf, else (2n - 1, 0) itself.  A leaf at which that entry is not of
valuation s_1 fails k = 1, and inclusion-exclusion drops it whatever the
minors through it say.

Torus orbits: the first `rank` coordinates are the simple roots, the
only roots of height 2, at the subdiagonal entries (i + 1, i).  For
units t_1..t_n, nu, conjugation by d = diag(t_1..t_n, nu/t_n..nu/t_1)
in the similitude torus of GSp_2n(O) keeps U^- cap K and every windowed
box (it scales each entry by a unit), and keeps the elementary divisors
of u mu(pi), since d commutes with mu(pi).  It multiplies the entry of
the simple root alpha_i, which mod O is an invariant of the coset, by
t_(i+1)/t_i, and that of the long root by nu/t_n^2; these n units range
over all of (O^x)^n, independently.  So every child of a simple-root
node with a given valuation has the same count below it, and the walk
visits one child per valuation (`_children`); pruning keeps all of a
node's children or none (above).  SL_2's one coordinate is the last and
is decided by `_leaf_hits` instead.

At Sp_4 the same holds at the middle coordinate, of alpha_1 + alpha_2 =
eps_1 + eps_2 at entry (2, 0), when the alpha_1 entry y1 or the alpha_2
entry y2 of the prefix is 0.  With a = t_2/t_1 and b = nu/t_2^2, d scales
the three entries by a, b and ab.  If y1 = 0, a is free and b is fixed by
b y2 = y2 mod O; putting b y2 back into canonical form left-multiplies by
I - z' E_21, which adds -z' y1 = 0 to entry (2, 0), so y3 goes to ab y3
exactly, and a free reaches every unit.  If y2 = 0, b is free; reducing
a y1 changes only rows 1 and 3, and moves (3, 1) by z y2 = 0.  So the
walk collapses that step too when the prefix has a 0 simple-root entry.

When y1 and y2 are both nonzero, of pole orders v1, v2 >= 1, the middle
step collapses to translation classes instead.  Take b in 1 + p^v O, v =
max(v1, v2), and a = 1/b.  Then a y1 = y1 and b y2 = y2 mod O, reducing
a y1 changes only rows 1 and 3, and ab = 1 leaves y3 as it is; putting
b y2 back into canonical form adds -z' y1 to entry (2, 0), z' = (b - 1)
y2, and as b varies these shifts fill all of p^(-m) O, m = min(v1, v2).
So the count below a middle child depends only on its entry mod p^(-m)
O, and the walk visits one child per class (`_children`).  The walk
carries m as `pole`: the least pole order of the prefix's simple-root
entries, 0 when one of them is 0.
The proof covers Sp_4's one middle coordinate only (_PROVED_MIDDLE): a
middle coordinate at Sp_6 must be proved before it joins.  The walk plan
(`_walk_plan`) names the rule of each coordinate but the last, and
`_children` states each rule once, for the walk and its node budget
(`_walk_nodes`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

from .hecke import TorusHeckeElement, metaplectic_satake_T2lambda, parity_filter, t2lambda_base
from .rootdata import (
    Cocharacter, RootDatumError, antidominant_above, coroot_of, is_antidominant, leq, pairing,
    positive_roots,
)


class OracleError(ValueError):
    pass


# ---------------------------------------------------------------------
# matrix realizations


def _vp(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@dataclass(frozen=True)
class NegativeRootCoordinate:
    """One coordinate of the lower-unipotent parametrization.

    Cosets are parametrized by the designated matrix `entry` of each
    root, in the fixed order: the greedy normal form reduces each entry
    to a canonical fraction in turn, so canonical entry tuples biject
    onto (U^- cap K)\\U^-.  The generator is I + x * sum(sign E_ij) over
    `units`, whose first unit is `entry` with sign 1.  The group
    coordinate x is the entry value minus that entry in the product of
    the earlier generators, and no later generator writes the entry.
    `window_col` is the matrix column whose torus scaling controls the
    entry's pruning window."""

    units: tuple  # (((i, j), sign), ...) 0-indexed positions of E_ij
    entry: tuple  # (i, j) 0-indexed
    window_col: int  # 0-indexed column


def _negative_roots(n: int) -> tuple[NegativeRootCoordinate, ...]:
    """One coordinate per positive root alpha of Sp_2n, stably sorted by
    the height <alpha, 2 rho^vee>, 2 rho^vee = (2n - 1, ..., 1) the sum of
    the coroots.  With i' = 2n - 1 - i the root vector of -(eps_i - eps_j)
    is E_ji - E_i'j', that of -(eps_i + eps_j) is E_j'i + E_i'j, and that
    of -2 eps_i is E_i'i; each is windowed by column i."""
    pos = positive_roots(n)
    two_rho = sum(map(coroot_of, pos), Cocharacter((0,) * n))
    out = []
    for alpha in sorted(pos, key=lambda a: pairing(a, two_rho)):
        i, *rest = (k for k, c in enumerate(alpha.coords) if c)
        j = rest[0] if rest else i
        ip, jp = 2 * n - 1 - i, 2 * n - 1 - j
        if not rest:
            units = (((ip, i), 1),)
        elif alpha.coords[j] < 0:
            units = (((j, i), 1), ((ip, jp), -1))
        else:
            units = (((jp, i), 1), ((ip, j), 1))
        out.append(NegativeRootCoordinate(units, units[0][0], i))
    return tuple(out)


def _minor_indices(size: int, rank: int):
    """For k = 1 .. rank, the rows + cols of the k x k minors of a
    lower-triangular matrix that need not vanish, cols[m] <= rows[m] for
    every m, with those off column 0 first."""
    out = []
    for k in range(1, rank + 1):
        parts = ([], [])
        for rows in combinations(range(size), k):
            for cols in combinations(range(rows[-1] + 1), k):
                if all(c <= r for c, r in zip(cols, rows)):
                    parts[not cols[0]].append(rows + cols)
        out.append(parts[0] + parts[1])
    return out


def _pivot_minors(size: int, rank: int):
    """(entries, through) for `_leaf_hits`: the entries (i, j) of a
    lower-triangular matrix that need not vanish, those off column 0 first,
    and through[(i, j)], for k = 2 .. rank, the `_minor_indices` k x k
    minors holding row i and column j, in their order."""
    entries, *larger = _minor_indices(size, rank)
    through = {
        (i, j): [[m for m in index if i in m[:k] and j in m[k:]] for k, index in enumerate(larger, 2)]
        for i, j in entries
    }
    return entries, through


# (rank, entry) of the middle coordinates proved to collapse, to torus
# orbits below a 0 simple-root entry and to translation classes below
# nonzero ones (module docstring): Sp_4's eps_1 + eps_2 alone
_PROVED_MIDDLE = {(2, (2, 0))}


def _walk_plan(n: int, neg) -> tuple:
    """(closing, minors, orbits) for `_count_in_cell` on Sp_2n.  A column
    is final once the last generator writing it is applied: closing[s]
    holds the columns final after s generators, the columns the walk
    checks at a node s steps below the root.  orbits[s], for each
    coordinate s but the last, names the rule `_children` applies there:
    "always" at the simple roots, "middle" at a middle coordinate in
    _PROVED_MIDDLE and "never" at the others."""
    last_write = {}
    for step, gen in enumerate(neg, 1):
        for (_, b), _ in gen.units:
            last_write[b] = step
    closing = [[] for _ in range(len(neg) + 1)]
    for j in range(2 * n):
        closing[last_write.get(j, 0)].append(j)
    orbits = tuple(
        "always" if step < n else "middle" if (n, gen.entry) in _PROVED_MIDDLE else "never"
        for step, gen in enumerate(neg[:-1])
    )
    return closing, _pivot_minors(2 * n, n), orbits


@lru_cache(maxsize=256)
def _children(rule: str, w: int, pole: int, p: int) -> tuple:
    """The children of a prefix of pole order `pole` (module docstring) at a
    step of window w with `orbits` entry `rule`, which `walk` visits and
    `_walk_nodes` counts: ((weight, below), siblings), the child with entry
    0 standing for `weight` children, of pole `below`, and for each (first,
    number, weight, below) in siblings the children y = first, ..., first +
    number - 1, each standing for `weight` children, of pole `below`.

    "always", and "middle" at pole 0, keep one child per torus orbit: 0,
    and y = p^j for the (p - 1) p^(w - j - 1) children of valuation j, of
    pole min(pole, w - j).  "middle" at pole > 0 keeps one child per class
    mod p^(-k) O, k = min(pole, w), of p^k children, and "never" every
    child, k = 0; both keep the prefix's pole.  A run reads few of these."""
    if rule == "always" or rule == "middle" and not pole:
        if not pole:
            return (1, 0), tuple((p**j, 1, (p - 1) * p ** (w - j - 1), 0) for j in range(w))
        # pole 0's children with poles raised, so the cache holds each p^j once
        _, orbits = _children(rule, w, 0, p)
        return (1, 0), tuple((y, 1, weight, min(pole, w - j)) for j, (y, _, weight, _) in enumerate(orbits))
    orbit = p ** min(pole, w) if rule == "middle" else 1
    return (orbit, pole), ((1, p**w // orbit - 1, orbit, pole),)


# (rank, negative root coordinates, walk plan) by tag, built at import rather
# than on first use, so that every traced pass (bench/tracing.py) counts alike
_GROUPS = {
    tag: (n, neg, _walk_plan(n, neg))
    for tag, n in (("sl2", 1), ("sp4", 2))
    for neg in (_negative_roots(n),)
}


class ChevalleyRealization:
    """Matrix model of one of the oracle groups over Q_p, as Sp_2n of
    size 2n with n the rank: sl2 is Sp_2, sp4 is Sp_4."""

    def __init__(self, tag: str):
        if tag not in _GROUPS:
            raise OracleError(f"unknown group tag {tag!r}; use sl2 or sp4")
        self.rank, self.neg, self.plan = _GROUPS[tag]
        self.tag, self.size = tag, 2 * self.rank

    def torus_exponents(self, mu: Cocharacter) -> tuple[int, ...]:
        """Diagonal valuation pattern of mu(pi)."""
        if mu.rank != self.rank:
            raise OracleError(f"{self.tag} expects rank {self.rank}")
        return mu.coords + tuple(-m for m in reversed(mu.coords))

    # -- matrix builders ----------------------------------------------
    def identity(self, scale: int = 1):
        """scale times the identity matrix."""
        m = [[0] * self.size for _ in range(self.size)]
        for i, row in enumerate(m):
            row[i] = scale
        return m

    def right_multiply_generator(self, m, units, num: int, den: int):
        """m <- m * (I + (num / den) * sum sign E_ab): column b += sign *
        num * column a / den, where den divides every entry of column a."""
        if num == 0:
            return
        for (a, b), sign in units:
            for row in m:
                if row[a]:
                    row[b] += sign * num * (row[a] // den)


def smith_valuations(entries, p: int, shift: int, expect=None):
    """Valuations of the elementary divisors of p^(-shift) entries, for an
    integer matrix `entries`; they come out in nondecreasing order.

    Works over Z_(p): pivot on the first entry of minimal valuation v and
    clear its column by row_i <- unit * row_i - (fac / p^v) * row_pivot,
    where unit = pivot / p^v is prime to p, so each step is invertible
    over Z_(p) and stays in the integers.  No remaining entry can fall
    below the last pivot's valuation, so the next search stops at the
    first entry that reaches it.  With `expect` given, stops after
    len(expect) pivots and returns None as soon as a pivot valuation
    deviates from that expected ascending list.
    """
    m = [row[:] for row in entries]
    active_rows = list(range(len(m)))
    active_cols = list(range(len(m)))
    vals = []
    low = 0  # every remaining entry has valuation >= low
    steps = len(m) if expect is None else len(expect)
    for step in range(steps):
        best = None
        for i in active_rows:
            mi = m[i]
            for j in active_cols:
                x = mi[j]
                if x and (best is None or x % pbest):  # v(x) < best
                    best, pi, pj = _vp(x, p), i, j
                    pbest = p**best
                    if best == low:
                        break
            else:
                continue
            break
        if best is None:
            raise OracleError("matrix is singular; no Cartan cell")
        if expect is not None and best - shift != expect[step]:
            return None
        vals.append(best - shift)
        if step + 1 == steps:
            break
        low = best
        active_rows.remove(pi)
        active_cols.remove(pj)
        unit = m[pi][pj] // pbest
        mpi = m[pi]
        for i in active_rows:
            mi = m[i]
            if mi[pj]:
                ratio = mi[pj] // pbest
                for j in active_cols:
                    mi[j] = unit * mi[j] - ratio * mpi[j]
    return vals


# ---------------------------------------------------------------------
# coset enumeration


@dataclass(frozen=True)
class CosetCountResult:
    mu: Cocharacter
    raw_count: int
    count_mod_p: int
    stabilized = True  # every cell is counted at its unclipped windows


def _progression(pairs, p: int, e: int):
    """The integers y with a + y b = 0 mod p^e for every pair (a, b), as
    (y0, step) for the progression y = y0 mod step, 0 <= y0 < step, with
    step a power of p; None when there are none.  Only `_leaf_hits` calls
    it, as the walk's own slopes are all 0 mod p^e (module docstring).

    Each pair is solved inside the progression found so far: y = y0 +
    step t turns it into a' + t b' = 0 with a' = a + y0 b, b' = step b.
    When p^e divides b' it holds for every t or none; otherwise p^v exactly
    divides b' for some v < e, p^v must divide a', and t is fixed mod
    p^(e - v) by the inverse of the unit b' / p^v.  So step b = 0 mod p^e
    for every pair at the end.
    """
    pe = p**e
    y0, step = 0, 1
    for a, b in pairs:
        a, b = (a + y0 * b) % pe, step * b % pe
        if not b:
            if a:
                return None
            continue
        pv = p ** _vp(b, p)
        if a % pv:
            return None
        mod = pe // pv
        y0 += step * (-(a // pv) * pow(b // pv, -1, mod) % mod)
        step *= mod
    return y0, step


def _leaf_hits(h, slope, leaves, p, divisors, minors) -> int:
    """How many t in range(leaves) put h_t, the lower-triangular integer
    matrix h with t slope added to the last entry of its column 0, in the
    cell whose first elementary divisors over Z_(p) have the ascending
    valuations `divisors` (rank <= 2); `minors` is
    `_pivot_minors(len(h), rank)`.

    h_t hits when, for each k, its k x k minors a + t b are all 0 mod
    p^(s_k), s_k the sum of the first k divisors, and one is not mod
    p^(s_k + 1).  Past k = 1 only the minors through the pivot are read:
    the first fixed entry the k = 1 scan finds of valuation exactly s_1,
    else the moving entry (module docstring).  Constant minors decide this
    for every leaf or meet its second part; the others give congruences
    on t lifted to mod p^top: `hold`, and per k the `misses`, where they
    all vanish mod p^(s_k + 1).  The leaves in `hold` and in no miss are
    counted by inclusion-exclusion."""
    entries, through = minors
    top, last = sum(divisors) + 1, len(h) - 1
    hold, misses, need, pivot = [], [], 0, None
    for k, v in enumerate(divisors, 1):
        need += v
        pe, pt = p**need, p ** (need + 1)
        exact, slopes = None, []  # exact: the first constant minor of valuation need
        for minor in entries if k == 1 else through[pivot][k - 2]:  # off column 0 first
            if exact and not need:
                break  # every leaf meets this k
            if k == 1:
                i, j = minor
                a, b = h[i][j], 0 if j or i < last else slope
            else:  # rows i < i2, so only row i2 may be the last
                i, i2, j, j2 = minor
                a = h[i][j] * h[i2][j2] - h[i2][j] * h[i][j2]
                b = 0 if j or i2 < last else -slope * h[i][j2]
            a, b = a % pt, b % pt
            if b:
                slopes.append((a, b))
            elif a % pe:
                return 0
            elif a and not exact:
                exact = minor
        if k == 1:
            pivot = exact or (last, 0)
        scale = p ** (top - need - 1)  # lifts mod p^(need + 1) to mod p^top
        if need:  # mod p^0 every leaf holds
            hold += [(a * scale * p, b * scale * p) for a, b in slopes]
        if not exact:
            misses.append([(a * scale, b * scale) for a, b in slopes])
    hits = 0
    for r in range(len(misses) + 1):
        for chosen in combinations(misses, r):
            found = _progression(hold + [ab for miss in chosen for ab in miss], p, top)
            if found is not None:  # how many y0 + step t lie in range(leaves)
                hits += (-1) ** r * max(0, -((found[0] - leaves) // found[1]))
    return hits


def _count_in_cell(plan) -> int:  # the walk of plan's cell
    group, p, exps, floor, divisors, windows = (
        plan.group, plan.p, plan.exps, plan.floor, plan.divisors, plan.windows
    )
    width = max(windows)
    n, size = len(group.neg), group.size
    # Entries are canonical fractions a / p^w with w <= width, carried as
    # numerators over q = p^(2 width).  With U = q^n u as `walk` builds it
    # from q^n I and mu(pi) = p^low T, T the diagonal of the
    # p^(exps - low), the matrix u mu(pi) is p^(low - 2 width n) U T.  Its
    # entries all have valuation >= floor exactly when h = p^(-floor) u
    # mu(pi) = p^(-e) U T is integral; the cell is then decided on the
    # small integers of h.  The prefix read of an entry is at most a
    # product of two entries at rank <= 2, so an integer over q: its
    # division by q^(n - 1) in `walk` is exact.  Column 0's window is
    # low - floor, so width >= low - floor and e >= (2n - 1) width >= 0.
    q = p ** (2 * width)
    qread = q ** (n - 1)
    low = min(exps)
    e = 2 * width * n - low + floor
    scale = [p ** (x - low) for x in exps]
    base = p**e
    # The walk sets the coordinates in order, sharing each prefix product,
    # and fills in h column by column as they close (module docstring).
    closing, minors, orbits = group.plan
    h = [[0] * size for _ in range(size)]

    def close(step, m) -> bool:  # fill in the columns of h final at step: integral?
        for j in closing[step]:
            sj = scale[j]
            for i in range(size):
                x = m[i][j] * sj
                if x % base:
                    return False
                h[i][j] = x // base
        return True

    # Each call owns its matrix m, built for it alone: a call with one child
    # (window 0, or the last step, whose child only fills in h) hands m
    # itself to the child, and one with siblings gives each its own copy.
    def walk(step, m, pole) -> int:  # pole: as in the module docstring
        gen = group.neg[step]
        units, (i, j), w = gen.units, gen.entry, windows[step]
        c0 = -(m[i][j] // qread)  # the coordinate of the child with entry 0
        child = m if not w or step + 1 == n else [row[:] for row in m]
        group.right_multiply_generator(child, units, c0, q)
        # the child with entry 0 decides for its siblings (module docstring)
        if not close(step + 1, child):
            return 0
        dx = p ** (2 * width - w)  # child y has coordinate c0 + y dx
        if step + 1 == n:
            if not w:  # one leaf, and h is all of it
                return int(smith_valuations(h, p, 0, expect=divisors) is not None)
            # leaf y adds y dx q^(n - 1) to the last row of column 0, as
            # column 2n - 1 of every prefix product is q^n e_(2n - 1)
            return _leaf_hits(h, dx * qread * scale[0] // base, p**w, p, divisors, minors)
        (weight, below), siblings = _children(orbits[step], w, pole, p)
        hits = weight * walk(step + 1, child, below)
        for first, number, weight, below in siblings:
            for y in range(first, first + number):
                child = [row[:] for row in m]
                group.right_multiply_generator(child, units, c0 + y * dx, q)
                close(step + 1, child)  # integral, as the entry-0 child's are
                hits += weight * walk(step + 1, child, below)
        return hits

    root = group.identity(q**n)
    # no simple-root entry is set yet, and width bounds every pole order
    return walk(0, root, width) if close(0, root) else 0


# Most nodes the walk of one cell may visit (`_walk_nodes`), set at about
# 3 s of work for the slowest walk it admitted while boxes too shallow to
# reach lam's floor were still walked, and kept.  Timed on one 2-vCPU Xeon
# core, each cell at its windows: for each window pattern, the slowest of a
# sample of its cells at the largest prime it admits, or at p = 2^31 - 1
# when its node count does not grow with p (at lam = (-400, -400), 13
# values of mu_2 for each mu_1 in -400..-397):
#
#     lam              slowest admitted walk                          time
#     in -12..0        (2, 12, 2, 2) at p = 911, 11,942 nodes         0.3 s
#     (-100, -100)     (2, 96, 2, 2) at p = 113, 11,648 nodes         1.7-2.1 s
#     (-400, -400)     (1, 396, 1, 1) at p = 2^31 - 1, 1,989 nodes   21-23 s
#
# So the limit bounds time only near the CLI's floors: a node's integers
# grow with the windows and p, which the node count does not charge, and a
# node of mu = (-399, -4) at (-400, -400) costs about 12 ms.  A cell far
# above a deep floor, such as mu = (-396, 0) at (-400, -400), is refused at
# once.  sp4's largest cells on the CLI's rows, mu = (0, 0), walk windows
# (2, 2, 2, 2), 3p + 29 nodes: 11,996 at p = 3,989, the last prime
# admitted, whose rows count in about 0.04 s, and 12,032 at p = 4,001,
# refused.  sl2 has one coordinate, so each of its walks is one node and
# every sl2 row is admitted.
ORACLE_NODE_LIMIT = 12_030


def _walk_nodes(group, windows, p) -> int:
    """The `walk` calls of a walk at `windows` with nothing pruned: one per
    prefix it sets, from the empty root prefix of pole max(windows) to
    those setting all but the last coordinate, whose leaves `_leaf_hits`
    decides at once, tallied by pole step by step from the children
    `_children` gives the walk.  So every sl2 walk is one node."""
    width = max(windows)
    prefixes, nodes = [0] * width + [1], 1  # prefixes[m]: those of pole m
    for rule, w in zip(group.plan[2], windows):
        after = [0] * (width + 1)
        for m, count in enumerate(prefixes):
            if count:
                (_, below), siblings = _children(rule, w, m, p)
                after[below] += count
                for _, number, _, below in siblings:
                    after[below] += count * number
        prefixes = after
        nodes += sum(after)
    return nodes


class _CellPlan(NamedTuple):
    """What counting one cell reads, derived once (`_plan_cell`)."""

    group: ChevalleyRealization
    mu: Cocharacter
    p: int
    exps: tuple  # the torus exponents of mu
    floor: int  # min lam
    divisors: list  # h's divisor valuations: those of u mu(pi) minus floor
    windows: tuple  # the unclipped windows, which its one walk reads


def _plan_cell(group, mu, lam, p) -> _CellPlan:
    """The plan of a cell, refused with OracleError unless lam and mu are
    antidominant with mu >= lam, or when its one walk (module docstring)
    may visit more than ORACLE_NODE_LIMIT nodes (`_walk_nodes`); a budget
    too long to print gives its bit length."""
    if not is_antidominant(lam):
        raise OracleError("target cell must be antidominant")
    try:
        above = leq(lam, mu)
    except RootDatumError:  # rank mismatch, or a similitude part in mu - lam
        above = False
    if not (above and is_antidominant(mu)):
        raise OracleError("mu must be antidominant and >= lam")
    exps, floor = group.torus_exponents(mu), lam.coords[0]  # lam ascends
    windows = tuple([max(0, exps[gen.window_col] - floor) for gen in group.neg])
    nodes = _walk_nodes(group, windows, p)
    if nodes > ORACLE_NODE_LIMIT:
        shown = f"{nodes:,}" if nodes.bit_length() < 4_000 else f"2^{nodes.bit_length() - 1} or more"
        raise OracleError(
            f"oracle cell mu={mu.coords} at p = {p} may visit"
            f" {shown} nodes, over its limit of {ORACLE_NODE_LIMIT:,}"
        )
    divisors = [v - floor for v in lam.coords]
    return _CellPlan(group, mu, p, exps, floor, divisors, windows)


def _count_planned(plan) -> CosetCountResult:
    raw = _count_in_cell(plan)
    return CosetCountResult(plan.mu, raw, raw % plan.p)


def count_cosets(
    mu: Cocharacter, lam: Cocharacter, depth: int, group: str, p: int
) -> CosetCountResult:
    """|S_{mu, lam}|, complete, with its mod-p class.

    The depth must be >= 1 and changes no count: the cell is walked once at
    its unclipped windows, so `stabilized` is always true.  A cell whose
    walk may visit more than ORACLE_NODE_LIMIT nodes is refused before it.
    """
    realization = ChevalleyRealization(group)
    if depth < 1:
        raise OracleError("depth must be >= 1")
    return _count_planned(_plan_cell(realization, mu, lam, p))


def oracle_rows(lam: Cocharacter, group: str, p: int):
    """Raw and mod-p counts, each complete, for every mu in the support
    window, for `oracle satake` and the Satake check
    (`verify_metaplectic_pipeline`).  Every cell is planned, so checked
    and its budget checked, before any is counted."""
    mus = sorted(antidominant_above(lam), key=lambda m: m.coords)
    realization = ChevalleyRealization(group)
    plans = [_plan_cell(realization, mu, lam, p) for mu in mus]
    return [_count_planned(plan) for plan in plans]


def verify_metaplectic_pipeline(i: int, n: int, p: int) -> bool:
    """Reductive counts, then the parity filter for the long root, against
    the symbolically computed metaplectic Satake value of T_{2 lam}.

    For short i the reductive row must already equal the target (the
    filter would remove nothing: the shifted support differs by a short
    coroot, of coordinate sum zero).  For i = n the filter implements the
    cover's parity constraint and must cut the row down to tau_{2 lam}.
    Every count of the row is complete (`oracle_rows`).
    """
    if n not in (1, 2):
        raise OracleError("the counting oracle runs at desk scale: n in {1, 2}")
    if not 1 <= i <= n:
        raise OracleError(f"index {i} out of range 1..{n}")
    group = "sl2" if n == 1 else "sp4"
    two_lam = 2 * t2lambda_base(i, n)
    row = TorusHeckeElement(p, {r.mu.coords: r.count_mod_p for r in oracle_rows(two_lam, group, p)})
    target = metaplectic_satake_T2lambda(i, n, p)
    if i == n:
        return parity_filter(row, two_lam) == target
    return row == target
