"""Brute-force verification of torus Satake coefficients over Q_p.

The identities computed symbolically in `hecke` are checked here by
honest coset counting: for antidominant lam and mu >= lam the coefficient
of tau_mu in the trivial-weight Satake image of T_lam is, mod p, the size
of

    S_{mu,lam} = {u in (U^- cap K)\\U^- : u mu(pi) in K lam(pi) K}.

Cosets are parametrized by negative-root coordinates in a fixed order,
realized as the designated matrix entries of the canonical (greedily
left-reduced) representative, running over p^{-depth} O / O; membership
in the Cartan cell is decided through elementary divisor valuations of
the matrix u mu(pi), computed by Smith-style pivoting over Z_(p).

All arithmetic is exact.  Every coordinate is a fraction a / p^w, so
every matrix here has entries in Z[1/p] and is carried as an integer
matrix m together with a known shift k, standing for p^(-k) m; a
valuation of the represented matrix is a p-adic valuation of an integer
entry minus k.  Two groups are realized, SL_2 as Sp_2 and Sp_4, both
as Sp_2n with the antidiagonal symplectic form of size 2n

    J = antidiag(1, ..., 1, -1, ..., -1)   (n ones, then n minus ones),

and torus diag(t_1, ..., t_n, t_n^{-1}, ..., t_1^{-1}); in size 2,
g^T J g = det(g) J, so Sp_2 is SL_2.

Pruning: each coordinate is a bare entry of the unipotent matrix, and
every entry of a matrix in the lam-cell has valuation >= min(lam), so
coordinates may be windowed to p^{-(mu_col - min lam)} O / O with no
loss.  Counts therefore stop growing once the depth exceeds the window,
which is what the stabilization flag reports.  Those window boxes are
known before any walk starts, so a cell whose box exceeds its group's
ORACLE_BOX_LIMIT is refused with OracleError instead of counted.  Inside
the box the walk sets the coordinates in order and shares every prefix
product; a column of the matrix is final once the last generator
writing it is applied, and it must then be integral after scaling by
p^(-min lam).  The columns that close below a node are written by the
node's own generator, so they are affine in the child coordinate y, and
their integrality is a system of linear congruences in y modulo a power
of p.  Its solutions are one progression y = y0 mod p^r or none
(`_progression`), and only those children are walked.

Split Smith step: the leaves below one node that sets the last
coordinate differ only in the columns that coordinate writes, affinely
in the leaf's place t along the node's progression, with integral
intercept and slope.  When that node has a unit of the matrix in another
column, the first Smith pivot (whose valuation must be the floor) is
taken there once for all its leaves; the Schur complement is again
affine in t, and each leaf only scans the valuations of its moving
entries against the second expected divisor.  Any other node, and every
SL_2 node, runs the full `smith_valuations` per leaf.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .hecke import TorusHeckeElement, metaplectic_satake_T2lambda, parity_filter, t2lambda_base
from .rootdata import Cocharacter, RootDatumError, antidominant_above, is_antidominant, leq


class OracleError(ValueError):
    pass


class StabilizationError(RuntimeError):
    """A coset count failed to agree between successive depths."""


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
    onto (U^- cap K)\\U^-.  The group coordinate fed to the generator
    I + x * sum(sign E_ij) is the entry value plus `correction`, a sum of
    signed products of earlier entry values (the commutator debris of the
    product order; for the rank-two realization the height-3 coordinate
    is entry + a*c).  `window_col` is the matrix column whose torus
    scaling controls the entry's pruning window."""

    label: str
    units: tuple  # (((i, j), sign), ...) 0-indexed positions of E_ij
    entry: tuple  # (i, j) 0-indexed
    window_col: int  # 0-indexed column
    correction: tuple = ()  # ((sign, k1, k2), ...): + sign * x_{k1} * x_{k2}


class ChevalleyRealization:
    """Matrix model of one of the oracle groups over Q_p, as Sp_2n of
    size 2n with n the rank: sl2 is Sp_2, sp4 is Sp_4."""

    def __init__(self, tag: str):
        if tag == "sl2":
            self.rank = 1
            self.neg = (
                NegativeRootCoordinate("-a1", (((1, 0), 1),), (1, 0), 0),
            )
            self.pos_units = {"a1": (((0, 1), 1),)}
        elif tag == "sp4":
            self.rank = 2
            # order by height: -a1, -a2, -(a1+a2), -(2a1+a2)
            self.neg = (
                NegativeRootCoordinate("-a1", (((1, 0), 1), ((3, 2), -1)), (1, 0), 0),
                NegativeRootCoordinate("-a2", (((2, 1), 1),), (2, 1), 1),
                NegativeRootCoordinate("-a12", (((2, 0), 1), ((3, 1), 1)), (2, 0), 0),
                NegativeRootCoordinate(
                    "-a112", (((3, 0), 1),), (3, 0), 0, correction=((1, 0, 2),)
                ),
            )
            self.pos_units = {
                "a1": (((0, 1), 1), ((2, 3), -1)),
                "a2": (((1, 2), 1),),
                "a12": (((0, 2), 1), ((1, 3), 1)),
                "a112": (((0, 3), 1),),
            }
        else:
            raise OracleError(f"unknown group tag {tag!r}; use sl2 or sp4")
        self.tag, self.size = tag, 2 * self.rank

    def torus_exponents(self, mu: Cocharacter) -> tuple[int, ...]:
        """Diagonal valuation pattern of mu(pi)."""
        if mu.rank != self.rank:
            raise OracleError(f"{self.tag} expects rank {self.rank}")
        return mu.coords + tuple(-m for m in reversed(mu.coords))

    def form_matrix(self):
        """Gram matrix antidiag(1..1, -1..-1) of the symplectic form."""
        size = self.size
        J = [[0] * size for _ in range(size)]
        for i in range(size):
            J[i][size - 1 - i] = 1 if i < self.rank else -1
        return J

    # -- matrix builders ----------------------------------------------
    def identity(self, scale: int = 1):
        """scale times the identity matrix."""
        return [[scale if i == j else 0 for j in range(self.size)] for i in range(self.size)]

    def torus_matrix(self, mu: Cocharacter, p: int):
        """mu(pi) as a pair (m, k) with mu(pi) = p^(-k) m: the diagonal
        p^(e_i - min e) with k = -min e."""
        exps = self.torus_exponents(mu)
        low = min(exps)
        m = self.identity()
        for i, e in enumerate(exps):
            m[i][i] = p ** (e - low)
        return m, -low

    def right_multiply_generator(self, m, units, num: int, den: int):
        """m <- m * (I + (num / den) * sum sign E_ab): column b += sign *
        num * column a / den, where den divides every entry of column a."""
        if num == 0:
            return
        for (a, b), sign in units:
            for row in m:
                if row[a]:
                    row[b] += sign * num * (row[a] // den)

    def coordinate(self, k: int, xs, q: int) -> int:
        """q times the group coordinate of generator k: the entry xs[k] / q
        plus the stored correction in earlier entries.  Each entry is a
        canonical fraction given by its numerator over q, and q is a
        multiple of the square of every entry denominator, so the
        correction products are again integers over q."""
        c = xs[k]
        for sign, k1, k2 in self.neg[k].correction:
            c += sign * (xs[k1] * xs[k2] // q)
        return c

    def unipotent_from_entries(self, xs, q: int):
        """q^len(neg) u, for the unipotent element u whose designated matrix
        entries are xs[k] / q (see `coordinate` for the condition on q).

        Every group coordinate is an integer over q, and the product of the
        first j root generators has entries in q^(-j) Z, so with the scale
        q^len(neg) fixed up front every column update divides exactly.
        """
        m = self.identity(q ** len(self.neg))
        for k, gen in enumerate(self.neg):
            self.right_multiply_generator(m, gen.units, self.coordinate(k, xs, q), q)
        return m


def matrix_product(a, b):
    """Exact product of integer matrices; the shifts of the factors add."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


@dataclass
class PadicMatrix:
    """The matrix p^(-shift) entries, for an integer matrix `entries`, with
    a group tag; membership in the tagged group is verified exactly at
    construction."""

    entries: list
    shift: int
    group: ChevalleyRealization
    p: int

    def __post_init__(self):
        if len(self.entries) != self.group.size:
            raise OracleError("size mismatch with group tag")
        self.verify_membership()

    def verify_membership(self):
        g = self.entries
        # g^T J g = J for the represented matrix p^(-shift) g
        scale = Fraction(self.p) ** (2 * self.shift)
        J = self.group.form_matrix()
        prod = matrix_product(matrix_product([list(col) for col in zip(*g)], J), g)
        size = self.group.size
        for i in range(size):
            for j in range(size):
                if prod[i][j] != scale * J[i][j]:
                    raise OracleError(
                        f"matrix does not preserve the symplectic form at ({i}, {j})"
                    )

    def cartan_invariant(self) -> Cocharacter:
        return cartan_invariant_of_entries(self.entries, self.group, self.p, self.shift)


def smith_valuations(entries, p: int, shift: int, stop_after=None, expect=None):
    """Valuations of the elementary divisors of p^(-shift) entries, for an
    integer matrix `entries`; they come out in nondecreasing order.

    Works over Z_(p): pivot on the first entry of minimal valuation v and
    clear its column by row_i <- unit * row_i - (fac / p^v) * row_pivot,
    where unit = pivot / p^v is prime to p, so each step is invertible
    over Z_(p) and stays in the integers.  No remaining entry can fall
    below the last pivot's valuation, so the next search stops at the
    first entry that reaches it.  With `expect` given, returns None as
    soon as a pivot valuation deviates from the expected ascending list.
    """
    m = [row[:] for row in entries]
    active_rows = list(range(len(m)))
    active_cols = list(range(len(m)))
    vals = []
    low = 0  # every remaining entry has valuation >= low
    steps = len(m) if stop_after is None else stop_after
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


def cartan_invariant_of_entries(
    entries, group: ChevalleyRealization, p: int, shift: int
) -> Cocharacter:
    """The antidominant cocharacter lam with p^(-shift) entries in
    K lam(pi) K.

    All elementary divisor valuations are computed; in Sp_2n they must
    pair as (d, -d) and the first half, ascending, is the invariant.
    """
    size = group.size
    vals = smith_valuations(entries, p, shift)
    vals.sort()
    for k in range(size // 2):
        if vals[k] != -vals[size - 1 - k]:
            raise OracleError(
                f"elementary divisors {vals} do not pair; input not in the group"
            )
    return Cocharacter(tuple(vals[: group.rank]))


# ---------------------------------------------------------------------
# coset enumeration


@dataclass(frozen=True)
class CosetCountResult:
    mu: Cocharacter
    lam: Cocharacter
    raw_count: int
    count_mod_p: int
    depth_used: int
    stabilized: bool


def _coordinate_windows(group: ChevalleyRealization, mu: Cocharacter, lam: Cocharacter, depth: int):
    """Effective enumeration window per canonical entry coordinate.

    Each coordinate is a bare entry of u at its designated position, so
    the corresponding entry of u mu(pi) is the coordinate times
    p^(column exponent); for the product to lie in the lam cell every
    entry needs valuation at least min(lam).  Entries deeper than that
    cannot contribute, losslessly shrinking the box.
    """
    exps = group.torus_exponents(mu)
    floor = min(lam.coords)
    windows = []
    for gen in group.neg:
        cap = exps[gen.window_col] - floor
        windows.append(max(0, min(depth, cap)))
    return tuple(windows)


def _progression(pairs, p: int, e: int):
    """The integers y with a + y b = 0 mod p^e for every pair (a, b), as
    (y0, step) for the progression y = y0 mod step, 0 <= y0 < step, with
    step a power of p; None when there are none.

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


def _count_in_cell(group, mu, lam, depth, p) -> int:
    windows = _coordinate_windows(group, mu, lam, depth)
    width = max(windows)
    n, size = len(group.neg), group.size
    floor = min(lam.coords)
    expect = sorted(lam.coords)
    # Entries are canonical fractions a / p^w with w <= width, carried as
    # numerators over q = p^(2 width).  With U = q^n u as built by
    # unipotent_from_entries and mu(pi) = p^(-k) T, the matrix u mu(pi)
    # is p^(-2 width n - k) U T.  Its entries all have valuation >= floor
    # exactly when h = p^(-floor) u mu(pi) = p^(-e) U T is integral; the
    # Smith step then runs on the small integers of h.
    q = p ** (2 * width)
    t, k = group.torus_matrix(mu, p)
    e = 2 * width * n + k + floor
    scale = [t[j][j] * p ** max(0, -e) for j in range(size)]
    e = max(0, e)
    base = p**e
    # Generators only ever add to the columns b of their units, so a
    # column is final once the last generator writing it is applied.  The
    # enumeration walks the coordinates in order, sharing each prefix
    # product, and fills in h column by column as they close.  The columns
    # closing below a node are written by its own generator, through the
    # (source column, sign) pairs in `writes`, so they are affine in the
    # child index; only the children that keep them integral are walked.
    last_write = {}
    for step, gen in enumerate(group.neg, 1):
        for (_, b), _ in gen.units:
            last_write[b] = step
    closing = [[] for _ in range(n + 1)]
    for j in range(size):
        closing[last_write.get(j, 0)].append(j)
    writes = [
        [(j, [(a, s) for (a, b), s in gen.units if b == j]) for j in closing[step + 1]]
        for step, gen in enumerate(group.neg)
    ]
    h = [[0] * size for _ in range(size)]
    xs = [0] * n  # entry numerators on the current path; coordinate k reads xs[:k + 1]
    moving = closing[n]
    targets = [(i, j) for j in moving for i in range(size)]  # the order of `lines`
    fixed = [j for j in range(size) if j not in moving]
    # On SL_2 the fixed column of h is (0, p^(-mu - floor)), never a unit
    # below a node with more than one leaf, so the split is for rank two.
    split = group.rank == 2

    def last_node(lines, y0, r, leaves):
        """Hits among the leaves below a node that sets the last
        coordinate, by a Smith step split at the node; None when h has no
        unit in a fixed column.

        Leaf t of the node has child index y0 + t r, so its columns in
        `moving` are h0 + t dh, affine in t, with h0 and dh integral by
        the choice of (y0, r).  The first divisor must have valuation
        expect[0] - floor = 0, so a unit of h in a fixed column is a valid
        first pivot for every leaf; the Schur complement u h_ij - h_ij0
        h_i0j of that pivot is again affine in t, and its minimum
        valuation is the second divisor's (e1 above the floor).  Each leaf
        then only scans the moving complement entries mod p^(e1 + 1)."""
        pivot = next(((i, j) for j in fixed for i in range(size) if h[i][j] % p), None)
        if pivot is None:
            return None
        dh = [[0] * size for _ in range(size)]
        for (i, j), (a, b) in zip(targets, lines):
            h[i][j] = (a + y0 * b) // base
            dh[i][j] = r * b // base
        i0, j0 = pivot
        u, e1 = h[i0][j0], expect[1] - floor
        pe, pt = p**e1, p ** (e1 + 1)
        exact = False  # a fixed complement entry has valuation exactly e1
        slopes = []
        for i in range(size):
            if i == i0:
                continue
            f = h[i][j0]
            for j in range(size):
                if j == j0:
                    continue
                a = (u * h[i][j] - f * h[i0][j]) % pt
                b = (u * dh[i][j] - f * dh[i0][j]) % pt
                if b:
                    slopes.append((a, b))
                elif a % pe:
                    return 0
                elif a:
                    exact = True
        hits = 0
        for y in range(leaves):
            hit = exact
            for a, b in slopes:
                v = (a + y * b) % pt
                if v % pe:
                    break
                hit = hit or v
            else:
                hits += bool(hit)
        return hits

    def walk(step, m) -> int:
        for j in closing[step]:
            sj = scale[j]
            for i in range(size):
                h[i][j] = m[i][j] * sj // base
        if step == n:  # the one leaf of a last-coordinate node
            vals = smith_valuations(h, p, -floor, stop_after=group.rank, expect=expect)
            return int(vals is not None)
        units = group.neg[step].units
        w = windows[step]
        xs[step] = 0
        c0 = group.coordinate(step, xs, q)
        if w == 0:  # one child: build it and check the columns it closes
            nxt = [row[:] for row in m]
            group.right_multiply_generator(nxt, units, c0, q)
            for j in closing[step + 1]:
                sj = scale[j]
                for row in nxt:
                    if row[j] * sj % base:
                        return 0
            return walk(step + 1, nxt)
        # Child y has coordinate c0 + y dx, so the columns closing below
        # this node are h = (A + y B) / base; `lines` holds the pairs (A, B)
        # and `_progression` the children that keep them integral.
        dx = p ** (2 * width - w)
        lines = []
        for j, sources in writes[step]:
            sj = scale[j]
            for row in m:
                g = 0
                for a, s in sources:
                    g += s * (row[a] // q)
                g *= sj
                lines.append((row[j] * sj + c0 * g, dx * g))
        found = _progression(lines, p, e)
        if found is None:
            return 0
        y0, r = found
        ys = range(y0, p**w, r)
        hits = 0
        if step + 1 < n:
            for y in ys:
                xs[step] = y * dx
                nxt = [row[:] for row in m]
                group.right_multiply_generator(nxt, units, c0 + y * dx, q)
                hits += walk(step + 1, nxt)
            return hits
        if split:
            split_hits = last_node(lines, y0, r, len(ys))
            if split_hits is not None:
                return split_hits
        # the leaves differ only in the moving columns of h
        for y in ys:
            for (i, j), (a, b) in zip(targets, lines):
                h[i][j] = (a + y * b) // base
            vals = smith_valuations(h, p, -floor, stop_after=group.rank, expect=expect)
            hits += vals is not None
        return hits

    # the root q^n I is diagonal: its closed columns are integral when
    # their diagonal entries are
    if any(q**n * scale[j] % base for j in closing[0]):
        return 0
    return walk(0, group.identity(q**n))


# Largest box one cell may enumerate, by group: a box tuple costs very
# different work in the two groups, and the limit budgets about 3 s of it
# (timings on one 2-vCPU Xeon core).
# - sp4 admits every cell at p <= 11 and depth <= 4 (the largest, mu = (0, 0)
#   at depth 1, is 11^4 + 11^8 with its re-run, about 2.1e8, and counts in
#   about 3 s, the walk pruning most prefixes) and refuses p = 13, whose
#   mu = (0, 0) cells need 13^8, about 8.2e8.
# - sl2 has one coordinate, so every box tuple is a leaf that runs
#   `smith_valuations`, about 4 us each.  Its boxes are p^2 at most for
#   lam = (-2,): p = 829 (687,241 tuples) is the largest prime admitted.
ORACLE_BOX_LIMIT = {"sl2": 7 * 10**5, "sp4": 3 * 10**8}


def _walk_boxes(group, mu, lam, depth, p, check_stabilization) -> list[int]:
    """Tuples enumerated by each walk one cell runs: the box
    p^(sum of windows) at the depth, then the box at depth + 1 when the
    stabilization re-run will run (its windows differ)."""
    now = _coordinate_windows(group, mu, lam, depth)
    boxes = [p ** sum(now)]
    if check_stabilization:
        nxt = _coordinate_windows(group, mu, lam, depth + 1)
        if nxt != now:
            boxes.append(p ** sum(nxt))
    return boxes


def _budgeted_boxes(group, mu, lam, depth, p, check_stabilization) -> list[int]:
    """The boxes of `_walk_boxes`, refused with OracleError when their sum
    is over the group's ORACLE_BOX_LIMIT."""
    boxes = _walk_boxes(group, mu, lam, depth, p, check_stabilization)
    box = sum(boxes)
    limit = ORACLE_BOX_LIMIT[group.tag]
    if box > limit:
        raise OracleError(
            f"oracle cell mu={mu.coords} at p = {p}, depth {depth} would enumerate"
            f" {box:,} tuples, over its limit of {limit:,}"
        )
    return boxes


def box_estimate(
    mu: Cocharacter, lam: Cocharacter, depth: int, group: str, p: int
) -> int:
    """Tuples the walks of one stabilization-checked cell enumerate, known
    before any walk starts; `count_cosets` refuses a cell over its group's
    ORACLE_BOX_LIMIT."""
    return sum(_walk_boxes(ChevalleyRealization(group), mu, lam, depth, p, True))


def count_cosets(
    mu: Cocharacter,
    lam: Cocharacter,
    depth: int,
    group: str,
    p: int,
    check_stabilization: bool = True,
) -> CosetCountResult:
    """|S_{mu, lam}| at the given enumeration depth, with its mod-p class.

    Stabilization re-runs the count at depth + 1 and compares; when the
    pruning windows already sit strictly below both depths the two
    enumerations coincide element for element, so the re-run is skipped
    and the counts are equal by construction.  A cell whose walks would
    enumerate over its group's ORACLE_BOX_LIMIT is refused before any walk.
    """
    realization = ChevalleyRealization(group)
    if depth < 1:
        raise OracleError("depth must be >= 1")
    if not is_antidominant(lam):
        raise OracleError("target cell must be antidominant")
    try:
        above = leq(lam, mu)
    except RootDatumError:  # rank mismatch, or a similitude part in mu - lam
        above = False
    if not (above and is_antidominant(mu)):
        raise OracleError("mu must be antidominant and >= lam")
    boxes = _budgeted_boxes(realization, mu, lam, depth, p, check_stabilization)
    raw = _count_in_cell(realization, mu, lam, depth, p)
    stabilized = True
    if len(boxes) == 2:
        stabilized = _count_in_cell(realization, mu, lam, depth + 1, p) == raw
    return CosetCountResult(mu, lam, raw, raw % p, depth, stabilized)


def oracle_rows(lam: Cocharacter, depth: int, group: str, p: int):
    """Raw and mod-p counts for every mu in the support window, for the CLI.
    Every cell's budget is checked before any cell is counted."""
    mus = sorted(antidominant_above(lam), key=lambda m: m.coords)
    realization = ChevalleyRealization(group)
    for mu in mus:
        _budgeted_boxes(realization, mu, lam, depth, p, True)
    return [count_cosets(mu, lam, depth, group, p) for mu in mus]


def reductive_satake_row(
    lam: Cocharacter, depth: int, group: str, p: int
) -> TorusHeckeElement:
    """The trivial-weight Satake row of T_lam: mod-p coset counts against
    every antidominant mu >= lam.  Raises StabilizationError if any count
    has not stabilized at this depth."""
    coeffs = {}
    for res in oracle_rows(lam, depth, group, p):
        if not res.stabilized:
            raise StabilizationError(
                f"count at mu={res.mu.coords} changed between depths {depth} and {depth + 1}"
            )
        coeffs[res.mu.coords] = res.count_mod_p
    return TorusHeckeElement(p, coeffs)


def verify_metaplectic_pipeline(i: int, n: int, p: int, depth: int = 4) -> bool:
    """Reductive counts, then the parity filter for the long root, against
    the symbolically computed metaplectic Satake value of T_{2 lam}.

    For short i the reductive row must already equal the target (the
    filter would remove nothing: the shifted support differs by a short
    coroot, of coordinate sum zero).  For i = n the filter implements the
    cover's parity constraint and must cut the row down to tau_{2 lam}.
    """
    if n not in (1, 2):
        raise OracleError("the counting oracle runs at desk scale: n in {1, 2}")
    if not 1 <= i <= n:
        raise OracleError(f"index {i} out of range 1..{n}")
    group = "sl2" if n == 1 else "sp4"
    lam = t2lambda_base(i, n)
    two_lam = 2 * lam
    row = reductive_satake_row(two_lam, depth, group, p)
    target = metaplectic_satake_T2lambda(i, n, p)
    if i == n:
        return parity_filter(row, two_lam) == target
    return row == target
