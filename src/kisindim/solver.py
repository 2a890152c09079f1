"""Exact dimension computation by lattice-point optimization.

The search runs in mu-coordinates: the top row is (part of) the query, the
lower rows are enumerated row by row under the order constraints
mu_{i-1,j} <= mu_{i,j} <= mu_{i-1,j-1}, the integral row congruences, and
the remaining cone inequalities, the scaled-q rows (integer linear forms).
They are enforced as caps, not checked on complete rows: once rows r-2 and
r-1 are fixed, each level-(r-1) row reads sum_s c_{j,s} mu_{r,s} <= S_j
with c_{j,s} = b for s <= j and 1 otherwise, so every cell of row r gets an
integer upper bound from the slacks left by the cells before it (bounds
propagation), and the level-d row is a lower bound on mu_{d,d}.  No row
is entered with a negative slack: the look-ahead below already required
every slack of row r >= 3, its cells at their lower bounds, to be >= 0
when it fixed the last cell of row r-1.

The search also looks one row ahead.  Before the values of a cell of row
r < d are walked, its lower end is raised to the least value at which
row r, with the cells after it at their order caps mu_{r-1,j-1}, leaves
every level-r slack >= 0, the row below starting at row r shifted (and
raised by the level-d row when it is row d).  Each of these slacks is
nondecreasing in every cell of row r: through the row below, a cell
enters each slack with a coefficient of at least 1, and the level-d bound
on mu_{d,d} grows by at most 1 per unit of a cell, which each slack
weighs by at least one more than it weighs mu_{d,d}.  So a skipped value
has no feasible completion, and every incumbent, result and witness is
unchanged.  The least value is found by jumps of the deficit over the
rise of the least slack per unit of the cell, which pass no value that
fits: with the later cells at their caps that slack is rem_0 below, which
rises by b+1 per unit of the first cell and 1 per unit of a later one (at
most b+1 per unit when row r+1 is row d, through the level-d raise).

Each row is set up in O(d) by the closed forms of `_row_slacks`.  With
P, Q the rows r-2, r-1 and R the lower bounds of row r, the slacks are
rem_0 = (b-1)(Q_0 - P_0) + 2 sum Q - sum P - sum R and
rem_{k+1} = rem_k + (b-1)(Q_{k+1} - P_{k+1} + Q_k - R_k); the level-d row
is the same form with no row below it, (b+1) mu_{d,d} >= b Q_0 + Q_1.
Once per (d, b), `_prove` evaluates these same forms, each level on rows
i-1..i+1 alone, at one integer triangle, proves them there to be the games
of Q, and keeps only the verdict: no row is stored.  The witness checks
decide membership in Q from the games themselves (`km.in_cone_q`), so
they test the search against Q's definition, not against its own rows.

One lower bound on the unfilled cells, rows r..d, prunes branches that
cannot beat the incumbent.  With Q = row r-1, rows r-1..d are a suffix of
the d-system, d' = d-r+2, so by the top-row bound below, certified on
every suffix, their dim is at most floor(<2 rho' | Q> / (b+1)), hence the
unfilled cells sum to at least
sum_t (d'-1-t) Q_t - floor(<2 rho' | Q> / (b+1)).  Q is nonincreasing, so
<2 rho' | Q> >= 0 and the bound is at least sum_t t Q_t, the sum of the
entries above the unfilled cells.

The e-bounded and dominance-bounded families take a maximum over many top
rows.  Each top has the bound floor(<2 rho | top> / (b+1)), with
2 rho = (d-1, d-3, ..., 1-d); the tops are visited by descending bound and
the loop stops once a bound is strictly below the best value found, so
every top that can tie the best is still solved and the lexicographic
witness tie-break is unchanged.  A solved top above its bound raises
AssertionError.  Each top is searched with the best value so far as a
floor: a branch is cut when its bound is strictly below it, so a top that
can tie still finds its own first optimum.

The bounds are proved, not assumed: `_prove` runs once per (d, b) at the
entry of the search and, once the rows are proved to be Q, raises
AssertionError unless for every suffix of rows s-1..d, s = 2..d,
(b+1)(bound - dim) of the suffix is the sum of its scaled-q rows q(i, j),
i >= s, weighted by i-s+1, a closed-form Farkas certificate checked by
integer sums at the same triangle.

For le_e only the tops with mu_d <= b-2 are listed (`_enumerate_le_e_tops`);
each listed top costs one node.  Nothing is kept between queries, so node
counts and budget refusals are a function of the query and the budget alone.

Results are exact integers when h != 0 and intervals of width d(d-1)/2
when h = 0; a query that would exceed the node budget raises the typed
`BudgetExceeded` instead of approximating.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import ceil

from . import bounds as bd
from . import kisin_model as km
from .polyhedra import Frozen, _idot

DEFAULT_BUDGET = 5_000_000


class BudgetExceeded(Exception):
    """The enumeration budget ran out; no approximation is returned."""


class DimQuery(Frozen):
    """Which variety family to measure: e-bounded ("le_e" with e), exact
    divisor type ("mu"), or dominance-bounded type ("le_mu")."""

    def __init__(self, instance: km.KisinInstance, kind: str, e: int | None = None,
                 mu: tuple[int, ...] | None = None):
        if kind not in ("le_e", "mu", "le_mu"):
            raise ValueError(f"unknown query kind {kind!r}")
        if kind == "le_e":
            if e is None or e < 0:
                raise ValueError("le_e queries need e >= 0")
        else:
            if mu is None or len(mu) != instance.d:
                raise ValueError("mu must have d entries")
            if list(mu) != sorted(mu, reverse=True):
                raise ValueError("mu must be nonincreasing")
        self._store(locals())

    def to_dict(self):
        out = {"d": self.instance.d, "b": self.instance.b,
               "h_zero": self.instance.h_zero, "target": self.kind}
        if self.kind == "le_e":
            out["e"] = self.e
        else:
            out["mu"] = list(self.mu)
        return out


class DimResult(Frozen):
    def __init__(self, status: str,  # "exact" | "interval" | "empty"
                 dim: int | None = None, interval: tuple[int, int] | None = None,
                 witness: km.MuTriangle | None = None, nodes: int = 0,
                 checks: dict | None = None):
        self._store(locals())

    @property
    def max_dim_phi(self) -> int | None:
        """The optimized stratum dimension (the exact value when h != 0,
        the lower endpoint when h = 0)."""
        if self.status == "empty":
            return None
        return self.dim if self.status == "exact" else self.interval[0]

    def to_dict(self):
        out = {"status": self.status, "nodes": self.nodes}
        if self.status == "exact":
            out["dim"] = self.dim
        elif self.status == "interval":
            out["dim"] = list(self.interval)
        if self.witness is not None:
            out["witness"] = self.witness.to_dict()["mu"]
        if self.checks:
            out["checks"] = self.checks
        return out


class _Budget:
    __slots__ = ("left",)

    def __init__(self, budget):
        self.left = budget

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise BudgetExceeded("enumeration budget exhausted")


# ---------------------------------------------------------------------------
# the mu-coordinate constraint system
# ---------------------------------------------------------------------------

def _row_slacks(P, Q, R, b):
    """The level-(r-1) scaled-q rows with rows r-2, r-1, r equal to P, Q, R,
    in O(d): entry k is b(b-1)(q_{r-1,r-1+k} - q_{r-2,r-2+k}), where
    b(b-1) q_{i,j} = b mu_{i,i} + sum_{i<s<=j} b (mu_{i,s} - mu_{i+1,s})
    + sum_{s>j} (mu_{i,s} - mu_{i+1,s}).  From one row to the next, each of
    the two q-forms weighs one more column by b instead of 1, hence the
    steps of (b-1) times a column."""
    rem = [(b - 1) * (Q[0] - P[0]) + 2 * sum(Q) - sum(P) - sum(R)]
    for k, x in enumerate(R):
        rem.append(rem[k] + (b - 1) * (Q[k + 1] - P[k + 1] + Q[k] - x))
    return rem


def _below(Q, b, last):
    """Lower bounds on the row under Q: the order bounds Q[1:] and, when
    that row is row d, the level-d row, which has no row below it: its
    slack with mu_{d,d} = 0 is -(b Q_0 + Q_1), and (b+1) mu_{d,d} must make
    up for it."""
    R = Q[1:]
    if last:
        R[0] = max(R[0], -(_row_slacks(Q, (0,), (), b)[0] // (b + 1)))
    return R


def _top_bound(top, b):
    """floor(<2 rho | top> / (b+1)): an upper bound on dim(phi) over the
    triangles with this top row, once _prove(d, b) has returned.  2 rho
    sums to 0, so a constant shift of the top does not change
    <2 rho | top>."""
    return _idot(bd.two_rho(len(top)), top) // (b + 1)


@lru_cache(maxsize=1024)
def _prove(d: int, b: int) -> bool:
    """Prove the preconditions of the search for (d, b), or raise
    AssertionError; only the verdict is kept.

    Every check compares two integer linear forms on the mu-cells by their
    values at one integer triangle, v = (B^0, ..., B^{n-1}) in row-major
    order, n = d(d+1)/2.  When every coefficient of the difference is below
    B in absolute value, equal values make equal forms: the least nonzero
    coefficient would be a multiple of B (Kronecker, 1882; Schoenhage,
    1982).  So B is a power of two above 2C, with C = 6 (bd)^2 a bound on
    the coefficients of every form compared, read off the code of each map
    read at v.  No coefficient of `_q_of` or `_mu_of` exceeds b in absolute
    value, and a row of `_mu_of` has at most 2(j-i)+2 terms, so mu(q(v))
    has coefficients at most b((2d-1)b + 1) <= 2d b^2, as b(b-1) v has.  A
    cell enters the first slack of `_row_slacks` with a coefficient of at
    most b+1 and at most two of its steps, each adding at most b-1, so a
    slack's are at most 2b; so are a game's, the difference of two cells,
    and an order row's, scaled, are at most b-1.  A cell enters the slacks
    of three levels, at most d-1 per level, each weighted at most d-1, so
    a certificate's are at most 6b(d-1)^2; the target's are at most
    (b+2)(d-1), as two_rho and the top-row weights of `km._dim_form` are
    at most d-1 and the lower ones 1.

    (a) The transforms are inverse: mu(q(v)) = b(b-1) v, with q the
    running sum `km._q_of` (b(b-1) q) and mu the running sum `km._mu_of`.

    (b) The rows the search sets up are the games of Q, in order and with
    fixed scales.  For each level i = 2..d and j = 0..d-i, with P, Q, R
    the rows i-1, i, i+1 of v (row d+1 empty): (b-1)(Q[j] - P[j+1]), the
    slack j of `_row_slacks` and P[j] - Q[j] are games I, II and III of
    `km._game_pairs` at (i-1, i-1+j), the q-games read at q(v).

    (c) The top-row bound has a Farkas certificate on every suffix of
    those rows.  For s = 2..d, rows s-1..d with d' = d-s+2: the target
    <2 rho' | row s-1> - (b+1) dim'(rows s-1..d) is sum (i-s+1) q(i, j)
    over the slacks q(i, j) of the levels i >= s, so those rows of a
    triangle the search accepts have dim' at most the bound of row s-1.
    True at every (d, b): q(i, j) = Q_{i,j} - Q_{i-1,j-1} with
    Q = b(b-1) q, so the sum telescopes along each diagonal j - i.  The
    sums run from s = d down: level holds sum_{i >= s} q(i, j), weighted
    adds it once per suffix it is in, and lower holds the cells of rows
    s..d, which dim' weighs alike.

    Memory: v, q(v) and mu(q(v)) are three lists of n cells, cell k of
    about k t bits, so about d^4 log(bd) bits; a cold `dim --d 100 --b 2
    --e 1 --budget 10` peaks at 112 MB max RSS, and 224 MB at d = 120."""
    inst = km.KisinInstance(d, b)
    t = (12 * (b * d) ** 2).bit_length()  # B = 2^t > 2C
    mu = [1 << t * k for k in range(inst.dim_E)]
    q = km._q_of(mu, d, b)
    back = km._mu_of(q, d, b)
    if len(back) != len(mu) or any(x != b * (b - 1) * y for x, y in zip(back, mu)):
        raise AssertionError(f"the two transforms disagree at d={d} b={b}")
    at = {km.QPoint.KEY: q, km.MuTriangle.KEY: mu}
    games = (at[key][x] - at[key][y] for key, x, y in km._game_pairs(inst))
    rows = [mu[inst.cell_index(i, i):inst.cell_index(i, d) + 1] for i in range(1, d + 1)] + [[]]
    levels = []  # the sum of the slacks of each level i = 2..d at v

    def search():
        for i in range(2, d + 1):
            P, Q, R = rows[i - 2:i + 1]
            rem = _row_slacks(P, Q, R, b)
            levels.append(sum(rem))
            for j, x in enumerate(rem):
                yield from ((b - 1) * (Q[j] - P[j + 1]), x, P[j] - Q[j])

    if any(x != y for x, y in zip_longest(search(), games)):
        raise AssertionError(f"the search's rows and the games of Q disagree at d={d} b={b}")
    level = weighted = lower = 0
    for s in range(d, 1, -1):
        level += levels[s - 2]  # + q(s, s..d)
        weighted += level
        top, lower = rows[s - 2], lower + sum(rows[s - 1])  # lower: the cells of rows s..d
        if weighted != (_idot(bd.two_rho(len(top)), top)
                        - (b + 1) * km._dim_form((top, (lower,)), len(top))):
            raise AssertionError(f"the top-row bound has no certificate at d={d} b={b}")
    return True


# ---------------------------------------------------------------------------
# the core search: maximal dim(phi) with a prescribed top row
# ---------------------------------------------------------------------------

def _max_dim_top(inst: km.KisinInstance, top, budget: _Budget, floor: int | None = None):
    """(best dim, witness rows) over lower rows for a fixed top row, or
    (None, None) when infeasible.  top must be nonincreasing integers with
    row sum divisible by b-1.  A floor cuts every branch whose bound is
    below it: the result is the top's own, witness included, when that
    reaches the floor, and (None, None) when not.  Shifting the top by a
    multiple of b-1 leaves every slack, cap, residue walk and prune
    unchanged, so it shifts the rows by the same amount after the same
    number of nodes."""
    d, b = inst.d, inst.b
    const = km._dim_form([top], d)
    rows = [list(top)] + [[0] * (d - i + 1) for i in range(2, d + 1)]
    best = [None, None]
    need = [floor]  # the least value a new incumbent must reach (None: any)

    def remaining_bound(r):
        # a lower bound on the sum of the unfilled cells, rows r..d, from
        # Q = row r-1: rows r-1..d are a suffix of the d-system, on which
        # _prove certified the top-row bound, so their dim, sum_t (n-t) Q[t] = x + w
        # minus the unfilled cells, n = d-r+1, is at most floor(x / (b+1)),
        # with w = sum_t t Q[t] and x = <2 rho' | Q> = sum_t (n-2t) Q[t]
        Q = rows[r - 2]
        w = sum(t * x for t, x in enumerate(Q))
        x = (d - r + 1) * sum(Q) - 2 * w
        return x + w - x // (b + 1)

    def fill_row(r, partial_sum):
        if r > d:
            value = const - partial_sum
            if need[0] is None or value >= need[0]:
                best[:] = value, [row[:] for row in rows]
                need[0] = value + 1
            return
        # prune: even the smallest legal completion cannot reach the need
        if need[0] is not None and const - partial_sum - remaining_bound(r) < need[0]:
            return
        prev, row = rows[r - 2], rows[r - 1]
        n = d - r + 1  # cells of row r; cell idx is mu_{r, r+idx}
        lows = _below(prev, b, r == d)
        if r >= 3:
            # the level-(r-1) row j = r-1+k reads sum_s c_{j,s} mu_{r,s} <= S_j,
            # with c_{j,s} = b for s <= j and 1 for s > j; rem[k] is its slack
            # with every cell of row r at its lower bound
            rem = _row_slacks(rows[r - 3], prev, lows, b)
        else:
            # row 2 meets no scaled-q row: slacks that no choice of its cells uses up
            rem = [b * (prev[0] - prev[-1])] * (n + 1)
        # raising cell s by one spends b of the slack of each row j >= s and 1
        # of each row j < s; every cell before s spent b of each row j >= s
        tail = [min(rem[k + 1:]) // b for k in range(n)]

        def fit(idx, v, hi):
            # look ahead to row r+1: the least v' >= v for cell idx at which
            # row r, the later cells at their caps prev[idx'], leaves every
            # level-r slack >= 0 (> hi if none); a jump divides the deficit
            # by the largest rise of the least slack per unit of the cell
            probe = row[:idx] + [v] + prev[idx + 1:n]
            rise = b + 1 if idx == 0 or r + 1 == d else 1
            while v <= hi:
                probe[idx] = v
                short = min(_row_slacks(prev, probe, _below(probe, b, r + 1 == d), b))
                if short >= 0:
                    break
                v -= short // rise
            return v

        def fill_cell(idx, row_sum, used, slack):
            # used: how far the cells set so far rose above their lower bounds;
            # slack: the least slack left among the rows j < s, s = r + idx
            if idx == n:
                if row_sum % (b - 1) == 0:
                    fill_row(r + 1, partial_sum + row_sum)
                return
            lo = lows[idx]
            hi = min(prev[idx], lo + min(slack, tail[idx] - used))
            start = fit(idx, lo, hi) if r < d else lo
            if idx == n - 1:  # last cell of the row: walk its residue class
                start += (-row_sum - start) % (b - 1)
                step = b - 1
            else:
                step = 1
            for v in range(start, hi + 1, step):
                budget.spend()
                row[idx] = v
                up = used + v - lo
                fill_cell(idx + 1, row_sum + v, up,
                          min(slack - v + lo, rem[idx + 1] - b * up))
            row[idx] = 0

        fill_cell(0, 0, 0, rem[0])

    if sum(top) % (b - 1) != 0:
        return None, None
    fill_row(2, 0)
    return best[0], best[1]


def _enumerate_le_e_tops(d, e, b):
    """Nonincreasing tuples e >= mu_1 >= ... >= mu_d >= 0 with divisible sum
    and mu_d <= b-2, the only tops of the e-bounded family that can win.  A
    top with mu_d >= b-1, shifted down by b-1, is also in the family: the
    shift keeps the divisibility, the top bound and (the search being
    shift-equivariant) the dim, and it moves the witness down in every
    cell.  So the skipped top can neither beat its shift nor win a tie."""

    def rec(prefix, last, total):
        if len(prefix) == d:
            if total % (b - 1) == 0:
                yield tuple(prefix)
            return
        if len(prefix) == d - 1:
            last = min(last, b - 2)
        for v in range(last, -1, -1):
            yield from rec(prefix + [v], v, total + v)

    yield from rec([], e, 0)


def _enumerate_dominated_tops(mu, b):
    """Nonincreasing integral mu' dominated by mu (prefix sums bounded,
    equal totals)."""
    d = len(mu)
    total = sum(mu)
    prefixes = [sum(mu[:t]) for t in range(d + 1)]

    def rec(prefix, last, run):
        t = len(prefix)
        if t == d:
            if run == total:
                yield tuple(prefix)
            return
        rest = d - t
        for v in range(min(last, prefixes[t + 1] - run), mu[-1] - 1, -1):
            # the remaining entries are <= v, so v*rest must still reach total
            if run + v * rest < total:
                break
            yield from rec(prefix + [v], v, run + v)

    yield from rec([], mu[0], 0)


def dim_exact(query: DimQuery, budget: int = DEFAULT_BUDGET) -> DimResult:
    """Exact dimension (h != 0) or interval (h = 0) for the query, by
    maximizing dim(phi) over the lattice points of the feasible region."""
    inst = query.instance
    d, b = inst.d, inst.b
    if budget < 0:
        raise ValueError("the node budget must be >= 0")
    _prove(d, b)  # where the search is valid, decided before any top is listed
    tracker = _Budget(budget)
    if query.kind == "le_e":
        listing = _enumerate_le_e_tops(d, query.e, b)
    elif sum(query.mu) % (b - 1) != 0:
        listing = ()
    else:
        listing = (tuple(query.mu),) if query.kind == "mu" else \
            _enumerate_dominated_tops(tuple(query.mu), b)
    tops = []
    for top in listing:  # one node per top as it is listed: the budget bounds the listing
        tracker.spend()
        tops.append(top)
    # best bound first; the sort is stable, so ties keep enumeration order
    tops.sort(key=lambda top: _top_bound(top, b), reverse=True)
    # the incumbent is kept as its rows: rows of equal lengths compare as the
    # row-major cells of their triangles do; only the winner becomes one
    best, best_rows = None, None
    for top in tops:
        bound = _top_bound(top, b)
        if best is not None and bound < best:
            break  # no later top can reach the incumbent, let alone tie it
        # seeded with the incumbent: a top that cannot reach it is cut early,
        # one that can tie still finds its own first optimum
        value, rows = _max_dim_top(inst, top, tracker, best)
        if value is None:
            continue
        if value > bound:
            raise AssertionError(
                f"top {top} reaches dim {value} above its certified bound "
                f"{bound} at d={d} b={b}")
        if best is None or value > best or (value == best and rows < best_rows):
            best, best_rows = value, rows
    nodes = budget - tracker.left
    if best is None:
        return DimResult("empty", nodes=nodes)
    witness = km.MuTriangle(inst, [x for row in best_rows for x in row])
    checks = _verify_witness(witness, best)
    if inst.h_zero:
        return DimResult("interval", interval=(best, best + d * (d - 1) // 2),
                         witness=witness, nodes=nodes, checks=checks)
    return DimResult("exact", dim=best, witness=witness, nodes=nodes, checks=checks)


def _verify_witness(tri, value):
    checks = {
        "witness_in_Q": km.in_cone_q(tri),
        "witness_in_R": tri.in_lattice(),
        "witness_dim": km.dim_phi(tri) == value,
    }
    if not all(checks.values()):
        raise AssertionError(f"witness verification failed: {checks}")
    return checks


# ---------------------------------------------------------------------------
# closed forms for d = 2 and d = 3
# ---------------------------------------------------------------------------

def dim_d2_closed(mu1: int, mu2: int, inst: km.KisinInstance):
    """Closed form of the optimized stratum dimension for d = 2: None when
    b-1 does not divide mu1+mu2, else mu1 - (b-1)*ceil((b mu1 + mu2)/(b^2-1)).

    A negative value signals the empty variety (no lattice point exists).
    """
    if mu1 < mu2:
        raise ValueError("mu1 >= mu2 required")
    b = inst.b
    if (mu1 + mu2) % (b - 1) != 0:
        return None
    return mu1 - (b - 1) * ceil(Fraction(b * mu1 + mu2, b * b - 1))


def dim_d3_closed(mu1: int, mu2: int, mu3: int, inst: km.KisinInstance):
    """(value, valid) for d = 3.  The formula computes the optimized stratum
    dimension; `valid` records whether the shifted triple
    (mu1 - b^2 - b - 1, mu2, mu3 + b^2 + b + 1) is integrally b-regular,
    which is the proven range of the formula."""
    if not (mu1 >= mu2 >= mu3):
        raise ValueError("mu must be nonincreasing")
    b = inst.b
    shift = b * b + b + 1
    valid = bd.regularity((mu1 - shift, mu2, mu3 + shift), inst).integrally_b_regular
    x = Fraction(b * mu1 + mu3, b * b - 1)
    defx = ceil(x) - x
    # the branch value with the larger m wins; picking the max reproduces
    # the optimizer's case split at def = b/(b+1) exactly
    m = max(defx / b, defx - Fraction(b - 1, b + 1))
    value = (2 * mu1 + mu2 - 2 * (b - 1) * ceil(x)
             - (b - 1) * ceil(Fraction(mu2, b - 1) - (b + 1) * m))
    return value, valid


# ---------------------------------------------------------------------------
# cross-method consistency suite
# ---------------------------------------------------------------------------

SUITE_D_VALUES = (2, 3)
SUITE_B_VALUES = (2, 3)
SUITE_E_MAX = 8
SUITE_MU_SAMPLES = 4


def consistency_suite(seed=0, budget=DEFAULT_BUDGET) -> dict:
    """Run the cross-method checks on the SUITE_* grid and report failures
    with minimal counterexamples.

    (a) theorem sandwiches for the e-bounded family, (b) divisor-type
    congruences and the minimum-over-permutations bound, (c) the d = 2
    periodicity step, (d) the dominance family as a maximum of divisor
    types.
    """
    import random

    rng = random.Random(seed)
    failures = []
    checks = 0

    def fail(name, **ctx):
        failures.append({"check": name, **ctx})

    for d in SUITE_D_VALUES:
        for b in SUITE_B_VALUES:
            inst = km.KisinInstance(d, b)
            # (a) sandwich over e
            dims = []
            for e in range(SUITE_E_MAX + 1):
                res = dim_exact(DimQuery(inst, "le_e", e=e), budget)
                tb = bd.theorem_bounds("le_e", e, inst)
                dims.append(res.dim)
                checks += 1
                if not (tb["lower"] <= res.dim <= tb["upper"]):
                    fail("le_e_sandwich", d=d, b=b, e=e, dim=res.dim,
                         lower=str(tb["lower"]), upper=str(tb["upper"]))
            if any(x > y for x, y in zip(dims, dims[1:])):
                fail("le_e_monotone", d=d, b=b, dims=dims)
            # (b) congruence + upper bound on random integrally regular mu
            for _ in range(SUITE_MU_SAMPLES):
                mu = _random_integrally_regular(inst, rng, span=3 * b)
                if mu is None:
                    continue
                res = dim_exact(DimQuery(inst, "mu", mu=mu), budget)
                checks += 1
                if res.status == "empty":
                    fail("mu_regular_feasible", d=d, b=b, mu=mu)
                    continue
                if (res.dim - (-sum(i * m for i, m in enumerate(mu, 1)))) % (b - 1) != 0:
                    fail("mu_congruence", d=d, b=b, mu=mu, dim=res.dim)
                if b >= inst.b0:
                    val, _ = bd.min_over_permutations(mu, inst)
                    if res.dim > inst.epsilon_slack + val:
                        fail("mu_min_w_upper", d=d, b=b, mu=mu, dim=res.dim,
                             bound=str(val))
            # (d) dominance family = max over dominated divisor types
            mu = tuple(sorted((rng.randint(0, 4) for _ in range(d)), reverse=True))
            while sum(mu) % (b - 1) != 0:
                mu = tuple(sorted((rng.randint(0, 4) for _ in range(d)), reverse=True))
            res = dim_exact(DimQuery(inst, "le_mu", mu=mu), budget)
            sub = [dim_exact(DimQuery(inst, "mu", mu=m2), budget)
                   for m2 in _enumerate_dominated_tops(mu, b)]
            vals = [r.max_dim_phi for r in sub if r.status != "empty"]
            checks += 1
            best = max(vals) if vals else None
            got = res.max_dim_phi if res.status != "empty" else None
            if best != got:
                fail("le_mu_vs_mu_max", d=d, b=b, mu=mu, le_mu=got, max_mu=best)
    # (c) periodicity in the d = 2 family
    for b in SUITE_B_VALUES:
        inst = km.KisinInstance(2, b)
        period, jump = b * b - 1, b - 1
        base = [dim_exact(DimQuery(inst, "le_e", e=e), budget).dim
                for e in range(SUITE_E_MAX + period + 1)]
        for e in range(SUITE_E_MAX + 1):
            checks += 1
            if base[e + period] != base[e] + jump:
                fail("d2_periodicity", b=b, e=e, vals=(base[e], base[e + period]))
    return {"passed": not failures, "checks": checks, "failures": failures}


def _random_integrally_regular(inst, rng, span):
    d, b = inst.d, inst.b
    for _ in range(200):
        gaps = [rng.randint(0, span) for _ in range(d - 1)]
        mu = [0]
        for g in reversed(gaps):
            mu.append(mu[-1] + g)
        mu = tuple(reversed(mu))
        r = bd.regularity(mu, inst)
        if r.b_regular:
            # shifting by a constant keeps b-regularity; pick one that fixes
            # the divisibility of the total
            for t in range(b - 1):
                cand = tuple(x + t for x in mu)
                if sum(cand) % (b - 1) == 0:
                    return cand
    return None
