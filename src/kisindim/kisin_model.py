"""The model's specific objects: triangular q/mu coordinates and their
transforms, the cones they cut out, the dimension functional, and the
piecewise-affine profile functions a coordinate point encodes.

A point of E = R^I (I the triangle {(i,j) : 1 <= i <= j <= d}) is stored
either in q-coordinates (`QPoint`) or mu-coordinates (`MuTriangle`); the
two are exact mutually-inverse linear transforms of one another.  The cone
Q (games I, II, III below) is exactly the image of the valid profile
tuples, and on lattice points the dimension functional computes the
stratum dimension (exactly when h != 0, up to a d(d-1)/2 slack when
h = 0).

A triangle's cells are Fractions, but the work on them is integer: the
transforms and the dimension functional apply sparse integer rows, kept
per (d, b), to the cells' numerators over their common denominator, and
membership in Q takes the games' values at those numerators and at their
integer image b(b-1) q.  A Fraction is built only for each output cell of
a transform and for the value of dim(phi).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import perm as pm
from .polyhedra import Frozen, IVec, SRow, Vec, _idot, _sdot, _ssum, fmt_frac, frac, scaled_ints


class KisinInstance(Frozen):
    """Problem size d, Frobenius exponent base b, and the h = 0 flag that
    switches exact stratum dimensions to intervals of width d(d-1)/2."""

    def __init__(self, d: int, b: int, h_zero: bool = False):
        if d < 1:
            raise ValueError("d must be >= 1")
        if b < 2:
            raise ValueError("b must be >= 2")
        self._store(locals())

    @property
    def b0(self) -> int:
        """Validity threshold 1 + floor((d-1)^2/4) for the extremal-point
        and cone-equality identities."""
        return 1 + (self.d - 1) ** 2 // 4

    @property
    def epsilon_slack(self) -> int:
        """d(d-1)/2 if h = 0, else 0."""
        return self.d * (self.d - 1) // 2 if self.h_zero else 0

    @property
    def cells(self) -> list[tuple[int, int]]:
        return pm.index_set(self.d)

    def cell_index(self, i: int, j: int) -> int:
        if not (1 <= i <= j <= self.d):
            raise KeyError((i, j))
        # row-major position inside the triangle
        return (i - 1) * self.d - (i - 1) * (i - 2) // 2 + (j - i)

    @property
    def dim_E(self) -> int:
        return self.d * (self.d + 1) // 2


class _Triangle(Frozen):
    """One rational per cell of the triangle I, in row-major cell order: a
    record whose fields are the instance and the value tuple.  `KEY` names
    the coordinates in JSON."""

    KEY: str

    def __init__(self, instance: KisinInstance, values):
        if isinstance(values, dict):
            vals = tuple(frac(values[c]) for c in instance.cells)
        else:
            vals = tuple(frac(v) for v in values)
        if len(vals) != instance.dim_E:
            raise ValueError(f"expected {instance.dim_E} values, got {len(vals)}")
        object.__setattr__(self, "instance", instance)
        object.__setattr__(self, "values", vals)

    def __getitem__(self, cell):
        i, j = cell
        return self.values[self.instance.cell_index(i, j)]

    def to_dict(self) -> dict:
        inst = self.instance
        return {"d": inst.d, "b": inst.b,
                self.KEY: {f"{i},{j}": fmt_frac(self[(i, j)]) for (i, j) in inst.cells}}


class QPoint(_Triangle):
    """A point of E in q-coordinates."""

    KEY = "q"


class MuTriangle(_Triangle):
    """A point of E in mu-coordinates; the top row is the elementary-divisor
    exponent vector."""

    KEY = "mu"

    @property
    def top_row(self) -> Vec:
        return tuple(self[(1, j)] for j in range(1, self.instance.d + 1))

    def in_lattice(self) -> bool:
        """All mu_{i,j} integral and b-1 divides every row sum; this holds
        exactly when q_from_mu(self) lies in the q-lattice, q_{i,j} in (1/b)Z
        for all cells and q_{i,d} in Z.  With R_i the sum of row i,
        R_i = (b-1)(q_{i,d} + ... + q_{d,d}) and b q_{i,j} = b q_{i,d} -
        sum_{s>j} (mu_{i,s} - mu_{i+1,s}) (row d+1 empty), and mu_from_q has
        integer coefficients on the b q_{i,j} and the q_{j,d}."""
        b, d = self.instance.b, self.instance.d
        x, den = scaled_ints(self.values)
        at = self.instance.cell_index
        return den == 1 and all(sum(x[at(i, i):at(i, d) + 1]) % (b - 1) == 0
                                for i in range(1, d + 1))


# ---------------------------------------------------------------------------
# the linear transforms between the two coordinate systems
# ---------------------------------------------------------------------------

def mu_from_q(q: QPoint) -> MuTriangle:
    """mu_{i,j} = b q_{j,j} - q_{j,d} + b * sum_{s=i}^{j-1} (q_{s,j} - q_{s,j-1})."""
    return MuTriangle(q.instance, _apply(q, 0, 1))


def q_from_mu(m: MuTriangle) -> QPoint:
    """q_{i,j} = (b mu_{i,i} + b sum_{s=i+1}^{j}(mu_{i,s}-mu_{i+1,s})
    + sum_{s=j+1}^{d}(mu_{i,s}-mu_{i+1,s})) / (b(b-1))."""
    b = m.instance.b
    return QPoint(m.instance, _apply(m, 1, b * (b - 1)))


def _apply(x: _Triangle, k: int, scale: int) -> list[Fraction]:
    """The rows k of `_transform_rows` applied to the numerators of x over
    their common denominator, each image divided by that denominator times
    scale: the one place the transforms build Fractions."""
    inst = x.instance
    nums, den = scaled_ints(x.values)
    den *= scale
    return [Fraction(_sdot(row, nums), den) for row in _transform_rows(inst.d, inst.b)[k]]


@lru_cache(maxsize=32)
def _transform_rows(d: int, b: int) -> tuple[tuple[SRow, ...], tuple[SRow, ...]]:
    """The sparse integer rows of the two transforms, one per cell in
    row-major order: the q-cell forms of mu_{i,j} (`_mu_cell_terms`) and the
    mu-cell forms of b(b-1) q_{i,j} (`_q_cell_terms`).

    The package's one cache whose entries grow with d: an entry holds about
    d^3 (cell, coefficient) pairs, at most 125 d^3 bytes under tracemalloc
    (6.9 kB at (4, 2), 20.5 MB at (60, 2), 26.1 MB at (60, 10^20)).  So its
    32 entries keep at most 4,000 D^3 bytes, D the largest d served: under
    1 MB for D = 6, 13.5 MB for D = 15, 864 MB for D = 60.  32 is twice the
    16 (d, b) of the benchmark's long-running mixed session."""
    inst = KisinInstance(d, b)
    return tuple(tuple(_int_row(inst, terms(inst, i, j)) for (i, j) in inst.cells)
                 for terms in (_mu_cell_terms, _q_cell_terms))


def _mu_cell_terms(inst: KisinInstance, i: int, j: int):
    """mu_{i,j} as (coefficient, q-cell) terms."""
    b = inst.b
    yield b, (j, j)
    yield -1, (j, inst.d)
    for s in range(i, j):
        yield b, (s, j)
        yield -b, (s, j - 1)


def _q_cell_terms(inst: KisinInstance, i: int, j: int):
    """b(b-1) q_{i,j} as (coefficient, mu-cell) terms."""
    b = inst.b
    yield b, (i, i)
    for s in range(i + 1, inst.d + 1):
        c = b if s <= j else 1
        yield c, (i, s)
        yield -c, (i + 1, s)


def _int_row(inst: KisinInstance, terms) -> SRow:
    """The sparse integer row that sums (coefficient, cell) terms."""
    return _ssum((c, ((inst.cell_index(*cell), 1),)) for c, cell in terms)


def delta_vec(inst: KisinInstance) -> IVec:
    """<q, delta_vec> is dim(phi): coefficient b on every cell plus the
    last-column correction (2i-1-d-bi) on cell (i,d)."""
    b, d = inst.b, inst.d
    coeffs = [b] * inst.dim_E
    for i in range(1, d + 1):
        coeffs[inst.cell_index(i, d)] += 2 * i - 1 - d - b * i
    return tuple(coeffs)


# ---------------------------------------------------------------------------
# cones
# ---------------------------------------------------------------------------

def _game_pairs(inst):
    """The games as (key, x, y), the value x - y of the coordinates named
    by key at the cell indices x, y, over 1 <= i <= j < d, interleaved: I is
    q_{i,j} - q_{i,j+1}, II is q_{i+1,j+1} - q_{i,j}, III is
    mu_{i,j} - mu_{i+1,j+1}.  The cone Q in E is where all are >= 0."""
    d, start = inst.d, 0
    for i in range(1, d + 1):
        # x is the index of cell (i, j); row i has d-i+1 cells, so cell
        # (i+1, j+1) is that many further on
        down = d - i + 1
        for x in range(start, start + d - i):
            yield QPoint.KEY, x, x + 1
            yield QPoint.KEY, x + down, x
            yield MuTriangle.KEY, x, x + down
        start += down


def in_cone_q(m: MuTriangle) -> bool:
    """Whether m, any rational triangle, lies in Q: the mu-games at its
    numerators over their common denominator, then, if they all hold, the
    q-games at the integers b(b-1) q that the q_from_mu rows map them to."""
    mu = scaled_ints(m.values)[0]
    q_games = []
    for key, x, y in _game_pairs(m.instance):
        if key == QPoint.KEY:
            q_games.append((x, y))
        elif mu[x] < mu[y]:
            return False
    q = [_sdot(row, mu) for row in _transform_rows(m.instance.d, m.instance.b)[1]]
    return all(q[x] >= q[y] for x, y in q_games)


def chain_dual_generators(d: int) -> list[IVec]:
    """The rows e_i - e_{i+1} of the chain cone C, which generate its dual
    C* (Ziegler, *Lectures on Polytopes*, sec. 1.4)."""
    return [tuple(int(j == i) - int(j == i + 1) for j in range(d)) for i in range(d - 1)]


def regular_dual_generators(inst: KisinInstance) -> list[IVec]:
    """The generators b*v_{d-i} - v_i of Reg*, with v_i = e_i - e_{i+1} the
    generators of C*."""
    b, d = inst.b, inst.d
    v = chain_dual_generators(d)  # v[i - 1] is v_i
    return [tuple(b * x - y for x, y in zip(v[d - i - 1], v[i - 1])) for i in range(1, d)]


# ---------------------------------------------------------------------------
# the dimension functional
# ---------------------------------------------------------------------------

def _dim_form(rows, d):
    """dim(phi) from the top row and the lower rows (or their cells as one
    row): the top row weighted by d - j, minus every lower cell."""
    return (sum((d - j) * x for j, x in enumerate(rows[0], 1))
            - sum(map(sum, rows[1:])))


def dim_phi(m: MuTriangle) -> Fraction:
    """dim(phi) of a mu-triangle, evaluated in both coordinate systems
    (cross-checked).

    mu-form: sum_j (d+1-j) mu_{1,j} - sum_{(i,j)} mu_{i,j};
    q-form:  b * sum q_{i,j} + sum_i (2i-1-d-bi) q_{i,d}.

    Both run on integers: m's numerators over their common denominator L,
    and the integers b(b-1) L q that the q_from_mu rows map them to, so the
    q-form must be b(b-1) times the mu-form.  Only the value is a Fraction.
    """
    if not isinstance(m, MuTriangle):
        raise TypeError(f"dim_phi takes a MuTriangle, not {type(m).__name__}")
    inst = m.instance
    d, b = inst.d, inst.b
    mu, den = scaled_ints(m.values)
    q = [_sdot(row, mu) for row in _transform_rows(d, b)[1]]
    mu_form = _dim_form((mu[:d], mu[d:]), d)
    if mu_form * b * (b - 1) != _idot(delta_vec(inst), q):
        raise AssertionError("dimension functional mismatch between coordinates")
    return Fraction(mu_form, den)


# ---------------------------------------------------------------------------
# piecewise-affine profiles
# ---------------------------------------------------------------------------

class PhiFunctions(Frozen):
    """The d-tuple phi (slope b) and companion tuple psi (slope 1/b), stored
    by their breakpoints: phi_pieces[i-1] = [(q_{i,j}, mu_{i,j}) for j = d..i],
    psi_pieces[j-1] = [(mu_{i,j}, q_{i,j}) for i = 1..j]."""

    def __init__(self, instance: KisinInstance,
                 phi_pieces: tuple[tuple[tuple[Fraction, Fraction], ...], ...],
                 psi_pieces: tuple[tuple[tuple[Fraction, Fraction], ...], ...]):
        self._store(locals())

    def phi(self, i: int, x) -> Fraction | None:
        """phi_i(x); None encodes -infinity."""
        return _piecewise(self.phi_pieces[i - 1], self.instance.b, x)

    def psi(self, j: int, m) -> Fraction | None:
        """psi_j(m); None encodes -infinity."""
        return _piecewise(self.psi_pieces[j - 1], Fraction(1, self.instance.b), m)


def _piecewise(pieces, slope, x) -> Fraction | None:
    """The value at x of the function with the given slope that restarts at
    each of the sorted breakpoints (brk, level) from that level: the last
    breakpoint at or below x decides, and None (-infinity) below the first."""
    x = frac(x)
    val = None
    for brk, level in pieces:
        if x >= brk:
            val = slope * (x - brk) + level
    return val


def phi_from_q(q: QPoint) -> PhiFunctions:
    """The profile tuple encoded by q (q must lie in Q)."""
    inst = q.instance
    m = mu_from_q(q)
    if not in_cone_q(m):
        raise ValueError("point is not in the cone Q")
    d = inst.d
    phi_pieces = tuple(
        tuple(sorted(((q[(i, j)], m[(i, j)]) for j in range(i, d + 1))))
        for i in range(1, d + 1))
    psi_pieces = tuple(
        tuple(sorted(((m[(i, j)], q[(i, j)]) for i in range(1, j + 1))))
        for j in range(1, d + 1))
    return PhiFunctions(inst, phi_pieces, psi_pieces)


def _grid(p: PhiFunctions):
    pts = set()
    for pieces in p.phi_pieces:
        pts.update(brk for brk, _ in pieces)
    pts = sorted(pts)
    # midpoints and flanks exercise the open parts of the pieces
    grid = set(pts)
    for a, b_ in zip(pts, pts[1:]):
        grid.add(Fraction(a + b_, 2))
    if pts:
        grid.add(pts[0] - 1)
        grid.add(pts[-1] + 1)
    return sorted(grid)


def validate_phi(p: PhiFunctions) -> bool:
    """Check the defining conditions of a valid profile tuple: the phi_i are
    sorted decreasingly and strictly increasing where finite, each is
    eventually x -> bx - q_i, and at every (x, mu) the number of i with
    phi_i(x) = mu equals the number of j with psi_j(mu) = x."""
    inst = p.instance
    d, b = inst.d, inst.b
    grid = _grid(p)
    for x, y in zip(grid, grid[1:]):
        for i in range(1, d + 1):
            vx, vy = p.phi(i, x), p.phi(i, y)
            if vx is not None and (vy is None or vy <= vx):
                return False  # not strictly increasing
            if i < d:
                hi, lo = p.phi(i, x), p.phi(i + 1, x)
                if lo is not None and (hi is None or hi < lo):
                    return False  # not sorted decreasingly
    # eventual form bx - q_i and matching multiplicities at breakpoints
    for i in range(1, d + 1):
        pieces = p.phi_pieces[i - 1]
        top_brk, top_level = pieces[-1]
        start = pieces[0][0]
        if top_level != b * top_brk - start:
            return False
    xs = sorted({brk for pieces in p.phi_pieces for brk, _ in pieces})
    for x in xs:
        mus = [p.phi(i, x) for i in range(1, d + 1)]
        for m in {v for v in mus if v is not None}:
            count_phi = sum(1 for v in mus if v == m)
            count_psi = sum(1 for j in range(1, d + 1) if p.psi(j, m) == x)
            if count_phi != count_psi:
                return False
    return True


def read_back_q(p: PhiFunctions) -> QPoint:
    """Recover the coordinates from the functions alone: q_{i,j} is the least
    x with psi_j(phi_i(x)) >= x, evaluated over the (finite) set of critical
    points.  Valid off the multiplicity locus (phi_1 > ... > phi_d)."""
    inst = p.instance
    d = inst.d
    candidates = set()
    for pieces in p.phi_pieces:
        candidates.update(brk for brk, _ in pieces)
    for i in range(1, d + 1):
        # preimages under phi_i of the psi breakpoints
        for pieces in p.psi_pieces:
            for brk, _ in pieces:
                x = _phi_preimage(p, i, brk)
                if x is not None:
                    candidates.add(x)
    xs = sorted(candidates)
    vals = {}
    for i in range(1, d + 1):
        for j in range(i, d + 1):
            found = None
            for x in xs:
                v = p.phi(i, x)
                if v is None:
                    continue
                s = p.psi(j, v)
                if s is not None and s >= x:
                    found = x
                    break
            if found is None:
                raise AssertionError(f"no crossing point for ({i},{j})")
            vals[(i, j)] = found
    return QPoint(inst, vals)


def _phi_preimage(p: PhiFunctions, i: int, value: Fraction):
    """The x with phi_i(x) = value, if any (phi_i is injective where finite)."""
    b = p.instance.b
    pieces = p.phi_pieces[i - 1]
    for k, (brk, level) in enumerate(pieces):
        x = brk + Fraction(value - level, b)
        if x < brk:
            continue
        upper = pieces[k + 1][0] if k + 1 < len(pieces) else None
        if upper is None or x < upper:
            if p.phi(i, x) == value:
                return x
    return None


# ---------------------------------------------------------------------------
# the d = 2 lattice oracle
# ---------------------------------------------------------------------------

class D2LatticeData(Frozen):
    """Profile data of the rank-2 lattice spanned by (u^alpha, 0) and
    (u^gamma, u^delta), in the regime gamma < delta < alpha."""

    def __init__(self, instance: KisinInstance, alpha: int, gamma: int, delta: int,
                 mu1: int, mu2: int, profile: PhiFunctions):
        self._store(locals())


def d2_lattice_invariants(alpha: int, gamma: int, delta: int, b: int) -> D2LatticeData:
    """Closed-form profile functions and elementary-divisor exponents for the
    d = 2 lattice family with gamma < delta < alpha.

    phi_1 is -inf below gamma, bv - alpha up to alpha + (b-1)(delta-gamma)/b,
    then bv - gamma; phi_2 is -inf below alpha + delta - gamma, then
    bv - alpha + gamma - delta; psi_2 has its middle breakpoint at
    (b-1)(alpha + delta - gamma).
    """
    if not (gamma < delta < alpha):
        raise ValueError("the closed forms require gamma < delta < alpha")
    inst = KisinInstance(2, b)
    mu1 = b * (alpha + delta - gamma) - delta
    mu2 = b * gamma - alpha
    q11 = alpha + Fraction((b - 1) * (delta - gamma), b)
    q = QPoint(inst, {(1, 1): q11, (1, 2): gamma, (2, 2): alpha + delta - gamma})
    prof = phi_from_q(q)
    # cross-check the generic pieces against the closed forms
    m = mu_from_q(q)
    if not (m[(1, 1)] == mu1 and m[(1, 2)] == mu2
            and m[(2, 2)] == (b - 1) * (alpha + delta - gamma)):
        raise AssertionError("d = 2 divisor row differs from the closed forms")
    return D2LatticeData(inst, alpha, gamma, delta, mu1, mu2, prof)
