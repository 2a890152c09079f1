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

A triangle is integer numerators over one positive denominator, in lowest
terms, and the work on it is integer: each transform is one running sum on
the numerators, `_q_of` along each row and `_mu_of` up each column, in
O(d^2) with no stored rows; membership in Q, the lattice and dim(phi) read
the numerators and their integer image b(b-1) q.  A Fraction is built only
where a cell is read (`[]`, `top_row`) and for the value of dim(phi);
`to_dict` prints the numerators over the denominator as integers.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import gcd

from . import perm as pm
from .polyhedra import Frozen, IVec, Vec, _idot, fmt_row, scaled_ints


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
    """A point of E as integers: cell k of the triangle I, in row-major
    order, is nums[k] / den, with den > 0 and the gcd of den and the nums
    divided out, so that equal points are equal records.  `KEY` names the
    coordinates in JSON."""

    KEY: str

    def __init__(self, instance: KisinInstance, nums, den: int = 1):
        nums = tuple(nums)
        if len(nums) != instance.dim_E:
            raise ValueError(f"expected {instance.dim_E} values, got {len(nums)}")
        if den <= 0:
            raise ValueError(f"the denominator must be positive, got {den}")
        g = gcd(den, *nums)
        if g > 1:
            nums, den = tuple(x // g for x in nums), den // g
        self._store(locals())

    def __getitem__(self, cell):
        i, j = cell
        return Fraction(self.nums[self.instance.cell_index(i, j)], self.den)

    def to_dict(self) -> dict:
        inst = self.instance
        return {"d": inst.d, "b": inst.b,
                self.KEY: dict(zip((f"{i},{j}" for i, j in inst.cells),
                                   fmt_row((*self.nums, self.den))))}


class QPoint(_Triangle):
    """A point of E in q-coordinates."""

    KEY = "q"


class MuTriangle(_Triangle):
    """A point of E in mu-coordinates; the top row is the elementary-divisor
    exponent vector."""

    KEY = "mu"

    @property
    def top_row(self) -> Vec:
        return tuple(Fraction(x, self.den) for x in self.nums[:self.instance.d])

    def in_lattice(self) -> bool:
        """All mu_{i,j} integral and b-1 divides every row sum; this holds
        exactly when q_from_mu(self) lies in the q-lattice, q_{i,j} in (1/b)Z
        for all cells and q_{i,d} in Z.  With R_i the sum of row i,
        R_i = (b-1)(q_{i,d} + ... + q_{d,d}) and b q_{i,j} = b q_{i,d} -
        sum_{s>j} (mu_{i,s} - mu_{i+1,s}) (row d+1 empty), and mu_from_q has
        integer coefficients on the b q_{i,j} and the q_{j,d}."""
        b, d = self.instance.b, self.instance.d
        x, at = self.nums, self.instance.cell_index
        return self.den == 1 and all(sum(x[at(i, i):at(i, d) + 1]) % (b - 1) == 0
                                     for i in range(1, d + 1))


# ---------------------------------------------------------------------------
# the linear transforms between the two coordinate systems
# ---------------------------------------------------------------------------

def mu_from_q(q: QPoint) -> MuTriangle:
    """mu_{i,j} = b q_{j,j} - q_{j,d} + b * sum_{s=i}^{j-1} (q_{s,j} - q_{s,j-1})."""
    return _apply(MuTriangle, q, _mu_of, 1)


def q_from_mu(m: MuTriangle) -> QPoint:
    """q_{i,j} = (b mu_{i,i} + b sum_{s=i+1}^{j}(mu_{i,s}-mu_{i+1,s})
    + sum_{s=j+1}^{d}(mu_{i,s}-mu_{i+1,s})) / (b(b-1))."""
    b = m.instance.b
    return _apply(QPoint, m, _q_of, b * (b - 1))


def _apply(cls, x: _Triangle, transform, scale: int) -> _Triangle:
    """The cls triangle of the integer transform of x's numerators, over
    x's denominator times scale."""
    inst = x.instance
    return cls(inst, transform(x.nums, inst.d, inst.b), x.den * scale)


def _q_of(mu, d: int, b: int) -> list[int]:
    """b(b-1) q of the integer mu-cells, both in row-major order, by a
    running sum along each row: b(b-1) q_{i,j} = b mu_{i,i} + T_i +
    (b-1) P_i(j), with P_i(j) = sum_{s=i+1}^{j} (mu_{i,s} - mu_{i+1,s}) and
    T_i = P_i(d).  A mu-cell's coefficient is at most b in absolute value."""
    out, start = [], 0
    for n in range(d, 0, -1):  # the cells of row i; row i+1 follows with n-1
        row, below = mu[start:start + n], mu[start + n:start + 2 * n - 1]
        steps = [x - y for x, y in zip(row[1:], below)]
        first = b * row[0] + sum(steps)
        out += [first + (b - 1) * p for p in accumulate(steps, initial=0)]
        start += n
    return out


def _mu_of(q, d: int, b: int) -> list[int]:
    """mu of the integer q-cells, both in row-major order, by a running sum
    up each column: mu_{j,j} = b q_{j,j} - q_{j,d} and, for i < j,
    mu_{i,j} = mu_{i+1,j} + b (q_{i,j} - q_{i,j-1}).  A q-cell's
    coefficient is at most b in absolute value."""
    out, below, end = [], [], len(q)
    for n in range(1, d + 1):  # the cells of row i, from row d up
        row = q[end - n:end]
        below = [b * row[0] - row[-1]] + [m + b * (y - x)
                                          for m, x, y in zip(below, row, row[1:])]
        out[:0] = below
        end -= n
    return out


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
    numerators, then, if they all hold, the q-games at their image
    b(b-1) q under `_q_of`."""
    mu = m.nums
    q_games = []
    for key, x, y in _game_pairs(m.instance):
        if key == QPoint.KEY:
            q_games.append((x, y))
        elif mu[x] < mu[y]:
            return False
    q = _q_of(mu, m.instance.d, m.instance.b)
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

    Both run on integers: m's numerators over its denominator L, and their
    image b(b-1) L q under `_q_of`, so the q-form must be b(b-1) times the
    mu-form.  Only the value is a Fraction.
    """
    if not isinstance(m, MuTriangle):
        raise TypeError(f"dim_phi takes a MuTriangle, not {type(m).__name__}")
    inst = m.instance
    d, b = inst.d, inst.b
    mu, den = m.nums, m.den
    q = _q_of(mu, d, b)
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
    vals = []  # in row-major cell order
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
            vals.append(found)
    return QPoint(inst, *scaled_ints(vals))


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
    # q = (alpha + (b-1)(delta-gamma)/b, gamma, alpha + delta - gamma)
    q = QPoint(inst, (b * alpha + (b - 1) * (delta - gamma), b * gamma,
                      b * (alpha + delta - gamma)), b)
    prof = phi_from_q(q)
    # cross-check the generic pieces against the closed forms
    m = mu_from_q(q)
    if not (m[(1, 1)] == mu1 and m[(1, 2)] == mu2
            and m[(2, 2)] == (b - 1) * (alpha + delta - gamma)):
        raise AssertionError("d = 2 divisor row differs from the closed forms")
    return D2LatticeData(inst, alpha, gamma, delta, mu1, mu2, prof)
