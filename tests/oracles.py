"""Exact oracles, the cones they are run on, call counters and the
package's lru caches, shared by the test modules.

The general H -> V engine (`enumerate_vertices` and `cone_generators`, by
elimination and a double description seeded from the rows themselves) with
the `Halfspace`, `HPolyhedron` and `VPolyhedron` records, the simplex LP
`in_cone`, membership in an H-polyhedron (`contains`,
`contains_ray`), the H-representations of the cone variants (`cone_q`,
`cone_qmax`, `cone_qmin`, `cone_qw`, `cone_chain`), the A-sets of every
variant and constraint form (`a_set`), the optimal-value function
`b_value`, the max-flow and subset oracles for graph cones
(`graph_cone_dual_membership`) and the order `precedes` on S_d live here,
not in the package: no command and no demo runs them, and the tests check
the package's own methods against them.  So do the term generators of the
transforms and the dense matrices they sum to (`mu_cell_terms`,
`q_cell_terms`, `dense_transform_rows`), the references for the package's
running sums, the dense rows of the search (`dense_search_rows`), the
reference for the values `solver._prove` reads off it at one point, and
the q-side checks of a point of E (`q_in_lattice`, `dim_phi_q`), the
references for the package's checks on its mu-triangle."""

import importlib
import pkgutil
import sys
from collections import deque
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, inf, lcm

import kisindim
from kisindim import bounds as bd
from kisindim import kisin_model as km
from kisindim import perm as pm
from kisindim import solver as sv
from kisindim.bounds import UnsupportedRegime, reg_star_facets, strong_regularity, two_rho
from kisindim.kisin_model import KisinInstance, chain_dual_generators
from kisindim.perm import (AdmissibleSubset, OrdTableau, Permutation, _cycles, _signature,
                           admissible_from_subset, all_permutations, w_star)
from kisindim.polyhedra import (Frozen, IVec, Vec, _idot, dot, double_description,
                                fmt_frac, frac, primitive_ints, scaled_ints, vec)


def primitive_row(v) -> IVec:
    """The primitive integer row of a rational vector: its `scaled_ints`
    numerators divided by their gcd."""
    return primitive_ints(scaled_ints(v)[0])


# ---------------------------------------------------------------------------
# the general H -> V engine: elimination, the double description from an
# initial simplicial cone of its own rows, and the H- and V-polyhedra
# ---------------------------------------------------------------------------

def _eliminate(row: list[int], t: list[int], c: int) -> list[int]:
    """Clear column c of row with a multiple of t (t[c] != 0), keeping the
    sign of row, and divide out the gcd."""
    if not row[c]:
        return row
    p, f = (t[c], row[c]) if t[c] > 0 else (-t[c], -row[c])
    out = [p * x - f * y for x, y in zip(row, t)]
    g = gcd(*out)
    return [x // g for x in out] if g > 1 else out


def _canonical_line(v) -> IVec:
    """Primitive direction of an integer line, first nonzero entry positive."""
    w = primitive_ints(v)
    return w if next((a for a in w if a), 0) >= 0 else tuple(-a for a in w)


def _echelon(rows, n: int) -> tuple[list[list[int]], list[int], list[int]]:
    """Fraction-free Gauss-Jordan elimination over the first n columns.

    Returns (reduced rows, pivot columns, indices of the independent input
    rows, each independent of the rows before it).  Reduced row k is the
    primitive positive multiple of row k of the reduced row echelon form:
    its pivot is positive and every other reduced row is zero there.
    Entries past column n are carried along, as in [B | I].
    """
    tab: list[list[int]] = []
    pivots: list[int] = []
    chosen: list[int] = []
    for i, r in enumerate(rows):
        if len(pivots) == n:
            break
        row = list(primitive_ints(scaled_ints(r)[0]))
        for c, t in zip(pivots, tab):
            row = _eliminate(row, t, c)
        c = next((c for c in range(n) if row[c]), None)
        if c is None:
            continue
        if row[c] < 0:
            row = [-x for x in row]
        tab = [_eliminate(t, row, c) for t in tab] + [row]
        pivots.append(c)
        chosen.append(i)
    order = sorted(range(len(pivots)), key=pivots.__getitem__)
    return [tab[k] for k in order], [pivots[k] for k in order], chosen


def nullspace(rows, n: int) -> list[IVec]:
    """Basis of {x : <r, x> = 0 for all rows r}, one primitive integer
    vector per free column f, with x_f > 0."""
    tab, pivots, _ = _echelon(rows, n)
    scale = lcm(*(t[c] for c, t in zip(pivots, tab)))
    basis = []
    for f in (c for c in range(n) if c not in pivots):
        x = [0] * n
        x[f] = scale
        for c, t in zip(pivots, tab):
            x[c] = -t[f] * (scale // t[c])
        basis.append(primitive_ints(x))
    return basis


class Halfspace(Frozen):
    """``<normal, x> >= offset`` (or ``=`` when is_eq).

    The rational input is stored as the primitive integer row of
    (normal, offset), a positive multiple of it that cuts out the same set,
    so every positive multiple of a row gives an equal halfspace."""

    def __init__(self, normal: Vec, offset: Fraction = 0, is_eq: bool = False):
        row = primitive_ints(scaled_ints((*normal, offset))[0])
        if not is_eq and not any(row[:-1]):
            raise ValueError("inequality with zero normal")
        object.__setattr__(self, "normal", row[:-1])
        object.__setattr__(self, "offset", row[-1])
        object.__setattr__(self, "is_eq", is_eq)


class HPolyhedron(Frozen):
    def __init__(self, dim: int, halfspaces: tuple[Halfspace, ...]):
        self._store(locals())

    @staticmethod
    def build(dim, ineqs=(), eqs=()):
        """ineqs/eqs are (normal, offset) pairs."""
        return HPolyhedron(dim, tuple([Halfspace(a, c) for a, c in ineqs]
                                      + [Halfspace(a, c, True) for a, c in eqs]))

    @property
    def ineqs(self):
        return [h for h in self.halfspaces if not h.is_eq]

    @property
    def eqs(self):
        return [h for h in self.halfspaces if h.is_eq]


class VPolyhedron(Frozen):
    """conv(vertices) + cone(rays) + span(lines); minimal and sorted."""

    def __init__(self, dim: int, vertices: tuple[Vec, ...], rays: tuple[Vec, ...],
                 lines: tuple[Vec, ...] = ()):
        self._store(locals())


def _initial_simplicial(rows: list[IVec], n: int) -> tuple[list[int], list[IVec]]:
    """Pick n independent rows B and return their indices and the primitive
    integer rays of the cone they cut out, the columns of B^-1, read off the
    reduced [B | I]."""
    chosen = _echelon(rows, n)[2]
    if len(chosen) < n:
        raise ValueError("constraint matrix not full rank (cone not pointed)")
    tab, _, _ = _echelon([tuple(rows[i]) + tuple(int(j == k) for j in range(n))
                          for k, i in enumerate(chosen)], n)
    # reduced row c is t[c] > 0 times row c of [I | B^-1]
    scale = lcm(*(t[c] for c, t in enumerate(tab)))
    return chosen, [primitive_ints([t[n + j] * (scale // t[c]) for c, t in enumerate(tab)])
                    for j in range(n)]


def _extreme_rays_pointed(rows: list[IVec], n: int) -> list[IVec]:
    """Extreme rays of the pointed full-dimensional cone {x : <r,x> >= 0}:
    the double description seeded with the simplicial cone of the first n
    independent rows."""
    if n == 0:
        return []
    chosen, seed = _initial_simplicial(rows, n)
    skip = set(chosen)
    return double_description(seed, [a for i, a in enumerate(rows) if i not in skip])[0]


def cone_generators(ineqs: list[Vec], eqs: list[Vec], n: int) -> tuple[list[IVec], list[IVec]]:
    """Minimal (lines, rays) generating {x : <a,x> >= 0, <e,x> = 0}, as
    sorted primitive integer tuples (lines with their first nonzero entry
    positive).

    The rows are scaled to primitive integer vectors once; the elimination,
    the double description and the maps back all run on integers.  Positive
    rescaling of the parametrisations N and W below leaves the normalised
    output unchanged.
    """
    A = [primitive_ints(scaled_ints(a)[0]) for a in ineqs]
    N = None
    if eqs:
        # restrict to the equation subspace: x = N u
        N = nullspace(eqs, n)
        if not N:
            return [], []
        A = [tuple(_idot(a, c) for c in N) for a in A]
    k = n if N is None else len(N)
    A = [r for r in A if any(r)]
    W = _echelon(A, k)[0]
    if len(W) < k:
        # quotient out the lineality: u = W^T t with W a basis of rowspace(A)
        lines = nullspace(A, k)
        rays2 = _extreme_rays_pointed([tuple(_idot(a, w) for w in W) for a in A], len(W))
        rays = [primitive_ints([_idot(t, col) for col in zip(*W)]) for t in rays2]
    else:
        lines, rays = [], _extreme_rays_pointed(A, k)
    if N is not None:
        cols = list(zip(*N))
        lines = [[_idot(u, col) for col in cols] for u in lines]
        rays = [primitive_ints([_idot(u, col) for col in cols]) for u in rays]
    return sorted(set(map(_canonical_line, lines))), sorted(set(rays))


def enumerate_vertices(P: HPolyhedron) -> VPolyhedron:
    """Exact minimal V-representation; empty lists when P is empty.

    Vertices are `Fraction` tuples; rays and lines are primitive integer
    tuples."""
    n = P.dim
    hom_ineqs = [h.normal + (-h.offset,) for h in P.ineqs]
    hom_ineqs.append((0,) * n + (1,))  # t >= 0
    hom_eqs = [h.normal + (-h.offset,) for h in P.eqs]
    lines, rays = cone_generators(hom_ineqs, hom_eqs, n + 1)
    if any(l[n] for l in lines):
        raise AssertionError("a line of the homogenized cone leaves t = 0")
    # vertices sort as the integer vectors L * r[:n] / r[n], L the lcm of
    # the r[n]; a generator with r[n] = 0 is primitive, canonical and still
    # in sorted order without it
    hom = [r for r in rays if r[n]]
    if not hom:
        return VPolyhedron(n, (), (), ())
    L = lcm(*(r[n] for r in hom))
    hom.sort(key=lambda r: [a * (L // r[n]) for a in r[:n]])
    return VPolyhedron(n, tuple(tuple(Fraction(a, r[n]) for a in r[:n]) for r in hom),
                       tuple(r[:n] for r in rays if not r[n]), tuple(l[:n] for l in lines))

# ---------------------------------------------------------------------------
# the dual of a cone, and cone membership by an exact simplex LP
# ---------------------------------------------------------------------------

def dual_cone(generators: list[Vec], dim: int) -> HPolyhedron:
    """{x : <x, g> >= 0 for every generator g}, the dual of cone(generators)."""
    return HPolyhedron.build(dim, [(g, 0) for g in generators if any(g)])


def in_cone(generators: list[Vec], target: Vec) -> bool:
    """Is target a nonnegative combination of the generators?

    Phase-1 simplex with Bland's rule.  Rows are kept as integer vectors
    (positive rescaling preserves both feasibility and the Bland order),
    the ratio test cross-multiplies, so no rational arithmetic is needed.
    """
    n = len(target)
    gens = [primitive_row(g) for g in generators]
    tgt = primitive_row(target)
    m = len(gens)
    # flip equation signs so the rhs is nonnegative
    tab = []
    for i in range(n):
        s = -1 if tgt[i] < 0 else 1
        tab.append([s * g[i] for g in gens]
                   + [1 if j == i else 0 for j in range(n)] + [s * tgt[i]])
    basis = [m + i for i in range(n)]
    # reduced-cost row for minimizing the sum of artificials (which start
    # out basic, hence with reduced cost 0)
    cost = [0] * (m + n + 1)
    for i in range(n):
        for j in range(m + n + 1):
            cost[j] += tab[i][j]
    for j in range(m, m + n):
        cost[j] -= 1
    while True:
        enter = next((j for j in range(m + n) if cost[j] > 0), None)
        if enter is None:
            break
        leave = None
        for i in range(n):
            t = tab[i][enter]
            if t <= 0:
                continue
            if leave is None:
                leave = i
                continue
            lhs = tab[i][m + n] * tab[leave][enter]
            rhs = tab[leave][m + n] * t
            if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                leave = i
        if leave is None:
            raise AssertionError("phase-1 unbounded")
        for i in range(n):
            if i != leave:
                tab[i] = _eliminate(tab[i], tab[leave], enter)
        cost = _eliminate(cost, tab[leave], enter)
        g = gcd(*tab[leave])
        if g > 1:
            tab[leave] = [x // g for x in tab[leave]]
        basis[leave] = enter
    return cost[m + n] == 0


# ---------------------------------------------------------------------------
# membership in a polyhedron
# ---------------------------------------------------------------------------

def contains(P: HPolyhedron, x: Vec) -> bool:
    """Is the point x in P?  An integer dot of each row with x's numerators
    over their common denominator."""
    if len(x) != P.dim:
        raise ValueError(f"point of dimension {len(x)} in R^{P.dim}")
    X, L = scaled_ints(x)
    for h in P.halfspaces:
        v, c = _idot(h.normal, X), h.offset * L
        if v < c or (h.is_eq and v != c):
            return False
    return True


def contains_ray(P: HPolyhedron, r: Vec) -> bool:
    """Is r in the recession cone of P?"""
    r = scaled_ints(r)[0]
    for h in P.halfspaces:
        v = _idot(h.normal, r)
        if v < 0 or (h.is_eq and v):
            return False
    return True


def intersect(P: HPolyhedron, Q: HPolyhedron) -> HPolyhedron:
    if P.dim != Q.dim:
        raise ValueError("dimension mismatch")
    return HPolyhedron(P.dim, P.halfspaces + Q.halfspaces)


def is_empty(V: VPolyhedron) -> bool:
    return not V.vertices


# ---------------------------------------------------------------------------
# the dense references for the transforms and the search's rows
# ---------------------------------------------------------------------------

def mu_cell_terms(inst: KisinInstance, i: int, j: int):
    """mu_{i,j} as (coefficient, q-cell) terms."""
    b = inst.b
    yield b, (j, j)
    yield -1, (j, inst.d)
    for s in range(i, j):
        yield b, (s, j)
        yield -b, (s, j - 1)


def q_cell_terms(inst: KisinInstance, i: int, j: int):
    """b(b-1) q_{i,j} as (coefficient, mu-cell) terms."""
    b = inst.b
    yield b, (i, i)
    for s in range(i + 1, inst.d + 1):
        c = b if s <= j else 1
        yield c, (i, s)
        yield -c, (i + 1, s)


def dense_int_row(inst: KisinInstance, terms) -> list[int]:
    """The integer row over the cells of E that sums (coefficient, cell) terms."""
    a = [0] * inst.dim_E
    for c, cell in terms:
        a[inst.cell_index(*cell)] += c
    return a


def dense_transform_rows(d: int, b: int) -> tuple[tuple[IVec, ...], tuple[IVec, ...]]:
    """The integer matrices of the two transforms, one row per cell in
    row-major order: the q-cell forms of mu_{i,j} (`mu_cell_terms`) and
    the mu-cell forms of b(b-1) q_{i,j} (`q_cell_terms`).  The reference
    for the running sums `km._mu_of` and `km._q_of`."""
    inst = KisinInstance(d, b)
    return tuple(tuple(tuple(dense_int_row(inst, terms(inst, i, j))) for (i, j) in inst.cells)
                 for terms in (mu_cell_terms, q_cell_terms))


def unit_triangles(d):
    """One unit triangle per mu-cell, in row form and row-major order."""
    return [[[int((r, s) == (i, j)) for s in range(r, d + 1)] for r in range(1, d + 1)]
            for i in range(1, d + 1) for j in range(i, d + 1)]


def dense_search_rows(d: int, b: int) -> list[list[int]]:
    """The rows the search sets up, as integer forms of the mu-cells read
    off its own code on unit triangles: for 2 <= i <= j <= d, the order rows
    mu_{i-1,j} <= mu_{i,j} <= mu_{i-1,j-1} and the scaled-q row q(i, j),
    entry j-i of sv._row_slacks on rows i-1, i, i+1 (row d+1 is empty),
    with one _row_slacks call per level i and unit triangle.  The reference
    for the values `sv._prove` reads off the search's code at one point."""
    units = [rows + [[]] for rows in unit_triangles(d)]
    out = []
    for i in range(2, d + 1):
        slacks = [sv._row_slacks(r[i - 2], r[i - 1], r[i], b) for r in units]
        for j in range(i, d + 1):
            out += [[r[i - 1][j - i] - r[i - 2][j - i + 1] for r in units],
                    [r[i - 2][j - i] - r[i - 1][j - i] for r in units],
                    [s[j - i] for s in slacks]]
    return out


# ---------------------------------------------------------------------------
# the cone variants and the coordinate forms as H-polyhedra and vectors
# ---------------------------------------------------------------------------

def mu_cell_vector(inst: KisinInstance, i: int, j: int) -> Vec:
    """The vector v in E with <q, v> = mu_{i,j}(q)."""
    return tuple(map(Fraction, dense_transform_rows(inst.d, inst.b)[0][inst.cell_index(i, j)]))


def S_T(x, T, d: int) -> Fraction:
    """Sum of the coordinates of the vector x in E over the admissible
    subset attached to T."""
    inst = KisinInstance(d, 2)
    x = vec(x)
    return sum((x[inst.cell_index(i, j)] for (i, j) in pm.admissible_from_subset(d, T).cells),
               Fraction(0))


def _games_i_and_ii(inst: KisinInstance):
    """The integer rows of games I (q_{i,j} - q_{i,j+1}) and II
    (q_{i+1,j+1} - q_{i,j}), one pair per 1 <= i <= j < d."""
    for i in range(1, inst.d + 1):
        for j in range(i, inst.d):
            yield (dense_int_row(inst, ((1, (i, j)), (-1, (i, j + 1)))),
                   dense_int_row(inst, ((1, (i + 1, j + 1)), (-1, (i, j)))))


def cone_qmax(inst: KisinInstance) -> HPolyhedron:
    """Games I and II, interleaved."""
    return HPolyhedron.build(inst.dim_E, [(a, 0) for pair in _games_i_and_ii(inst)
                                          for a in pair])


def cone_qmin(inst: KisinInstance) -> HPolyhedron:
    """Game I plus the equalities q_{i,j} = q_{i+1,j+1} (game II')."""
    pairs = list(_games_i_and_ii(inst))
    return HPolyhedron.build(inst.dim_E, [(a, 0) for a, _ in pairs],
                             [(a, 0) for _, a in pairs])


def cone_chain(d: int) -> HPolyhedron:
    """C = {y in R^d : y_1 >= ... >= y_d}, the dual of C*."""
    return dual_cone(chain_dual_generators(d), d)


def cone_qw(inst: KisinInstance, w: pm.Permutation) -> HPolyhedron:
    """The graph cone attached to w: q is constant on each level set
    T_s(w) = {w*(1..s)} and nondecreasing along the chain.  Its dual-side
    A-set has apex rho_w; for w = w0 this cone is exactly Q_min."""
    if w.d != inst.d:
        raise ValueError("permutation size must match d")
    tab = pm.ord_tableau(pm.w_star(w))
    ineqs = []
    cells = inst.cells
    for x in cells:
        for y in cells:
            if x != y and tab.entries[x] >= tab.entries[y]:
                ineqs.append((dense_int_row(inst, ((1, x), (-1, y))), 0))
    return HPolyhedron.build(inst.dim_E, ineqs)


def cone_q(inst: KisinInstance) -> HPolyhedron:
    """The cone Q in E: games I (q_{i,j} >= q_{i,j+1}), II (q_{i,j} <=
    q_{i+1,j+1}) and III (mu_{i,j} >= mu_{i+1,j+1}), over 1 <= i <= j < d,
    the rows of `km._game_pairs` as q-forms: a mu-game x - y is row x minus
    row y of the mu_from_q matrix."""
    forms = dense_transform_rows(inst.d, inst.b)[0]
    cells = inst.cells
    rows = []
    for key, x, y in km._game_pairs(inst):
        if key == km.QPoint.KEY:
            rows.append(dense_int_row(inst, ((1, cells[x]), (-1, cells[y]))))
        else:
            rows.append([u - v for u, v in zip(forms[x], forms[y])])
    return HPolyhedron.build(inst.dim_E, [(a, 0) for a in rows])


@lru_cache(maxsize=128)
def _q_generators(d: int, b: int):
    """The (lines, rays) of the full cone Q, by double description."""
    cone = cone_q(KisinInstance(d, b))
    return cone_generators([h.normal for h in cone.ineqs], [h.normal for h in cone.eqs], cone.dim)


# ---------------------------------------------------------------------------
# the A-sets of every cone variant and constraint form
# ---------------------------------------------------------------------------

def _dual_hrep(inst: KisinInstance, variant):
    """`bounds._dual_hrep` for every cone variant: (rows, eq_rows) in E, the
    variant cone being cone(rows) + span(eq_rows).

    Q_max's rows are the package's.  The graph cones Q_w (Q_min is Q_{w0})
    are spanned by the all-ones line and the rays -1_J over the level sets
    I_s(w), s < d.  The rays of the full cone Q come from a double
    description."""
    d = inst.d
    if variant == "Qmax":
        return bd._dual_hrep(inst)
    if variant == "Q":
        lines, rays = _q_generators(d, inst.b)
        return rays, lines
    if variant == "Qmin" or (isinstance(variant, tuple) and variant[0] == "Qw"):
        w = pm.w0(d) if variant == "Qmin" else variant[1]
        sets = [level_set(w, s) for s in range(1, d)]
    else:
        raise ValueError(f"unknown cone variant {variant!r}")
    rows = [dense_int_row(inst, ((-1, c) for c in adm.cells)) for adm in sets]
    return rows, [dense_int_row(inst, ((1, c) for c in inst.cells))]


def _form_vectors(inst: KisinInstance, form: str) -> list[IVec]:
    """The integer rows F_i of the constraint map: those of the top
    mu-cells for g, <q, F_i> = mu_{1,i}(q) (the rows `bounds.a_set` maps
    by), the first and last of them for the two-sided map f."""
    top = [list(row) for row in dense_transform_rows(inst.d, inst.b)[0][:inst.d]]
    if form == "g":
        return top
    if form == "f":
        return [top[0], top[-1]]
    raise ValueError(f"unknown constraint form {form!r}")


def a_set(inst: KisinInstance, variant, form: str = "g") -> HPolyhedron:
    """H-representation of A = {y : sum_i y_i F_i - delta in (variant)*}, one
    row per row of `_dual_hrep` (in order, those with a zero image dropped).
    On Q_max and the form g it cuts out the set of the package's integer
    rows `bounds.a_set`, built here the general way.  The A-set of the full
    cone Q is refused below b0."""
    if variant == "Q" and inst.b < inst.b0:
        raise UnsupportedRegime(
            f"A-set for the full cone Q needs b >= b0 = {inst.b0}, got b = {inst.b}")
    F = _form_vectors(inst, form)
    delta = km.delta_vec(inst)
    ineq_rows, eq_rows = _dual_hrep(inst, variant)
    n = len(F)
    ineqs = [(tuple(_idot(Fi, v) for Fi in F), _idot(delta, v)) for v in ineq_rows]
    eqs = [(tuple(_idot(Fi, v) for Fi in F), _idot(delta, v)) for v in eq_rows]
    ineqs = [(a, c) for a, c in ineqs if any(x != 0 for x in a)]
    return HPolyhedron.build(n, ineqs, eqs)


# ---------------------------------------------------------------------------
# the optimal-value function b
# ---------------------------------------------------------------------------

class DualityData(Frozen):
    """A cone variant, a constraint form, and target-space cones C and D.

    C and D are given by generator lists (rays; lines as +-pairs); D = None
    means the whole target space.
    """

    def __init__(self, instance: km.KisinInstance, variant: object = "Q", form: str = "g",
                 C_gens: tuple[Vec, ...] = (), D_gens: tuple[Vec, ...] | None = None):
        self._store(locals())


def b_value(dd: DualityData, y) -> Fraction | float:
    """The optimal-value function at y: min <alpha | y> over the vertices of
    A cap C* when y lies in D cap (image(Q) + C), -inf otherwise, +inf when
    A cap C* is empty.  The image is spanned by the rows of `_dual_hrep`.

    This is the minimum over B = (A cap C*) + D* with no D* filter (weak
    LP duality).  For y = F(q) + c in D, q in Q, c in C, each ray r of
    A cap C* has <r, y> = <sum_i r_i F_i, q> + <r, c> >= 0, and each g in D*
    has <g, y> >= 0, so no direction of B lowers <., y>.
    """
    inst = dd.instance
    y = vec(y)
    F = _form_vectors(inst, dd.form)
    if dd.D_gens is not None and not in_cone(list(dd.D_gens), y):
        return -inf
    rays, lines = _dual_hrep(inst, dd.variant)
    image_gens = [tuple(_idot(Fi, r) for Fi in F) for r in rays]
    image_gens += [tuple(s * _idot(Fi, l) for Fi in F) for l in lines for s in (1, -1)]
    if not in_cone(image_gens + list(dd.C_gens), y):
        return -inf
    A = a_set(inst, dd.variant, dd.form)
    if dd.C_gens:
        A = intersect(A, dual_cone(list(dd.C_gens), len(F)))
    V = enumerate_vertices(A)
    if is_empty(V):
        return inf
    return min(dot(v, y) for v in V.vertices)


# ---------------------------------------------------------------------------
# hulls, set equality and Minkowski sums by the double description
# ---------------------------------------------------------------------------

def double_description_by_scan(seed: list[IVec], rows) -> tuple[list[IVec], list[int]]:
    """`polyhedra.double_description` with its adjacency test as a scan:
    a pair (p, m) is adjacent when no third zero set contains the common
    one, checked against every zero set.  Same rays, zero sets and order."""
    n = len(seed)
    rays = list(seed)
    zsets = [((1 << n) - 1) ^ (1 << j) for j in range(n)]
    bit = 1 << n
    for a in rows:
        vals = [_idot(a, r) for r in rays]
        new_rays = [r for r, v in zip(rays, vals) if v >= 0]
        new_z = [z | bit if v == 0 else z for z, v in zip(zsets, vals) if v >= 0]
        if len(new_rays) < len(rays):
            pos = [i for i, v in enumerate(vals) if v > 0]
            neg = [i for i, v in enumerate(vals) if v < 0]
            for p in pos:
                for m in neg:
                    common = zsets[p] & zsets[m]
                    # an edge of a pointed n-cone lies on >= n-2 of the
                    # processed constraints; cheap necessary test first
                    if common.bit_count() < n - 2:
                        continue
                    # adjacency: no ray but p and m has a zero set containing
                    # the common one
                    if list(map(common.__and__, zsets)).count(common) > 2:
                        continue
                    vp, vm = vals[p], -vals[m]
                    r = [vp * x + vm * y for x, y in zip(rays[m], rays[p])]
                    g = gcd(*r)
                    new_rays.append(tuple(x // g for x in r))
                    new_z.append(common | bit)
        rays, zsets = new_rays, new_z
        bit <<= 1
    return rays, zsets


def cone_hull(rays: list[Vec], lines: list[Vec], n: int) -> HPolyhedron:
    """Minimal H-representation of cone(rays) + span(lines)."""
    dlines, drays = cone_generators(rays, lines, n)
    return HPolyhedron.build(n, [(r, 0) for r in drays], [(l, 0) for l in dlines])


def v_to_h(V: VPolyhedron) -> HPolyhedron:
    """H-representation of a nonempty V-polyhedron."""
    if is_empty(V):
        raise ValueError("cannot convert the empty polyhedron to halfspaces")
    n = V.dim
    gens = [(*v, 1) for v in V.vertices] + [(*r, 0) for r in V.rays]
    H = cone_hull(gens, [(*l, 0) for l in V.lines], n + 1)
    ineqs = []
    eqs = []
    for h in H.ineqs:
        a, a0 = h.normal[:n], h.normal[n]
        if not any(a):
            continue  # the trivial t >= 0 facet
        ineqs.append((a, -a0))
    for h in H.eqs:
        a, a0 = h.normal[:n], h.normal[n]
        if not any(a):
            if a0 != 0:
                raise AssertionError("inconsistent homogenization")
            continue
        eqs.append((a, -a0))
    return HPolyhedron.build(n, ineqs, eqs)


def cone_regular(inst: km.KisinInstance) -> HPolyhedron:
    """Reg = {mu : mu_i - mu_{i+1} <= b (mu_{d-i} - mu_{d-i+1}) for all i},
    the dual of Reg*."""
    return dual_cone(km.regular_dual_generators(inst), inst.d)


def polyhedra_set_equal(P: HPolyhedron, Q: HPolyhedron) -> bool:
    """Exact set equality via mutual containment of V-representations."""
    VP, VQ = enumerate_vertices(P), enumerate_vertices(Q)
    return _v_inside_h(VP, Q) and _v_inside_h(VQ, P)


def _v_inside_h(V: VPolyhedron, H: HPolyhedron) -> bool:
    if is_empty(V):
        return is_empty(enumerate_vertices(H))
    return (all(contains(H, v) for v in V.vertices)
            and all(contains_ray(H, r) for r in V.rays)
            and all(contains_ray(H, l) and contains_ray(H, tuple(-a for a in l))
                    for l in V.lines))


def minkowski_sum_cone(P: HPolyhedron | VPolyhedron, cone_gens) -> HPolyhedron:
    """H-representation of P + cone(cone_gens), by the double description
    of the sum's vertices and rays."""
    V = P if isinstance(P, VPolyhedron) else enumerate_vertices(P)
    if is_empty(V):
        raise ValueError("Minkowski sum with the empty polyhedron")
    gens = [g for g in map(primitive_row, cone_gens) if any(g)]
    return v_to_h(VPolyhedron(V.dim, V.vertices, tuple(sorted(set(list(V.rays) + gens))), V.lines))


def rank(rows, n: int) -> int:
    return len(_echelon(rows, n)[1])


def _sign_certificate(tight: list[IVec], eq_images: list[IVec], k: int) -> bool | None:
    """The certificates of `kept_in_sum` on the integer images in Z^k
    of the tight rows and the equations: False for a reject, True for an
    accept, None when neither is found.  The accepting combination starts
    from the sum of the tight images and, for at most 3k rounds, lifts the
    first coordinate that is still <= 0 to 1 with copies of the tight image
    largest there."""
    for j in range(k):
        if all(t[j] <= 0 for t in tight) and not any(e[j] for e in eq_images):
            return False
    if not tight:
        return None
    s = [sum(col) for col in zip(*tight)]
    for _ in range(3 * k):
        j = next((j for j in range(k) if s[j] <= 0), None)
        if j is None:
            return True
        t = max(tight, key=lambda t: t[j])
        if t[j] <= 0:
            return None
        m = -s[j] // t[j] + 1
        s = [x + m * y for x, y in zip(s, t)]
    return None if any(x <= 0 for x in s) else True


def kept_in_sum(P: HPolyhedron, gens, tight_masks) -> list[bool]:
    """For each vertex v of P, given by the bitmask of the inequalities of
    P tight at v (bit i for P.ineqs[i]), whether v is a vertex of
    P + cone(gens).

    Every vertex of the sum is a vertex of P, and by the normal-fan
    criterion for Minkowski sums (Ziegler, *Lectures on Polytopes*, sec. 7)
    a vertex v of P is one exactly when some c in the normal cone N of P at
    v has <c, g> > 0 for every generator g.  If c exposes v in the sum, it
    lies in N and is positive on every g.  Conversely, the set
    {c : <c, g> > 0 for all g} is open and N is full-dimensional at a
    vertex, so the set also meets the interior of N; such a c is minimised
    over P at v alone, and over the sum too.

    N is generated by the normals of the inequalities tight at v plus the
    equation normals with both signs, so the question lives on their
    integer images (<a, g>)_g in Z^|gens|.  Two certificates settle it
    first.  Reject: in some coordinate j every tight image is <= 0 and
    every equation image is 0, so <c, g_j> <= 0 on all of N; the equation
    images must be 0, not just <= 0, since they enter N with both signs.
    Accept: a nonnegative integer combination of the tight images is
    positive everywhere, and it is (<c, g>)_g for a c in N.  Only when
    neither is found does one exact LP decide (`in_cone`): is (1, ..., 1)
    a nonnegative combination of the tight images, the equation images
    with both signs and the slacks -e_k?  The recession cone of P is part
    of its H-representation and needs no separate care.  Rows and images
    are integers, so the certificates and the LP are exact.
    """
    gens = [g for g in map(primitive_row, gens) if any(g)]
    k = len(gens)
    images = [tuple(_idot(h.normal, g) for g in gens) for h in P.ineqs]
    eq_images = [tuple(_idot(h.normal, g) for g in gens) for h in P.eqs]
    cone_gens = eq_images + [tuple(-x for x in e) for e in eq_images]
    cone_gens += [tuple(-int(i == j) for j in range(k)) for i in range(k)]
    out = []
    for mask in tight_masks:
        tight = [image for i, image in enumerate(images) if mask >> i & 1]
        keep = _sign_certificate(tight, eq_images, k)
        out.append(in_cone(tight + cone_gens, (1,) * k) if keep is None else keep)
    return out


def vertices_of_sum(P: HPolyhedron, vertices, gens) -> list:
    """The vertices of P + cone(gens), given the vertices of P, in the
    order given: the inequalities tight at each vertex are found by integer
    dots, and `kept_in_sum` decides the vertex from them."""
    n = P.dim
    if rank([h.normal for h in P.halfspaces], n) < n:
        raise ValueError("summand with lines has no vertices")
    rows = [h.normal + (-h.offset,) for h in P.ineqs]
    masks = []
    for v in vertices:
        # v scaled by L, the lcm of its denominators, and homogenized
        L = lcm(*(x.denominator for x in v))
        hv = [x.numerator * (L // x.denominator) for x in v] + [L]
        masks.append(sum(1 << i for i, a in enumerate(rows) if _idot(a, hv) == 0))
    return [v for v, keep in zip(vertices, kept_in_sum(P, gens, masks)) if keep]


def k_hrep(inst) -> HPolyhedron:
    """The H-representation of K(b) that `bounds.k_polytopes` enumerates in
    (Y, T) rows: the facet rows of Reg*, in the order of `reg_star_facets`,
    each shifted to the apex 2 rho/(b+1), the plane sum y = 0, and the
    chain rows of C."""
    d, b = inst.d, inst.b
    rho2 = two_rho(d)
    return intersect(HPolyhedron.build(
        d, [(a, Fraction(_idot(a, rho2), b + 1)) for a, _ in reg_star_facets(inst)],
        [((1,) * d, 0)]), cone_chain(d))


def f_T_halfspace(inst, T) -> tuple[tuple[Fraction, ...], Fraction]:
    """The paper's facet form f_T(y) >= 0 of the Q_max A-set at the proper
    subset T of {1..d}, in closed form, written as <a, y> >= c."""
    d, b = inst.d, inst.b
    T = sorted(set(int(t) for t in T))
    s = len(T)
    a = [Fraction(0)] * d
    for i in range(1, s + 1):
        a[i - 1] += 1
    for t in T:
        a[d - t] -= b
    c = Fraction(s * (d - s)) - b * (sum(T) - Fraction(s * (s + 1), 2))
    return tuple(a), c


def chain_cone_gens(d):
    """Generators of {y_1 >= ... >= y_d}: prefix indicators plus the
    constants line (both signs)."""
    prefixes = [vec([1] * k + [0] * (d - k)) for k in range(1, d)]
    return tuple(prefixes + [vec([1] * d), vec([-1] * d)])


# ---------------------------------------------------------------------------
# the dominance sup by the general vertex route
# ---------------------------------------------------------------------------

def dominance_polytope(mu, inst: km.KisinInstance, strong: bool) -> HPolyhedron:
    """{mu' : mu' dominated by mu} cap the (strong) regularity halfspaces."""
    mu = vec(mu)
    d = inst.d
    ineqs = []
    eqs = []
    for t in range(1, d):
        a = [Fraction(-1)] * t + [Fraction(0)] * (d - t)
        ineqs.append((tuple(a), -sum(mu[:t])))  # partial sums <= those of mu
    eqs.append((vec([1] * d), sum(mu)))
    Reg = cone_regular(inst)
    for h in Reg.ineqs:
        ineqs.append((h.normal, h.offset))
    if strong and d >= 2:
        ineqs.append(strong_regularity(inst))
    return HPolyhedron.build(d, ineqs, eqs)


def _sup_over(polytope: HPolyhedron, objective: Vec):
    V = enumerate_vertices(polytope)
    if is_empty(V):
        return None
    if any(dot(objective, r) > 0 for r in V.rays):
        return inf
    return max(dot(objective, v) for v in V.vertices)


def dominated_sup(mu, inst: km.KisinInstance, strong: bool):
    """sup <2 rho | mu'> over the dominance polytope, by its vertices."""
    return _sup_over(dominance_polytope(mu, inst, strong), two_rho(inst.d))


# ---------------------------------------------------------------------------
# the triangle kernel by the Fraction route
# ---------------------------------------------------------------------------

def apply_terms(x, terms, scale: int) -> list[Fraction]:
    """For each cell (i, j), the sum of c * x[cell] over the (coefficient,
    cell) terms(inst, i, j), divided by scale, walking the term generators
    cell by cell in Fractions: mu_from_q is apply_terms(q, mu_cell_terms,
    1) and q_from_mu is apply_terms(m, q_cell_terms, b(b-1))."""
    inst = x.instance
    return [sum((c * x[cell] for c, cell in terms(inst, i, j)), Fraction(0)) / scale
            for (i, j) in inst.cells]


def dim_phi_fraction(x) -> Fraction:
    """dim(phi) by both Fraction forms: the mu-form on mu_from_q(x) (or x)
    and the q-form, the dot with delta_vec, on q_from_mu(x) (or x)."""
    inst = x.instance
    d = inst.d
    if isinstance(x, km.QPoint):
        q = x.values
        m = apply_terms(x, mu_cell_terms, 1)
    else:
        m = x.values
        q = apply_terms(x, q_cell_terms, inst.b * (inst.b - 1))
    mu_form = (sum((d - j) * v for j, v in enumerate(m[:d], 1))
               - sum(m[d:], Fraction(0)))
    if mu_form != dot(km.delta_vec(inst), q):
        raise AssertionError("dimension functional mismatch between coordinates")
    return mu_form


# ---------------------------------------------------------------------------
# a point of E checked in q-coordinates
# ---------------------------------------------------------------------------

def q_in_lattice(q: km.QPoint) -> bool:
    """q_{i,j} in (1/b)Z for all cells and q_{i,d} in Z: every denominator
    divides b exactly when their lcm does.  The q-side reference for
    MuTriangle.in_lattice, which decides the same lattice on mu_from_q(q)."""
    b, d = q.instance.b, q.instance.d
    return (b % lcm(*(v.denominator for v in q.values)) == 0
            and all(q[(i, d)].denominator == 1 for i in range(1, d + 1)))


def dim_phi_q(q: km.QPoint) -> Fraction:
    """dim(phi) of a q-triangle on integers, cross-checked as km.dim_phi
    does from the other side: q's numerators over their common denominator
    L, and the integers L mu that the mu_from_q matrix maps them to, must give
    the same value by the q-form and the mu-form.  The q-side reference for
    km.dim_phi(mu_from_q(q))."""
    inst = q.instance
    d, b = inst.d, inst.b
    nums, den = scaled_ints(q.values)
    m = [_idot(row, nums) for row in dense_transform_rows(d, b)[0]]
    mu_form = km._dim_form((m[:d], m[d:]), d)
    if mu_form != _idot(km.delta_vec(inst), nums):
        raise AssertionError("dimension functional mismatch between coordinates")
    return Fraction(mu_form, den)


# ---------------------------------------------------------------------------
# the JSON encoder by the Fraction route
# ---------------------------------------------------------------------------

def encode(obj):
    """A payload with every Fraction replaced by its "p/q" string and every
    tuple by a list, walked before json.dumps sees it."""
    if isinstance(obj, Fraction):
        return fmt_frac(obj)
    if isinstance(obj, dict):
        return {k: encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [encode(v) for v in obj]
    return obj


# ---------------------------------------------------------------------------
# the search's top-row bound by an exact LP
# ---------------------------------------------------------------------------

def top_bound_lp(d: int, b: int, divisor: int | None = None) -> bool:
    """The top-row bound by an exact LP (Farkas' lemma): is
    <2 rho | top> - divisor * dim (divisor b+1 unless given), read off the
    search's code on unit triangles, a nonnegative combination of the rows
    of its real relaxation, the rows of dense_search_rows?  The reference
    for solver._prove, which checks one known combination."""
    divisor = b + 1 if divisor is None else divisor
    target = [_idot(two_rho(d), r[0]) - divisor * km._dim_form(r, d)
              for r in unit_triangles(d)]
    return in_cone(dense_search_rows(d, b), target)


def whole_triangle_certificate(rows, d: int, b: int) -> bool:
    """The top-row bound's closed-form certificate on the whole triangle
    only: <2 rho | top> - (b+1) dim, read off the search's code on unit
    triangles, is sum (i-1) q(i, j) over the scaled-q rows q(i, j) that end
    the (i, j) triples of the d-system's dense rows."""
    target = [_idot(two_rho(d), r[0]) - (b + 1) * km._dim_form(r, d)
              for r in unit_triangles(d)]
    weights = [i - 1 for i in range(2, d + 1) for _ in range(i, d + 1)]
    cols = zip(*rows[2::3], target)
    return all(_idot(weights, col) == t for *col, t in cols)


def sub_bounds_by_shifted_systems(d: int, b: int) -> bool:
    """The top-row bound on rows r-1..d by the smaller systems: for each
    2 <= d' <= d, the d'-system rows moved onto the last d' rows and columns
    are rows of the d-system, and the d'-system has the whole-triangle
    certificate.  The reference for solver._prove, which reads
    every suffix certificate off the d-system's own rows."""
    inst = KisinInstance(d, b)
    full = set(map(tuple, dense_search_rows(d, b)))
    for dp in range(2, d + 1):
        shift = d - dp
        at = [inst.cell_index(i + shift, j + shift) for i, j in KisinInstance(dp, b).cells]
        sub_rows = dense_search_rows(dp, b)
        for sub_row in sub_rows:
            row = [0] * inst.dim_E
            for k, x in zip(at, sub_row):
                row[k] = x
            if tuple(row) not in full:
                return False
        if not whole_triangle_certificate(sub_rows, dp, b):
            return False
    return True


def pulled_back_rows_dense(d: int, b: int) -> set:
    """The rows of Q pulled back to the mu-cells by dotting each halfspace
    with every column of the b(b-1) q-forms, as a set of primitive rows:
    the reference for the games that solver._prove reads at one point."""
    images = list(zip(*dense_transform_rows(d, b)[1]))
    return {primitive_ints([_idot(h.normal, q) for q in images])
            for h in cone_q(KisinInstance(d, b)).halfspaces}


# ---------------------------------------------------------------------------
# the witness reports by the Fraction route
# ---------------------------------------------------------------------------

def witness_le_e_report(inst: km.KisinInstance, e: int, q: km.QPoint) -> dict:
    """The report of bounds.witness_le_e on its point q, re-derived in
    Fractions: membership by the H-polyhedron cone_q, the top row of mu by
    dots with mu_cell_vector and the objective by the q-form of dim(phi)."""
    d, b = inst.d, inst.b
    n_raw = (e - b + 2) // (b + 1)
    n = max(0, n_raw)
    quarter = d * d // 4
    top = [dot(mu_cell_vector(inst, 1, j), q.values) for j in range(1, d + 1)]
    report = {
        "n_raw": n_raw, "n": n, "m": (-n) % (b - 1),
        "in_Q": contains(cone_q(inst), q.values),
        "in_R": q_in_lattice(q),
        "mu_top_le_e": top[0] <= e,
        "mu_bottom_ge_0": top[-1] >= 0,
        "objective": dot(km.delta_vec(inst), q.values),
        "objective_target": quarter * n,
        "objective_lower_target": quarter * n_raw,
    }
    report["ok"] = (report["in_Q"] and report["in_R"] and report["mu_top_le_e"]
                    and report["mu_bottom_ge_0"]
                    and report["objective"] == report["objective_target"]
                    and report["objective"] >= report["objective_lower_target"])
    return report


def witness_le_mu_report(inst: km.KisinInstance, mu, q: km.QPoint) -> dict:
    """The report of bounds.witness_le_mu on its point q, re-derived in
    Fractions as in witness_le_e_report, with g(q) the dots with the
    top-row vectors and each level rounded up by floor division."""
    mu = vec(mu)
    d, b = inst.d, inst.b
    qp = [Fraction(mu[i - 1] + b * mu[d - i], b * b - 1) for i in range(1, d + 1)]
    qq = [-(-x.numerator // x.denominator) for x in qp[:-1]]
    qq.append(int(sum(qp)) - sum(qq))
    g = [dot(mu_cell_vector(inst, 1, i), q.values) for i in range(1, d + 1)]
    target = Fraction(dot(two_rho(d), mu), b + 1)
    report = {
        "q_levels": qq,
        "in_Q": contains(cone_q(inst), q.values),
        "in_R": q_in_lattice(q),
        "image_dominated": all(sum(g[:t]) <= sum(mu[:t]) for t in range(1, d))
        and sum(g) == sum(mu),
        "objective": dot(km.delta_vec(inst), q.values),
        "objective_provable_target": target - d * (d - 1),
        "objective_stated_target": target - (d - 1) ** 2 - Fraction((d - 2) ** 2, 4),
        "exact_when_integral": all(x == y for x, y in zip(qp, qq)),
    }
    report["meets_stated_constant"] = report["objective"] >= report["objective_stated_target"]
    # the rounding loss is 0 with no level rounded (always at d = 1) and
    # below d(d-1) otherwise
    report["ok"] = (report["in_Q"] and report["in_R"] and report["image_dominated"]
                    and (report["objective"] == target if report["exact_when_integral"]
                         else report["objective"] > report["objective_provable_target"]))
    return report


# ---------------------------------------------------------------------------
# the permutation layer on Fractions and on pairs of permutations
# ---------------------------------------------------------------------------

def identity(d: int) -> Permutation:
    return Permutation(tuple(range(1, d + 1)))


def cycles(w: Permutation) -> list[tuple[int, ...]]:
    """The cycles of w, as `perm._cycles` lists them."""
    return _cycles(w.images)


def order(w: Permutation) -> int:
    """The order of w in S_d: the lcm of its cycle lengths."""
    return lcm(*map(len, cycles(w)))


def rho_w_fraction(w, b: int):
    """rho_w in Fractions, summed in closed form over each cycle of w:
    coordinate i is (d+1-i) - (b-1) s / (b^L - 1), with L the length of
    i's cycle and s = sum_{n=1..L} w^n(i) b^{L-n}."""
    d = w.d
    out = [Fraction(0)] * d
    for cyc in cycles(w):
        L = len(cyc)
        for i in cyc:
            s = 0
            j = i
            for n in range(1, L + 1):
                j = w(j)
                s += j * b ** (L - n)
            out[i - 1] = Fraction(d + 1 - i) - Fraction((b - 1) * s, b ** L - 1)
    return tuple(out)


def min_over_permutations_fraction(mu, b: int):
    """min_w <rho_w | mu> over S_d by Fraction dots, with the argmin in the
    order of all_permutations."""
    best, argmin = None, []
    for w in all_permutations(len(mu)):
        v = sum((x * m for x, m in zip(rho_w_fraction(w, b), mu)), Fraction(0))
        if best is None or v < best:
            best, argmin = v, [w]
        elif v == best:
            argmin.append(w)
    return best, argmin


def _prefix_sum_sequence(w, s: int, length: int) -> list[int]:
    """(sum_{i<=s} w^n(i)) for n = 1..length."""
    cur = list(range(1, w.d + 1))
    out = []
    for _ in range(length):
        cur = [w(x) for x in cur]
        out.append(sum(cur[:s]))
    return out


def precedes_pairwise(w1, w2) -> bool:
    """w1 <= w2 in the order on S_d, comparing the prefix-sum sequences up
    to n = lcm of the two permutation orders."""
    n = lcm(order(w1), order(w2))
    return all(_prefix_sum_sequence(w1, s, n) <= _prefix_sum_sequence(w2, s, n)
               for s in range(1, w1.d))


def hasse_diagram_pairwise(d: int) -> list:
    """The covers (lower, upper) of the order on S_d, from the strict
    relation on every ordered pair and a second pass over the pairs."""
    perms = list(all_permutations(d))
    less = {a: {c for c in perms if a != c and precedes_pairwise(a, c)} for a in perms}
    return [(a, c) for a in perms for c in less[a]
            if not any(c in less[m] for m in less[a] if m != c)]


# ---------------------------------------------------------------------------
# the admissible level sets and the order on S_d by signatures
# ---------------------------------------------------------------------------

def level_set(w: Permutation, s: int) -> AdmissibleSubset:
    """I_s(w), the admissible subset attached to T_s(w) = w*({1..s})."""
    ws = w_star(w)
    return admissible_from_subset(w.d, {ws(i) for i in range(1, s + 1)})


def tableau_level_set(t: OrdTableau, s: int) -> AdmissibleSubset:
    """The cells of t with entry <= s, as an admissible subset."""
    cells = frozenset(c for c, v in t.entries.items() if v <= s)
    return admissible_from_cells(t.d, cells)


def admissible_from_cells(d: int, cells) -> AdmissibleSubset:
    """Build an AdmissibleSubset from its cell set (validates closure)."""
    cells = frozenset((int(i), int(j)) for i, j in cells)
    counts = frozenset(c for c in (sum(1 for (a, _) in cells if a == i)
                                   for i in range(1, d + 1)) if c)
    adm = AdmissibleSubset(d, cells, counts)
    if admissible_from_subset(d, counts).cells != cells:
        raise ValueError("cell set is not the admissible set of its T")
    return adm


def admissible_level(d: int, s: int) -> AdmissibleSubset:
    """I_s = {(i,j) : j - i >= d - s}, the admissible subset of {1..s}."""
    return admissible_from_subset(d, range(1, s + 1))


def precedes(w1: Permutation, w2: Permutation) -> bool:
    """The order on S_d: w1 <= w2 iff for every s the sequence of prefix sums
    sum_{i<=s} w1^n(i) is lexicographically <= the one for w2.

    The sequences are periodic in n, with a period dividing the order of
    the permutation, so comparing them up to n = lcm(1..d), a multiple of
    every order in S_d, decides; this is the comparison of the two
    signatures.  It agrees with the rho form
    in_dual_chain_cone(rho_w(w1, b) - rho_w(w2, b)) once
    b >= floor(d^2/4) + 1 (checked exhaustively through d = 5; at
    (d, b) = (4, 3) and (4, 4) the two differ).
    """
    if w1.d != w2.d:
        raise ValueError("permutations of different sizes")
    return all(x <= y for x, y in zip(_signature(w1), _signature(w2)))


def in_dual_chain_cone(z: Vec) -> bool:
    """Membership in C* = {z : sum z = 0, all prefix sums >= 0}."""
    total = sum(z)
    if total != 0:
        return False
    run = 0
    for x in z[:-1]:
        run += x
        if run < 0:
            return False
    return True


# ---------------------------------------------------------------------------
# max flow / min cut on integer capacities
# ---------------------------------------------------------------------------

def maxflow(source, sink, edges) -> tuple[int, list[int]]:
    """Edmonds-Karp on a list of (u, v, capacity) edges with nonnegative
    integer capacities; parallel edges are allowed.  Returns the value of a
    maximum flow and the flow on each edge, in edge order."""
    if source == sink:
        raise ValueError("source and sink must differ")
    if any(c < 0 for _, _, c in edges):
        raise ValueError("negative capacity")
    m = len(edges)
    # residual arcs: forward i and backward i + m, with tail and head
    residual = [c for _, _, c in edges] + [0] * m
    tail = [u for u, _, _ in edges] + [v for _, v, _ in edges]
    head = tail[m:] + tail[:m]
    out: dict[object, list[int]] = {}
    for i, u in enumerate(tail):
        out.setdefault(u, []).append(i)
    total = 0
    while True:
        # BFS for a shortest augmenting path
        prev = {source: None}
        queue = deque([source])
        while queue and sink not in prev:
            for i in out.get(queue.popleft(), ()):
                if residual[i] > 0 and head[i] not in prev:
                    prev[head[i]] = i
                    queue.append(head[i])
        if sink not in prev:
            break
        path = []
        v = sink
        while prev[v] is not None:
            path.append(prev[v])
            v = tail[prev[v]]
        bottleneck = min(residual[i] for i in path)
        for i in path:
            residual[i] -= bottleneck
            residual[(i + m) % (2 * m)] += bottleneck
        total += bottleneck
    return total, residual[m:]


# ---------------------------------------------------------------------------
# graph cones and their dual-membership oracles
# ---------------------------------------------------------------------------

def admissible_vertex_subsets(nodes: list, arcs: list[tuple]) -> list[frozenset]:
    """Subsets S' closed under outgoing arcs (every arc from S' stays in S')."""
    nodes = list(nodes)
    out = []
    for k in range(len(nodes) + 1):
        for sub in combinations(nodes, k):
            s = frozenset(sub)
            if all(not (u in s and v not in s) for u, v in arcs):
                out.append(s)
    return out


def graph_cone_dual_membership(nodes: list, arcs: list[tuple], x: dict) -> bool:
    """Membership of x in the dual of the cone {y : y_v <= y_u per arc u->v}.

    Runs two oracles, one over the admissible vertex subsets and one by a
    max-flow construction (Picard's closure network), and raises if they
    disagree.  x is scaled by the lcm of its denominators to integers X,
    and big = max|X| + 1.  Each source edge src->s gets X_s + big, each
    sink edge s->snk gets big, and each arc gets big*n, the whole source
    capacity when sum X = 0.  A cut {src} + S with an arc leaving S costs
    at least big*n; with S closed under the arcs it costs
    big*n - sum_{s in S} X_s, and S = {} is closed.  So, as with infinite
    arcs, the maximum flow saturates the source exactly when every closed
    set has a nonpositive sum: the test the subset oracle makes.
    """
    nodes = list(nodes)
    X = dict(zip(nodes, scaled_ints([frac(x[s]) for s in nodes])[0]))
    if sum(X.values()) != 0:
        return False
    by_subsets = all(sum(X[s] for s in sub) <= 0
                     for sub in admissible_vertex_subsets(nodes, arcs))
    n = len(nodes)
    big = max(map(abs, X.values()), default=0) + 1
    src, snk = ("__D__",), ("__A__",)
    edges = [(u, v, big * n) for u, v in arcs]
    edges += [(src, s, X[s] + big) for s in nodes] + [(s, snk, big) for s in nodes]
    by_flow = maxflow(src, snk, edges)[0] == big * n
    if by_subsets != by_flow:
        raise AssertionError(f"dual membership oracles disagree: subsets={by_subsets} "
                             f"flow={by_flow}")
    return by_subsets


# ---------------------------------------------------------------------------
# call counters and the package's lru caches
# ---------------------------------------------------------------------------

def fraction_constructions(fn) -> int:
    """The number of Fraction.__new__ calls made while fn() runs."""
    return code_calls(Fraction.__new__.__code__, fn)


def code_calls(code, fn) -> int:
    """The number of calls of the code object `code` made while fn() runs."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is code:
            calls += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def lru_caches():
    """(qualified name, function) for every lru_cache of the package."""
    for info in pkgutil.iter_modules(kisindim.__path__):
        module = importlib.import_module(f"kisindim.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_parameters") and obj.__module__ == module.__name__:
                yield f"{module.__name__}.{name}", obj


def clear_caches():
    """Clear every lru_cache of the package and the oracles' own
    `_q_generators`."""
    for _, fn in lru_caches():
        fn.cache_clear()
    _q_generators.cache_clear()
