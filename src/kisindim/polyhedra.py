"""Exact-rational linear algebra and polyhedral geometry.

There is no floating point anywhere in this module.  The double
description and the LP oracle run on primitive integer vectors (rows and
rays scaled by positive rationals, which changes neither cones nor
feasibility).  `fractions.Fraction` appears only at the API edge (the
coordinates of points, rays and halfspaces), in `rref` and the helpers
built on it, and in the max-flow capacities.  Polyhedra come in two
representations:

- `HPolyhedron`: a finite list of halfspaces ``<a, x> >= c`` and equations
  ``<a, x> = c``;
- `VPolyhedron`: vertices, recession-cone rays and (rarely) lines.

Conversion in both directions goes through the double description method
on a homogenizing cone, with the lineality space split off first so that
the incremental step only ever runs on pointed cones.  Output is always
minimal and sorted lexicographically, which makes results deterministic
and directly comparable as exact sets.

The module also carries a max-flow solver on rational capacities (with an
infinity sentinel) and the two dual-membership oracles for graph cones
that it certifies.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

Vec = tuple[Fraction, ...]
IVec = tuple[int, ...]

INF = None  # capacity sentinel: +infinity


# ---------------------------------------------------------------------------
# small exact linear algebra
# ---------------------------------------------------------------------------

def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def vec(xs) -> Vec:
    return tuple(frac(x) for x in xs)


def dot(u: Vec, v: Vec) -> Fraction:
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def is_zero(v: Vec) -> bool:
    return all(a == 0 for a in v)


def primitive_ints(v) -> IVec:
    """Scale a rational vector by a positive rational to coprime integers
    (the zero vector stays zero)."""
    den = 1
    for a in v:
        den = den * a.denominator // gcd(den, a.denominator)
    ints = [a.numerator * (den // a.denominator) for a in v]
    g = gcd(*ints)
    return tuple(a // g for a in ints) if g > 1 else tuple(ints)


def _idot(u, v) -> int:
    return sum(x * y for x, y in zip(u, v))


def _eliminate(row: list[int], t: list[int], c: int) -> list[int]:
    """Clear column c of row with a multiple of t (t[c] != 0), keeping the
    sign of row, and divide out the gcd."""
    if not row[c]:
        return row
    p, f = (t[c], row[c]) if t[c] > 0 else (-t[c], -row[c])
    out = [p * x - f * y for x, y in zip(row, t)]
    g = gcd(*out)
    return [x // g for x in out] if g > 1 else out


def normalize_ray(v: Vec) -> Vec:
    """Scale by a positive rational so entries are coprime integers."""
    return tuple(map(Fraction, primitive_ints(v)))


def _canonical_line(v) -> IVec:
    """Primitive integer direction of a line, first nonzero entry positive."""
    w = primitive_ints(v)
    return w if next((a for a in w if a), 0) >= 0 else tuple(-a for a in w)


def normalize_line(v: Vec) -> Vec:
    """Like normalize_ray but with a canonical sign (first nonzero > 0)."""
    return tuple(map(Fraction, _canonical_line(v)))


def rref(rows: list[Vec], n: int) -> tuple[list[Vec], list[int]]:
    """Reduced row echelon form of integer or rational rows; returns
    (nonzero rows, pivot columns)."""
    mat = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = Fraction(1) / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [tuple(row) for row in mat[:r]], pivots


def nullspace(rows: list[Vec], n: int) -> list[Vec]:
    """Basis of {x : <r, x> = 0 for all rows r}."""
    red, pivots = rref(rows, n)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        x = [Fraction(0)] * n
        x[f] = Fraction(1)
        for row, p in zip(red, pivots):
            x[p] = -row[f]
        basis.append(tuple(x))
    return basis


def rank(rows: list[Vec], n: int) -> int:
    return len(rref(rows, n)[0])


def solve(rows: list[Vec], rhs: list[Fraction], n: int) -> Vec | None:
    """One solution of the linear system, or None if inconsistent."""
    aug = [tuple(list(r) + [b]) for r, b in zip(rows, rhs)]
    red, pivots = rref(aug, n + 1)
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for row, p in zip(red, pivots):
        x[p] = row[n]
    return tuple(x)


# ---------------------------------------------------------------------------
# rational formatting ("p/q", lowest terms, q > 0; integers print bare)
# ---------------------------------------------------------------------------

def fmt_frac(x: Fraction) -> str:
    x = frac(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_frac(s: str) -> Fraction:
    return Fraction(s)


# ---------------------------------------------------------------------------
# polyhedron types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Halfspace:
    """``<normal, x> >= offset`` (or ``=`` when is_eq)."""

    normal: Vec
    offset: Fraction = Fraction(0)
    is_eq: bool = False

    def __post_init__(self):
        object.__setattr__(self, "normal", vec(self.normal))
        object.__setattr__(self, "offset", frac(self.offset))
        if not self.is_eq and is_zero(self.normal):
            raise ValueError("inequality with zero normal")

    def holds(self, x: Vec) -> bool:
        v = dot(self.normal, x)
        return v == self.offset if self.is_eq else v >= self.offset


@dataclass(frozen=True)
class HPolyhedron:
    dim: int
    halfspaces: tuple[Halfspace, ...]

    @staticmethod
    def build(dim, ineqs=(), eqs=()):
        """ineqs/eqs are (normal, offset) pairs; offset defaults to 0."""
        hs = []
        for item in ineqs:
            a, c = _split(item)
            hs.append(Halfspace(a, c))
        for item in eqs:
            a, c = _split(item)
            hs.append(Halfspace(a, c, is_eq=True))
        return HPolyhedron(dim, tuple(hs))

    @property
    def ineqs(self):
        return [h for h in self.halfspaces if not h.is_eq]

    @property
    def eqs(self):
        return [h for h in self.halfspaces if h.is_eq]

    def contains(self, x: Vec) -> bool:
        x = vec(x)
        if len(x) != self.dim:
            raise ValueError(f"point of dimension {len(x)} in R^{self.dim}")
        return all(h.holds(x) for h in self.halfspaces)

    def contains_ray(self, r: Vec) -> bool:
        """Is r in the recession cone?"""
        r = vec(r)
        for h in self.halfspaces:
            v = dot(h.normal, r)
            if (h.is_eq and v != 0) or (not h.is_eq and v < 0):
                return False
        return True

    def intersect(self, other: "HPolyhedron") -> "HPolyhedron":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return HPolyhedron(self.dim, self.halfspaces + other.halfspaces)

    def translate(self, p: Vec) -> "HPolyhedron":
        """The translate P + p."""
        p = vec(p)
        return HPolyhedron(self.dim, tuple(
            Halfspace(h.normal, h.offset + dot(h.normal, p), h.is_eq)
            for h in self.halfspaces))

    def to_json(self) -> str:
        return json.dumps({
            "dim": self.dim,
            "ineqs": [[fmt_frac(a) for a in h.normal] + [fmt_frac(h.offset)]
                      for h in self.ineqs],
            "eqs": [[fmt_frac(a) for a in h.normal] + [fmt_frac(h.offset)]
                    for h in self.eqs],
        }, sort_keys=True)

    @staticmethod
    def from_json(s: str) -> "HPolyhedron":
        d = json.loads(s)
        ineqs = [(vec(map(parse_frac, row[:-1])), parse_frac(row[-1])) for row in d["ineqs"]]
        eqs = [(vec(map(parse_frac, row[:-1])), parse_frac(row[-1])) for row in d["eqs"]]
        return HPolyhedron.build(d["dim"], ineqs, eqs)


def _split(item):
    if isinstance(item, Halfspace):
        return item.normal, item.offset
    if len(item) == 2 and not isinstance(item[1], (tuple, list)):
        try:
            return vec(item[0]), frac(item[1])
        except TypeError:
            pass
    return vec(item), Fraction(0)


@dataclass(frozen=True)
class VPolyhedron:
    """conv(vertices) + cone(rays) + span(lines); minimal and sorted."""

    dim: int
    vertices: tuple[Vec, ...]
    rays: tuple[Vec, ...]
    lines: tuple[Vec, ...] = ()

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    def to_json(self) -> str:
        out = {
            "vertices": [[fmt_frac(a) for a in v] for v in self.vertices],
            "rays": [[fmt_frac(a) for a in r] for r in self.rays],
        }
        if self.lines:
            out["lines"] = [[fmt_frac(a) for a in l] for l in self.lines]
        return json.dumps(out, sort_keys=True)

    @staticmethod
    def from_json(s: str, dim: int | None = None) -> "VPolyhedron":
        d = json.loads(s)
        vs = tuple(vec(map(parse_frac, v)) for v in d["vertices"])
        rs = tuple(vec(map(parse_frac, r)) for r in d["rays"])
        ls = tuple(vec(map(parse_frac, l)) for l in d.get("lines", []))
        if dim is None:
            dim = len(vs[0]) if vs else (len(rs[0]) if rs else 0)
        return VPolyhedron(dim, vs, rs, ls)


# ---------------------------------------------------------------------------
# double description
# ---------------------------------------------------------------------------

def _initial_simplicial(rows: list[IVec], n: int) -> tuple[list[int], list[IVec]]:
    """Pick n independent rows B and return their indices and the primitive
    integer rays of the cone they cut out, the columns of B^-1, by
    fraction-free Gauss-Jordan elimination on [B | I]."""
    chosen: list[int] = []
    tab: list[list[int]] = []  # reduced rows of [B | I]
    pivots: list[int] = []
    for i, r in enumerate(rows):
        row = list(r) + [int(j == len(chosen)) for j in range(n)]
        for c, t in zip(pivots, tab):
            row = _eliminate(row, t, c)
        c = next((c for c in range(n) if row[c]), None)
        if c is None:
            continue
        tab = [_eliminate(t, row, c) for t in tab] + [row]
        chosen.append(i)
        pivots.append(c)
        if len(chosen) == n:
            break
    if len(chosen) < n:
        raise ValueError("constraint matrix not full rank (cone not pointed)")
    # each row t of tab is t[c] times row c of [I | B^-1], c its pivot
    scale = 1
    for c, t in zip(pivots, tab):
        scale = scale * abs(t[c]) // gcd(scale, t[c])
    rays = []
    for j in range(n):
        x = [0] * n
        for c, t in zip(pivots, tab):
            x[c] = t[n + j] * (scale // t[c])
        rays.append(primitive_ints(x))
    return chosen, rays


def _extreme_rays_pointed(rows: list[IVec], n: int) -> list[IVec]:
    """Extreme rays of the pointed full-dimensional cone {x : <r,x> >= 0}.

    Incremental double description with the combinatorial adjacency test.
    Rows are integer vectors and rays primitive integer vectors: a new ray
    is the positive combination vals[p]*r_m - vals[m]*r_p divided by its
    gcd, so no rational arithmetic is needed.
    """
    if n == 0:
        return []
    chosen, rays = _initial_simplicial(rows, n)
    # zero sets over the processed constraints, as bitmasks; initial ray j
    # is tight on every chosen row but the j-th
    zsets = [((1 << n) - 1) ^ (1 << j) for j in range(n)]
    bit = 1 << n
    skip = set(chosen)
    for idx, a in enumerate(rows):
        if idx in skip:
            continue
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
                    # adjacency: no third ray's zero set contains the common one
                    adjacent = True
                    for q in range(len(rays)):
                        if q != p and q != m and (zsets[q] & common) == common:
                            adjacent = False
                            break
                    if not adjacent:
                        continue
                    vp, vm = vals[p], -vals[m]
                    r = [vp * x + vm * y for x, y in zip(rays[m], rays[p])]
                    g = gcd(*r)
                    new_rays.append(tuple(x // g for x in r))
                    new_z.append(common | bit)
        rays, zsets = new_rays, new_z
        bit <<= 1
    return rays


def cone_generators(ineqs: list[Vec], eqs: list[Vec], n: int) -> tuple[list[Vec], list[Vec]]:
    """Minimal (lines, rays) generating {x : <a,x> >= 0, <e,x> = 0}.

    The rows are scaled to primitive integer vectors once, the double
    description and the maps back run on integers, and the generators
    become `Fraction` tuples only on return.  Positive rescaling of the
    parametrisations N and W below leaves the normalised output unchanged.
    """
    A = [primitive_ints(a) for a in ineqs]
    N = None
    if eqs:
        # restrict to the equation subspace: x = N u
        N = [primitive_ints(c) for c in nullspace([primitive_ints(e) for e in eqs], n)]
        if not N:
            return [], []
        A = [tuple(_idot(a, c) for c in N) for a in A]
    k = n if N is None else len(N)
    A = [r for r in A if any(r)]
    # lineality of the restricted cone
    lines = [primitive_ints(u) for u in nullspace(A, k)]
    if lines:
        # quotient out the lineality: u = W^T t with W = rowspace(A)
        W = [primitive_ints(w) for w in rref(A, k)[0]]
        rays2 = _extreme_rays_pointed([tuple(_idot(a, w) for w in W) for a in A], len(W))
        rays = [primitive_ints([_idot(t, col) for col in zip(*W)]) for t in rays2]
    else:
        rays = _extreme_rays_pointed(A, k)
    if N is not None:
        cols = list(zip(*N))
        lines = [[_idot(u, col) for col in cols] for u in lines]
        rays = [primitive_ints([_idot(u, col) for col in cols]) for u in rays]
    return ([tuple(map(Fraction, l)) for l in sorted(set(map(_canonical_line, lines)))],
            [tuple(map(Fraction, r)) for r in sorted(set(rays))])


def enumerate_vertices(P: HPolyhedron) -> VPolyhedron:
    """Exact minimal V-representation; empty lists when P is empty."""
    n = P.dim
    hom_ineqs = [tuple(list(h.normal) + [-h.offset]) for h in P.ineqs]
    hom_ineqs.append(tuple([Fraction(0)] * n + [Fraction(1)]))  # t >= 0
    hom_eqs = [tuple(list(h.normal) + [-h.offset]) for h in P.eqs]
    lines, rays = cone_generators(hom_ineqs, hom_eqs, n + 1)
    if any(l[n] for l in lines):
        raise AssertionError("a line of the homogenized cone leaves t = 0")
    verts = []
    vrays = []
    for r in rays:
        if r[n] > 0:
            verts.append(tuple(a / r[n] for a in r[:n]))
        else:
            vrays.append(normalize_ray(r[:n]))
    vlines = [normalize_line(l[:n]) for l in lines]
    if not verts:
        return VPolyhedron(n, (), (), ())
    return VPolyhedron(n, tuple(sorted(verts)), tuple(sorted(vrays)), tuple(sorted(vlines)))


def cone_hull(rays: list[Vec], lines: list[Vec], n: int) -> HPolyhedron:
    """Minimal H-representation of cone(rays) + span(lines)."""
    dlines, drays = cone_generators([vec(r) for r in rays], [vec(l) for l in lines], n)
    ineqs = [(r, Fraction(0)) for r in drays]
    eqs = [(l, Fraction(0)) for l in dlines]
    return HPolyhedron.build(n, ineqs, eqs)


def v_to_h(V: VPolyhedron) -> HPolyhedron:
    """H-representation of a nonempty V-polyhedron."""
    if V.is_empty:
        raise ValueError("cannot convert the empty polyhedron to halfspaces")
    n = V.dim
    gens = [tuple(list(v) + [Fraction(1)]) for v in V.vertices]
    gens += [tuple(list(r) + [Fraction(0)]) for r in V.rays]
    glines = [tuple(list(l) + [Fraction(0)]) for l in V.lines]
    H = cone_hull(gens, glines, n + 1)
    ineqs = []
    eqs = []
    for h in H.ineqs:
        a, a0 = h.normal[:n], h.normal[n]
        if is_zero(a):
            continue  # the trivial t >= 0 facet
        ineqs.append((a, -a0))
    for h in H.eqs:
        a, a0 = h.normal[:n], h.normal[n]
        if is_zero(a):
            if a0 != 0:
                raise AssertionError("inconsistent homogenization")
            continue
        eqs.append((a, -a0))
    return HPolyhedron.build(n, ineqs, eqs)


def dual_cone(generators: list[Vec], dim: int) -> HPolyhedron:
    """{x : <x, g> >= 0 for every generator g}."""
    gens = [vec(g) for g in generators]
    return HPolyhedron.build(dim, [(g, 0) for g in gens if not is_zero(g)])


def dual_cone_h(P: HPolyhedron) -> tuple[list[Vec], list[Vec]]:
    """Generators (lines, rays) of the dual of a cone given by halfspaces
    through the origin: the dual is generated by the inequality normals
    plus +-(equation normals)."""
    for h in P.halfspaces:
        if h.offset != 0:
            raise ValueError("dual_cone_h expects a cone through the origin")
    rays = [h.normal for h in P.ineqs]
    lines = [h.normal for h in P.eqs]
    return lines, rays


def polyhedra_set_equal(P: HPolyhedron, Q: HPolyhedron) -> bool:
    """Exact set equality via mutual containment of V-representations."""
    VP, VQ = enumerate_vertices(P), enumerate_vertices(Q)
    return _v_inside_h(VP, Q) and _v_inside_h(VQ, P)


def _v_inside_h(V: VPolyhedron, H: HPolyhedron) -> bool:
    if V.is_empty:
        return enumerate_vertices(H).is_empty
    return (all(H.contains(v) for v in V.vertices)
            and all(H.contains_ray(r) for r in V.rays)
            and all(H.contains_ray(l) and H.contains_ray(tuple(-a for a in l)) for l in V.lines))


# ---------------------------------------------------------------------------
# exact LP feasibility (cone membership) and vertices of Minkowski sums
# ---------------------------------------------------------------------------

def in_cone(generators: list[Vec], target: Vec) -> bool:
    """Is target a nonnegative combination of the generators?

    Phase-1 simplex with Bland's rule.  Rows are kept as integer vectors
    (positive rescaling preserves both feasibility and the Bland order),
    the ratio test cross-multiplies, so no rational arithmetic is needed.
    """
    n = len(target)
    gens = [primitive_ints(g) for g in generators]
    tgt = primitive_ints(target)
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


def vertices_of_sum(P: HPolyhedron, vertices, gens) -> list[Vec]:
    """The vertices of P + cone(gens), given the vertices of P, sorted.

    Every vertex of the sum is a vertex of P, and by the normal-fan
    criterion for Minkowski sums (Ziegler, *Lectures on Polytopes*, sec. 7)
    a vertex v of P is one exactly when some c in the normal cone N of P at
    v has <c, g> > 0 for every generator g.  If c exposes v in the sum, it
    lies in N and is positive on every g.  Conversely, the set
    {c : <c, g> > 0 for all g} is open and N is full-dimensional at a
    vertex, so the set also meets the interior of N; such a c is minimised
    over P at v alone, and over the sum too.

    N is generated by the normals of the inequalities tight at v plus the
    equation normals with both signs, so the test is one feasibility LP in
    R^|gens|: is (1, ..., 1) a nonnegative combination of their images
    (<a, g>)_g and the slacks -e_k?  The recession cone of P needs no
    separate care, since it is part of the H-representation.  Rows,
    vertices and images are all integers, so the test is exact.
    """
    n = P.dim
    if rank([h.normal for h in P.halfspaces], n) < n:
        raise ValueError("summand with lines has no vertices")
    gens = [g for g in map(primitive_ints, gens) if any(g)]
    k = len(gens)
    rows, cone_gens = [], []
    for h in P.halfspaces:
        a = primitive_ints(h.normal + (-h.offset,))
        image = tuple(_idot(a, g) for g in gens)
        if h.is_eq:
            cone_gens += [image, tuple(-x for x in image)]
        else:
            rows.append((a, image))
    cone_gens += [tuple(-int(i == j) for j in range(k)) for i in range(k)]
    ones = (1,) * k
    out = []
    for v in vertices:
        hv = primitive_ints(v + (1,))
        tight = [image for a, image in rows if _idot(a, hv) == 0]
        if in_cone(tight + cone_gens, ones):
            out.append(v)
    return sorted(out)


def minkowski_sum_cone(P: HPolyhedron | VPolyhedron, cone_gens: list[Vec]) -> HPolyhedron:
    """H-representation of P + cone(cone_gens)."""
    V = P if isinstance(P, VPolyhedron) else enumerate_vertices(P)
    if V.is_empty:
        raise ValueError("Minkowski sum with the empty polyhedron")
    gens = [normalize_ray(vec(g)) for g in cone_gens]
    gens = [g for g in gens if not is_zero(g)]
    return v_to_h(VPolyhedron(V.dim, V.vertices, tuple(sorted(set(list(V.rays) + gens))), V.lines))


# ---------------------------------------------------------------------------
# max flow / min cut on rational capacities
# ---------------------------------------------------------------------------

@dataclass
class FlowNetwork:
    """Finite directed graph with a source, a sink and rational capacities.

    Capacities are nonnegative `Fraction`s, or the sentinel `INF` (None) for
    +infinity.  Parallel edges are allowed.
    """

    source: object
    sink: object
    edges: list[tuple[object, object, Fraction | None]] = field(default_factory=list)

    def __post_init__(self):
        if self.source == self.sink:
            raise ValueError("source and sink must differ")
        norm = []
        for u, v, c in self.edges:
            if c is not INF:
                c = frac(c)
                if c < 0:
                    raise ValueError("negative capacity")
            norm.append((u, v, c))
        self.edges = norm

    def add_edge(self, u, v, c):
        if c is not INF:
            c = frac(c)
            if c < 0:
                raise ValueError("negative capacity")
        self.edges.append((u, v, c))

    def nodes(self):
        seen = {self.source, self.sink}
        for u, v, _ in self.edges:
            seen.add(u)
            seen.add(v)
        return seen


def maxflow(net: FlowNetwork):
    """Edmonds-Karp.  Returns (value, flow) where flow maps edge index to the
    rational flow on that edge; value may be `math.inf` only when an all-
    infinite augmenting path exists."""
    import math

    m = len(net.edges)
    # residual arcs: 2 per edge (forward i, backward i+m)
    cap = [c for _, _, c in net.edges] + [Fraction(0)] * m
    flow = [Fraction(0)] * (2 * m)
    out: dict[object, list[int]] = {}
    for i, (u, v, _) in enumerate(net.edges):
        out.setdefault(u, []).append(i)
        out.setdefault(v, []).append(i + m)
    head = [v for _, v, _ in net.edges] + [u for u, _, _ in net.edges]

    def residual(i):
        return INF if cap[i] is INF else cap[i] - flow[i]

    total = Fraction(0)
    while True:
        # BFS for a shortest augmenting path
        prev = {net.source: None}
        queue = deque([net.source])
        while queue and net.sink not in prev:
            u = queue.popleft()
            for i in out.get(u, []):
                r = residual(i)
                if (r is INF or r > 0) and head[i] not in prev:
                    prev[head[i]] = i
                    queue.append(head[i])
        if net.sink not in prev:
            break
        # bottleneck
        bottleneck = INF
        v = net.sink
        while prev[v] is not None:
            i = prev[v]
            r = residual(i)
            if r is not INF and (bottleneck is INF or r < bottleneck):
                bottleneck = r
            v = net.edges[i][0] if i < m else net.edges[i - m][1]
        if bottleneck is INF:
            return math.inf, {}
        v = net.sink
        while prev[v] is not None:
            i = prev[v]
            j = i + m if i < m else i - m
            flow[i] += bottleneck
            flow[j] -= bottleneck
            v = net.edges[i][0] if i < m else net.edges[i - m][1]
        total += bottleneck
    return total, {i: flow[i] for i in range(m)}


# ---------------------------------------------------------------------------
# graph cones and their dual-membership oracles
# ---------------------------------------------------------------------------

def admissible_vertex_subsets(nodes: list, arcs: list[tuple]) -> list[frozenset]:
    """Subsets S' closed under outgoing arcs (every arc from S' stays in S')."""
    from itertools import combinations

    nodes = list(nodes)
    out = []
    for k in range(len(nodes) + 1):
        for sub in combinations(nodes, k):
            s = frozenset(sub)
            if all(not (u in s and v not in s) for u, v in arcs):
                out.append(s)
    return out


def graph_cone_dual_membership(nodes: list, arcs: list[tuple], x: dict,
                               method: str = "both") -> bool:
    """Membership of x in the dual of the cone {y : y_v <= y_u per arc u->v}.

    method: "subsets" enumerates admissible vertex subsets, "flow" runs the
    max-flow construction, "both" runs the two and insists they agree.
    """
    nodes = list(nodes)
    xs = {s: frac(x[s]) for s in nodes}
    if sum(xs.values()) != 0:
        return False

    def by_subsets():
        return all(sum((xs[s] for s in sub), Fraction(0)) <= 0
                   for sub in admissible_vertex_subsets(nodes, arcs))

    def by_flow():
        big = max((abs(v) for v in xs.values()), default=Fraction(0)) + 1
        src, snk = ("__D__",), ("__A__",)
        net = FlowNetwork(src, snk)
        for u, v in arcs:
            net.add_edge(u, v, INF)
        for s in nodes:
            net.add_edge(src, s, xs[s] + big)
            net.add_edge(s, snk, big)
        value, _ = maxflow(net)
        return value == big * len(nodes)

    if method == "subsets":
        return by_subsets()
    if method == "flow":
        return by_flow()
    a, b = by_subsets(), by_flow()
    if a != b:
        raise AssertionError(f"dual membership oracles disagree: subsets={a} flow={b}")
    return a
