"""Exact-rational linear algebra and polyhedral geometry.

There is no floating point anywhere in this module.  Elimination (`rank`,
`nullspace`, the row spaces and the initial simplex of the double
description), the double description itself and the LP oracle all run on
primitive integer vectors (rows and rays scaled by positive rationals,
which changes neither cones nor feasibility), through one fraction-free
row step, `_eliminate`.  `double_description` is the one incremental loop:
it starts from any simplicial seed (`_initial_simplicial` here, the unit
simplex of a cone given in its own coordinates elsewhere) and returns each
ray's zero set with it.  `kept_in_sum` decides which vertices of a
polyhedron survive into its sum with a cone from the facets tight at each,
and asks the LP only what its integer sign certificates leave open.  A
halfspace is stored as its primitive integer row, so membership is an
integer dot.  `fractions.Fraction` appears only at the API edge: `dot`,
the coordinates of points and vertices, and the max-flow capacities.  Rays
and lines are returned as primitive integer tuples.  Polyhedra come in two
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

from collections import deque
from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter, mul

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
    return sum(map(mul, u, v))


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
    """Primitive integer direction of a line, first nonzero entry positive."""
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
        row = list(primitive_ints(r))
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


def rank(rows, n: int) -> int:
    return len(_echelon(rows, n)[1])


# ---------------------------------------------------------------------------
# rational formatting ("p/q", lowest terms, q > 0; integers print bare)
# ---------------------------------------------------------------------------

def fmt_frac(x: Fraction) -> str:
    x = frac(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# immutable value types
# ---------------------------------------------------------------------------

class Frozen:
    """Base of the package's immutable value types.

    The fields of a subclass are the parameters of its own `__init__`, in
    order.  `__init__` checks its arguments and stores each field with
    `object.__setattr__(self, name, value)`, or all of them with
    `self._store(locals())`.

    Instances of one class with equal fields are equal and hash alike (with
    two or more fields, as their field tuple does), a repr lists the fields,
    and assignment raises `AttributeError`: the semantics of
    `@dataclass(frozen=True)`, without importing `dataclasses` or generating
    code for each class.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]
        cls._key = staticmethod(attrgetter(*cls._fields))

    def _store(self, values: dict) -> None:
        for name in self._fields:
            object.__setattr__(self, name, values[name])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# ---------------------------------------------------------------------------
# polyhedron types
# ---------------------------------------------------------------------------

class Halfspace(Frozen):
    """``<normal, x> >= offset`` (or ``=`` when is_eq).

    The rational input is stored as the primitive integer row of
    (normal, offset), a positive multiple of it that cuts out the same set,
    so every positive multiple of a row gives an equal halfspace."""

    def __init__(self, normal: Vec, offset: Fraction = 0, is_eq: bool = False):
        row = primitive_ints((*normal, offset))
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

    def contains(self, x: Vec) -> bool:
        if len(x) != self.dim:
            raise ValueError(f"point of dimension {len(x)} in R^{self.dim}")
        L = lcm(*(a.denominator for a in x))
        X = [a.numerator * (L // a.denominator) for a in x]
        for h in self.halfspaces:
            v, c = _idot(h.normal, X), h.offset * L
            if v < c or (h.is_eq and v != c):
                return False
        return True

    def contains_ray(self, r: Vec) -> bool:
        """Is r in the recession cone?"""
        r = primitive_ints(r)
        for h in self.halfspaces:
            v = _idot(h.normal, r)
            if v < 0 or (h.is_eq and v):
                return False
        return True

    def intersect(self, other: "HPolyhedron") -> "HPolyhedron":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return HPolyhedron(self.dim, self.halfspaces + other.halfspaces)


class VPolyhedron(Frozen):
    """conv(vertices) + cone(rays) + span(lines); minimal and sorted."""

    def __init__(self, dim: int, vertices: tuple[Vec, ...], rays: tuple[Vec, ...],
                 lines: tuple[Vec, ...] = ()):
        self._store(locals())

    @property
    def is_empty(self) -> bool:
        return not self.vertices


# ---------------------------------------------------------------------------
# double description
# ---------------------------------------------------------------------------

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


def double_description(seed: list[IVec], rows) -> tuple[list[IVec], list[int]]:
    """Extreme rays of a pointed cone, each with its zero set, from a
    simplicial seed.

    The seed is the n extreme rays of the cone of n independent seed rows:
    seed[j] is tight on every seed row but the j-th, so its zero set is
    bits 0..n-1 but bit j.  The rows are inserted one at a time (rows[i]
    is bit n + i) by incremental double description with the combinatorial
    adjacency test (Motzkin et al., 1953; Fukuda & Prodon, 1996).  Rows
    are integer vectors and rays primitive integer vectors: a new ray is
    the positive combination vals[p]*r_m - vals[m]*r_p divided by its gcd,
    so no rational arithmetic is needed, and it is tight on the new row by
    construction, so its zero set gets the bit without a dot product.
    Returns the rays and their zero sets over every row, as bitmasks.
    """
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
    A = [primitive_ints(a) for a in ineqs]
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
    """{x : <x, g> >= 0 for every generator g}, the dual of cone(generators)."""
    return HPolyhedron.build(dim, [(g, 0) for g in generators if any(g)])


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
    gens = [g for g in map(primitive_ints, gens) if any(g)]
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


# ---------------------------------------------------------------------------
# max flow / min cut on rational capacities
# ---------------------------------------------------------------------------

class FlowNetwork:
    """Finite directed graph with a source, a sink and rational capacities.

    Capacities are nonnegative `Fraction`s, or the sentinel `INF` (None) for
    +infinity.  Parallel edges are allowed.  A network is mutable and
    unhashable; two networks are equal when source, sink and edges are.
    """

    def __init__(self, source, sink, edges=()):
        if source == sink:
            raise ValueError("source and sink must differ")
        self.source, self.sink = source, sink
        self.edges: list[tuple[object, object, Fraction | None]] = []
        for u, v, c in edges:
            self.add_edge(u, v, c)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.source, self.sink, self.edges) == (other.source, other.sink, other.edges)

    __hash__ = None

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


def graph_cone_dual_membership(nodes: list, arcs: list[tuple], x: dict) -> bool:
    """Membership of x in the dual of the cone {y : y_v <= y_u per arc u->v}.

    Runs two oracles, one over the admissible vertex subsets and one by a
    max-flow construction, and raises if they disagree.
    """
    nodes = list(nodes)
    xs = {s: frac(x[s]) for s in nodes}
    if sum(xs.values()) != 0:
        return False
    by_subsets = all(sum((xs[s] for s in sub), Fraction(0)) <= 0
                     for sub in admissible_vertex_subsets(nodes, arcs))
    big = max((abs(v) for v in xs.values()), default=Fraction(0)) + 1
    src, snk = ("__D__",), ("__A__",)
    net = FlowNetwork(src, snk)
    for u, v in arcs:
        net.add_edge(u, v, INF)
    for s in nodes:
        net.add_edge(src, s, xs[s] + big)
        net.add_edge(s, snk, big)
    by_flow = maxflow(net)[0] == big * len(nodes)
    if by_subsets != by_flow:
        raise AssertionError(f"dual membership oracles disagree: subsets={by_subsets} "
                             f"flow={by_flow}")
    return by_subsets
