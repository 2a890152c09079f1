"""Exact-rational linear algebra and polyhedral geometry.

There is no floating point anywhere in this module.  Elimination (`_echelon`,
`nullspace`, the row spaces and the initial simplex of the double
description) and the double description itself run on primitive integer
vectors (rows and rays scaled by positive rationals, which changes no
cone), through one fraction-free row step, `_eliminate`.  They are the
package's one polyhedral engine: it solves no LP (the exact simplex is a
test oracle, in tests/oracles.py).  `double_description` is the one
incremental loop: it starts from any simplicial seed (`_initial_simplicial`
here, the rays of a simplicial cone known in closed form elsewhere) and
returns each ray's zero set with it, so a caller reads the rows tight at
each ray off its bits with no dot product.  A halfspace is stored as its primitive
integer row, so membership is an integer dot on a point's numerators
over their common denominator (`scaled_ints`).  `fractions.Fraction`
appears only at the API edge: `dot` and the coordinates of points and
vertices.  Rays and lines are returned as primitive integer tuples.
Polyhedra come in two representations:

- `HPolyhedron`: a finite list of halfspaces ``<a, x> >= c`` and equations
  ``<a, x> = c``;
- `VPolyhedron`: vertices, recession-cone rays and (rarely) lines.

`enumerate_vertices` converts the first to the second (and
`cone_generators` a cone to its generators) by the double description
method on a homogenizing cone, with the lineality space split off first so that
the incremental step only ever runs on pointed cones.  Output is always
minimal and sorted lexicographically, which makes results deterministic
and directly comparable as exact sets.

The module also carries a max-flow solver on integer capacities and the
two dual-membership oracles for graph cones that it certifies.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter, mul

Vec = tuple[Fraction, ...]
IVec = tuple[int, ...]


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


def scaled_ints(v) -> tuple[list[int], int]:
    """(N, L) for a rational vector v: L the lcm of its denominators and
    N = L v, its integer numerators over that common denominator."""
    L = lcm(*(a.denominator for a in v))
    return [a.numerator * (L // a.denominator) for a in v], L


def primitive_ints(v) -> IVec:
    """Scale a rational vector by a positive rational to coprime integers
    (the zero vector stays zero)."""
    ints = scaled_ints(v)[0]
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
        X, L = scaled_ints(x)
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
