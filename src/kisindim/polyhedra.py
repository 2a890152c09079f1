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
each ray off its bits with no dot product.  Its adjacency test is an AND of
per-row incidence bitsets over the current rays.  A halfspace is stored as
its primitive integer row.  A rational row is scaled to integers once,
where it enters (`Halfspace`, `cone_generators` and `_echelon`), by
`scaled_ints`; below that, `primitive_ints` divides integer vectors by
their gcd.  `fractions.Fraction` appears only at the API
edge: `dot` and the coordinates of points and vertices.  Rays and lines are
returned as primitive integer tuples.
Polyhedra come in two representations:

- `HPolyhedron`: a finite list of halfspaces ``<a, x> >= c`` and equations
  ``<a, x> = c``;
- `VPolyhedron`: vertices, recession-cone rays and (rarely) lines.

`enumerate_vertices` converts the first to the second (and
`cone_generators` a cone to its generators) by the double description
method on a homogenizing cone, with the lineality space split off first so that
the incremental step only ever runs on pointed cones.  Output is always
minimal and sorted lexicographically, which makes results deterministic
and directly comparable as exact sets.  Membership in a polyhedron, the
max-flow solver and the dual-membership oracles for graph cones are test
oracles, in tests/oracles.py.
"""

from __future__ import annotations

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
    """Divide an integer vector by the gcd of its entries, to coprime
    integers (the zero vector stays zero).  A rational vector is scaled to
    integers first, by `scaled_ints`, where it enters the module."""
    g = gcd(*v)
    return tuple(a // g for a in v) if g > 1 else tuple(v)


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

    The adjacency test runs on incidence bitsets: before a row is inserted,
    tight[1 << j] has bit k set when the current ray k is tight on row j
    (read off the zero sets without the new row's bit; a row tight on no
    ray has no entry and is in no common zero set).  The rays whose
    zero sets contain the common zero set of a pair (p, m) are the AND of
    tight[1 << j] over its bits j, started from all current rays; the pair
    is adjacent exactly when that leaves p and m alone.  That costs one
    big-int AND per common row, not a pass over every zero set.
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
            tight = {}
            for k, z in enumerate(zsets):
                kbit = 1 << k
                while z:
                    low = z & -z
                    tight[low] = tight.get(low, 0) | kbit
                    z ^= low
            everyone = (1 << len(rays)) - 1
            for p in pos:
                for m in neg:
                    common = zsets[p] & zsets[m]
                    # an edge of a pointed n-cone lies on >= n-2 of the
                    # processed constraints; cheap necessary test first
                    if common.bit_count() < n - 2:
                        continue
                    # adjacency: no ray but p and m has a zero set containing
                    # the common one
                    around, rest = everyone, common
                    while rest:
                        low = rest & -rest
                        around &= tight[low]
                        rest ^= low
                    if around.bit_count() > 2:
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
