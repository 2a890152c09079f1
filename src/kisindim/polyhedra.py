"""Exact integer linear algebra and the package's one polyhedral routine.

There is no floating point anywhere in this module.  `double_description`
is the incremental double description (Motzkin et al., 1953; Fukuda &
Prodon, 1996) on primitive integer vectors: rows and rays scaled by
positive rationals, which changes no cone.  It starts from a simplicial
seed that its caller knows in closed form, and it returns each ray's zero
set with it, so the caller reads the rows tight at each ray off its bits
with no dot product.  Its adjacency test is an AND of per-row incidence
bitsets over the current rays.  It has three callers, each with its own
closed-form seed: `bounds.k_polytopes` (the simplicial cone of Reg* at the
apex 2 rho/(b+1)), `bounds._dominated_sup` (the orthant) and
`bounds.extremal_points_a_qmax` (the vertex rho_{w0} of the Q_max A-set
and its d-1 edges).  It solves no LP.

A rational vector is scaled to integers once, where it enters, by
`scaled_ints`; below that, `primitive_ints` divides integer vectors by
their gcd.  `fractions.Fraction` appears only at the API edge: `dot` and
the coordinates of points and vertices.

The general H -> V engine (elimination, `nullspace`, an initial simplicial
cone picked from the rows, `cone_generators`, `enumerate_vertices`) and the
`Halfspace`, `HPolyhedron` and `VPolyhedron` records are the tests'
reference, in tests/oracles.py, as are the exact simplex, membership in a
polyhedron and the graph-cone oracles.
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


# ---------------------------------------------------------------------------
# rational formatting ("p/q", lowest terms, q > 0; integers print bare)
# ---------------------------------------------------------------------------

def fmt_row(row: IVec) -> list[str]:
    """Each coordinate a/T of a homogeneous integer row (..., a, ..., T), T > 0."""
    *Y, T = row
    return [str(a // g) if (g := gcd(a, T)) == T else f"{a // g}/{T // g}" for a in Y]


def fmt_frac(x: Fraction) -> str:
    x = frac(x)
    return fmt_row((x.numerator, x.denominator))[0]


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
# double description
# ---------------------------------------------------------------------------

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
