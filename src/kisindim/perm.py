"""Permutation combinatorics for the cone machinery.

Permutations act on {1, ..., d} and are stored in one-line notation
(1-indexed throughout).  Besides the inverse this module carries the
pieces the dimension bounds are built from: records, the losers'
permutation, the triangular ord tableau, the admissible subsets of the
triangle, the twisted half-sum vectors rho_w, and the partial order on S_d
defined by lexicographic comparison of iterated prefix sums.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations as _itertools_permutations
from math import factorial, lcm
from operator import add

from .polyhedra import Frozen, Vec


class Permutation(Frozen):
    """A bijection of {1..d} in one-line notation: images[i-1] = w(i).

    >>> w = Permutation((3, 2, 4, 5, 1))
    >>> w(1), w(5)
    (3, 1)
    >>> w.inverse()(3)
    1
    """

    def __init__(self, images: tuple[int, ...]):
        images = tuple(int(x) for x in images)
        d = len(images)
        if sorted(images) != list(range(1, d + 1)):
            raise ValueError(f"not a permutation of 1..{d}: {images}")
        object.__setattr__(self, "images", images)

    # hashed and compared often (sets and dicts keyed by permutations), so
    # both skip the generic field getter of Frozen; as for the other records,
    # the hash is that of the field tuple, which fixes the order sets iterate in
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.images == other.images

    def __hash__(self):
        return hash((self.images,))

    @property
    def d(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __iter__(self):
        return iter(self.images)

    def inverse(self) -> "Permutation":
        inv = [0] * self.d
        for i, y in enumerate(self.images, start=1):
            inv[y - 1] = i
        return Permutation(tuple(inv))

    def label(self) -> str:
        return "".join(str(x) for x in self.images)


def _cycles(images: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The cycles of the permutation with these one-line images, each from
    its least element, in the order of those elements."""
    seen = [False] * (len(images) + 1)
    out = []
    for start in range(1, len(images) + 1):
        if seen[start]:
            continue
        cyc = []
        i = start
        while not seen[i]:
            seen[i] = True
            cyc.append(i)
            i = images[i - 1]
        out.append(tuple(cyc))
    return out


def w0(d: int) -> Permutation:
    """The order-reversing permutation i -> d+1-i."""
    return Permutation(tuple(d + 1 - i for i in range(1, d + 1)))


def w_star(w: Permutation) -> Permutation:
    """i -> d+1 - w^{-1}(i)."""
    inv = w.inverse()
    return Permutation(tuple(w.d + 1 - inv(i) for i in range(1, w.d + 1)))


def all_permutations(d: int):
    for images in _itertools_permutations(range(1, d + 1)):
        yield Permutation(images)


# ---------------------------------------------------------------------------
# records and the losers' permutation
# ---------------------------------------------------------------------------

def records(w: Permutation) -> list[tuple[int, int]]:
    """The left-to-right maxima of w as (value, position) pairs.

    >>> [v for v, _ in records(Permutation((3, 2, 4, 5, 1)))]
    [3, 4, 5]
    """
    out = []
    best = 0
    for i, v in enumerate(w, start=1):
        if v > best:
            out.append((v, i))
            best = v
    return out


def losers_permutation(w: Permutation) -> Permutation:
    """The permutation of {1..d-1} listing, round by round, the displaced
    non-record entry: w'(i) = min({w(1..i+1)} minus {w'(1..i-1)}).

    >>> losers_permutation(Permutation((3, 2, 4, 5, 1))).images
    (2, 3, 4, 1)
    """
    if w.d < 2:
        raise ValueError("losers' permutation needs d >= 2")
    taken: set[int] = set()
    out = []
    for i in range(1, w.d):
        pool = {w(j) for j in range(1, i + 2)} - taken
        v = min(pool)
        out.append(v)
        taken.add(v)
    return Permutation(tuple(out))


# ---------------------------------------------------------------------------
# triangular index set, admissible subsets, ord tableaux
# ---------------------------------------------------------------------------

def index_set(d: int) -> list[tuple[int, int]]:
    """I = {(i,j) : 1 <= i <= j <= d} in row-major order."""
    return [(i, j) for i in range(1, d + 1) for j in range(i, d + 1)]


class AdmissibleSubset(Frozen):
    """A subset J of the triangle I closed under (i,j) -> (i,j+1) and
    (i,j) -> (i-1,j-1), together with the subset T of {1..d} it encodes."""

    def __init__(self, d: int, cells: frozenset[tuple[int, int]], t_set: frozenset[int]):
        for (i, j) in cells:
            if not (1 <= i <= j <= d):
                raise ValueError(f"cell {(i, j)} outside the triangle")
            if j + 1 <= d and (i, j + 1) not in cells:
                raise ValueError(f"not admissible: {(i, j)} in, {(i, j + 1)} out")
            if i >= 2 and j - 1 >= i - 1 and (i - 1, j - 1) not in cells:
                raise ValueError(f"not admissible: {(i, j)} in, {(i - 1, j - 1)} out")
        self._store(locals())


def admissible_from_subset(d: int, T) -> AdmissibleSubset:
    """The admissible J attached to T: with t_1 > ... > t_s the elements of
    T, J = {(i,j) : i <= s, j > d - t_i}."""
    T = frozenset(int(t) for t in T)
    if not all(1 <= t <= d for t in T):
        raise ValueError(f"T must be a subset of 1..{d}")
    ts = sorted(T, reverse=True)
    cells = frozenset((i, j) for i in range(1, len(ts) + 1)
                      for j in range(max(i, d - ts[i - 1] + 1), d + 1))
    return AdmissibleSubset(d, cells, T)


class OrdTableau(Frozen):
    """The triangular filling attached to w: entry(i,j) is the step at which
    the cell gets filled by the greedy column procedure (value s goes into
    the last w(s) columns, each time as high as possible)."""

    def __init__(self, d: int, entries: dict[tuple[int, int], int]):
        self._store(locals())

    def row(self, i: int) -> tuple[int, ...]:
        return tuple(self.entries[(i, j)] for j in range(i, self.d + 1))


def ord_tableau(w: Permutation) -> OrdTableau:
    """
    >>> ord_tableau(Permutation((3, 2, 4, 5, 1))).row(1)
    (4, 3, 1, 1, 1)
    """
    d = w.d
    entries: dict[tuple[int, int], int] = {}
    depth = {j: 0 for j in range(1, d + 1)}  # filled cells per column, from the top
    for s in range(1, d + 1):
        for j in range(d - w(s) + 1, d + 1):
            i = depth[j] + 1
            depth[j] = i
            entries[(i, j)] = s
    if any(depth[j] != j for j in range(1, d + 1)):
        raise AssertionError(f"ord tableau of {w.images} is not triangular")
    return OrdTableau(d, entries)


# ---------------------------------------------------------------------------
# rho_w and the order on S_d
# ---------------------------------------------------------------------------

def rho_denominator(d: int, b: int) -> int:
    """D = lcm(b^L - 1, L = 1..d): D * rho_w is an integer row for every w
    in S_d."""
    if b < 2:
        raise ValueError("b must be at least 2")
    return lcm(*(b ** L - 1 for L in range(1, d + 1)))


def rho_row(images: tuple[int, ...], b: int, D: int) -> list[int]:
    """D * rho_w as integers, for w = images in one-line notation and D
    from `rho_denominator`."""
    d = len(images)
    row = [0] * d
    for cyc in _cycles(images):
        period = b ** len(cyc) - 1
        c = (b - 1) * (D // period)
        # s = sum over one period of w^n(i), weighted b^{L-n}: Horner over
        # w(i), ..., w^L(i) = i for the start, then s(w(i)) = b s(i) - w(i) period
        s = 0
        for j in cyc[1:] + cyc[:1]:
            s = s * b + j
        for i in cyc:
            row[i - 1] = (d + 1 - i) * D - c * s
            s = b * s - images[i - 1] * period
    return row


def rho_w(w: Permutation, b: int) -> Vec:
    """The vector with i-th coordinate (b-1) * sum_{n>=1} (d+1-i-w^n(i))/b^n,
    summed in closed form over each cycle of w; read off the integer row
    `rho_row` over `rho_denominator(d, b)`.

    >>> rho_w(Permutation((2, 1)), 3)
    (Fraction(1, 4), Fraction(-1, 4))
    """
    D = rho_denominator(w.d, b)
    return tuple(Fraction(x, D) for x in rho_row(w.images, b, D))


def _signature(w: Permutation) -> tuple[tuple[int, ...], ...]:
    """For s = 1..d-1, the prefix sums (sum_{i<=s} w^n(i)) for n = 1..lcm(1..d),
    summed column by column: column i is the orbit w(i), w^2(i), ..., repeated."""
    steps = lcm(*range(1, w.d + 1))
    out = []
    run = (0,) * steps
    for i in range(1, w.d):
        orbit = [w(i)]
        while orbit[-1] != i:
            orbit.append(w(orbit[-1]))
        run = tuple(map(add, run, orbit * (steps // len(orbit))))
        out.append(run)
    return tuple(out)


def _bits(mask: int):
    """The indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _strict_up_sets(d: int) -> tuple[list[Permutation], list[int]]:
    """S_d in the order of all_permutations, and for each w the bitmask (over
    that order) of the v != w with w <= v.

    w <= v iff for each s the s-th sequence of v's signature is
    lexicographically at least w's, and the v that pass one s form a suffix
    of S_d sorted by that sequence."""
    perms = list(all_permutations(d))
    sigs = [_signature(w) for w in perms]
    everyone = (1 << len(perms)) - 1
    up = [everyone] * len(perms)
    for s in range(d - 1):
        below, prev, at_least = 0, None, everyone
        for k in sorted(range(len(perms)), key=lambda k: sigs[k][s]):
            if sigs[k][s] != prev:
                prev, at_least = sigs[k][s], everyone ^ below
            up[k] &= at_least
            below |= 1 << k
    return perms, [mask ^ (1 << k) for k, mask in enumerate(up)]


def hasse_diagram(d: int) -> list[tuple[Permutation, Permutation]]:
    """Covering relations (lower, upper) of the order on S_d: the covers of
    w are the v above w that lie above no other element above w."""
    perms, up = _strict_up_sets(d)
    edges = []
    for a, mask in enumerate(up):
        reach = 0
        for m in _bits(mask):
            reach |= up[m]
        edges.extend((perms[a], perms[c]) for c in _bits(mask & ~reach))
    return edges


def maximal_elements(d: int) -> list[Permutation]:
    perms, up = _strict_up_sets(d)
    return [w for w, mask in zip(perms, up) if not mask]


def hasse_dot(d: int) -> str:
    """DOT export: one node per permutation labeled w(1)w(2)...w(d), one edge
    per covering relation, drawn from the smaller to the larger element."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if d >= 7:  # the output's size: S_6's diagram is 12,564 lines, 293 kB
        raise ValueError(f"d must be <= 6: S_{d} has {factorial(d)} permutations, "
                         f"a diagram too large to print (S_7's alone has 246011 "
                         f"edges, 6.5 MB of DOT)")
    lines = ["digraph hasse {"]
    for w in all_permutations(d):
        lines.append(f'  "{w.label()}";')
    for lo, hi in sorted(hasse_diagram(d), key=lambda e: (e[0].images, e[1].images)):
        lines.append(f'  "{lo.label()}" -> "{hi.label()}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
