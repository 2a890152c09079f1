"""Exact oracles, and the cones they are run on, shared by the test modules."""

from fractions import Fraction
from math import lcm

from kisindim.polyhedra import (HPolyhedron, VPolyhedron, _idot, enumerate_vertices,
                                kept_in_sum, primitive_ints, rank, v_to_h, vec)


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


def minkowski_sum_cone(P: HPolyhedron | VPolyhedron, cone_gens) -> HPolyhedron:
    """H-representation of P + cone(cone_gens), by the double description
    of the sum's vertices and rays."""
    V = P if isinstance(P, VPolyhedron) else enumerate_vertices(P)
    if V.is_empty:
        raise ValueError("Minkowski sum with the empty polyhedron")
    gens = [g for g in map(primitive_ints, cone_gens) if any(g)]
    return v_to_h(VPolyhedron(V.dim, V.vertices, tuple(sorted(set(list(V.rays) + gens))), V.lines))


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
