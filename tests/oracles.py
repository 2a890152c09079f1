"""Exact oracles shared by the test modules."""

from kisindim.polyhedra import (HPolyhedron, VPolyhedron, enumerate_vertices, primitive_ints,
                                v_to_h)


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
