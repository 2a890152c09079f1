import random
from fractions import Fraction as F
from itertools import combinations
from math import gcd, inf

import pytest
from hypothesis import given, settings, strategies as st

from kisindim import bounds as bd, polyhedra
from kisindim.kisin_model import KisinInstance, chain_dual_generators
from kisindim.polyhedra import (FlowNetwork, HPolyhedron, INF, VPolyhedron,
                                cone_generators, cone_hull, dot, dual_cone,
                                dual_cone_h, enumerate_vertices,
                                graph_cone_dual_membership, in_cone, maxflow,
                                minkowski_sum_cone,
                                normalize_ray, polyhedra_set_equal, rank, v_to_h,
                                vec, vertices_of_sum)


def square():
    return HPolyhedron.build(2, ineqs=[((1, 0), 0), ((0, 1), 0),
                                       ((-1, 0), -1), ((0, -1), -1)])


def test_unit_square_vertices():
    V = enumerate_vertices(square())
    assert set(V.vertices) == {vec((0, 0)), vec((0, 1)), vec((1, 0)), vec((1, 1))}
    assert V.rays == () and V.lines == ()


def test_empty_polyhedron():
    P = HPolyhedron.build(1, ineqs=[((1,), 1), ((-1,), 0)])
    V = enumerate_vertices(P)
    assert V.is_empty and V.vertices == () and V.rays == ()


def test_unbounded_cone_has_rays():
    P = HPolyhedron.build(2, ineqs=[((1, 0), 0), ((0, 1), 0)])
    V = enumerate_vertices(P)
    assert V.vertices == (vec((0, 0)),)
    assert set(V.rays) == {vec((0, 1)), vec((1, 0))}


def test_equations_are_respected():
    # segment x + y = 1, x,y >= 0
    P = HPolyhedron.build(2, ineqs=[((1, 0), 0), ((0, 1), 0)], eqs=[((1, 1), 1)])
    V = enumerate_vertices(P)
    assert set(V.vertices) == {vec((0, 1)), vec((1, 0))}


def test_h_to_v_to_h_round_trip():
    P = square()
    assert polyhedra_set_equal(P, v_to_h(enumerate_vertices(P)))


def test_self_dual_halfline():
    H = dual_cone([vec((1,))], 1)
    assert H.contains(vec((2,))) and not H.contains(vec((-1,)))


def test_dual_cone_involution_random():
    # the double dual of a finitely generated cone is the cone itself
    rng = random.Random(5)
    for n in (2, 3, 4, 6):
        for _ in range(10):
            gens = [vec([rng.randint(-3, 3) for _ in range(n)]) for _ in range(n + 1)]
            gens = [g for g in gens if any(x != 0 for x in g)]
            if not gens:
                continue
            D = dual_cone(gens, n)
            dlines, drays = cone_generators([h.normal for h in D.ineqs], [], n)
            dd_gens = drays + dlines + [vec([-x for x in l]) for l in dlines]
            HH = dual_cone(dd_gens, n)  # H-description of the double dual
            assert all(HH.contains(g) for g in gens)
            hlines, hrays = cone_generators([h.normal for h in HH.ineqs], [], n)
            for r in hrays:
                assert in_cone(gens, r)
            for l in hlines:
                assert in_cone(gens, l) and in_cone(gens, vec([-x for x in l]))


def test_double_description_soundness_random():
    rng = random.Random(11)
    for n in (2, 3, 4):
        for _ in range(15):
            ineqs = [(vec([rng.randint(-3, 3) for _ in range(n)]), F(rng.randint(-2, 2)))
                     for _ in range(n + 2)]
            ineqs = [(a, c) for a, c in ineqs if any(x != 0 for x in a)]
            if not ineqs:
                continue
            P = HPolyhedron.build(n, ineqs)
            V = enumerate_vertices(P)
            for v in V.vertices:
                assert P.contains(v)
                active = [h.normal for h in P.halfspaces
                          if dot(h.normal, v) == h.offset]
                assert rank(active, n) >= n - len(V.lines)
            for r in V.rays:
                assert P.contains_ray(r)
            if not V.is_empty:
                assert polyhedra_set_equal(P, v_to_h(V))


def _det(rows) -> F:
    """Determinant by Gaussian elimination over Fractions (the oracles below
    use this and Cramer's rule, not the engine's linear algebra)."""
    m = [list(map(F, r)) for r in rows]
    det = F(1)
    for c in range(len(m)):
        p = next((i for i in range(c, len(m)) if m[i][c] != 0), None)
        if p is None:
            return F(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, len(m)):
            f = m[i][c] / m[c][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return det


def _brute_vertices(ineqs, eqs, n) -> set:
    """Every feasible point that n of the rows (equations included) cut out
    on their own: solve each n-subset with a nonzero determinant."""
    rows = [(tuple(a), c) for a, c in eqs + ineqs]
    out = set()
    for sub in combinations(rows, n):
        D = _det([a for a, _ in sub])
        if D == 0:
            continue
        x = tuple(_det([a[:j] + (c,) + a[j + 1:] for a, c in sub]) / D for j in range(n))
        if (all(dot(a, x) >= c for a, c in ineqs)
                and all(dot(a, x) == c for a, c in eqs)):
            out.add(x)
    return out


def _brute_rays(ineqs, eqs, n) -> set:
    """Extreme rays of the pointed cone {<a,x> >= 0, <e,x> = 0}: the kernel
    direction (cofactor vector) of each n-1 rows, with either sign, kept
    when it is nonzero and lies in the cone."""
    out = set()
    for sub in combinations([tuple(e) for e in eqs] + [tuple(a) for a in ineqs], n - 1):
        r = tuple((-1) ** j * _det([a[:j] + a[j + 1:] for a in sub]) for j in range(n))
        for s in (r, tuple(-x for x in r)):
            if (any(s) and all(dot(a, s) >= 0 for a in ineqs)
                    and all(dot(e, s) == 0 for e in eqs)):
                out.add(normalize_ray(s))
    return out


def _random_rows(rng, n, count, offsets=True):
    rows = []
    while len(rows) < count:
        a = vec([rng.randint(-3, 3) for _ in range(n)])
        if any(a):
            rows.append((a, F(rng.randint(-3, 3))) if offsets else a)
    return rows


def test_enumerate_vertices_matches_brute_force_random():
    rng = random.Random(2024)
    seen = {"bounded": 0, "rays": 0, "lines": 0, "equations": 0, "empty": 0}
    for n in (2, 3, 4):
        for trial in range(36):
            kind = ("bounded", "unbounded", "equation")[trial % 3]
            ineqs = _random_rows(rng, n, rng.randint(1, n + 1))
            eqs = []
            if kind == "bounded":
                # the simplex x_i >= -2, sum x_i <= 2 bounds every cut of it
                ineqs += [(vec([int(i == j) for j in range(n)]), F(-2)) for i in range(n)]
                ineqs.append((vec([-1] * n), F(-2)))
            elif kind == "equation":
                eqs = _random_rows(rng, n, rng.randint(1, n - 1))
            P = HPolyhedron.build(n, ineqs, eqs)
            V = enumerate_vertices(P)
            normals = [a for a, _ in ineqs + eqs]
            lineality = n - rank(normals, n)
            if lineality:
                # no vertices; the lines span the lineality space
                assert _brute_vertices(ineqs, eqs, n) == set()
                assert all(dot(a, l) == 0 for a in normals for l in V.lines)
                assert V.is_empty or rank(list(V.lines), n) == lineality
                seen["lines"] += not V.is_empty
                continue
            assert set(V.vertices) == _brute_vertices(ineqs, eqs, n), (n, ineqs, eqs)
            assert len(V.vertices) == len(set(V.vertices))
            if V.is_empty:
                seen["empty"] += 1
                continue
            assert set(V.rays) == _brute_rays([a for a, _ in ineqs], [a for a, _ in eqs], n)
            seen["bounded"] += not V.rays
            seen["rays"] += bool(V.rays)
            seen["equations"] += bool(eqs)
    assert min(seen.values()) >= 5, seen


def _check_cone_generators(ineqs, eqs, n):
    lines, rays = cone_generators(ineqs, eqs, n)
    lineality = n - rank(ineqs + eqs, n)
    # the lines lie in the lineality space and span it
    assert all(dot(a, l) == 0 for a in ineqs + eqs for l in lines)
    assert len(lines) == rank(lines, n) == lineality
    for r in rays:
        assert all(x.denominator == 1 for x in r) and gcd(*map(int, r)) == 1
        assert all(dot(e, r) == 0 for e in eqs)
        assert all(dot(a, r) >= 0 for a in ineqs) and any(dot(a, r) > 0 for a in ineqs)
        # extreme: the tight rows leave one direction beyond the lines
        tight = [a for a in ineqs if dot(a, r) == 0] + list(eqs)
        assert rank(tight, n) == n - lineality - 1, r
    # the rays are the extreme rays of the pointed cone cut by the lines'
    # orthogonal complement, one per extreme ray of the quotient
    expected = _brute_rays(ineqs, list(eqs) + list(lines), n)
    if lineality:
        assert len(rays) == len(expected)
    else:
        assert set(rays) == expected
    return lines, rays


def test_cone_generators_every_branch_against_brute_force():
    rng = random.Random(77)
    seen = set()
    for n in (2, 3, 4):
        for trial in range(40):
            with_eqs = trial % 2 == 1
            eqs = _random_rows(rng, n, rng.randint(1, n - 1), offsets=False) if with_eqs else []
            ineqs = _random_rows(rng, n, rng.randint(1, n + 2), offsets=False)
            if trial % 4 >= 2 and n > 2:
                # project every row orthogonal to a direction z, which then
                # lies in the lineality space unless the equations cut it
                z = vec([rng.randint(-2, 2) for _ in range(n)])
                ineqs = [tuple(dot(z, z) * x - dot(a, z) * y for x, y in zip(a, z))
                         for a in ineqs]
                ineqs = [a for a in ineqs if any(a)]
            if not ineqs:
                continue
            k = n - rank(eqs, n)
            restricted_rank = rank(ineqs + eqs, n) - (n - k)
            if k == 0:
                assert cone_generators(ineqs, eqs, n) == ([], [])
                continue
            lines, _ = _check_cone_generators(ineqs, eqs, n)
            branch = ("equations" if eqs else "identity",
                      "projection" if restricted_rank < k else "full rank")
            seen.add(branch)
            if lines:
                seen.add("lineality")
    assert seen == {("identity", "full rank"), ("identity", "projection"),
                    ("equations", "full rank"), ("equations", "projection"),
                    "lineality"}


def test_double_description_runs_on_integers(monkeypatch):
    # the DD creates no Fraction: integer rows in, primitive integer rays out
    rows = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1), (-1, 2, 3), (2, -1, 1)]
    _, expected = cone_generators([vec(r) for r in rows], [], 3)

    def no_fractions(*args):
        raise AssertionError("Fraction created inside the double description")

    monkeypatch.setattr(polyhedra, "Fraction", no_fractions)
    rays = polyhedra._extreme_rays_pointed(rows, 3)
    assert all(type(x) is int for r in rays for x in r)
    assert sorted(rays) == [tuple(map(int, r)) for r in expected]


def test_minkowski_sum_with_zero_cone_is_identity():
    P = square()
    S = minkowski_sum_cone(P, [])
    assert polyhedra_set_equal(P, S)


def _lp_sum_vertices(V: VPolyhedron, gens) -> list:
    """Oracle for vertices_of_sum: keep a vertex of V exactly when it is not
    a convex combination of the other vertices plus a nonnegative
    combination of the rays of V and gens (one LP per vertex, no
    prefilter)."""
    rays = [tuple(r) + (0,) for r in list(V.rays) + list(gens)]
    out = []
    for i, v in enumerate(V.vertices):
        others = [tuple(u) + (1,) for k, u in enumerate(V.vertices) if k != i]
        if not in_cone(others + rays, tuple(v) + (1,)):
            out.append(v)
    return sorted(out)


def test_minkowski_sum_absorbs_dominated_vertex():
    V = enumerate_vertices(square())
    pts = vertices_of_sum(square(), V.vertices, [vec((1, 1))])
    assert pts == [vec((0, 0)), vec((0, 1)), vec((1, 0))]
    assert pts == _lp_sum_vertices(V, [vec((1, 1))])


def test_vertices_of_sum_normal_cone_has_both_signs_of_equations():
    # segment x + y = 1, x, y >= 0: the normal cone at (0, 1) needs the
    # equation normal with a negative sign to be positive on (-1, 0)
    P = HPolyhedron.build(2, ineqs=[((1, 0), 0), ((0, 1), 0)], eqs=[((1, 1), 1)])
    V = enumerate_vertices(P)
    for gens, expected in [([vec((-1, 0))], [vec((0, 1)), vec((1, 0))]),
                           ([vec((1, -1))], [vec((0, 1))])]:
        assert vertices_of_sum(P, V.vertices, gens) == expected
        assert _lp_sum_vertices(V, gens) == expected


def test_vertices_of_sum_refuses_summand_with_lines():
    strip = HPolyhedron.build(2, ineqs=[((1, 0), 0), ((-1, 0), -1)])
    with pytest.raises(ValueError):
        vertices_of_sum(strip, [vec((0, 0))], [vec((1, 0))])


@pytest.mark.parametrize("d", range(2, 8))
def test_vertices_of_sum_matches_lp_oracle_on_k_polytopes(d):
    # K + C* for the acceptance tables; K has rays for small b
    for b in (2, 3, 4, 5, 7, 10, 17, 101, 1009, 10000):
        kt = bd.k_polytopes(KisinInstance(d, b))
        V = VPolyhedron(d, kt.K_vertices, kt.K_rays)
        assert list(kt.Kp_vertices) == _lp_sum_vertices(V, chain_dual_generators(d)), (d, b)


def test_b_value_dual_summand_filter_matches_lp_oracle(monkeypatch):
    # D = the chain cone, so D* is pointed and the filter runs on A-sets
    # that carry an equation; for y in D the filter moves no value
    removed = []

    def checked(P, vertices, gens):
        got = vertices_of_sum(P, vertices, gens)
        assert got == _lp_sum_vertices(enumerate_vertices(P), gens)
        removed.append(len(vertices) - len(got))
        return got

    monkeypatch.setattr(bd, "vertices_of_sum", checked)
    for d, b in [(3, 3), (4, 3), (4, 5)]:
        inst = KisinInstance(d, b)
        dd = bd.DualityData(inst, "Qmax", "g", D_gens=bd.chain_cone_gens(d))
        A = enumerate_vertices(bd.a_set(inst, "Qmax", "g"))
        for y in [bd.two_rho(d), vec(range(d, 0, -1)), vec([7] + [0] * (d - 1)),
                  vec([3] * (d - 1) + [-4])]:
            assert bd.b_value(dd, y) == min(dot(v, y) for v in A.vertices)
    assert len(removed) == 12 and all(k > 0 for k in removed)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3),
                min_size=1, max_size=5),
       st.lists(st.integers(-4, 4), min_size=3, max_size=3))
def test_in_cone_certificates(gens, target):
    gens = [vec(g) for g in gens]
    target = vec(target)
    member = in_cone(gens, target)
    H = cone_hull(gens, [], 3)
    assert member == H.contains(target)


def test_json_round_trip():
    P = HPolyhedron.build(2, ineqs=[((1, 2), F(1, 3))], eqs=[((1, -1), 0)])
    Q = HPolyhedron.from_json(P.to_json())
    assert P.to_json() == Q.to_json()
    V = VPolyhedron(2, (vec((F(1, 2), 1)),), (vec((1, 0)),))
    assert VPolyhedron.from_json(V.to_json()).to_json() == V.to_json()


def test_contains_dimension_mismatch():
    with pytest.raises(ValueError):
        square().contains(vec((1, 2, 3)))


# ---------------------------------------------------------------------------
# max flow
# ---------------------------------------------------------------------------

def min_cut_exhaustive(net: FlowNetwork):
    """Oracle for maxflow: the minimum cut capacity over all 2^|S| cuts (use
    on tiny graphs).  A cut containing an infinite edge counts as infinite."""
    others = sorted(net.nodes() - {net.source, net.sink}, key=repr)
    best = None
    for k in range(len(others) + 1):
        for sub in combinations(others, k):
            side = set(sub) | {net.source}
            crossing = [c for u, v, c in net.edges if u in side and v not in side]
            val = inf if INF in crossing else sum(crossing, F(0))
            if best is None or val < best:
                best = val
    return best


def test_maxflow_single_edge():
    net = FlowNetwork("D", "A", [("D", "A", F(5))])
    assert maxflow(net)[0] == 5


def test_maxflow_two_parallel_paths():
    net = FlowNetwork("D", "A")
    net.add_edge("D", "x", 2)
    net.add_edge("x", "A", 2)
    net.add_edge("D", "y", 3)
    net.add_edge("y", "A", 3)
    assert maxflow(net)[0] == 5


def test_maxflow_infinite_path():
    net = FlowNetwork("D", "A", [("D", "x", INF), ("x", "A", INF)])
    assert maxflow(net)[0] == inf


def test_maxflow_flow_conservation_and_capacity():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(2, 6)
        nodes = list(range(n))
        net = FlowNetwork("D", "A")
        for u in nodes:
            net.add_edge("D", u, F(rng.randint(0, 5)))
            net.add_edge(u, "A", F(rng.randint(0, 5)))
        for u in nodes:
            for v in nodes:
                if u != v and rng.random() < 0.3:
                    net.add_edge(u, v, F(rng.randint(0, 4), rng.randint(1, 3)))
        value, flow = maxflow(net)
        assert value == min_cut_exhaustive(net)
        for i, (u, v, c) in enumerate(net.edges):
            assert 0 <= flow[i] and (c is INF or flow[i] <= c)
        for s in nodes:
            out_f = sum(flow[i] for i, (u, _, _) in enumerate(net.edges) if u == s)
            in_f = sum(flow[i] for i, (_, v, _) in enumerate(net.edges) if v == s)
            assert out_f == in_f


def test_maxflow_exhaustive_min_cut_oracle_larger():
    rng = random.Random(4)
    for _ in range(10):
        nodes = list(range(6))
        net = FlowNetwork("D", "A")
        net.add_edge("D", 0, F(7))
        net.add_edge(5, "A", F(7))
        for u in nodes:
            for v in nodes:
                if u != v and rng.random() < 0.5:
                    net.add_edge(u, v, F(rng.randint(0, 3)))
        assert maxflow(net)[0] == min_cut_exhaustive(net)


# ---------------------------------------------------------------------------
# graph-cone dual membership
# ---------------------------------------------------------------------------

def test_graph_membership_zero_vector():
    assert graph_cone_dual_membership([1, 2, 3], [(1, 2)], {1: 0, 2: 0, 3: 0})


def test_graph_membership_requires_zero_sum():
    assert not graph_cone_dual_membership([1, 2], [(1, 2)], {1: 1, 2: 1})


def test_graph_membership_indicator_inequality():
    # the negated indicator of a closed subset lies in the cone itself, so
    # any dual vector pairs nonpositively with the indicator
    rng = random.Random(9)
    for _ in range(50):
        n = rng.randint(2, 6)
        nodes = list(range(n))
        arcs = [(u, v) for u in nodes for v in nodes if u != v and rng.random() < 0.4]
        x = [F(rng.randint(-4, 4)) for _ in nodes]
        x[-1] = -sum(x[:-1])
        xs = dict(zip(nodes, x))
        if graph_cone_dual_membership(nodes, arcs, xs, method="subsets"):
            from kisindim.polyhedra import admissible_vertex_subsets

            for sub in admissible_vertex_subsets(nodes, arcs):
                assert sum((xs[s] for s in sub), F(0)) <= 0


def test_graph_membership_methods_agree_500_random():
    rng = random.Random(12)
    agreements = 0
    for _ in range(500):
        n = rng.randint(2, 8)
        nodes = list(range(n))
        arcs = [(u, v) for u in nodes for v in nodes if u != v and rng.random() < 0.35]
        x = [F(rng.randint(-5, 5), rng.randint(1, 2)) for _ in nodes]
        if rng.random() < 0.6:
            x[-1] = -sum(x[:-1])  # hit the zero-sum hyperplane often
        xs = dict(zip(nodes, x))
        # method="both" raises if the subset and flow oracles disagree
        graph_cone_dual_membership(nodes, arcs, xs, method="both")
        agreements += 1
    assert agreements == 500
