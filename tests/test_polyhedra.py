import random
from fractions import Fraction as F
from math import inf

import pytest
from hypothesis import given, settings, strategies as st

from kisindim import bounds as bd
from kisindim.kisin_model import KisinInstance, chain_dual_generators
from kisindim.polyhedra import (FlowNetwork, HPolyhedron, INF, VPolyhedron,
                                cone_generators, cone_hull, dot, dual_cone,
                                dual_cone_h, enumerate_vertices,
                                graph_cone_dual_membership, in_cone, maxflow,
                                min_cut_exhaustive, minkowski_sum_cone,
                                normalize_ray, polyhedra_set_equal, v_to_h, vec,
                                vertices_of_sum)


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
            from kisindim.polyhedra import rank

            for v in V.vertices:
                assert P.contains(v)
                active = [h.normal for h in P.halfspaces
                          if dot(h.normal, v) == h.offset]
                assert rank(active, n) >= n - len(V.lines)
            for r in V.rays:
                assert P.contains_ray(r)
            if not V.is_empty:
                assert polyhedra_set_equal(P, v_to_h(V))


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
