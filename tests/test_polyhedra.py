import random
from collections import Counter
from fractions import Fraction as F
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from kisindim import bounds as bd, polyhedra
from kisindim.kisin_model import KisinInstance, chain_dual_generators
from kisindim.polyhedra import (Halfspace, HPolyhedron, VPolyhedron, cone_generators,
                                dot, enumerate_vertices, nullspace, primitive_ints, vec)
from oracles import (DualityData, _q_generators, _sign_certificate, a_set,
                     admissible_vertex_subsets, b_value, chain_cone_gens, cone_hull, contains,
                     contains_ray, double_description_by_scan, dual_cone,
                     graph_cone_dual_membership, in_cone, is_empty, k_hrep, maxflow,
                     minkowski_sum_cone, polyhedra_set_equal, primitive_row, rank, v_to_h,
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
    assert is_empty(V) and V.vertices == () and V.rays == ()


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
    assert contains(H, vec((2,))) and not contains(H, vec((-1,)))


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
            assert all(contains(HH, g) for g in gens)
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
                assert contains(P, v)
                active = [h.normal for h in P.halfspaces
                          if dot(h.normal, v) == h.offset]
                assert rank(active, n) >= n - len(V.lines)
            for r in V.rays:
                assert contains_ray(P, r)
            if not is_empty(V):
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
                out.add(primitive_row(s))
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
                assert is_empty(V) or rank(list(V.lines), n) == lineality
                seen["lines"] += not is_empty(V)
                continue
            assert set(V.vertices) == _brute_vertices(ineqs, eqs, n), (n, ineqs, eqs)
            assert len(V.vertices) == len(set(V.vertices))
            if is_empty(V):
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


def _random_seeded_rows(nmax: int):
    """(rows, chosen, seed, rest) for random full-rank integer rows in
    1..nmax variables: the simplicial seed of the chosen rows, and the rows
    the double description inserts."""
    rng = random.Random(18)
    for _ in range(300):
        n = rng.randint(1, nmax)
        rows = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n + rng.randint(0, 6))]
        if rank(rows, n) < n:
            continue
        chosen, seed = polyhedra._initial_simplicial(rows, n)
        yield rows, chosen, seed, [a for i, a in enumerate(rows) if i not in chosen]


def test_double_description_zero_sets_are_the_tight_rows():
    # bit j < n of a zero set is seed row j, bit n + i inserted row i, and
    # each set holds exactly the rows on which the ray's dot is zero
    checked = 0
    for rows, chosen, seed, rest in _random_seeded_rows(5):
        rays, zsets = polyhedra.double_description(seed, rest)
        order = [rows[i] for i in chosen] + rest
        for ray, z in zip(rays, zsets):
            assert z == sum(1 << k for k, a in enumerate(order) if dot(a, ray) == 0), (rows, ray)
        checked += len(rays)
    assert checked >= 300


def test_double_description_matches_the_scan_oracle(monkeypatch):
    # the adjacency test on incidence bitsets against the scan over every
    # zero set: the same rays and zero sets, in the same order, on random
    # rows and on each double description that the K(b) tables, the
    # dominance sups and the full cone Q run
    checked_rays = 0
    for _, _, seed, rest in _random_seeded_rows(6):
        rays, zsets = polyhedra.double_description(seed, rest)
        assert (rays, zsets) == double_description_by_scan(seed, rest), (seed, rest)
        checked_rays += len(rays)
    assert checked_rays >= 1000
    kernel = polyhedra.double_description
    calls = Counter()

    def checked(seed, rows):
        out = kernel(seed, rows)
        assert out == double_description_by_scan(seed, rows), (seed, rows)
        calls[caller] += 1
        return out

    monkeypatch.setattr(polyhedra, "double_description", checked)
    monkeypatch.setattr(bd, "double_description", checked)
    caller = "k_polytopes"
    for d in range(2, 10):
        for b in (7, 10000):
            bd.k_polytopes(KisinInstance(d, b))
    caller = "_dominated_sup"
    rng = random.Random(34)
    for d in range(2, 6):
        for b in (2, 3, 5, 7):
            inst = KisinInstance(d, b)
            for _ in range(10):
                mu = tuple(sorted((rng.randint(-4 * b, 4 * b) for _ in range(d)), reverse=True))
                for strong in (False, True):
                    bd._dominated_sup(mu, inst, strong)
    caller = "_q_generators"
    for b in (2, 3):
        assert len(_q_generators.__wrapped__(5, b)[1]) > 100
    assert calls == {"k_polytopes": 16, "_dominated_sup": 320, "_q_generators": 2}


# ---------------------------------------------------------------------------
# the fraction-free elimination kernel against a Fraction RREF oracle
# ---------------------------------------------------------------------------

def _rref(rows, n):
    """Reduced row echelon form over Fractions: (nonzero rows, pivot
    columns).  The oracle for `_echelon`, `rank` and `nullspace`."""
    mat = [list(map(F, r)) for r in rows]
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return [tuple(row) for row in mat[:r]], pivots


def _rref_nullspace(rows, n):
    """One kernel vector per free column f of the RREF: x_f = 1 and x_p the
    negated entry of pivot row p in column f."""
    red, pivots = _rref(rows, n)
    basis = []
    for f in (c for c in range(n) if c not in pivots):
        x = [F(0)] * n
        x[f] = F(1)
        for row, p in zip(red, pivots):
            x[p] = -row[f]
        basis.append(tuple(x))
    return basis


def _kernel_matrices():
    """Seeded random rational matrices with zero rows, repeated (rescaled)
    rows, a row that is the sum of two others, full rank, and n = 0."""
    rng = random.Random(314)
    out = []
    for trial in range(240):
        n = trial % 6
        rows = [tuple(F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n))
                for _ in range(rng.randint(0, n + 2))]
        kind = trial // 6 % 4
        if kind == 0:
            rows.insert(rng.randint(0, len(rows)), (F(0),) * n)
        elif kind == 1 and rows:
            s = F(rng.choice((-3, -1, 2)), rng.randint(1, 3))
            rows.append(tuple(s * x for x in rng.choice(rows)))
        elif kind == 2 and len(rows) >= 2:
            rows.insert(1, tuple(x + y for x, y in zip(rows[0], rows[-1])))
        out.append((rows, n))
    ranks = [(len(_rref(rows, n)[1]), len(rows), n) for rows, n in out]
    assert any(r == n > 0 for r, _, n in ranks)  # full rank
    assert any(r < min(m, n) for r, m, n in ranks)  # rank-deficient
    assert any(n == 0 for _, _, n in ranks)
    return out


def test_rank_matches_rref_oracle():
    for rows, n in _kernel_matrices():
        assert rank(rows, n) == len(_rref(rows, n)[1]), (rows, n)


def test_echelon_rows_are_positive_multiples_of_rref_rows():
    for rows, n in _kernel_matrices():
        tab, pivots, chosen = polyhedra._echelon(rows, n)
        red, oracle_pivots = _rref(rows, n)
        assert pivots == oracle_pivots
        for t, r, c in zip(tab, red, pivots):
            assert all(type(x) is int for x in t)
            # the RREF pivot is 1, so the multiple is t[c]
            assert t[c] > 0 and list(t) == [t[c] * x for x in r], (rows, n)
        # the chosen rows are those independent of the rows before them
        assert chosen == [i for i in range(len(rows))
                          if len(_rref(rows[:i + 1], n)[1]) > len(_rref(rows[:i], n)[1])]


def test_rational_rows_are_scaled_where_they_enter():
    # below the edge, rows are integers divided by their gcd alone; a
    # Fraction row is scaled by scaled_ints in nullspace and cone_generators
    assert primitive_ints((4, -6, 0)) == (2, -3, 0) and primitive_ints((0, 0)) == (0, 0)
    with pytest.raises(TypeError):
        primitive_ints((F(1, 2), 1))
    rational = [(F(1, 2), F(-1, 3), 1)]
    assert nullspace(rational, 3) == nullspace([(3, -2, 6)], 3)
    ineqs = [(F(1, 2), 0, 0), (0, F(2, 3), 0), (0, 0, F(5, 7))]
    assert cone_generators(ineqs, rational, 3) == cone_generators(
        [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(3, -2, 6)], 3)


def test_nullspace_matches_rref_oracle():
    for rows, n in _kernel_matrices():
        basis = nullspace(rows, n)
        assert basis == [primitive_row(x) for x in _rref_nullspace(rows, n)], (rows, n)
        assert all(type(x) is int for v in basis for x in v)


def test_initial_simplicial_rays_are_tight_on_all_chosen_rows_but_one():
    checked = 0
    for rows, n in _kernel_matrices():
        rows = [primitive_row(r) for r in rows]
        if n == 0 or rank(rows, n) < n:
            if n:
                with pytest.raises(ValueError):
                    polyhedra._initial_simplicial(rows, n)
            continue
        chosen, rays = polyhedra._initial_simplicial(rows, n)
        assert chosen == polyhedra._echelon(rows, n)[2]
        for j, ray in enumerate(rays):
            assert all(type(x) is int for x in ray) and gcd(*ray) == 1
            for k, i in enumerate(chosen):
                value = dot(rows[i], ray)
                assert value > 0 if k == j else value == 0, (rows, j, k)
        checked += 1
    assert checked >= 20


def test_cone_generators_returns_int_tuples():
    for rows, n in _kernel_matrices():
        half = len(rows) // 2
        for ineqs, eqs in ((rows, []), (rows[half:], rows[:half])):
            lines, rays = cone_generators(ineqs, eqs, n)
            assert all(type(g) is tuple for g in lines + rays)
            assert all(type(x) is int for g in lines + rays for x in g)


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


def _normal_cone_lp_vertices(P: HPolyhedron, vertices, gens) -> list:
    """Oracle for vertices_of_sum: the same normal-cone criterion decided
    by one exact LP per vertex, with no certificate first.  Keep v when
    (1, ..., 1) is a nonnegative combination of the images (<a, g>)_g of
    the tight normals, the equation images with both signs and the slacks
    -e_k."""
    gens = [g for g in map(primitive_row, gens) if any(g)]
    k = len(gens)
    rows, cone_gens = [], []
    for h in P.halfspaces:
        image = tuple(dot(h.normal, g) for g in gens)
        if h.is_eq:
            cone_gens += [image, tuple(-x for x in image)]
        else:
            rows.append((h, image))
    cone_gens += [tuple(-int(i == j) for j in range(k)) for i in range(k)]
    return sorted(v for v in vertices
                  if in_cone([image for h, image in rows if dot(h.normal, v) == h.offset]
                             + cone_gens, (1,) * k))


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
        assert list(kt.Kp_vertices) == _normal_cone_lp_vertices(
            k_hrep(kt.instance), kt.K_vertices, chain_dual_generators(d)), (d, b)


def test_vertices_of_sum_matches_normal_cone_lp_on_the_acceptance_tables():
    # acceptance 1: d = 2..10 at b = 10000, where K has no rays
    for d in range(2, 11):
        kt = bd.k_polytopes(KisinInstance(d, 10000))
        assert list(kt.Kp_vertices) == _normal_cone_lp_vertices(
            k_hrep(kt.instance), kt.K_vertices, chain_dual_generators(d)), d


def test_sign_certificate_agrees_with_the_lp():
    # random integer images; every certificate found must match in_cone on
    # the LP that vertices_of_sum would otherwise solve
    rng = random.Random(15)
    seen = {True: 0, False: 0, None: 0}
    for trial in range(3000):
        k = rng.randint(1, 4)

        def image():
            return tuple(rng.randint(-3, 3) for _ in range(k))

        tight = [image() for _ in range(rng.randint(0, 5))]
        eqs = [image() for _ in range(rng.randint(1, 2))] if trial % 2 else []
        lp = in_cone(tight + eqs + [tuple(-x for x in e) for e in eqs]
                     + [tuple(-int(i == j) for j in range(k)) for i in range(k)],
                     (1,) * k)
        got = _sign_certificate(tight, eqs, k)
        seen[got] += 1
        assert got is None or got == lp, (tight, eqs)
    assert all(seen.values()), seen


def test_k_polytopes_run_one_double_description_and_no_lp(monkeypatch):
    # K + C* is decided by the cover test on the zero sets alone; the
    # normal-cone filter once solved 2 LPs at each of d = 9, 10.  The
    # package has no LP to call: the simplex is the tests' oracle
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    assert not hasattr(polyhedra, "in_cone") and not hasattr(bd, "in_cone")
    monkeypatch.setattr(bd, "double_description",
                        counted("double_description", polyhedra.double_description))
    for d in (8, 9, 10):
        calls.clear()
        bd.k_polytopes(KisinInstance(d, 10000))
        assert calls == {"double_description": 1}, d


def test_b_value_dual_summand_filter_matches_lp_oracle():
    # D = the chain cone, so D* is pointed and the filter runs on A-sets
    # that carry an equation; for y in D the filter moves no value, which is
    # why b_value takes the minimum over the vertices of A itself
    removed = []
    for d, b in [(3, 3), (4, 3), (4, 5)]:
        inst = KisinInstance(d, b)
        P = a_set(inst, "Qmax", "g")
        A = enumerate_vertices(P)
        dd = DualityData(inst, "Qmax", "g", D_gens=chain_cone_gens(d))
        _, dual_D = cone_generators(list(dd.D_gens), [], d)
        for y in [bd.two_rho(d), vec(range(d, 0, -1)), vec([7] + [0] * (d - 1)),
                  vec([3] * (d - 1) + [-4])]:
            got = vertices_of_sum(P, A.vertices, dual_D)
            assert got == _lp_sum_vertices(A, dual_D)
            assert got == _normal_cone_lp_vertices(P, A.vertices, dual_D)
            removed.append(len(A.vertices) - len(got))
            value = min(dot(v, y) for v in A.vertices)
            assert b_value(dd, y) == value == min(dot(v, y) for v in got)
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
    assert member == contains(H, target)


def test_contains_dimension_mismatch():
    with pytest.raises(ValueError):
        contains(square(), vec((1, 2, 3)))


def test_integer_membership_matches_the_fraction_definition():
    # a halfspace keeps only the primitive integer row of (normal, offset);
    # the oracle is the Fraction dot on the rows as drawn, before each is
    # scaled by a random positive rational
    rng = random.Random(31)

    def rat(num=6, den=4):
        return F(rng.randint(-num, num), rng.randint(1, den))

    for _ in range(300):
        n = rng.randint(1, 4)
        anchor = [rat() for _ in range(n)]
        rows = []
        for _ in range(rng.randint(1, 5)):
            is_eq = rng.random() < 0.3
            a = [rat() for _ in range(n)]
            if not is_eq and not any(a):
                a[rng.randrange(n)] = F(-1)
            # zero, negative and positive offsets, many of them tight at anchor
            c = rng.choice((F(0), -abs(rat()), rat(), dot(a, anchor), dot(a, anchor)))
            rows.append((a, c, is_eq))
        scaled = []
        for a, c, is_eq in rows:
            s = F(rng.randint(1, 9), rng.randint(1, 9))
            h = Halfspace([s * x for x in a], s * c, is_eq)
            assert h == Halfspace(a, c, is_eq)
            assert all(type(x) is int for x in h.normal + (h.offset,))
            if not is_eq:
                assert h != Halfspace([-s * x for x in a], -s * c)
            scaled.append(h)
        P = HPolyhedron(n, tuple(scaled))
        points = [anchor] + [[rng.randint(1, 3) * rat(3, 3) for _ in range(n)]
                             for _ in range(6)]
        points += [[rng.randint(2, 4) * x for x in anchor]]
        for x in points:
            x = tuple(x)
            expected = all(dot(a, x) == c if is_eq else dot(a, x) >= c
                           for a, c, is_eq in rows)
            assert contains(P, x) == expected, (rows, x)
            r = tuple(u - v for u, v in zip(x, anchor))
            for ray in (x, r, tuple(-u for u in r)):
                expected = all(dot(a, ray) == 0 if is_eq else dot(a, ray) >= 0
                               for a, _, is_eq in rows)
                assert contains_ray(P, ray) == expected, (rows, ray)


# ---------------------------------------------------------------------------
# max flow
# ---------------------------------------------------------------------------

def min_cut_exhaustive(source, sink, edges):
    """Oracle for maxflow: the minimum cut capacity over all 2^|S| cuts (use
    on tiny graphs)."""
    others = sorted({x for u, v, _ in edges for x in (u, v)} - {source, sink}, key=repr)
    best = None
    for k in range(len(others) + 1):
        for sub in combinations(others, k):
            side = set(sub) | {source}
            val = sum(c for u, v, c in edges if u in side and v not in side)
            if best is None or val < best:
                best = val
    return best


def test_maxflow_single_edge():
    assert maxflow("D", "A", [("D", "A", 5)]) == (5, [5])


def test_maxflow_two_parallel_paths():
    edges = [("D", "x", 2), ("x", "A", 2), ("D", "y", 3), ("y", "A", 3)]
    assert maxflow("D", "A", edges) == (5, [2, 2, 3, 3])
    # parallel edges add up
    assert maxflow("D", "A", [("D", "A", 2), ("D", "A", 3), ("A", "D", 4)]) == (5, [2, 3, 0])


def test_maxflow_input_errors():
    with pytest.raises(ValueError, match="must differ"):
        maxflow("s", "s", [])
    with pytest.raises(ValueError, match="negative capacity"):
        maxflow("s", "t", [("s", "u", 1), ("u", "t", -1)])


def test_maxflow_flow_conservation_and_capacity():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(2, 6)
        nodes = list(range(n))
        edges = []
        for u in nodes:
            edges += [("D", u, rng.randint(0, 5)), (u, "A", rng.randint(0, 5))]
        edges += [(u, v, rng.randint(0, 4)) for u in nodes for v in nodes
                  if u != v and rng.random() < 0.3]
        value, flow = maxflow("D", "A", edges)
        assert value == min_cut_exhaustive("D", "A", edges)
        assert len(flow) == len(edges)
        assert all(0 <= f <= c for f, (_, _, c) in zip(flow, edges))
        for s in nodes:
            out_f = sum(f for f, (u, _, _) in zip(flow, edges) if u == s)
            in_f = sum(f for f, (_, v, _) in zip(flow, edges) if v == s)
            assert out_f == in_f
        assert value == sum(f for f, (u, _, _) in zip(flow, edges) if u == "D")


def test_maxflow_exhaustive_min_cut_oracle_larger():
    rng = random.Random(4)
    for _ in range(10):
        nodes = list(range(6))
        edges = [("D", 0, 7), (5, "A", 7)]
        edges += [(u, v, rng.randint(0, 3)) for u in nodes for v in nodes
                  if u != v and rng.random() < 0.5]
        assert maxflow("D", "A", edges)[0] == min_cut_exhaustive("D", "A", edges)


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
        if graph_cone_dual_membership(nodes, arcs, xs):
            for sub in admissible_vertex_subsets(nodes, arcs):
                assert sum((xs[s] for s in sub), F(0)) <= 0


def test_graph_membership_methods_agree_500_random():
    # 500 graphs on 2..8 nodes with halves in x, and the 120 graphs on 2..6
    # nodes with integer x that `verify --seed 0` ran the two oracles on
    cases = [(random.Random(12), 500, 8, 0.35, 0.6,
              lambda rng: F(rng.randint(-5, 5), rng.randint(1, 2))),
             (random.Random(0), 120, 6, 0.4, 0.5, lambda rng: F(rng.randint(-4, 4)))]
    agreements = 0
    for rng, count, max_n, p_arc, p_zero, draw in cases:
        for _ in range(count):
            n = rng.randint(2, max_n)
            nodes = list(range(n))
            arcs = [(u, v) for u in nodes for v in nodes if u != v and rng.random() < p_arc]
            x = [draw(rng) for _ in nodes]
            if rng.random() < p_zero:
                x[-1] = -sum(x[:-1])  # hit the zero-sum hyperplane often
            xs = dict(zip(nodes, x))
            # raises if the subset and flow oracles disagree
            graph_cone_dual_membership(nodes, arcs, xs)
            agreements += 1
    assert agreements == 620
