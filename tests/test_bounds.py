import random
from collections import Counter
from fractions import Fraction as F
from itertools import combinations_with_replacement, product
from math import gcd, inf
from operator import mul

import pytest

from kisindim import bounds as bd, kisin_model as km, perm as pm
from kisindim.bounds import (UnsupportedRegime, extremal_points_a_qmax, k_polytopes,
                             min_over_permutations, reg_star_facets, regularity,
                             theorem_bounds, two_rho, witness_le_e, witness_le_mu)
from kisindim.kisin_model import (KisinInstance, chain_dual_generators, mu_from_q,
                                  regular_dual_generators)
from kisindim.polyhedra import (Halfspace, HPolyhedron, cone_generators, dot,
                                enumerate_vertices, fmt_frac, vec)
from oracles import (DualityData, _dual_hrep, _form_vectors, _q_generators, a_set,
                     admissible_level, b_value, chain_cone_gens, cone_chain, cone_hull,
                     cone_qmax, cone_qmin, cone_qw, cone_regular, contains, contains_ray,
                     cycles, dominance_polytope, dominated_sup, dual_cone, f_T_halfspace,
                     fraction_constructions, identity, in_cone, intersect, is_empty, k_hrep,
                     kept_in_sum, level_set, min_over_permutations_fraction,
                     minkowski_sum_cone, polyhedra_set_equal, vertices_of_sum,
                     witness_le_e_report, witness_le_mu_report)


# ---------------------------------------------------------------------------
# A-sets
# ---------------------------------------------------------------------------

def _indicator(inst, cells):
    v = [F(0)] * inst.dim_E
    for (i, j) in cells:
        v[inst.cell_index(i, j)] = F(1)
    return tuple(v)


def _fraction_dual_hrep(inst, variant):
    """The three graph-cone branches of _dual_hrep as they stood before they
    became one path, in Fraction rows."""
    d = inst.d
    ones = _indicator(inst, inst.cells)
    if variant == "Qmin":
        rows = [tuple(-x for x in _indicator(inst, admissible_level(d, s).cells))
                for s in range(1, d)]
        return rows, [ones]
    if variant == "Qmax":
        subsets = []
        for mask in range(1, 2 ** d - 1):
            subsets.append({t for t in range(1, d + 1) if mask & (1 << (t - 1))})
        rows = [tuple(-x for x in _indicator(inst, pm.admissible_from_subset(d, T).cells))
                for T in subsets]
        return rows, [ones]
    w = variant[1]
    rows = [tuple(-x for x in _indicator(inst, level_set(w, s).cells))
            for s in range(1, d)]
    return rows, [ones]


def test_dual_hrep_matches_its_fraction_builders():
    rng = random.Random(41)
    for d in range(1, 8):
        perms = [pm.w0(d), identity(d)]
        perms += [pm.Permutation(rng.sample(range(1, d + 1), d)) for _ in range(3)]
        for b in (2, 3, 5, 7, 101):
            inst = KisinInstance(d, b)
            for variant in ["Qmin", "Qmax"] + [("Qw", w) for w in perms]:
                ineqs, eqs = _dual_hrep(inst, variant)
                assert (list(map(tuple, ineqs)), list(map(tuple, eqs))) \
                    == _fraction_dual_hrep(inst, variant), (d, b, variant)


def test_a_set_qmin_f_form_is_a_halfline():
    # the two-sided form pins y_1 + y_d = 0 and y_1 >= floor(d^2/4)/(b+1)
    for d in (2, 3, 4, 5):
        for b in (2, 3, 7):
            inst = KisinInstance(d, b)
            A = a_set(inst, "Qmin", "f")
            V = enumerate_vertices(A)
            t = F(d * d // 4, b + 1)
            assert V.vertices == (vec((t, -t)),)
            assert V.rays == (vec((1, -1)),)


def test_a_set_qmin_g_form_is_shifted_regular_dual():
    # A for Q_min equals 2rho/(b+1) + Reg*
    for d in (2, 3, 4):
        for b in (2, 5):
            inst = KisinInstance(d, b)
            A = a_set(inst, "Qmin", "g")
            V = enumerate_vertices(A)
            apex = tuple(F(x, b + 1) for x in two_rho(d))
            assert V.vertices == (apex,)
            gens = [vec(g) for g in regular_dual_generators(inst)]
            for r in V.rays:
                assert in_cone(gens, r)
            for g in gens:
                assert contains_ray(A, g)


def test_a_set_qw0_equals_qmin():
    for d in (2, 3, 4):
        inst = KisinInstance(d, 3)
        assert polyhedra_set_equal(a_set(inst, ("Qw", pm.w0(d)), "g"),
                                   a_set(inst, "Qmin", "g"))


def test_a_set_full_q_refuses_small_b():
    inst = KisinInstance(4, 2)  # b0 = 3
    with pytest.raises(UnsupportedRegime):
        a_set(inst, "Q", "g")


def test_full_cone_q_ray_counts_at_d6():
    # the double description of the full cone Q at d = 6, below b0 = 7
    assert [len(_q_generators(6, b)[1]) for b in (2, 3)] == [3933, 3993]


def test_a_set_qmax_matches_f_T_halfspaces():
    # extremal_points_a_qmax reads f_T off these rows, zipped with the
    # proper subsets in bitmask order, so the order must match too
    for d in range(1, 7):
        for b in (2, 3, 4, 5, 17):
            inst = KisinInstance(d, b)
            expected = []
            for mask in range(1, 2 ** d - 1):
                T = {t for t in range(1, d + 1) if mask & (1 << (t - 1))}
                expected.append(Halfspace(*f_T_halfspace(inst, T)))
            assert a_set(inst, "Qmax", "g").ineqs == expected, (d, b)


def _variant_cone(inst, variant):
    """The variant cone as `kisin_model` cuts it out, by its game rows."""
    if variant == "Qmax":
        return cone_qmax(inst)
    if variant == "Qmin":
        return cone_qmin(inst)
    return cone_qw(inst, variant[1])


def _dd_generators(inst, variant):
    """(lines, rays) of the variant cone by double description of its rows."""
    cone = _variant_cone(inst, variant)
    return cone_generators([h.normal for h in cone.ineqs], [h.normal for h in cone.eqs],
                           inst.dim_E)


def test_dual_hrep_rows_generate_the_variant_cone():
    # biduality: the rows cut out the dual of cone(rows) + span(eq rows), so
    # they describe the variant's dual only if they generate the cone itself
    for d in range(1, 6):
        variants = ["Qmax", "Qmin"]
        if d <= 4:
            variants += [("Qw", w) for w in pm.all_permutations(d)]
        for b in (2, 3, 5):
            inst = KisinInstance(d, b)
            for variant in variants:
                rows, eq_rows = _dual_hrep(inst, variant)
                assert polyhedra_set_equal(cone_hull(rows, eq_rows, inst.dim_E),
                                           _variant_cone(inst, variant)), (d, b, variant)


def test_prop_a_q_equals_a_qmax_plus_chain_dual():
    # the full-cone A-set is the Minkowski sum of the Q_max one with C*
    for d, b in [(2, 3), (3, 4), (3, 17), (4, 5), (4, 17)]:
        inst = KisinInstance(d, b)
        AQ = a_set(inst, "Q", "g")
        S = minkowski_sum_cone(a_set(inst, "Qmax", "g"), chain_dual_generators(d))
        assert polyhedra_set_equal(AQ, S)


def test_a_q_cap_chain_equals_a_qmin_cap_chain():
    for d, b in [(2, 3), (3, 4), (4, 5)]:
        inst = KisinInstance(d, b)
        C = cone_chain(d)
        assert polyhedra_set_equal(intersect(a_set(inst, "Q", "g"), C),
                                   intersect(a_set(inst, "Qmin", "g"), C))


def test_lemma_neighbour_slack():
    # every y in the Q_min A-set with y_i <= y_{i+1} + 1 lies in the Q_max one
    rng = random.Random(31)
    for d, b in [(3, 3), (4, 5)]:
        inst = KisinInstance(d, b)
        Amin = a_set(inst, "Qmin", "g")
        Amax = a_set(inst, "Qmax", "g")
        apex = tuple(F(x, b + 1) for x in two_rho(d))
        gens = [vec(g) for g in regular_dual_generators(inst)]
        found = 0
        for _ in range(400):
            y = list(apex)
            for g in gens:
                c = F(rng.randint(0, 4), 16)
                y = [a + c * x for a, x in zip(y, g)]
            assert contains(Amin, tuple(y))
            if all(y[i] <= y[i + 1] + 1 for i in range(d - 1)):
                found += 1
                assert contains(Amax, tuple(y))
        assert found > 10


# ---------------------------------------------------------------------------
# extremal points
# ---------------------------------------------------------------------------

def test_extremal_points_d2():
    inst = KisinInstance(2, 5)
    pts = extremal_points_a_qmax(inst)
    assert set(pts.values()) == {(F(1), F(-1)), (F(1, 6), F(-1, 6))}


def test_extremal_points_d3():
    inst = KisinInstance(3, 5)
    pts = extremal_points_a_qmax(inst)
    assert len(pts) == 6
    assert all(sum(v) == 0 for v in pts.values())
    for w, v in pts.items():
        assert v == pm.rho_w(w, 5)


def test_extremal_points_refuse_small_b():
    with pytest.raises(UnsupportedRegime):
        extremal_points_a_qmax(KisinInstance(4, 2))


def test_extremal_points_strictness_from_b0_plus_one():
    # the off-chain facet forms are strictly positive once b > b0 (at
    # (d, b) = (4, 3) some vanish, which extremal_points_a_qmax tolerates)
    for d, b in [(2, 3), (3, 3), (3, 17), (4, 4), (4, 17)]:
        extremal_points_a_qmax(KisinInstance(d, b))
    extremal_points_a_qmax(KisinInstance(4, 3))  # vertex set still exact


def test_extremal_points_d5():
    # the full 120-vertex family at d = 5, at the threshold and beyond
    for b in (5, 17):
        pts = extremal_points_a_qmax(KisinInstance(5, b))
        assert len(set(pts.values())) == 120


def test_prefix_sum_bounds_at_vertices():
    # -m(n-m) <= y_{m+1} + ... + y_n <= (n-m)(d-n) at every vertex
    for d, b in [(3, 2), (4, 3), (4, 17)]:
        inst = KisinInstance(d, b)
        for v in extremal_points_a_qmax(inst).values():
            for m in range(0, d):
                for n in range(m + 1, d + 1):
                    seg = sum(v[m:n])
                    assert -m * (n - m) <= seg <= (n - m) * (d - n)


def test_apex_of_qmax_a_set_membership():
    # 2rho/(b+1) lies in the Q_max A-set
    for d, b in [(2, 2), (3, 3), (4, 5)]:
        inst = KisinInstance(d, b)
        apex = tuple(F(x, b + 1) for x in two_rho(d))
        assert contains(a_set(inst, "Qmax", "g"), apex)


# ---------------------------------------------------------------------------
# b-value evaluators
# ---------------------------------------------------------------------------

def orthant_pm_gens():
    """Generators of R+ x R- in the plane."""
    return (vec((1, 0)), vec((0, -1)))


def test_b_value_qmin_two_sided():
    for d, b in [(2, 2), (3, 3), (4, 2), (5, 3)]:
        inst = KisinInstance(d, b)
        dd = DualityData(inst, "Qmin", "f", orthant_pm_gens())
        quarter = d * d // 4
        for (y1, yd) in [(F(5), F(0)), (F(7), F(2)), (F(3), F(-1))]:
            if y1 < yd:
                continue
            assert b_value(dd, (y1, yd)) == F(quarter) * (y1 - yd) / (b + 1)


def test_b_value_qmax_two_sided_needs_b_ge_d_minus_1():
    for d, b in [(3, 2), (4, 3), (5, 4), (4, 17)]:
        assert b >= d - 1
        inst = KisinInstance(d, b)
        dd = DualityData(inst, "Qmax", "f", orthant_pm_gens())
        e = F(9)
        assert b_value(dd, (e, F(0))) == F(d * d // 4) * e / (b + 1)


def test_b_value_outside_D_is_minus_infinity():
    inst = KisinInstance(2, 2)
    dd = DualityData(inst, "Qmin", "f", orthant_pm_gens(),
                     D_gens=(vec((1, 0)),))  # D = the nonnegative x-axis
    assert b_value(dd, (F(1), F(-1))) == -inf


def test_b_value_outside_image_is_minus_infinity():
    # mu_top <= e and mu_bottom >= 0 bound the image f(Q) + C from one side:
    # a point with y_d > y_1 is unreachable
    inst = KisinInstance(2, 2)
    dd = DualityData(inst, "Qmin", "f", orthant_pm_gens())
    assert b_value(dd, (F(0), F(5))) == -inf


def test_b_value_minus_infinity_matches_cone_hull_route():
    # b_value tests y in D and y in image(Q) + C by one LP each; the oracle
    # is an H-representation of each cone by double description
    cases = [DualityData(KisinInstance(d, b), "Qmin", "f", orthant_pm_gens())
             for d, b in [(2, 2), (3, 3), (4, 2), (5, 3)]]
    cases += [DualityData(KisinInstance(d, b), "Qmax", "f", orthant_pm_gens())
              for d, b in [(3, 2), (4, 3), (5, 4), (4, 17)]]
    cases.append(DualityData(KisinInstance(2, 2), "Qmin", "f", orthant_pm_gens(),
                             D_gens=(vec((1, 0)),)))
    outside = 0
    for dd in cases:
        F_ = _form_vectors(dd.instance, dd.form)
        lines, rays = _dd_generators(dd.instance, dd.variant)
        gens = [tuple(dot(Fi, r) for Fi in F_) for r in rays]
        gens += [tuple(s * dot(Fi, l) for Fi in F_) for l in lines for s in (1, -1)]
        image = cone_hull([g for g in gens + list(dd.C_gens) if any(g)], [], 2)
        D = None if dd.D_gens is None else cone_hull(list(dd.D_gens), [], 2)
        for y in product(range(-2, 3), repeat=2):
            expected = not contains(image, y) or (D is not None and not contains(D, y))
            assert (b_value(dd, y) == -inf) == expected, (dd, y)
            outside += expected
    assert 0 < outside < 25 * len(cases)


def _b_value_by_dual_summand(dd, y):
    """The optimal-value function by the route b_value took before it
    dropped the D* filter: image generators by double description of the
    variant cone, then the vertices of B = (A cap C*) + D* by
    `vertices_of_sum`.  Where B has a line, and so no vertex, the minimum
    over B is read off its own V-representation instead."""
    inst = dd.instance
    y = vec(y)
    F_ = _form_vectors(inst, dd.form)
    n = len(F_)
    if dd.D_gens is not None and not in_cone(list(dd.D_gens), y):
        return -inf
    lines, rays = _dd_generators(inst, dd.variant)
    gens = [tuple(dot(Fi, r) for Fi in F_) for r in rays]
    gens += [tuple(s * dot(Fi, l) for Fi in F_) for l in lines for s in (1, -1)]
    if not in_cone(gens + list(dd.C_gens), y):
        return -inf
    A = a_set(inst, dd.variant, dd.form)
    if dd.C_gens:
        A = intersect(A, dual_cone(list(dd.C_gens), n))
    V = enumerate_vertices(A)
    if is_empty(V):
        return inf
    verts = V.vertices
    if dd.D_gens:
        _, dual_D = cone_generators(list(dd.D_gens), [], n)
        verts = vertices_of_sum(A, verts, dual_D)
        if not verts:
            B = enumerate_vertices(minkowski_sum_cone(V, dual_D))
            assert B.lines and all(dot(r, y) >= 0 for r in B.rays)
            assert all(dot(l, y) == 0 for l in B.lines)
            verts = B.vertices
    return min(dot(v, y) for v in verts)


def test_b_value_matches_the_dual_summand_route():
    # no D* filter and the generators of _dual_hrep: the same values as the
    # filtered route on double-description generators
    rng = random.Random(19)
    half_plane = (vec((1, -1)), vec((1, 1)), vec((-1, -1)))  # y_1 >= y_2
    seen = Counter()
    for d in (2, 3, 4):
        for b in (2, 3, 5):
            inst = KisinInstance(d, b)
            w = pm.Permutation(rng.sample(range(1, d + 1), d))
            for variant, form in product(("Qmin", "Qmax", ("Qw", w)), ("f", "g")):
                n, C = (2, orthant_pm_gens()) if form == "f" else (d, ())
                for D in (None, half_plane if form == "f" else chain_cone_gens(d)):
                    dd = DualityData(inst, variant, form, C, D)
                    for _ in range(5):
                        y = tuple(rng.randint(-4, 4) for _ in range(n))
                        value = b_value(dd, y)
                        assert value == _b_value_by_dual_summand(dd, y), (dd, y)
                        seen[value in (inf, -inf)] += 1
    assert seen[False] > 200 and seen[True] > 200, seen


def test_b_value_where_the_dual_summand_has_a_line():
    # A + D* contains a line here, so it has no vertex and the filtered
    # route found none (its min() raised); the minimum over A + D* is still
    # attained, on the line through a vertex of A, and b_value returns it
    inst = KisinInstance(2, 3)
    dd = DualityData(inst, ("Qw", identity(2)), "g", D_gens=chain_cone_gens(2))
    A = a_set(inst, dd.variant, dd.form)
    _, dual_D = cone_generators(list(dd.D_gens), [], 2)
    assert vertices_of_sum(A, enumerate_vertices(A).vertices, dual_D) == []
    for y in [(1, 1), (-1, -1), (3, 3)]:
        assert b_value(dd, y) == 0 == _b_value_by_dual_summand(dd, y)
    assert b_value(dd, (1, 0)) == -inf


# ---------------------------------------------------------------------------
# regularity and the permutation minimum
# ---------------------------------------------------------------------------

def test_regularity_d2():
    inst = KisinInstance(2, 3)
    for m1 in range(-3, 6):
        for m2 in range(-3, m1 + 1):
            assert regularity((F(m1), F(m2)), inst).b_regular


def test_regularity_worked_example():
    inst = KisinInstance(3, 2)
    r = regularity((F(4), F(2), F(0)), inst)
    assert r.b_regular and r.integrally_b_regular and not r.strongly_integrally_b_regular


def test_regularity_nesting_random():
    rng = random.Random(33)
    inst = KisinInstance(4, 3)
    for _ in range(300):
        mu = tuple(sorted((F(rng.randint(-20, 20)) for _ in range(4)), reverse=True))
        r = regularity(mu, inst)
        if r.strongly_integrally_b_regular:
            assert r.integrally_b_regular
        if r.integrally_b_regular:
            assert r.b_regular
        if r.b_regular:
            assert list(mu) == sorted(mu, reverse=True)


def _inline_regularity(mu, b):
    """The three flags of `regularity` by its defining inequalities, written
    out as they stood before b-regularity became membership in Reg."""
    d = len(mu)
    breg = all(mu[i - 1] - mu[i] <= b * (mu[d - i - 1] - mu[d - i]) for i in range(1, d))
    integrally = breg and all(x.denominator == 1 for x in mu) and sum(mu) % (b - 1) == 0
    strongly = bool(integrally and (d < 2 or mu[d - 2] - mu[d - 1]
                                    <= b * (mu[0] - mu[1]) - d * (b * b - 1)))
    return breg, integrally, strongly


def test_regularity_matches_its_inline_inequalities():
    rng = random.Random(42)
    seen = Counter()
    for d in range(1, 8):
        for b in (2, 3, 5, 7, 101):
            inst = KisinInstance(d, b)
            for k in range(60):
                # half nonincreasing, half in any order; some entries non-integral
                mu = [F(rng.randint(-12, 12), rng.choice((1, 1, 1, 2, 3))) for _ in range(d)]
                mu = tuple(sorted(mu, reverse=True) if k % 2 else mu)
                r = regularity(mu, inst)
                flags = (r.b_regular, r.integrally_b_regular, r.strongly_integrally_b_regular)
                assert flags == _inline_regularity(mu, b), (mu, b)
                seen[flags] += 1
    # not b-regular, b-regular only, integrally and strongly integrally b-regular
    assert len(seen) == 4


def test_min_over_permutations_regular_case():
    inst = KisinInstance(3, 4)
    mu = (F(9), F(5), F(1))
    assert regularity(mu, inst).b_regular
    val, argmin = min_over_permutations(mu, inst)
    assert val == F(dot(two_rho(3), mu), 5)
    assert pm.w0(3) in argmin


def test_min_over_permutations_constant_mu_is_zero():
    inst = KisinInstance(4, 3)
    val, argmin = min_over_permutations((F(5),) * 4, inst)
    assert val == 0 and len(argmin) == 24


def test_min_over_permutations_nonregular_two_routes():
    # brute force over the vertex list against the defining series, summed
    # in closed form over one period times the geometric factor
    inst = KisinInstance(3, 2)
    mu = (F(10), F(0), F(0))
    assert not regularity(mu, inst).b_regular
    val, argmin = min_over_permutations(mu, inst)

    def series(w, b, mu):
        d = w.d
        total = F(0)
        for i in range(1, d + 1):
            L = next(len(c) for c in cycles(w) if i in c)
            s = F(0)
            j = i
            for n in range(1, L + 1):
                j = w(j)
                s += F(d + 1 - i - j, b ** n)
            total += mu[i - 1] * s * F(b ** L, b ** L - 1)
        return (b - 1) * total

    direct = min(series(w, 2, mu) for w in pm.all_permutations(3))
    assert val == direct
    assert val < F(dot(two_rho(3), mu), 3)  # w0 is beaten here


@pytest.mark.parametrize("d", (2, 3, 4, 5))
def test_min_over_permutations_matches_the_fraction_route(d):
    # value and argmin (in order) against Fraction dots with the closed-form
    # rho_w, on b-regular mu, non-regular mu and mu with Fraction entries
    rng = random.Random(d)
    for b in (2, 3, 5, 7, 10):
        inst = KisinInstance(d, b)
        mus = [two_rho(d), (0,) * d, (b ** 2,) + (0,) * (d - 1), tuple(range(d)),
               tuple(F(x, 3) for x in two_rho(d))]
        mus += [tuple(sorted((rng.randint(-9, 30) for _ in range(d)), reverse=True))
                for _ in range(3)]
        mus += [tuple(F(rng.randint(-20, 20), rng.choice((1, 2, 3, 7))) for _ in range(d))
                for _ in range(3)]
        kinds = Counter(regularity(mu, inst).b_regular for mu in mus)
        assert kinds[True] and kinds[False]
        for mu in mus:
            val, argmin = min_over_permutations(mu, inst)
            oracle_val, oracle_argmin = min_over_permutations_fraction(vec(mu), b)
            assert val == oracle_val and isinstance(val, F)
            assert [w.images for w in argmin] == [w.images for w in oracle_argmin]


def _refused(*args):
    raise AssertionError("H-polyhedron built")


def test_regularity_and_the_minimum_take_no_polyhedron_of_reg(monkeypatch):
    # both decide b-regularity on the integer rows of
    # regular_dual_generators, not on an H-polyhedron such as the oracle's
    # cone_regular
    monkeypatch.setattr(HPolyhedron, "__init__", _refused)
    with pytest.raises(AssertionError, match="H-polyhedron built"):
        cone_regular(KisinInstance(3, 2))
    rng = random.Random(44)
    seen = Counter()
    for d in range(1, 6):
        for b in (2, 3, 7):
            inst = KisinInstance(d, b)
            for k in range(16):
                mu = [F(rng.randint(-12, 12), rng.choice((1, 1, 1, 2))) for _ in range(d)]
                mu = tuple(sorted(mu, reverse=True) if k % 2 else mu)
                r = regularity(mu, inst)
                flags = (r.b_regular, r.integrally_b_regular, r.strongly_integrally_b_regular)
                assert flags == _inline_regularity(mu, b), (mu, b)
                seen[flags] += 1
                val, argmin = min_over_permutations(mu, inst)
                oracle_val, oracle_argmin = min_over_permutations_fraction(mu, b)
                assert val == oracle_val
                assert [w.images for w in argmin] == [w.images for w in oracle_argmin]
    assert len(seen) == 4


def test_min_over_permutations_builds_no_fraction_per_permutation():
    # d! = 120 permutations at d = 5: the dots are taken on integer rows
    inst = KisinInstance(5, 7)
    for mu in ((9, 7, 5, 3, 1), (20, 0, 0, 0, 0), (F(1, 2), 0, 0, 0, F(-1, 2))):
        assert fraction_constructions(lambda: min_over_permutations(mu, inst)) < 120


# ---------------------------------------------------------------------------
# theorem bounds
# ---------------------------------------------------------------------------

def test_theorem_bounds_le_e_worked():
    inst = KisinInstance(2, 2)
    tb = theorem_bounds("le_e", 3, inst)
    assert tb["lower"] == 1 and tb["upper"] == 1


def test_theorem_bounds_h_zero_slack():
    inst = KisinInstance(4, 3, h_zero=True)
    tb = theorem_bounds("le_e", 10, inst)
    assert tb["upper"] == 6 + F(4 * 10, 4)
    tb2 = theorem_bounds("le_e", 10, KisinInstance(4, 3))
    assert tb["upper"] - tb2["upper"] == 6  # d(d-1)/2


def test_theorem_bounds_le_e_clamps_negative():
    inst = KisinInstance(3, 5)
    tb = theorem_bounds("le_e", 1, inst)  # e < b - 2
    assert tb["lower_raw"] < 0 and tb["lower"] == 0


def test_theorem_bounds_mu_congruence_and_refusal():
    inst = KisinInstance(3, 3)
    tb = theorem_bounds("mu", (4, 2, 0), inst)
    assert tb["congruence_mod_b_minus_1"] == (-(4 + 4 + 0)) % 2
    with pytest.raises(UnsupportedRegime):
        theorem_bounds("mu", (4, 2, 0), KisinInstance(4, 2))


def test_theorem_bounds_le_mu_relaxed_sup_at_strongly_regular():
    # when mu itself is strongly regular the dominance sup sits at mu
    inst = KisinInstance(3, 2)
    mu = (12, 5, 0)
    assert regularity(tuple(map(F, mu)), inst).strongly_integrally_b_regular
    tb = theorem_bounds("le_mu", mu, inst)
    assert tb["lower_sup_relaxed"]
    assert tb["lower"] == F(dot(two_rho(3), vec(mu)), 3) - 4 - F(1, 4)


def test_dominance_polytope_cuts_by_the_regularity_flags():
    # mu is dominated by itself, so it lies in its own dominance polytope
    # exactly when it passes the (strong) regularity rows
    rng = random.Random(7)
    for d in range(2, 7):
        for b in (2, 3, 5, 101):
            inst = KisinInstance(d, b)
            for _ in range(40):
                mu = sorted((rng.randint(-3 * b, 3 * b) for _ in range(d)), reverse=True)
                mu[-1] -= sum(mu) % (b - 1)
                r = regularity(mu, inst)
                assert contains(dominance_polytope(mu, inst, strong=False), vec(mu)) == r.b_regular
                assert (contains(dominance_polytope(mu, inst, strong=True), vec(mu))
                        == r.strongly_integrally_b_regular), (mu, b)


def test_dominance_polytope_empty_when_no_regular_point():
    inst = KisinInstance(3, 2)
    P = dominance_polytope((2, 0, -2), inst, strong=True)
    assert is_empty(enumerate_vertices(P))


def test_dominated_sup_matches_the_general_route():
    # the root-coordinate double description against the vertices of the
    # dominance polytope, and the le_mu bounds read off it; the grid holds
    # empty cases, sups at mu itself and sups below it
    rng = random.Random(11)
    kinds = Counter()
    for d in range(1, 7):
        for b in (2, 3, 5, 7, 101):
            inst = KisinInstance(d, b)
            eps = F(inst.epsilon_slack)
            for _ in range(30):
                mu = tuple(sorted((rng.randint(-4 * b, 4 * b) for _ in range(d)),
                                  reverse=True))
                sups = {}
                for strong in (False, True):
                    sup = bd._dominated_sup(mu, inst, strong)
                    assert sup == dominated_sup(mu, inst, strong), (mu, b, strong)
                    sups[strong] = sup
                    at_mu = sup is not None and sup == dot(two_rho(d), vec(mu))
                    kinds["empty" if sup is None else "at mu" if at_mu else "below mu"] += 1
                tb = theorem_bounds("le_mu", mu, inst)
                assert tb["upper"] == eps + F(dot(two_rho(d), vec(mu)), b + 1)
                assert tb["lower"] == (None if sups[True] is None else
                                       F(sups[True], b + 1) - (d - 1) ** 2 - F((d - 2) ** 2, 4))
                if b >= 1 + max(d, (d - 1) ** 2 // 4):
                    assert tb["upper_strong"] == (None if sups[False] is None else
                                                  eps + F(sups[False], b + 1))
                else:
                    assert "upper_strong" not in tb
    assert set(kinds) == {"empty", "at mu", "below mu"}


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------

def test_witness_le_e_worked_example():
    inst = KisinInstance(2, 2)
    q, rep = witness_le_e(inst, 3)
    assert (q[(1, 1)], q[(1, 2)], q[(2, 2)]) == (2, 1, 2)
    m = mu_from_q(q)
    assert (m[(1, 1)], m[(1, 2)]) == (3, 0)
    assert rep["objective"] == 1 and rep["ok"]


def test_witness_le_e_edge_e0():
    for b in (2, 3, 5):
        for d in (2, 3, 4):
            q, rep = witness_le_e(KisinInstance(d, b), 0)
            assert rep["ok"]
            assert rep["objective"] >= rep["objective_lower_target"]


def test_witness_le_e_full_grid():
    for b in (2, 3, 4, 5):
        for d in (2, 3, 4, 5):
            inst = KisinInstance(d, b)
            for e in range(0, 41):
                _, rep = witness_le_e(inst, e)
                assert rep["ok"], (d, b, e, rep)


def test_witness_le_mu_postconditions_random():
    rng = random.Random(34)
    for b in (2, 3):
        for d in (2, 3, 4):
            inst = KisinInstance(d, b)
            shift = d * (b * b - 1)
            for _ in range(12):
                gaps = [rng.randint(shift, 2 * shift) for _ in range(d - 1)]
                mu = [0]
                for g in reversed(gaps):
                    mu.append(mu[-1] + g)
                mu = list(reversed(mu))
                t = next((t for t in range(b - 1)
                          if (sum(mu) + d * t) % (b - 1) == 0), None)
                if t is None:
                    continue
                mu = tuple(F(x + t) for x in mu)
                if not regularity(mu, inst).strongly_integrally_b_regular:
                    continue
                q, rep = witness_le_mu(inst, mu)
                assert rep["ok"], (d, b, mu, rep)
                # the level sequence satisfies the announced growth
                qq = rep["q_levels"]
                assert all(x <= y for x, y in zip(qq, qq[1:]))
                assert qq[-1] - qq[-2] >= d - 1  # after rounding, can lose < 1


def test_witness_le_mu_exact_when_integral():
    # all unrounded levels integral: the objective meets the target exactly
    inst = KisinInstance(2, 2)
    mu = (F(9), F(0))  # q' = (3, 6): integral
    assert regularity(mu, inst).strongly_integrally_b_regular
    q, rep = witness_le_mu(inst, mu)
    assert rep["exact_when_integral"]
    assert rep["objective"] == F(dot(two_rho(2), mu), 3)


def test_witness_le_mu_stated_constant_counterexample():
    # regression: the rounded point loses 4/3 > (d-1)^2 + (d-2)^2/4 = 1
    # here, so the often-quoted slack constant is not met by the
    # construction; the provable d(d-1) slack is
    inst = KisinInstance(2, 2)
    q, rep = witness_le_mu(inst, (F(10), F(0)))
    assert rep["ok"] and not rep["meets_stated_constant"]
    assert rep["objective"] == 2 and rep["objective_stated_target"] == F(7, 3)


def test_witness_le_mu_at_d1_is_ok_exactly_when_the_objective_meets_the_target(monkeypatch):
    # d = 1 has no level below the last, so nothing is rounded and the
    # objective must equal <2 rho | mu>/(b+1) = 0: all 42 strongly integrally
    # b-regular types of the report grid below are ok, and none is with its
    # objective off by one
    types = [(b, (m,)) for b in (2, 3, 5, 7) for m in range(21)
             if _inline_regularity((m,), b)[2]]
    assert len(types) == 42
    for b, mu in types:
        _, rep = witness_le_mu(KisinInstance(1, b), mu)
        assert rep["ok"] and rep["exact_when_integral"] and rep["objective"] == 0, (b, mu)
    dim_phi = km.dim_phi
    for step in (1, -1):
        monkeypatch.setattr(km, "dim_phi", lambda q, step=step: dim_phi(q) + step)
        for b, mu in types:
            _, rep = witness_le_mu(KisinInstance(1, b), mu)
            assert not rep["ok"], (b, mu, step)


def test_witness_le_mu_rejects_non_regular():
    inst = KisinInstance(3, 2)
    with pytest.raises(ValueError):
        witness_le_mu(inst, (F(2), F(1), F(0)))


def _typed(report):
    """The report's fields in order, each with its value and its type."""
    return [(k, v, type(v)) for k, v in report.items()]


def test_witness_le_e_report_matches_the_fraction_route():
    for d in range(1, 6):
        for b in (2, 3, 5, 7):
            inst = KisinInstance(d, b)
            for e in range(21):
                q, rep = witness_le_e(inst, e)
                assert _typed(rep) == _typed(witness_le_e_report(inst, e, q)), (d, b, e)


def test_witness_le_mu_report_matches_the_fraction_route():
    # every strongly integrally b-regular type with 20 >= mu_1 >= mu_d >= 0,
    # with levels that are integral and levels that are rounded
    seen = Counter()
    for d in range(1, 6):
        for b in (2, 3, 5, 7):
            inst = KisinInstance(d, b)
            for mu in combinations_with_replacement(range(20, -1, -1), d):
                if not _inline_regularity(mu, b)[2]:
                    continue
                q, rep = witness_le_mu(inst, mu)
                assert _typed(rep) == _typed(witness_le_mu_report(inst, mu, q)), (d, b, mu)
                seen[rep["exact_when_integral"]] += 1
    assert seen[True] and seen[False] and sum(seen.values()) == 630, seen


# ---------------------------------------------------------------------------
# the K polytopes
# ---------------------------------------------------------------------------

def test_k_polytope_small_counts():
    expect = {2: (1, 1), 3: (3, 3), 4: (6, 5), 5: (15, 9)}
    for d, counts in expect.items():
        kt = k_polytopes(KisinInstance(d, 10000))
        assert kt.counts == counts


def _k_by_double_description(inst):
    """K the long way: the facets of Reg* from the double description of its
    generators, each translated to the apex 2 rho/(b+1), cut by C."""
    apex = tuple(F(x, inst.b + 1) for x in two_rho(inst.d))
    Reg_star = cone_hull(regular_dual_generators(inst), [], inst.d)
    shifted = HPolyhedron(inst.d, tuple(Halfspace(h.normal, dot(h.normal, apex), h.is_eq)
                                        for h in Reg_star.halfspaces))
    return intersect(shifted, cone_chain(inst.d))


def test_k_polytope_closed_form_rows_match_the_double_description():
    # the same halfspaces in the same order, so the same vertex tables
    for d in range(2, 11):
        for b in (2, 3, 5, 7, 17, 101, 1009, 10000, 10007, 100003):
            inst = KisinInstance(d, b)
            assert k_hrep(inst) == _k_by_double_description(inst), (d, b)
            # each row is positive on the generator it is paired with and
            # zero on every other one, so the seed of k_polytopes is simplicial
            gens = regular_dual_generators(inst)
            for a, g in reg_star_facets(inst):
                assert [sum(map(mul, a, h)) > 0 for h in gens] == [h == g for h in gens]
                assert all(sum(map(mul, a, h)) >= 0 for h in gens), (d, b)


K_GRID_B = (2, 3, 5, 7, 17, 101, 1009, 10000, 10007, 100003)


def _recorded_cover_calls(monkeypatch):
    """Record the arguments (d, covers, tight masks) of every call of
    bounds._kept_by_cover, the point where k_polytopes decides K + C*."""
    calls = []
    cover = bd._kept_by_cover

    def recorded(d, covers, tight_masks):
        calls.append((d, covers, list(tight_masks)))
        return cover(d, covers, tight_masks)

    monkeypatch.setattr(bd, "_kept_by_cover", recorded)
    return calls


@pytest.mark.parametrize("d", range(1, 11))
def test_k_polytopes_match_the_generic_route(d, monkeypatch):
    # the double description seeded with the simplicial cone of Reg*, with
    # the tight facets read off its zero sets, against the generic route:
    # the double description of the H-representation of K, and
    # vertices_of_sum with the tight facets found by dots
    calls = _recorded_cover_calls(monkeypatch)
    for b in K_GRID_B:
        calls.clear()
        kt = k_polytopes(KisinInstance(d, b))
        K = k_hrep(kt.instance)
        V = enumerate_vertices(K)
        assert kt.K_vertices == V.vertices, (d, b)
        assert kt.K_rays == V.rays, (d, b)
        assert list(kt.Kp_vertices) == vertices_of_sum(K, V.vertices,
                                                       chain_dual_generators(d)), (d, b)
        # every zero-set bit, not only those that decide a vertex: the rows
        # equal the vertices above, so their integer dots find the tight set
        rows = [h.normal + (-h.offset,) for h in K.ineqs]
        assert [masks for _, _, masks in calls] == [
            [sum(1 << i for i, a in enumerate(rows) if sum(map(mul, a, r)) == 0)
             for r in kt.K_rows]], (d, b)
        for row in kt.K_rows + kt.Kp_rows:
            assert all(type(x) is int for x in row) and row[-1] > 0 and gcd(*row) == 1


def test_cover_test_matches_the_normal_cone_oracle(monkeypatch):
    # every vertex of K(b) on the grid: the cover test against kept_in_sum;
    # a cover without the reflection d - k, and one that ignores the tight
    # chain rows, must each disagree with the oracle somewhere on the grid
    cover = bd._kept_by_cover
    calls = _recorded_cover_calls(monkeypatch)
    wrong = Counter()
    for d in range(2, 11):
        for b in K_GRID_B:
            calls.clear()
            kt = k_polytopes(KisinInstance(d, b))
            [(_, covers, masks)] = calls
            # facet row t is positive on one generator g_sigma of Reg*, and
            # on v_k exactly at k = sigma and k = d - sigma
            gens = regular_dual_generators(kt.instance)
            K = k_hrep(kt.instance)
            sigma = [next(j for j, g in enumerate(gens, 1) if dot(h.normal, g) > 0)
                     for h in K.ineqs[:d - 1]]
            assert covers == [1 << (s - 1) | 1 << (d - s - 1) for s in sigma], (d, b)
            oracle = kept_in_sum(K, chain_dual_generators(d), masks)
            assert cover(d, covers, masks) == oracle, (d, b)
            low = (1 << (d - 1)) - 1
            wrong["no reflection"] += cover(d, [1 << (s - 1) for s in sigma], masks) != oracle
            wrong["no chain rows"] += cover(d, covers, [m & low for m in masks]) != oracle
    assert wrong["no reflection"] and wrong["no chain rows"], wrong


def test_k_polytope_apex_always_survives():
    for d, b in [(2, 2), (3, 7), (4, 3), (5, 6)]:
        kt = k_polytopes(KisinInstance(d, b))
        apex = tuple(F(x, b + 1) for x in two_rho(d))
        assert apex in kt.Kp_vertices
        assert apex in kt.K_vertices


def test_k_polytope_vertices_lie_in_chain_cone():
    kt = k_polytopes(KisinInstance(4, 7))
    C = cone_chain(4)
    for v in kt.K_vertices:
        assert contains(C, v)
    assert set(kt.Kp_vertices) <= set(kt.K_vertices)


def test_k_polytope_csv_and_json():
    kt = k_polytopes(KisinInstance(3, 5))
    csv = kt.coords_csv()
    assert csv.splitlines()[0] == "polytope,y1,y2,y3"
    assert "K+C*" in csv
    import json

    payload = json.loads(kt.to_json())
    assert payload["K_vertex_count"] == 3
    # the integer rows print as their Fraction coordinates do
    expected = [[fmt_frac(x) for x in v] for v in kt.K_vertices]
    assert payload["K_vertices"] == expected
    assert csv.splitlines()[1:4] == ["K," + ",".join(v) for v in expected]
