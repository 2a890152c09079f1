"""Acceptance suite: the ten headline checks, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s`.  Everything is exact
rational arithmetic; there are no tolerances anywhere.
"""

import random
from fractions import Fraction as F

from kisindim import bounds as bd
from kisindim import perm as pm
from kisindim import solver as sv
from kisindim.kisin_model import (KisinInstance, QPoint, chain_dual_generators, mu_from_q,
                                  phi_from_q, q_from_mu, read_back_q, validate_phi)
from oracles import (a_set, admissible_level, cone_chain, cone_q, contains, enumerate_vertices,
                     fraction_cells, graph_cone_dual_membership, intersect, minkowski_sum_cone,
                     polyhedra_set_equal, q_in_lattice, qpoint)

BIG_BUDGET = 500_000_000


def _ok(name):
    print(f"ACCEPTANCE {name}: PASS")


# ---------------------------------------------------------------------------
# 1. vertex counts of K and K + C* for b = 10000, d = 2..10
# ---------------------------------------------------------------------------

def test_acceptance_1_vertex_count_table():
    expected = {2: (1, 1), 3: (3, 3), 4: (6, 5), 5: (15, 9), 6: (33, 17),
                7: (70, 31), 8: (136, 47), 9: (347, 103), 10: (667, 163)}
    for d, counts in expected.items():
        kt = bd.k_polytopes(KisinInstance(d, 10000))
        assert kt.counts == counts, (d, kt.counts, counts)
    _ok("1 (vertex-count table, d = 2..10, b = 10000)")


# ---------------------------------------------------------------------------
# 2. vertex coordinates of K + C* for d = 2..5 as rational functions of b
# ---------------------------------------------------------------------------

def _scale(v, den):
    return tuple(F(x, den) for x in v)


def _plus(u, v):
    return tuple(x + y for x, y in zip(u, v))


def _table2(d, b):
    if d == 2:
        return {_scale((1, -1), b + 1)}
    if d == 3:
        # second vertex sign-corrected: K + C* sits inside K, hence inside
        # the chain cone, so every vertex has nonincreasing coordinates
        return {_scale((2, 0, -2), b + 1), _scale((2, 2, -4), b + 2),
                _scale((4, -2, -2), b + 2)}
    if d == 4:
        return {_scale((3, 1, -1, -3), b + 1),
                _scale((3, 3, 3, -9), b + 3),
                _scale((9, -3, -3, -3), b + 3),
                _plus(_scale((1, -1, -1, 1), b - 1), _scale((4, 0, 0, -4), b + 1)),
                _plus(_scale((-1, 1, 1, -1), b - 1), _scale((4, 0, 0, -4), b + 1))}
    if d == 5:
        return {_scale((4, 2, 0, -2, -4), b + 1),
                _scale((4, 4, 4, 4, -16), b + 4),
                _scale((16, -4, -4, -4, -4), b + 4),
                _plus(_scale((3, -2, -2, -2, 3), b - 1), _scale((7, 0, 0, 0, -7), b + 1)),
                _plus(_scale((-3, 2, 2, 2, -3), b - 1), _scale((7, 0, 0, 0, -7), b + 1)),
                _plus(_scale((-2, 2, 0, 0, 0), b), _scale((6, 0, 0, 0, -6), b + 1)),
                _plus(_scale((0, 0, 0, -2, 2), b), _scale((6, 0, 0, 0, -6), b + 1)),
                _plus(_scale((4, 0, 0, 0, -4), b + 1), _scale((0, 2, 2, -4, 0), b + 2)),
                _plus(_scale((4, 0, 0, 0, -4), b + 1), _scale((0, 4, -2, -2, 0), b + 2))}
    raise AssertionError(d)


def test_acceptance_2_vertex_coordinate_table():
    for d in (2, 3, 4, 5):
        for b in (7, 17, 101):
            assert b >= bd.TABLE2_VALIDITY[d]
            kt = bd.k_polytopes(KisinInstance(d, b))
            assert set(kt.Kp_vertices) == _table2(d, b), (d, b)
    _ok("2 (vertex-coordinate table, d = 2..5, b in {7, 17, 101})")


# ---------------------------------------------------------------------------
# 3. extremal points of the Q_max A-set are the rho_w, plus segment bounds
# ---------------------------------------------------------------------------

def test_acceptance_3_extremal_points():
    for d in (2, 3, 4):
        b0 = max(2, KisinInstance(d, 2).b0)  # clamped to the legal minimum
        for b in (b0, b0 + 3, 17):
            inst = KisinInstance(d, b)
            pts = bd.extremal_points_a_qmax(inst)  # raises on any mismatch
            # exact set equality (the w -> vertex map may glue at small b)
            V = enumerate_vertices(a_set(inst, "Qmax", "g"))
            assert set(V.vertices) == {pm.rho_w(w, b)
                                       for w in pm.all_permutations(d)}
            for v in pts.values():
                for m in range(0, d):
                    for n in range(m + 1, d + 1):
                        seg = sum(v[m:n])
                        assert -m * (n - m) <= seg <= (n - m) * (d - n)
    _ok("3 (extremal points = rho_w with segment-sum bounds)")


# ---------------------------------------------------------------------------
# 4. the full-cone A-set identities
# ---------------------------------------------------------------------------

def test_acceptance_4_a_set_identities():
    # d = 6 at b_min only: its full cone Q has about 4,000 rays
    for d in (2, 3, 4, 5, 6):
        b_min = max(2, KisinInstance(d, 2).b0, d + 1)
        for b in (b_min,) if d == 6 else (b_min, 17):
            inst = KisinInstance(d, b)
            AQ = a_set(inst, "Q", "g")
            S = minkowski_sum_cone(a_set(inst, "Qmax", "g"),
                                   chain_dual_generators(d))
            assert polyhedra_set_equal(AQ, S), ("sum identity", d, b)
            C = cone_chain(d)
            assert polyhedra_set_equal(intersect(AQ, C),
                                       intersect(a_set(inst, "Qmin", "g"), C)), \
                ("chain intersection identity", d, b)
    _ok("4 (A_Q = A_Qmax + C* and A_Q cap C = A_Qmin cap C)")


# ---------------------------------------------------------------------------
# 5. closed forms against the exact lattice search
# ---------------------------------------------------------------------------

def test_acceptance_5_closed_forms_vs_search():
    # d = 2: full grid b in {2,3,4,5}, 0 <= mu2 <= mu1 <= 30
    for b in (2, 3, 4, 5):
        inst = KisinInstance(2, b)
        for m1 in range(0, 31):
            for m2 in range(0, m1 + 1):
                cf = sv.dim_d2_closed(m1, m2, inst)
                r = sv.dim_exact(sv.DimQuery(inst, "mu", mu=(m1, m2)),
                                 budget=BIG_BUDGET)
                if cf is None or cf < 0:
                    assert r.status == "empty", (b, m1, m2)
                else:
                    assert r.status == "exact" and r.dim == cf, (b, m1, m2)
    # d = 3: all valid-flagged triples with b in {2,3}, spread <= 40
    checked = 0
    for b in (2, 3):
        inst = KisinInstance(3, b)
        for m3 in range(0, b - 1):
            for m1 in range(m3, m3 + 41):
                for m2 in range(m3, m1 + 1):
                    if (m1 + m2 + m3) % (b - 1):
                        continue
                    val, valid = sv.dim_d3_closed(m1, m2, m3, inst)
                    if not valid:
                        continue
                    checked += 1
                    r = sv.dim_exact(sv.DimQuery(inst, "mu", mu=(m1, m2, m3)),
                                     budget=BIG_BUDGET)
                    assert r.status == "exact" and r.dim == val, (b, m1, m2, m3)
    assert checked >= 150
    _ok(f"5 (closed forms == search: d=2 full grid, d=3 {checked} valid triples)")


# ---------------------------------------------------------------------------
# 6. theorem sandwiches
# ---------------------------------------------------------------------------

def _strongly_regular_samples(inst, rng, count=3):
    """Strongly regular tuples with near-minimal spread (the search cost
    grows quickly with the spread, and strength only constrains the first
    and last gaps: g1 >= db and g_{d-1} in [g1/b, b*g1 - d(b^2-1)])."""
    d, b = inst.d, inst.b
    out = []
    for _ in range(120):
        if len(out) >= count:
            break
        if d == 2:
            gaps = [2 * (b + 1) + rng.randint(0, 3)]
        else:
            g1 = d * b + rng.randint(0, 2)
            lo = -(-g1 // b)
            hi = b * g1 - d * (b * b - 1)
            if hi < lo:
                continue
            glast = rng.randint(lo, min(hi, lo + 2))
            gaps = [g1] + [rng.randint(0, 2) for _ in range(d - 3)] + [glast]
        mu = [0]
        for g in reversed(gaps):
            mu.append(mu[-1] + g)
        mu = list(reversed(mu))
        t = next((t for t in range(b - 1)
                  if (sum(mu) + d * t) % (b - 1) == 0), None)
        if t is None:
            continue
        mu = tuple(x + t for x in mu)
        if bd.regularity(tuple(map(F, mu)), inst).strongly_integrally_b_regular:
            out.append(mu)
    return out


def _integrally_regular_samples(inst, rng, count=4):
    d, b = inst.d, inst.b
    out = []
    for _ in range(200):
        if len(out) >= count:
            break
        gaps = [rng.randint(0, 2 * b) for _ in range(d - 1)]
        mu = [0]
        for g in reversed(gaps):
            mu.append(mu[-1] + g)
        mu = tuple(reversed(mu))
        if not bd.regularity(tuple(map(F, mu)), inst).b_regular:
            continue
        t = next((t for t in range(b - 1)
                  if (sum(mu) + d * t) % (b - 1) == 0), None)
        if t is None:
            continue
        mu = tuple(x + t for x in mu)
        if bd.regularity(tuple(map(F, mu)), inst).integrally_b_regular:
            out.append(mu)
    return out


def test_acceptance_6_theorem_sandwiches():
    rng = random.Random(606)
    for d in (2, 3, 4):
        for b in (2, 3):
            inst = KisinInstance(d, b)
            # e-bounded family: lower <= dim <= upper for e <= 20
            for e in range(0, 21):
                r = sv.dim_exact(sv.DimQuery(inst, "le_e", e=e), budget=BIG_BUDGET)
                tb = bd.theorem_bounds("le_e", e, inst)
                assert tb["lower"] <= r.dim, (d, b, e)
                assert F(r.dim) <= tb["upper"], (d, b, e)
            # divisor types: congruence always; the permutation-minimum
            # upper bound on its proven range b >= b0.  (The type can be
            # empty even when regular and divisible -- skip those.)
            nonempty = 0
            for mu in _integrally_regular_samples(inst, rng, count=10):
                r = sv.dim_exact(sv.DimQuery(inst, "mu", mu=mu), budget=BIG_BUDGET)
                if r.status == "empty":
                    continue
                nonempty += 1
                assert (r.dim + sum(i * m for i, m in enumerate(mu, 1))) % (b - 1) == 0
                if b >= inst.b0:
                    val, _ = bd.min_over_permutations(tuple(map(F, mu)), inst)
                    assert F(r.dim) <= F(inst.epsilon_slack) + val, (d, b, mu)
            assert nonempty >= 3, (d, b)
            # dominance-bounded family at strongly regular mu
            for mu in _strongly_regular_samples(inst, rng):
                r = sv.dim_exact(sv.DimQuery(inst, "le_mu", mu=mu), budget=BIG_BUDGET)
                tb = bd.theorem_bounds("le_mu", mu, inst)
                assert tb["lower"] is not None and tb["lower"] <= r.dim, (d, b, mu)
                assert F(r.dim) <= tb["upper"], (d, b, mu)
    _ok("6 (sandwiches: e-family, divisor congruence + minimum, dominance family)")


# ---------------------------------------------------------------------------
# 7. periodicity in the d = 2 family
# ---------------------------------------------------------------------------

def test_acceptance_7_d2_periodicity():
    for b in (2, 3):
        inst = KisinInstance(2, b)
        dims = [sv.dim_exact(sv.DimQuery(inst, "le_e", e=e)).dim
                for e in range(0, 16 + b * b - 1)]
        for e in range(0, 16):
            assert dims[e + b * b - 1] == dims[e] + (b - 1), (b, e)
    _ok("7 (dimension steps by b-1 under e -> e + b^2 - 1, d = 2)")


# the excess dim(e) - lower(e) over one period e = 2b-1, ..., 2b-2 + b^2-1,
# one digit per e, on the grid where it is measured (the conjecture's shape
# beyond d = 2; (6, 3) takes about 30 s and is left out)
PERIOD_EXCESS = {2: {2: "000", 3: "001", 4: "001", 5: "002", 6: "003"},
                 3: {2: "00010000", 3: "00120011", 4: "00140011", 5: "00260022"}}


def test_conjecture_period_table():
    for b, rows in PERIOD_EXCESS.items():
        for d, expected in rows.items():
            inst = KisinInstance(d, b)
            got = "".join(str(sv.dim_exact(sv.DimQuery(inst, "le_e", e=e)).dim
                              - bd.theorem_bounds("le_e", e, inst)["lower"])
                          for e in range(2 * b - 1, 2 * b - 1 + b * b - 1))
            assert got == expected, (d, b)


# ---------------------------------------------------------------------------
# 8. witness soundness on the full mechanical grids
# ---------------------------------------------------------------------------

def test_acceptance_8_witness_grids():
    for b in (2, 3, 4, 5):
        for d in (2, 3, 4, 5):
            inst = KisinInstance(d, b)
            for e in range(0, 41):
                _, rep = bd.witness_le_e(inst, e)
                assert rep["ok"], (d, b, e, rep)
    rng = random.Random(808)
    verified = 0
    for b in (2, 3, 4):
        for d in (2, 3, 4, 5):
            inst = KisinInstance(d, b)
            for mu in _strongly_regular_samples(inst, rng, count=5):
                _, rep = bd.witness_le_mu(inst, tuple(map(F, mu)))
                assert rep["ok"], (d, b, mu, rep)
                verified += 1
    assert verified >= 40
    _ok(f"8 (witness postconditions: 656 e-grid points, {verified} dominance points)")


# ---------------------------------------------------------------------------
# 9. dual-membership oracles agree
# ---------------------------------------------------------------------------

def test_acceptance_9_dual_oracles():
    rng = random.Random(909)
    for _ in range(500):
        n = rng.randint(2, 8)
        nodes = list(range(n))
        arcs = [(u, v) for u in nodes for v in nodes
                if u != v and rng.random() < 0.35]
        x = [F(rng.randint(-5, 5), rng.randint(1, 2)) for _ in nodes]
        if rng.random() < 0.6:
            x[-1] = -sum(x[:-1])
        # raises if the subset and max-flow methods disagree
        graph_cone_dual_membership(nodes, arcs, dict(zip(nodes, x)))
    # the closed-form dual descriptions against the graph oracles, on the
    # two graph cones the model uses
    for d in (2, 3, 4):
        inst = KisinInstance(d, 3)
        cells = inst.cells
        tab_min = pm.ord_tableau(pm.w_star(pm.w0(d)))  # band levels
        arcs_min = [(x, y) for x in cells for y in cells
                    if x != y and tab_min.entries[x] >= tab_min.entries[y]]
        arcs_max = [(c, (c[0], c[1] + 1)) for c in cells if c[1] + 1 <= d] + \
                   [(c, (c[0] - 1, c[1] - 1)) for c in cells
                    if c[0] >= 2 and c[1] - 1 >= c[0] - 1]
        for _ in range(40):
            x = {c: F(rng.randint(-4, 4)) for c in cells}
            if rng.random() < 0.5:
                last = cells[-1]
                x[last] = -sum(v for c, v in x.items() if c != last)
            zero = sum(x.values()) == 0
            # closed form for the min-variant: level-set sums nonpositive
            closed_min = zero and all(
                sum(x[c] for c in admissible_level(d, s).cells) <= 0
                for s in range(1, d))
            assert closed_min == graph_cone_dual_membership(cells, arcs_min, x)
            # closed form for the max-variant: all admissible sums nonpositive
            closed_max = zero and all(
                sum((x[c] for c in pm.admissible_from_subset(d, T).cells), F(0)) <= 0
                for T in _subsets(d))
            assert closed_max == graph_cone_dual_membership(cells, arcs_max, x)
    _ok("9 (dual-membership oracles: 500 random graphs + both model cones)")


def _subsets(d):
    for mask in range(1, 2 ** d):
        yield {t for t in range(1, d + 1) if mask & (1 << (t - 1))}


# ---------------------------------------------------------------------------
# 10. parametrization round trips
# ---------------------------------------------------------------------------

def test_acceptance_10_round_trips():
    rng = random.Random(1010)
    # transform inverses on 1000 random points
    trips = 0
    while trips < 1000:
        d = rng.randint(1, 6)
        inst = KisinInstance(d, rng.choice((2, 3, 5)))
        q = qpoint(inst, [F(rng.randint(-40, 40), rng.randint(1, 6))
                          for _ in inst.cells])
        assert q_from_mu(mu_from_q(q)) == q
        trips += 1
    # profile validation and breakpoint read-back on 200 interior points
    reads = 0
    while reads < 200:
        d = rng.randint(2, 5)
        b = rng.choice((2, 3))
        inst = KisinInstance(d, b)
        # banded integers with wide gaps and a row tilt: all games strict
        M = 4 * b * b + 7
        levels = sorted(rng.sample(range(0, 4 * d), d))
        q = QPoint(inst, [M * levels[d - 1 - (j - i)] + 3 * i + rng.randint(0, 1)
                          for (i, j) in inst.cells])
        assert contains(cone_q(inst), fraction_cells(q)) and q_in_lattice(q)
        p = phi_from_q(q)
        assert validate_phi(p)
        assert read_back_q(p) == q
        reads += 1
    _ok("10 (1000 transform round trips, 200 profile read-backs)")
