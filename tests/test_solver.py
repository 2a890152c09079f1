import itertools
import random
from fractions import Fraction as F

import pytest

from kisindim import bounds as bd
from kisindim import kisin_model as km
from kisindim import polyhedra
from kisindim import solver as sv
from kisindim.cli import main
from kisindim.kisin_model import KisinInstance, MuTriangle, dim_phi, q_from_mu
from kisindim.polyhedra import primitive_ints
from kisindim.solver import (BudgetExceeded, DimQuery, dim_d2_closed, dim_d3_closed,
                             dim_exact, consistency_suite, _enumerate_dominated_tops)
from oracles import (clear_caches, cone_q, contains, dense_search_rows, dense_transform_rows,
                     fraction_cells, pulled_back_rows_dense,
                     sub_bounds_by_shifted_systems, top_bound_lp, unit_triangles,
                     whole_triangle_certificate)
from test_acceptance import _integrally_regular_samples, _strongly_regular_samples
from test_bounds import _off_the_lattice, _source_mutant


def test_query_validation():
    inst = KisinInstance(2, 2)
    with pytest.raises(ValueError):
        DimQuery(inst, "mu", mu=(0, 3))  # not nonincreasing
    with pytest.raises(ValueError):
        DimQuery(inst, "le_e", e=-1)
    with pytest.raises(ValueError):
        DimQuery(inst, "nope", e=1)
    with pytest.raises(BudgetExceeded):  # d = 5 is searched; only the budget refuses
        dim_exact(DimQuery(KisinInstance(5, 2), "le_e", e=20), budget=10)
    with pytest.raises(ValueError):
        dim_exact(DimQuery(inst, "le_e", e=3), budget=-1)


def test_worked_examples():
    r = dim_exact(DimQuery(KisinInstance(2, 2), "mu", mu=(3, 0)))
    assert r.status == "exact" and r.dim == 1
    assert r.witness[(2, 2)] == 2
    r = dim_exact(DimQuery(KisinInstance(2, 3), "mu", mu=(2, 0)))
    assert r.status == "exact" and r.dim == 0
    assert r.witness[(2, 2)] == 2  # forced
    r = dim_exact(DimQuery(KisinInstance(2, 3), "mu", mu=(3, 0)))
    assert r.status == "empty"  # 2 does not divide 3


def test_d1_cases():
    assert dim_exact(DimQuery(KisinInstance(1, 5), "mu", mu=(4,))).dim == 0
    assert dim_exact(DimQuery(KisinInstance(1, 5), "mu", mu=(3,))).status == "empty"


def test_h_zero_gives_interval():
    inst = KisinInstance(3, 2, h_zero=True)
    r = dim_exact(DimQuery(inst, "mu", mu=(4, 2, 0)))
    assert r.status == "interval"
    lo, hi = r.interval
    assert hi - lo == 3  # d(d-1)/2
    exact = dim_exact(DimQuery(KisinInstance(3, 2), "mu", mu=(4, 2, 0)))
    assert lo == exact.dim


def test_budget_refusal_is_typed():
    inst = KisinInstance(4, 2)
    with pytest.raises(BudgetExceeded):
        dim_exact(DimQuery(inst, "le_e", e=14), budget=50)


def test_witness_checks_always_verified():
    for d, b, mu in [(2, 2, (5, 1)), (3, 2, (6, 3, 0)), (3, 3, (7, 2, 1)),
                     (4, 3, (6, 2, 2, 0))]:
        r = dim_exact(DimQuery(KisinInstance(d, b), "mu", mu=mu))
        if r.status == "empty":
            continue
        assert r.checks["witness_in_Q"] and r.checks["witness_in_R"]
        tri = r.witness
        assert tri.top_row == tuple(map(F, mu))
        assert dim_phi(tri) == r.max_dim_phi


def test_dim_witness_check_reads_the_lattice_off_the_triangle():
    # moved by (b-1)/(b+1) on every mu-cell, 1/(b+1) on every q-cell, a
    # witness keeps Q and its dim(phi) but leaves the lattice, and the check
    # refuses it
    for d, b, mu in [(2, 2, (5, 1)), (3, 3, (7, 2, 1))]:
        r = dim_exact(DimQuery(KisinInstance(d, b), "mu", mu=mu))
        moved = _off_the_lattice(r.witness)
        assert km.in_cone_q(moved) and dim_phi(moved) == r.max_dim_phi, (d, b)
        with pytest.raises(AssertionError, match="'witness_in_R': False"):
            sv._verify_witness(moved, r.max_dim_phi)


def _scaled_q(rows, d, b, i, j):
    """b(b-1) q_{i,j} as an integer form of the mu-cells (rows is a list of
    row lists, rows[i-1][j-i] = mu_{i,j}), read term by term off the
    q-coordinates: the oracle for solver._row_slacks."""
    v = b * rows[i - 1][0]  # mu_{i,i}
    for s in range(i + 1, j + 1):
        v += b * (rows[i - 1][s - i] - rows[i][s - i - 1])
    for s in range(j + 1, d + 1):
        v += rows[i - 1][s - i] - rows[i][s - i - 1]
    return v


def _mu_constraints_ok(inst, rows):
    """The full cone system in mu-coordinates, evaluated on one triangle:
    order constraints plus the scaled-q inequalities
    b(b-1) q_{i-1,j-1} <= b(b-1) q_{i,j}."""
    d, b = inst.d, inst.b
    for i in range(2, d + 1):
        for j in range(i, d + 1):
            v = rows[i - 1][j - i]
            if not (rows[i - 2][j - i + 1] <= v <= rows[i - 2][j - i]):
                return False
            if _scaled_q(rows, d, b, i - 1, j - 1) > _scaled_q(rows, d, b, i, j):
                return False
    return True


def _sampling_self_test(d, b):
    """Oracle for the proof in solver._prove: on 200 seeded
    triangles, half of them biased toward feasibility, the mu-system agrees
    with membership of q_from_mu in the cone Q, all in Fraction arithmetic."""
    inst = KisinInstance(d, b)
    rng = random.Random(10_000 * d + b)
    Q = cone_q(inst)
    for trial in range(200):
        if trial % 2 == 0:
            rows = [[rng.randint(-6, 6) for _ in range(d - i)] for i in range(d)]
        else:
            top = sorted((rng.randint(-6, 6) for _ in range(d)), reverse=True)
            rows = [top]
            for i in range(2, d + 1):
                prev = rows[-1]
                rows.append([rng.randint(min(prev[k + 1], prev[k]), max(prev[k + 1], prev[k]))
                             for k in range(d - i + 1)])
        tri = MuTriangle(inst, [x for row in rows for x in row])
        if _mu_constraints_ok(inst, rows) != contains(Q, fraction_cells(q_from_mu(tri))):
            raise AssertionError(f"mu-system and q-system disagree at d={d} b={b} rows={rows}")
    return True


SELF_TEST_GRID = [(d, b) for d in range(1, 5) for b in (2, 3, 5, 7, 101, 10007)]


@pytest.fixture
def cold_mu_system():
    """Clear the per-(d, b) proofs before and after a test that patches
    what they are read from."""
    clear_caches()
    yield
    clear_caches()


def test_mu_constraint_system_self_test():
    for d, b in SELF_TEST_GRID:
        assert _sampling_self_test(d, b)
        assert sv._prove(d, b) and len(dense_search_rows(d, b)) == 3 * d * (d - 1) // 2, (d, b)


def test_mu_constraints_match_cone_on_feasible_triangle():
    inst = KisinInstance(3, 2)
    # the first triangle is a search witness; the second interlaces but
    # breaks a scaled-q inequality
    for rows, inside in (([[6, 3, 0], [5, 2], [4]], True),
                         ([[6, 3, 0], [4, 2], [3]], False)):
        tri = MuTriangle(inst, [x for row in rows for x in row])
        assert _mu_constraints_ok(inst, rows) == inside
        assert contains(cone_q(inst), fraction_cells(q_from_mu(tri))) == inside


@pytest.mark.parametrize("form", [(i, j) for i in range(2, 5) for j in range(i, 5)])
def test_self_test_catches_perturbed_scaled_q(form, monkeypatch, cold_mu_system):
    # one entry of one scaled-q row of d = 4 gains mu_{i-1,i-1}; the rows
    # of level i are the _row_slacks of rows i-1, i, i+1, and row i has 5-i cells
    i, j = form
    row_slacks = sv._row_slacks

    def perturbed(P, Q, R, b):
        rem = row_slacks(P, Q, R, b)
        if len(Q) == 5 - i:
            rem[j - i] += P[0]
        return rem

    monkeypatch.setattr(sv, "_row_slacks", perturbed)
    for b in (2, 3):
        with pytest.raises(AssertionError, match="disagree"):
            sv._prove(4, b)


@pytest.mark.parametrize("b", (2, 3))
def test_self_test_catches_cone_with_a_halfspace_dropped(b, monkeypatch, cold_mu_system):
    full = list(km._game_pairs(KisinInstance(4, b)))
    for k in range(len(full)):
        monkeypatch.setattr(km, "_game_pairs", lambda inst, k=k: full[:k] + full[k + 1:])
        sv._prove.cache_clear()
        with pytest.raises(AssertionError, match="disagree"):
            sv._prove(4, b)


@pytest.mark.parametrize("b", (2, 3))
def test_proof_catches_a_changed_entry_of_mu_from_q(b, monkeypatch, cold_mu_system):
    # one extra term in the mu sum: the coefficient of q-cell k in mu_{1,1}
    # raised by one.  The games are read at v in mu-coordinates and at q(v),
    # so only the inverse identity mu(q(v)) = b(b-1) v reads the mu sum, and
    # it must refuse every such mutant
    mu_of = km._mu_of
    for d in (1, 2, 3, 4):
        for k in range(d * (d + 1) // 2):
            def changed(q, d, b, k=k):
                out = mu_of(q, d, b)
                out[0] += q[k]
                return out

            monkeypatch.setattr(km, "_mu_of", changed)
            clear_caches()
            with pytest.raises(AssertionError, match="transforms disagree"):
                sv._prove(d, b)


@pytest.mark.parametrize("b", (2, 3, 10007))
def test_proof_catches_an_extra_term_in_the_q_sum(b, monkeypatch, cold_mu_system):
    # the coefficient of mu-cell k in b(b-1) q at cell x raised by one, for
    # every pair (x, k): the q sum is read by the inverse identity and by
    # games I and II, and the proof refuses each mutant
    q_of = km._q_of
    for d in (1, 2, 3, 4):
        n = d * (d + 1) // 2
        for x, k in itertools.product(range(n), repeat=2):
            def changed(mu, d, b, x=x, k=k):
                out = q_of(mu, d, b)
                out[x] += mu[k]
                return out

            monkeypatch.setattr(km, "_q_of", changed)
            clear_caches()
            with pytest.raises(AssertionError, match="disagree"):
                sv._prove(d, b)


def _game_row_dropped(monkeypatch):
    # Q with its first game dropped, on every (d, b)
    game_pairs = km._game_pairs
    monkeypatch.setattr(km, "_game_pairs", lambda inst: list(game_pairs(inst))[1:])


def test_search_runs_the_proof(monkeypatch, cold_mu_system):
    # a cold search for a new (d, b) must refuse to run on a mu-system that
    # is not the cone Q
    _game_row_dropped(monkeypatch)
    with pytest.raises(AssertionError, match="disagree"):
        dim_exact(DimQuery(KisinInstance(3, 2), "mu", mu=(4, 2, 0)))


@pytest.mark.parametrize("read", [
    lambda: dim_exact(DimQuery(KisinInstance(3, 2), "mu", mu=(6, 3, 0))),
], ids=["dim_exact"])
def test_no_reader_gets_unproved_rows(read, monkeypatch, cold_mu_system):
    # the search reads its rows only through the proof: with a game
    # dropped, it raises before it returns
    _game_row_dropped(monkeypatch)
    with pytest.raises(AssertionError, match="disagree"):
        read()


def test_bounds_and_witness_requests_never_prove(capsys, monkeypatch, cold_mu_system):
    # membership in Q is decided from its games: with the search's proof
    # refused, the witness reports and the bounds and witness requests
    # still answer, their witnesses in Q
    def refused(d, b):
        raise AssertionError("a witness check ran the search's proof")

    monkeypatch.setattr(sv, "_prove", refused)
    assert bd.witness_le_e(KisinInstance(3, 2), 9)[1]["in_Q"]
    assert bd.witness_le_mu(KisinInstance(3, 2), (12, 5, 0))[1]["in_Q"]
    for target in (["bounds", "--e", "9"], ["bounds", "--mu", "12,5,0"],
                   ["bounds", "--mu", "12,5,0", "--le-mu"], ["witness", "--e", "6"],
                   ["witness", "--mu", "12,5,0"]):
        assert main([target[0], "--d", "3", "--b", "2", *target[1:]]) == 0, target
    capsys.readouterr()


@pytest.mark.parametrize("b", (2, 3, 10007))
def test_self_test_calls_no_fraction_transform(b, monkeypatch, cold_mu_system):
    # the proof reads the integers b(b-1) q off the running sum km._q_of,
    # the one q_from_mu divides, and maps no triangle in Fraction arithmetic
    def refused(m):
        raise AssertionError("the proof mapped a triangle")

    monkeypatch.setattr(km, "q_from_mu", refused)
    monkeypatch.setattr(km, "mu_from_q", refused)
    assert sv._prove(4, b)


def test_shift_invariance_of_dim():
    rng = random.Random(40)
    for _ in range(12):
        b = rng.choice((2, 3))
        d = rng.choice((2, 3))
        inst = KisinInstance(d, b)
        gaps = sorted((rng.randint(0, 6) for _ in range(d - 1)), reverse=True)
        mu = [rng.randint(0, 3)]
        for g in gaps:
            mu.append(mu[-1] - g)
        mu = tuple(sorted(mu, reverse=True))
        if sum(mu) % (b - 1):
            continue
        t = (b - 1) * rng.randint(1, 3)
        r1 = dim_exact(DimQuery(inst, "mu", mu=mu))
        r2 = dim_exact(DimQuery(inst, "mu", mu=tuple(x + t for x in mu)))
        assert r1.status == r2.status
        if r1.status != "empty":
            assert r1.dim == r2.dim


def test_le_e_monotone_and_nonnegative():
    for d, b in [(2, 2), (2, 3), (3, 2)]:
        inst = KisinInstance(d, b)
        prev = -1
        for e in range(0, 9):
            r = dim_exact(DimQuery(inst, "le_e", e=e))
            assert r.status == "exact" and r.dim >= max(prev, 0)
            prev = r.dim


def test_le_mu_equals_max_over_dominated():
    rng = random.Random(41)
    for _ in range(10):
        d = rng.choice((2, 3))
        b = rng.choice((2, 3))
        inst = KisinInstance(d, b)
        mu = tuple(sorted((rng.randint(0, 5) for _ in range(d)), reverse=True))
        if sum(mu) % (b - 1):
            continue
        r = dim_exact(DimQuery(inst, "le_mu", mu=mu))
        best = None
        for mu2 in _enumerate_dominated_tops(mu, b):
            r2 = dim_exact(DimQuery(inst, "mu", mu=mu2))
            if r2.status != "empty":
                best = r2.dim if best is None else max(best, r2.dim)
        if best is None:
            assert r.status == "empty"
        else:
            assert r.dim == best


def test_dominated_tops_enumeration():
    tops = set(_enumerate_dominated_tops((2, 0), 2))
    assert tops == {(2, 0), (1, 1)}
    tops = set(_enumerate_dominated_tops((3, 1, 0), 2))
    assert (2, 1, 1) in tops and (3, 1, 0) in tops and (2, 2, 0) in tops
    assert all(sum(t) == 4 and list(t) == sorted(t, reverse=True) for t in tops)


def test_congruence_of_exact_dims():
    rng = random.Random(42)
    for _ in range(15):
        d = rng.choice((2, 3))
        b = rng.choice((2, 3, 4))
        inst = KisinInstance(d, b)
        mu = tuple(sorted((rng.randint(0, 8) for _ in range(d)), reverse=True))
        r = dim_exact(DimQuery(inst, "mu", mu=mu))
        if r.status == "empty":
            continue
        assert (r.dim + sum(j * m for j, m in enumerate(mu, 1))) % (b - 1) == 0


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_d2_closed_worked():
    assert dim_d2_closed(3, 0, KisinInstance(2, 2)) == 1
    assert dim_d2_closed(2, 0, KisinInstance(2, 3)) == 0
    assert dim_d2_closed(3, 0, KisinInstance(2, 3)) is None


def test_d2_closed_matches_the_congruence_form():
    # the oracle: the largest integer <= (mu1-mu2)/(b+1) congruent to mu1
    # mod b-1
    seen = 0
    for b in (2, 3, 4, 5, 7):
        inst = KisinInstance(2, b)
        for mu1 in range(41):
            for mu2 in range(mu1 + 1):
                value = dim_d2_closed(mu1, mu2, inst)
                if (mu1 + mu2) % (b - 1):
                    assert value is None
                    continue
                f = (mu1 - mu2) // (b + 1)
                assert value == f - (f - mu1) % (b - 1), (b, mu1, mu2)
                seen += 1
    assert seen > 1000


def test_d2_closed_symmetric_case():
    # (t, t) with (b-1) | 2t: dimension 0 when feasible
    for b in (2, 3, 5):
        inst = KisinInstance(2, b)
        for t in range(0, 12):
            if (2 * t) % (b - 1):
                continue
            v = dim_d2_closed(t, t, inst)
            r = dim_exact(DimQuery(inst, "mu", mu=(t, t)))
            if t % (b - 1) == 0:
                assert v == 0 and r.dim == 0
            else:
                assert (v is None or v < 0) == (r.status == "empty")


def test_d3_closed_validity_flag():
    inst = KisinInstance(3, 2)
    val, valid = dim_d3_closed(30, 15, 0, inst)
    assert valid
    assert val == dim_exact(DimQuery(inst, "mu", mu=(30, 15, 0))).dim
    _, valid = dim_d3_closed(4, 4, 4, inst)
    assert not valid


def test_d3_closed_congruence_when_valid():
    rng = random.Random(43)
    for _ in range(30):
        b = rng.choice((2, 3))
        inst = KisinInstance(3, b)
        m3 = rng.randint(0, 2)
        m2 = m3 + rng.randint(8, 20)
        m1 = m2 + rng.randint(8, 20)
        if (m1 + m2 + m3) % (b - 1):
            continue
        val, valid = dim_d3_closed(m1, m2, m3, inst)
        if valid:
            assert (val + m1 + 2 * m2 + 3 * m3) % (b - 1) == 0


# ---------------------------------------------------------------------------
# periodicity and the suite
# ---------------------------------------------------------------------------

def test_d2_periodicity():
    for b in (2, 3):
        inst = KisinInstance(2, b)
        dims = [dim_exact(DimQuery(inst, "le_e", e=e)).dim
                for e in range(0, 10 + b * b)]
        for e in range(0, 10):
            assert dims[e + b * b - 1] == dims[e] + (b - 1)


def test_sandwich_small_grid():
    for d, b in [(2, 2), (3, 2), (2, 3)]:
        inst = KisinInstance(d, b)
        for e in range(0, 8):
            r = dim_exact(DimQuery(inst, "le_e", e=e))
            tb = bd.theorem_bounds("le_e", e, inst)
            assert tb["lower"] <= r.dim and F(r.dim) <= tb["upper"]


def test_consistency_suite_passes():
    rep = consistency_suite(seed=1)
    assert rep["passed"], rep["failures"]
    assert rep["checks"] > 40


def test_result_serialization():
    r = dim_exact(DimQuery(KisinInstance(2, 2), "mu", mu=(3, 0)))
    payload = r.to_dict()
    assert payload["status"] == "exact" and payload["dim"] == 1
    assert payload["witness"]["2,2"] == "2"


# ---------------------------------------------------------------------------
# pruning across top rows: the exhaustive oracle and the certified bound
# ---------------------------------------------------------------------------

def _all_le_e_tops(d, e, b):
    """Every top of the e-bounded family: nonincreasing tuples
    e >= mu_1 >= ... >= mu_d >= 0 with divisible sum, mu_d >= b-1 included."""
    return [top for top in itertools.combinations_with_replacement(range(e, -1, -1), d)
            if sum(top) % (b - 1) == 0]


def _solve_top(inst, top, tracker):
    """(dim, witness triangle) for one top row, or (None, None)."""
    value, rows = sv._max_dim_top(inst, top, tracker)
    if value is None:
        return None, None
    return value, MuTriangle(inst, [x for row in rows for x in row])


def _dim_all_tops(query):
    """The exhaustive oracle: solve every top row in enumeration order and
    keep the best value with the lexicographically least witness, compared
    on the triangles' Fraction values.  Returns (best, witness, nodes), one
    node charged per top listed, as dim_exact charges its own listing."""
    inst = query.instance
    b = inst.b
    if query.kind == "le_e":
        tops = _all_le_e_tops(inst.d, query.e, b)
    elif sum(query.mu) % (b - 1):
        tops = []
    else:
        tops = sv._enumerate_dominated_tops(tuple(query.mu), b)
    tracker = sv._Budget(10 ** 9)
    best, witness = None, None
    for top in tops:
        tracker.spend()
        value, tri = _solve_top(inst, top, tracker)
        if value is None:
            continue
        if best is None or value > best or (value == best and tri.nums < witness.nums):
            best, witness = value, tri
    return best, witness, 10 ** 9 - tracker.left


def _assert_matches_oracle(query):
    r = dim_exact(query, budget=10 ** 9)
    best, witness, nodes = _dim_all_tops(query)
    d = query.instance.d
    if best is None:
        assert r.status == "empty" and r.witness is None
    elif query.instance.h_zero:
        assert r.status == "interval" and r.interval == (best, best + d * (d - 1) // 2)
    else:
        assert r.status == "exact" and r.dim == best
    assert r.witness == witness
    assert r.nodes <= nodes
    return r.nodes, nodes


@pytest.mark.parametrize("d", (2, 3, 4, 5))
@pytest.mark.parametrize("b", (2, 3, 5))
def test_pruned_search_matches_all_tops_le_e(d, b):
    for e in range(0, {4: 11, 5: 7}.get(d, 13)):
        for h_zero in (False, True):
            nodes, oracle_nodes = _assert_matches_oracle(
                DimQuery(KisinInstance(d, b, h_zero), "le_e", e=e))
    # the last query is large enough that pruning must show in the count
    assert nodes < oracle_nodes


def test_pruned_search_matches_all_tops_le_mu():
    rng = random.Random(44)
    for d in (2, 3, 4):
        for b in (2, 3, 5):
            done = 0
            while done < 4:
                mu = tuple(sorted((rng.randint(0, 12 if d < 4 else 9) for _ in range(d)),
                                  reverse=True))
                if sum(mu) % (b - 1):
                    continue
                done += 1
                _assert_matches_oracle(
                    DimQuery(KisinInstance(d, b, done % 2 == 0), "le_mu", mu=mu))
    # a dominance family whose total is not divisible by b-1 is empty
    _assert_matches_oracle(DimQuery(KisinInstance(3, 3), "le_mu", mu=(4, 2, 1)))


def _listed_tops(query):
    """How many tops dim_exact lists for the query, counted apart from its
    enumerators: a dominated top has every entry between mu_d and mu_1."""
    d, b = query.instance.d, query.instance.b
    if query.kind == "le_e":
        return sum(top[-1] <= b - 2 for top in _all_le_e_tops(d, query.e, b))
    mu = query.mu
    if sum(mu) % (b - 1):
        return 0
    if query.kind == "mu":
        return 1
    return sum(sum(top) == sum(mu) and all(sum(top[:t]) <= sum(mu[:t]) for t in range(d))
               for top in itertools.combinations_with_replacement(range(mu[0], mu[-1] - 1, -1), d))


def test_nodes_are_search_nodes_plus_listed_tops(monkeypatch):
    # dim_exact charges one node per top as it lists it and every other
    # node inside the search of a top
    spent = []
    live = sv._max_dim_top

    def search(inst, top, budget, floor=None):
        left = budget.left
        got = live(inst, top, budget, floor)
        spent.append(left - budget.left)
        return got

    monkeypatch.setattr(sv, "_max_dim_top", search)
    for d in (2, 3, 4):
        for b in (2, 3, 5):
            for query in _oracle_grid(d, b):
                spent.clear()
                assert dim_exact(query).nodes == sum(spent) + _listed_tops(query), query


def test_budget_bounds_the_listing_of_tops(monkeypatch, capsys):
    # 1,373,701 tops at e = 200; a budget of 10 refuses after the eleventh
    listed = []
    enumerate_tops = sv._enumerate_le_e_tops

    def counted(d, e, b):
        for top in enumerate_tops(d, e, b):
            listed.append(top)
            yield top

    monkeypatch.setattr(sv, "_enumerate_le_e_tops", counted)
    with pytest.raises(BudgetExceeded):
        dim_exact(DimQuery(KisinInstance(4, 2), "le_e", e=200), budget=10)
    assert 0 < len(listed) <= 11
    listed.clear()
    assert main(["dim", "--d", "4", "--b", "2", "--e", "200", "--budget", "10"]) == 2
    assert 0 < len(listed) <= 11
    assert capsys.readouterr().err.startswith("budget refusal: ")


# ---------------------------------------------------------------------------
# d = 5: the proofs hold, so the search answers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("b", (2, 3))
def test_d5_le_e_within_theorem_sandwich(b):
    inst = KisinInstance(5, b)
    for e in range(13):
        r = dim_exact(DimQuery(inst, "le_e", e=e))
        tb = bd.theorem_bounds("le_e", e, inst)
        assert r.status == "exact" and tb["lower"] <= r.dim <= tb["upper"], e


@pytest.mark.parametrize("b", (2, 3, 5))
def test_d5_mu_within_theorem_sandwich(b):
    # acceptance 6's divisor-type checks at d = 5: the congruence always, the
    # minimum over S_5 on its proven range b >= b0 = 5
    inst = KisinInstance(5, b)
    nonempty = 0
    for mu in _integrally_regular_samples(inst, random.Random(505), count=10):
        r = dim_exact(DimQuery(inst, "mu", mu=mu))
        if r.status == "empty":
            continue
        nonempty += 1
        assert (r.dim + sum(i * m for i, m in enumerate(mu, 1))) % (b - 1) == 0, mu
        if b >= inst.b0:
            val, _ = bd.min_over_permutations(tuple(map(F, mu)), inst)
            assert F(r.dim) <= F(inst.epsilon_slack) + val, mu
    assert nonempty >= 3


@pytest.mark.parametrize("b", (2, 3))
def test_d5_le_mu_within_theorem_sandwich(b):
    # acceptance 6's dominance-family check at d = 5, on strongly regular mu
    inst = KisinInstance(5, b)
    for mu in _strongly_regular_samples(inst, random.Random(505)):
        r = dim_exact(DimQuery(inst, "le_mu", mu=mu))
        tb = bd.theorem_bounds("le_mu", mu, inst)
        assert tb["lower"] is not None and tb["lower"] <= r.dim <= tb["upper"], mu


@pytest.mark.parametrize("b", (2, 3))
def test_d5_le_mu_is_the_max_over_dominated_mu(b):
    inst = KisinInstance(5, b)
    mu = (5, 3, 2, 1, 1)
    dims = [dim_exact(DimQuery(inst, "mu", mu=m)).max_dim_phi
            for m in _enumerate_dominated_tops(mu, b)]
    assert dim_exact(DimQuery(inst, "le_mu", mu=mu)).dim == \
        max(x for x in dims if x is not None)


CERTIFICATE_B_VALUES = (2, 3, 4, 5, 7, 10, 101, 10007)


@pytest.mark.parametrize("d", range(2, 8))
def test_top_bound_certificate(d):
    # the closed-form certificate and the LP, its reference, agree: both hold
    for b in CERTIFICATE_B_VALUES:
        assert sv._prove(d, b) and top_bound_lp(d, b)
        # control: the certificate is not vacuous, a smaller bound (divisor
        # b+2 for b+1) is not a combination of the search's rows
        assert not top_bound_lp(d, b, b + 2)


@pytest.mark.parametrize("d", (2, 3, 4, 5))
def test_top_bound_check_refuses_a_wrong_certificate(d, monkeypatch, cold_mu_system):
    # two mutants of the rows the certificate reads: one row (2, j), of
    # weight 1, doubled, and one scaled-q row dropped (zeroed).  The doubled
    # row spans the same ray, so the LP still finds a certificate; the
    # proof pairs each row with its game at a fixed scale, so it refuses
    # both before the certificate is read
    row_slacks = sv._row_slacks

    def changed(i, j, scale):
        def mutant(P, Q, R, b):
            rem = row_slacks(P, Q, R, b)
            if len(Q) == d - i + 1:  # level i
                rem[j - i] *= scale
            return rem
        return mutant

    for b in CERTIFICATE_B_VALUES:
        for i, j in ((i, j) for i in range(2, d + 1) for j in range(i, d + 1)):
            for scale in (2, 0) if i == 2 else (0,):
                monkeypatch.setattr(sv, "_row_slacks", changed(i, j, scale))
                sv._prove.cache_clear()
                with pytest.raises(AssertionError, match="disagree"):
                    sv._prove(d, b)
                if scale == 2:
                    assert top_bound_lp(d, b), (b, i, j)


# the weight of q(d, d) one too high in every suffix's certificate
WEIGHT_OFF_BY_ONE = ("        weighted += level\n",
                     "        weighted += level + levels[-1]\n")


@pytest.mark.parametrize("d", (2, 3, 4, 5))
def test_proof_refuses_a_certificate_weight_off_by_one(d):
    # the rows are Q, so only the certificate check can refuse the mutant
    mutant = _source_mutant(sv._prove.__wrapped__, *WEIGHT_OFF_BY_ONE)
    for b in CERTIFICATE_B_VALUES:
        with pytest.raises(AssertionError, match="no certificate"):
            mutant(d, b)


def test_proof_base_refuses_a_carry_mutant(monkeypatch, cold_mu_system):
    # +B' on mu_{i,i} and -1 on mu_{i,i+1}, cells k and k+1, in the first
    # slack of each level i < d: at v built on a base B' at or below twice
    # the coefficient bound C = 6 (bd)^2, B' B'^k - B'^(k+1) = 0, so the
    # mutant evaluates equal to the true slack there, and the proof on that
    # base is fooled.  The proof's own base, above 2C, refuses it
    row_slacks = sv._row_slacks
    for d, b in ((3, 2), (4, 3), (6, 7), (7, 10007)):
        low = (12 * (b * d) ** 2).bit_length() - 1  # B' = 2^low <= 2C

        def mutant(P, Q, R, b, low=low):
            rem = row_slacks(P, Q, R, b)
            if len(Q) > 1:
                rem[0] += (Q[0] << low) - Q[1]
            return rem

        v = [1 << low * k for k in range(d * (d + 1) // 2)]
        rows = [v[KisinInstance(d, b).cell_index(i, i):][:d - i + 1] for i in range(1, d + 1)]
        rows.append([])
        assert all(mutant(*rows[i - 2:i + 1], b) == row_slacks(*rows[i - 2:i + 1], b)
                   for i in range(2, d + 1))
        monkeypatch.setattr(sv, "_row_slacks", mutant)
        low_base = _source_mutant(sv._prove.__wrapped__, "t = (12 * (b * d) ** 2).bit_length()",
                                  f"t = {low}")
        assert low_base(d, b)
        clear_caches()
        with pytest.raises(AssertionError, match="disagree"):
            sv._prove(d, b)
        monkeypatch.undo()


def test_the_search_solves_no_lp(monkeypatch, cold_mu_system):
    # every proof the search needs is an integer check: with the LP refused
    # wherever the package binds it, the cold proofs hold and a query answers
    def refused(*_):
        raise AssertionError("an LP was solved")

    for module in (polyhedra, km, bd, sv):
        if hasattr(module, "in_cone"):
            monkeypatch.setattr(module, "in_cone", refused)
    for d in range(2, 7):
        assert sv._prove(d, 2)
        assert dim_exact(DimQuery(KisinInstance(d, 2), "le_e", e=3)).status == "exact"


def test_every_top_solves_within_its_bound():
    for d in (1, 2, 3):
        for b in (2, 3, 5):
            inst = KisinInstance(d, b)
            for top in _all_le_e_tops(d, 12, b):
                value, tri = _solve_top(inst, top, sv._Budget(10 ** 9))
                assert value is None or value <= sv._top_bound(top, b), (d, b, top)
                assert value is None or dim_phi(tri) == value, (d, b, top)


@pytest.mark.parametrize("d", (2, 3, 4))
@pytest.mark.parametrize("b", (2, 3, 5))
def test_search_is_shift_equivariant(d, b):
    # a top shifted by c(b-1) gives the same dim, every row shifted by
    # c(b-1), after the same nodes; the le_e family skips the tops with
    # mu_d >= b-1 on the strength of it
    inst = KisinInstance(d, b)
    tops = _all_le_e_tops(d, 9 if d == 4 else 12, b)
    spent = []
    for top in random.Random(100 * d + b).sample(tops, 8) + [tops[0]]:
        base = sv._Budget(10 ** 9)
        value, rows = sv._max_dim_top(inst, top, base)
        spent.append(10 ** 9 - base.left)
        for c in (1, 3, -1, -2):
            t = c * (b - 1)
            shifted = sv._Budget(10 ** 9)
            got = sv._max_dim_top(inst, tuple(x + t for x in top), shifted)
            assert got == (value, rows and [[x + t for x in row] for row in rows]), (top, t)
            assert shifted.left == base.left, (top, t)
    assert max(spent) > 0


@pytest.mark.parametrize("d, b, e_max", [(2, 2, 10), (2, 3, 21), (3, 2, 10), (3, 3, 21),
                                         (4, 2, 10), (4, 3, 8)])
def test_le_e_quasi_periodicity(d, b, e_max):
    # dim(e + b^2 - 1) = dim(e) + floor(d^2/4)(b-1) for every e at d = 2;
    # from d = 3 on it fails exactly at b <= e <= 2b-2
    period, jump = b * b - 1, d * d // 4 * (b - 1)
    inst = KisinInstance(d, b)
    dims = [dim_exact(DimQuery(inst, "le_e", e=e)).dim for e in range(e_max + period + 1)]
    holds = [e for e in range(e_max + 1) if dims[e + period] == dims[e] + jump]
    assert holds == [e for e in range(e_max + 1) if d == 2 or not b <= e <= 2 * b - 2]


# ---------------------------------------------------------------------------
# caps from the scaled-q rows: the row-end-check search as the oracle
# ---------------------------------------------------------------------------

def _row_end_max_dim_top(inst, top, budget, floor=None):
    """The search before the caps, kept as the oracle for
    solver._max_dim_top: each cell ranges over its order interval, each
    level-(r-1) scaled-q row is checked once row r is complete and the
    level-d row at the leaf.  It ignores the floor, as every oracle here
    does: the top's own optimum is a valid answer whatever the floor."""
    d, b = inst.d, inst.b
    if d == 1:
        return (0, [list(top)]) if top[0] % (b - 1) == 0 else (None, None)
    if sum(top) % (b - 1):
        return None, None
    const = km._dim_form([top], d)
    rows = [list(top)] + [[0] * (d - i + 1) for i in range(2, d + 1)]
    best = [None, None]

    def check_level(i):
        return all(_scaled_q(rows, d, b, i - 1, j - 1) <= _scaled_q(rows, d, b, i, j)
                   for j in range(i, d + 1))

    def fill_row(r, partial_sum):
        if r > d:
            if check_level(d) and (best[0] is None or const - partial_sum > best[0]):
                best[:] = const - partial_sum, [row[:] for row in rows]
            return
        remaining = sum(rows[r - 2][j - r + 1] for rp in range(r, d + 1)
                        for j in range(rp, d + 1))
        if best[0] is not None and const - partial_sum - remaining <= best[0]:
            return
        prev, row = rows[r - 2], rows[r - 1]

        def fill_cell(idx, row_sum):
            if idx == d - r + 1:
                if row_sum % (b - 1) == 0 and (r < 3 or check_level(r - 1)):
                    fill_row(r + 1, partial_sum + row_sum)
                return
            lo, hi = prev[idx + 1], prev[idx]
            step = b - 1 if idx == d - r else 1  # the last cell walks its residue class
            for v in range(lo + (-row_sum - lo) % step, hi + 1, step):
                budget.spend()
                row[idx] = v
                fill_cell(idx + 1, row_sum + v)
            row[idx] = 0

        fill_cell(0, 0)

    fill_row(2, 0)
    return best[0], best[1]


def _assert_matches_row_end_oracle(query, monkeypatch):
    r = dim_exact(query, budget=10 ** 9)
    with monkeypatch.context() as m:
        m.setattr(sv, "_max_dim_top", _row_end_max_dim_top)
        o = dim_exact(query, budget=10 ** 9)
    assert (r.status, r.dim, r.interval, r.witness) == (o.status, o.dim, o.interval, o.witness), \
        query
    assert r.nodes <= o.nodes, query
    return r.nodes, o.nodes


def _oracle_grid(d, b):
    """le_e queries with and without h0, then eight seeded mu and le_mu
    queries each."""
    for e in range(0, 11 if d == 4 else 13):
        for h_zero in (False, True):
            yield DimQuery(KisinInstance(d, b, h_zero), "le_e", e=e)
    rng = random.Random(1000 * d + b)
    for k in range(8):
        mu = tuple(sorted((rng.randint(0, 14 if d < 4 else 10) for _ in range(d)),
                          reverse=True))
        for kind in ("mu", "le_mu"):
            yield DimQuery(KisinInstance(d, b, k % 2 == 0), kind, mu=mu)


@pytest.mark.parametrize("d", (2, 3, 4))
@pytest.mark.parametrize("b", (2, 3, 5))
def test_capped_search_matches_row_end_oracle(d, b, monkeypatch):
    counts = [_assert_matches_row_end_oracle(q, monkeypatch) for q in _oracle_grid(d, b)]
    # the caps must show in the count
    assert sum(n for n, _ in counts) < sum(o for _, o in counts)


# ---------------------------------------------------------------------------
# O(d) row set-up and the sub-triangle bound: the search that read each
# row's slacks off _scaled_q and pruned by the order relaxation alone
# ---------------------------------------------------------------------------

def _capped_max_dim_top(inst, top, budget, floor=None):
    """The search before the closed-form row set-up and the sub-triangle
    bound, kept as the oracle for solver._max_dim_top: each row's slacks
    and the level-d bound are read off _scaled_q, and the unfilled cells
    are bounded below by the entries above them only."""
    d, b = inst.d, inst.b
    if d == 1:
        return (0, [list(top)]) if top[0] % (b - 1) == 0 else (None, None)
    if sum(top) % (b - 1):
        return None, None
    const = km._dim_form([top], d)
    rows = [list(top)] + [[0] * (d - i + 1) for i in range(2, d + 1)]
    best = [None, None]

    def fill_row(r, partial_sum):
        if r > d:
            if best[0] is None or const - partial_sum > best[0]:
                best[:] = const - partial_sum, [row[:] for row in rows]
            return
        remaining = sum(rows[r - 2][j - r + 1] for rp in range(r, d + 1)
                        for j in range(rp, d + 1))
        if best[0] is not None and const - partial_sum - remaining <= best[0]:
            return
        prev, row = rows[r - 2], rows[r - 1]
        n = d - r + 1
        lows = prev[1:]
        if r == d:
            lows[0] = max(lows[0], -((_scaled_q(rows, d, b, d, d)
                                      - _scaled_q(rows, d, b, d - 1, d - 1)) // (b + 1)))
        if r >= 3:
            rem = [_scaled_q(rows, d, b, r - 1, j) - _scaled_q(rows, d, b, r - 2, j - 1)
                   - b * sum(lows[:k]) - sum(lows[k:])
                   for k, j in enumerate(range(r - 1, d + 1))]
            if min(rem) < 0:
                return
        else:
            rem = [b * (prev[0] - prev[-1])] * (n + 1)
        tail = [min(rem[k + 1:]) // b for k in range(n)]

        def fill_cell(idx, row_sum, used, slack):
            if idx == n:
                if row_sum % (b - 1) == 0:
                    fill_row(r + 1, partial_sum + row_sum)
                return
            lo = lows[idx]
            hi = min(prev[idx], lo + min(slack, tail[idx] - used))
            step = b - 1 if idx == n - 1 else 1  # the last cell walks its residue class
            for v in range(lo + (-row_sum - lo) % step, hi + 1, step):
                budget.spend()
                row[idx] = v
                up = used + v - lo
                fill_cell(idx + 1, row_sum + v, up, min(slack - v + lo, rem[idx + 1] - b * up))
            row[idx] = 0

        fill_cell(0, 0, 0, rem[0])

    fill_row(2, 0)
    return best[0], best[1]


def _vs_oracle(query, monkeypatch, search, oracle):
    """Run the query with each search in place of solver._max_dim_top;
    assert equal results and return (search nodes, oracle nodes)."""
    got = []
    for fn in (search, oracle):
        with monkeypatch.context() as m:
            m.setattr(sv, "_max_dim_top", fn)
            got.append(dim_exact(query, budget=10 ** 9))
    r, o = got
    assert (r.status, r.dim, r.interval, r.witness) == (o.status, o.dim, o.interval, o.witness), \
        query
    return r.nodes, o.nodes


@pytest.mark.parametrize("d", (2, 3, 4))
@pytest.mark.parametrize("b", (2, 3, 5))
def test_closed_form_rows_match_capped_oracle(d, b, monkeypatch):
    # without the sub-triangle bound the closed forms change no node count
    with monkeypatch.context() as m:
        m.setattr(sv, "_prove", lambda d, b: False)
        for q in _oracle_grid(d, b):
            nodes, oracle_nodes = _vs_oracle(q, monkeypatch, _closed_form_max_dim_top,
                                             _capped_max_dim_top)
            assert nodes == oracle_nodes, q
    # with it no query costs more, and at d = 4 the bound shows in the count;
    # at b = 5 it prunes nothing on the grid, so one larger type joins it
    counts = [_vs_oracle(q, monkeypatch, _closed_form_max_dim_top, _capped_max_dim_top)
              for q in _oracle_grid(d, b)]
    if d == 4:
        counts.append(_vs_oracle(DimQuery(KisinInstance(4, b), "mu", mu=(24, 12, 8, 0)),
                                 monkeypatch, _closed_form_max_dim_top, _capped_max_dim_top))
        assert sum(n for n, _ in counts) < sum(o for _, o in counts)
    assert all(n <= o for n, o in counts)


# ---------------------------------------------------------------------------
# look-ahead to the row below and tops seeded with the incumbent: the
# closed-form search, which did neither, as the oracle
# ---------------------------------------------------------------------------

def _closed_form_max_dim_top(inst, top, budget, floor=None):
    """The search before the look-ahead and the floor, kept as the oracle
    for solver._max_dim_top: each cell starts at its order and level-d lower
    bound, and a row the cells leave no room under is only found out when
    the row below is set up.  Every top starts with no incumbent."""
    d, b = inst.d, inst.b
    sub_bound = sv._prove(d, b)
    const = km._dim_form([top], d)
    rows = [list(top)] + [[0] * (d - i + 1) for i in range(2, d + 1)]
    best = [None, None]

    def remaining_bound(r):
        Q = rows[r - 2]
        w = sum(t * x for t, x in enumerate(Q))
        if not sub_bound:
            return w
        x = (d - r + 1) * sum(Q) - 2 * w
        return max(w, x + w - x // (b + 1))

    def fill_row(r, partial_sum):
        if r > d:
            value = const - partial_sum
            if best[0] is None or value > best[0]:
                best[0] = value
                best[1] = [row[:] for row in rows]
            return
        if best[0] is not None and const - partial_sum - remaining_bound(r) <= best[0]:
            return
        prev, row = rows[r - 2], rows[r - 1]
        n = d - r + 1
        lows = prev[1:]
        if r == d:
            lows[0] = max(lows[0], -(sv._row_slacks(prev, (0,), (), b)[0] // (b + 1)))
        if r >= 3:
            rem = sv._row_slacks(rows[r - 3], prev, lows, b)
            if min(rem) < 0:
                return
        else:
            rem = [b * (prev[0] - prev[-1])] * (n + 1)
        tail = [min(rem[k + 1:]) // b for k in range(n)]

        def fill_cell(idx, row_sum, used, slack):
            if idx == n:
                if row_sum % (b - 1) == 0:
                    fill_row(r + 1, partial_sum + row_sum)
                return
            lo = lows[idx]
            hi = min(prev[idx], lo + min(slack, tail[idx] - used))
            if idx == n - 1:
                res = (-row_sum) % (b - 1)
                start = lo + ((res - lo) % (b - 1))
                step = b - 1
            else:
                start, step = lo, 1
            for v in range(start, hi + 1, step):
                budget.spend()
                row[idx] = v
                up = used + v - lo
                fill_cell(idx + 1, row_sum + v, up,
                          min(slack - v + lo, rem[idx + 1] - b * up))
            row[idx] = 0

        fill_cell(0, 0, 0, rem[0])

    if d == 1:
        return (0, [list(top)]) if top[0] % (b - 1) == 0 else (None, None)
    if sum(top) % (b - 1) != 0:
        return None, None
    fill_row(2, 0)
    return best[0], best[1]


@pytest.mark.parametrize("d", (2, 3, 4))
@pytest.mark.parametrize("b", (2, 3, 5))
def test_lookahead_and_floor_match_closed_form_oracle(d, b, monkeypatch):
    # equal results and witnesses; no query costs more, and from d = 3 on,
    # where rows below row 2 exist to look ahead to, the count falls
    counts = [_vs_oracle(q, monkeypatch, sv._max_dim_top, _closed_form_max_dim_top)
              for q in _oracle_grid(d, b)]
    assert all(n <= o for n, o in counts)
    if d >= 3:
        assert sum(n for n, _ in counts) < sum(o for _, o in counts)


@pytest.mark.parametrize("b", (2, 3))
def test_lookahead_matches_closed_form_oracle_at_d5(b, monkeypatch):
    inst = KisinInstance(5, b)
    for top in [(6, 3, 2, 1, 0), (8, 6, 2, 2, 0), (10, 4, 4, 2, 0), (12, 6, 4, 2, 0),
                (9, 7, 5, 3, 0), (7, 7, 1, 1, 0)]:
        nodes, oracle_nodes = _vs_oracle(DimQuery(inst, "mu", mu=top), monkeypatch,
                                         sv._max_dim_top, _closed_form_max_dim_top)
        assert nodes <= oracle_nodes, top


@pytest.mark.parametrize("b", (2, 3, 5))
def test_level_r_slacks_rise_with_every_cell_of_row_r(b):
    # the premise of the look-ahead: with row r-1 fixed and the row below
    # bounded by _below, each level-r slack is nondecreasing in every cell
    # Q_idx of row r and rises by at most 2b per unit of Q_0 and b+1 per
    # unit of a later cell; exhaustive on small rows, the level-d raise
    # included (row r = d-1 has two cells)
    for n in (2, 3, 4):
        P = [9, 5, 2, 1, -3][:n + 1]
        for last in (False, True) if n == 2 else (False,):
            def slacks(Q):
                return sv._row_slacks(P, Q, sv._below(Q, b, last), b)

            for Q in itertools.product(range(-4, 5), repeat=n):
                Q = list(Q)
                base = slacks(Q)
                for idx in range(n):
                    up = Q[:idx] + [Q[idx] + 1] + Q[idx + 1:]
                    rise = 2 * b if idx == 0 else b + 1
                    assert all(0 <= y - x <= rise for x, y in zip(base, slacks(up))), \
                        (n, last, Q, idx)


@pytest.mark.parametrize("b", (2, 3, 5))
def test_least_slack_at_the_probe_rises_by_the_jump_divisor(b):
    # the premise of the jump in fit: with row r-1 fixed, the cells of row r
    # before idx in their order ranges and the later ones at their caps,
    # the least level-r slack rises by at most b+1 per unit of cell 0 and 1
    # per unit of a later cell; away from row d it is rem_0 and the rise is
    # exact.  Exhaustive on small rows, the level-d raise included (row
    # r = d-1 has two cells)
    for n in (2, 3, 4):
        for P in itertools.combinations_with_replacement(range(3, -4, -1), n + 1):
            for last in (False, True) if n == 2 else (False,):
                def slacks(Q):
                    return sv._row_slacks(P, Q, sv._below(Q, b, last), b)

                for idx in range(n):
                    rise = b + 1 if idx == 0 or last else 1
                    for head in itertools.product(*(range(P[k + 1], P[k] + 1)
                                                     for k in range(idx))):
                        for v in range(P[idx + 1], P[idx]):
                            probe = list(head) + [v] + list(P[idx + 1:n])
                            base = slacks(probe)
                            probe[idx] = v + 1
                            up = slacks(probe)
                            if last:
                                assert 0 <= min(up) - min(base) <= rise, (P, probe)
                            else:
                                assert min(base) == base[0], (P, probe)
                                assert up[0] - base[0] == rise, (P, probe)


def test_node_counts_of_the_documented_queries(monkeypatch):
    # the counts the README quotes; a weaker valid bound (a divisor b for
    # b+1, say) changes no result, only these.  Without the incumbent as the
    # floor of each top the look-ahead alone gives the second pair.  Each
    # count includes one node per listed top: 816 at e = 15, 1,771 at e = 20
    for e, nodes in ((15, 862), (20, 6_730)):
        assert dim_exact(DimQuery(KisinInstance(4, 2), "le_e", e=e)).nodes == nodes
    live = sv._max_dim_top
    monkeypatch.setattr(sv, "_max_dim_top", lambda inst, top, budget, floor=None:
                        live(inst, top, budget))
    for e, nodes in ((15, 862), (20, 7_259)):
        assert dim_exact(DimQuery(KisinInstance(4, 2), "le_e", e=e)).nodes == nodes


@pytest.mark.parametrize("d", range(1, 7))
def test_row_slacks_and_sub_bound_are_proved(d):
    # the closed forms equal the scaled-q rows read off the q-forms on every
    # unit triangle for 3 <= r <= d+1 (row d+1 is empty); both sides are
    # linear in the mu-cells, so they are equal everywhere
    for b in (2, 3, 5, 7, 101, 10007):
        for rows in unit_triangles(d):
            rows.append([])
            for r in range(3, d + 2):
                want = [_scaled_q(rows, d, b, r - 1, j) - _scaled_q(rows, d, b, r - 2, j - 1)
                        for j in range(r - 1, d + 1)]
                assert sv._row_slacks(rows[r - 3], rows[r - 2], rows[r - 1], b) == want, \
                    (b, r, rows)
        assert sv._prove(d, b)


def test_row_slacks_proof_catches_a_wrong_step(monkeypatch, cold_mu_system):
    # b for b-1 in the step from one scaled-q row to the next.  At d = 2 the
    # one level has no row below it, so no step runs and the mutant is the
    # true code there
    mutant = _source_mutant(sv._row_slacks, "rem[k] + (b - 1) * (", "rem[k] + b * (")
    monkeypatch.setattr(sv, "_row_slacks", mutant)
    for b in (2, 3, 10007):
        assert sv._prove(2, b)
        for d in (3, 4, 5, 6):
            with pytest.raises(AssertionError, match="disagree"):
                sv._prove(d, b)
    with pytest.raises(AssertionError, match="disagree"):
        dim_exact(DimQuery(KisinInstance(3, 2), "mu", mu=(4, 2, 0)))


def test_row_slacks_proof_covers_the_level_d_row(monkeypatch, cold_mu_system):
    # the level-d row is read with no row below it; a wrong first slack
    # there must fail even at d = 2, which has no other scaled-q row
    row_slacks = sv._row_slacks

    def mutant(P, Q, R, b):
        rem = row_slacks(P, Q, R, b)
        return [rem[0] + (Q[0] if not R else 0)] + rem[1:]

    monkeypatch.setattr(sv, "_row_slacks", mutant)
    with pytest.raises(AssertionError, match="disagree"):
        sv._prove(2, 3)


def test_sub_bound_needs_every_smaller_certificate(monkeypatch, cold_mu_system):
    # a row-pair mutant of the 4-system: q(3,3) gains mu_{3,3} and q(2,2)
    # loses twice it, so the whole-triangle certificate (weight i-1 on level
    # i) still holds, but the suffix of rows 2..4 (weight i-2) sees mu_{3,3}
    # once.  Those rows are not Q, so the comparison with the games refuses
    # them first; each suffix's own check is shown on its target instead:
    # 2 rho' changed at one suffix length d' < 4 alone leaves the
    # whole-triangle target as it is, and the proof still refuses
    row_slacks = sv._row_slacks

    def mutant(P, Q, R, b):
        rem = row_slacks(P, Q, R, b)
        if len(P) == 4:  # level 2 of the 4-system; mu_{3,3} is R[0]
            rem[0] -= 2 * R[0]
        elif len(P) == 3:  # level 3; mu_{3,3} is Q[0]
            rem[0] += Q[0]
        return rem

    with monkeypatch.context() as m:
        m.setattr(sv, "_row_slacks", mutant)
        for b in CERTIFICATE_B_VALUES:
            assert whole_triangle_certificate(dense_search_rows(4, b), 4, b), b
            with pytest.raises(AssertionError, match="disagree"):
                sv._prove(4, b)
    two_rho = bd.two_rho
    for n in (2, 3):
        with monkeypatch.context() as m:
            m.setattr(bd, "two_rho", lambda k, n=n: (two_rho(k)[0] + (k == n),) + two_rho(k)[1:])
            for b in CERTIFICATE_B_VALUES:
                sv._prove.cache_clear()
                with pytest.raises(AssertionError, match="no certificate"):
                    sv._prove(4, b)
    assert sv._prove(2, 2)


def test_prove_reads_only_the_d_system(monkeypatch, cold_mu_system):
    # every suffix bound is certified on the d-system's own rows: the proofs
    # read the games of the d-system alone, and the search's slacks once per
    # level, on the rows of one triangle (row i-1 of level i has d-i+2 cells)
    game_pairs, row_slacks = km._game_pairs, sv._row_slacks
    asked, levels = [], []
    monkeypatch.setattr(km, "_game_pairs",
                        lambda inst: asked.append(inst.d) or game_pairs(inst))
    monkeypatch.setattr(sv, "_row_slacks",
                        lambda P, Q, R, b: levels.append(len(P)) or row_slacks(P, Q, R, b))
    for d in range(2, 7):
        clear_caches()
        asked.clear()
        levels.clear()
        assert sv._prove(d, 2)
        assert asked == [d] and levels == list(range(d, 1, -1)), (d, asked, levels)


@pytest.mark.parametrize("d", range(2, 11))
def test_suffix_certificates_match_the_shifted_systems(d):
    # the old route, each smaller system shifted into the d-system with its
    # own certificate, and the suffix certificates on the d-system both hold
    for b in CERTIFICATE_B_VALUES:
        assert sv._prove(d, b) and sub_bounds_by_shifted_systems(d, b), b


@pytest.mark.parametrize("d", range(1, 11))
def test_sparse_pull_back_matches_the_dense_dots(d):
    # _prove finds the search's rows to be the games at one point; the
    # halfspaces of the H-polyhedron of Q dotted with every column of the
    # dense b(b-1) q-forms give the same rows, as sets of primitive rows
    for b in (2, 3, 5, 101, 10007):
        assert sv._prove(d, b), b
        assert pulled_back_rows_dense(d, b) == set(map(primitive_ints, dense_search_rows(d, b))), b


@pytest.mark.parametrize("d", range(1, 11))
def test_search_rows_on_unit_windows_match_the_unit_triangles(d):
    # the fixed pairing _prove checks at one point, on the dense rows read
    # off _row_slacks on every unit triangle: the search's order rows
    # mu_{i,j} - mu_{i-1,j} and mu_{i-1,j-1} - mu_{i,j} and its scaled-q row
    # q(i, j), scaled by b-1, 1 and 1, are games I, III and II at
    # (i-1, j-1) in km._game_pairs order, q-games as rows of the dense
    # b(b-1) q-forms
    n = d * (d + 1) // 2
    for b in (2, 3, 5, 101, 10007):
        q_rows = dense_transform_rows(d, b)[1]
        unit = {km.QPoint.KEY: q_rows, km.MuTriangle.KEY: [[int(k == t) for k in range(n)]
                                                           for t in range(n)]}
        games = [[u - w for u, w in zip(unit[key][x], unit[key][y])]
                 for key, x, y in km._game_pairs(KisinInstance(d, b))]
        rows = dense_search_rows(d, b)
        mine = [row for lower, upper, slack in zip(rows[::3], rows[1::3], rows[2::3])
                for row in ([(b - 1) * x for x in lower], slack, upper)]
        assert mine == games, b


@pytest.mark.parametrize("d", (2, 3, 4))
def test_search_without_a_certificate_raises_and_spends_no_node(d, monkeypatch,
                                                                cold_mu_system):
    # the proofs are preconditions: with the top-row bound uncertified (a
    # certificate weight off by one), the search raises before its first
    # node instead of searching without it
    def spend(self):
        raise AssertionError("a node was spent")

    monkeypatch.setattr(sv, "_prove", _source_mutant(sv._prove.__wrapped__, *WEIGHT_OFF_BY_ONE))
    monkeypatch.setattr(sv._Budget, "spend", spend)
    for query in (DimQuery(KisinInstance(d, 2), "le_e", e=8),
                  DimQuery(KisinInstance(d, 3), "le_mu", mu=(6,) + (0,) * (d - 1))):
        with pytest.raises(AssertionError, match="no certificate"):
            dim_exact(query)


@pytest.mark.parametrize("b", (2, 3, 5, 101))
def test_sub_triangle_bound_is_at_least_the_entries_above(b):
    # remaining_bound returns x + w - x // (b+1) alone: on a nonincreasing
    # row Q, x = sum_t (n-2t) Q_t >= 0, so the bound is never below
    # w = sum_t t Q_t, the sum of the entries above the unfilled cells
    for n in range(1, 5):
        for Q in itertools.combinations_with_replacement(range(4, -5, -1), n + 1):
            w = sum(t * x for t, x in enumerate(Q))
            x = n * sum(Q) - 2 * w
            assert x >= 0 and x + w - x // (b + 1) >= w, Q
