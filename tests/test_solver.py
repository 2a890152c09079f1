import random
from fractions import Fraction as F

import pytest

from kisindim import bounds as bd
from kisindim import kisin_model as km
from kisindim import solver as sv
from kisindim.kisin_model import (KisinInstance, MuTriangle, cone_q, dim_phi,
                                  mu_from_q, q_from_mu)
from kisindim.polyhedra import Halfspace, HPolyhedron
from kisindim.solver import (BudgetExceeded, DimQuery, DimResult, dim_d2_closed,
                             dim_d3_closed, dim_exact, consistency_suite,
                             _enumerate_dominated_tops, _self_test)


def test_query_validation():
    inst = KisinInstance(2, 2)
    with pytest.raises(ValueError):
        DimQuery(inst, "mu", mu=(0, 3))  # not nonincreasing
    with pytest.raises(ValueError):
        DimQuery(inst, "le_e", e=-1)
    with pytest.raises(ValueError):
        DimQuery(inst, "nope", e=1)
    with pytest.raises(ValueError):
        dim_exact(DimQuery(KisinInstance(5, 2), "mu", mu=(1, 1, 1, 1, 1)))
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
            if sv._scaled_q(rows, d, b, i - 1, j - 1) > sv._scaled_q(rows, d, b, i, j):
                return False
    return True


def _sampling_self_test(d, b):
    """Oracle for solver._self_test: on 200 seeded triangles, half of them
    biased toward feasibility, the mu-system agrees with membership of
    q_from_mu in the cone Q, all in Fraction arithmetic."""
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
        tri = MuTriangle(inst, {(i, j): rows[i - 1][j - i] for (i, j) in inst.cells})
        if _mu_constraints_ok(inst, rows) != Q.contains(q_from_mu(tri).values):
            raise AssertionError(f"mu-system and q-system disagree at d={d} b={b} rows={rows}")
    return True


SELF_TEST_GRID = [(d, b) for d in range(1, 5) for b in (2, 3, 5, 7, 101, 10007)]


@pytest.fixture
def cold_mu_system():
    """Clear the per-(d, b) proofs before and after a test that patches
    what they are read from."""
    caches = (sv._self_test, sv._mu_system_rows, sv._top_bound_certified,
              sv._row_slacks_proved, sv._sub_bound_certified)
    for fn in caches:
        fn.cache_clear()
    yield
    for fn in caches:
        fn.cache_clear()


def test_mu_constraint_system_self_test():
    for d, b in SELF_TEST_GRID:
        assert _sampling_self_test(d, b)
        assert _self_test(d, b)
        assert len(sv._mu_system_rows(d, b)) == 3 * d * (d - 1) // 2, (d, b)


def test_mu_constraints_match_cone_on_feasible_triangle():
    inst = KisinInstance(3, 2)
    # the first triangle is a search witness; the second interlaces but
    # breaks a scaled-q inequality
    for rows, inside in (([[6, 3, 0], [5, 2], [4]], True),
                         ([[6, 3, 0], [4, 2], [3]], False)):
        tri = MuTriangle(inst, {(i, j): rows[i - 1][j - i]
                                for (i, j) in inst.cells})
        assert _mu_constraints_ok(inst, rows) == inside
        assert cone_q(inst).contains(q_from_mu(tri).values) == inside


@pytest.mark.parametrize("form", [(i, j) for i in range(1, 5) for j in range(i, 5)
                                  if (i, j) != (1, 4)])
def test_self_test_catches_perturbed_scaled_q(form, monkeypatch, cold_mu_system):
    # (1, 4) is the one q-form of d = 4 that no row of the mu-system uses
    scaled_q = sv._scaled_q

    def perturbed(rows, d, b, i, j):
        return scaled_q(rows, d, b, i, j) + (rows[i - 1][0] if (i, j) == form else 0)

    monkeypatch.setattr(sv, "_scaled_q", perturbed)
    for b in (2, 3):
        with pytest.raises(AssertionError, match="disagree"):
            _self_test(4, b)


@pytest.mark.parametrize("b", (2, 3))
def test_self_test_catches_cone_with_a_halfspace_dropped(b, monkeypatch, cold_mu_system):
    inst = KisinInstance(4, b)
    full = cone_q(inst)
    for k in range(len(full.halfspaces)):
        dropped = HPolyhedron(full.dim, full.halfspaces[:k] + full.halfspaces[k + 1:])
        monkeypatch.setattr(km, "cone_q", lambda inst: dropped)
        sv._self_test.cache_clear()
        with pytest.raises(AssertionError, match="disagree"):
            _self_test(4, b)


@pytest.mark.parametrize("extra", [dict(is_eq=True), dict(offset=F(1))])
def test_self_test_rejects_a_cone_not_cut_by_linear_inequalities(extra, monkeypatch,
                                                                 cold_mu_system):
    full = cone_q(KisinInstance(3, 2))
    h = full.halfspaces[0]
    changed = HPolyhedron(full.dim, full.halfspaces + (Halfspace(h.normal, **extra),))
    monkeypatch.setattr(km, "cone_q", lambda inst: changed)
    with pytest.raises(AssertionError, match="equation or an offset row"):
        _self_test(3, 2)


def test_search_runs_the_proof(monkeypatch, cold_mu_system):
    # a cold search for a new (d, b) must refuse to run on a mu-system that
    # is not the cone Q
    inst = KisinInstance(3, 2)
    full = cone_q(inst)
    monkeypatch.setattr(km, "cone_q", lambda inst: HPolyhedron(full.dim, full.halfspaces[1:]))
    monkeypatch.setattr(sv, "_memo", {})
    with pytest.raises(AssertionError, match="disagree"):
        dim_exact(DimQuery(inst, "mu", mu=(4, 2, 0)))


@pytest.mark.parametrize("b", (2, 3, 10007))
def test_self_test_reads_each_unit_triangle_once(b, monkeypatch, cold_mu_system):
    calls = []
    transform = km.q_from_mu

    def counted(m):
        calls.append(m)
        return transform(m)

    monkeypatch.setattr(km, "q_from_mu", counted)
    assert _self_test(4, b)
    assert 0 < len(calls) <= KisinInstance(4, b).dim_E


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
    rep = consistency_suite(d_values=(2, 3), b_values=(2, 3), e_max=6,
                            mu_samples=3, seed=1)
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

def _dim_all_tops(query):
    """The exhaustive oracle: solve every top row in enumeration order and
    keep the best value with the lexicographically least witness.  Returns
    (best, witness, nodes)."""
    inst = query.instance
    b = inst.b
    if query.kind == "le_e":
        tops = sv._enumerate_le_e_tops(inst.d, query.e, b)
    elif sum(query.mu) % (b - 1):
        tops = []
    else:
        tops = sv._enumerate_dominated_tops(tuple(query.mu), b)
    tracker = sv._Budget(10 ** 9)
    best, witness = None, None
    for top in tops:
        value, tri = sv._solve_mu(inst, top, tracker)
        if value is None:
            continue
        if best is None or value > best or (value == best and tri.values < witness.values):
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


@pytest.mark.parametrize("d", (2, 3, 4))
@pytest.mark.parametrize("b", (2, 3, 5))
def test_pruned_search_matches_all_tops_le_e(d, b):
    for e in range(0, 11 if d == 4 else 13):
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


@pytest.mark.parametrize("d", (2, 3, 4))
def test_top_bound_certificate(d):
    for b in (2, 3, 4, 5, 7, 10, 101, 10007):
        assert sv._top_bound_certified(d, b)
        # control: the certificate is not vacuous, a smaller bound fails it
        assert not sv._top_bound_certified(d, b, b + 2)


def test_every_top_solves_within_its_bound():
    for d in (1, 2, 3):
        for b in (2, 3, 5):
            inst = KisinInstance(d, b)
            for top in sv._enumerate_le_e_tops(d, 12, b):
                value, _ = sv._solve_mu(inst, top, sv._Budget(10 ** 9))
                assert value is None or value <= sv._top_bound(top, b), (d, b, top)


def test_memo_cap_changes_no_result(monkeypatch):
    queries = [DimQuery(KisinInstance(4, 2), "le_e", e=8),
               DimQuery(KisinInstance(3, 3), "le_mu", mu=(9, 4, 1)),
               DimQuery(KisinInstance(4, 3, True), "mu", mu=(6, 2, 2, 0))]
    monkeypatch.setattr(sv, "_memo", {})
    free = [dim_exact(q) for q in queries]
    monkeypatch.setattr(sv, "_memo", {})
    monkeypatch.setattr(sv, "_MEMO_CAP", 3)
    for _ in range(2):  # cold, then as warm as a 3-entry memo gets
        capped = [dim_exact(q) for q in queries]
        assert [r.to_dict() for r in capped] == [r.to_dict() for r in free]
        assert len(sv._memo) <= 3
    for q, r in zip(queries, free):
        dim_exact(q, budget=r.nodes)
        with pytest.raises(BudgetExceeded):
            dim_exact(q, budget=r.nodes - 1)


# ---------------------------------------------------------------------------
# caps from the scaled-q rows: the row-end-check search as the oracle
# ---------------------------------------------------------------------------

def _row_end_max_dim_top(inst, top, budget):
    """The search before the caps, kept as the oracle for
    solver._max_dim_top: each cell ranges over its order interval, each
    level-(r-1) scaled-q row is checked once row r is complete and the
    level-d row at the leaf.  No memo; a memo hit charges the same nodes."""
    d, b = inst.d, inst.b
    if d == 1:
        return (0, [list(top)]) if top[0] % (b - 1) == 0 else (None, None)
    if sum(top) % (b - 1):
        return None, None
    const = sv._dim_form([top], d)
    rows = [list(top)] + [[0] * (d - i + 1) for i in range(2, d + 1)]
    best = [None, None]

    def check_level(i):
        return all(sv._scaled_q(rows, d, b, i - 1, j - 1) <= sv._scaled_q(rows, d, b, i, j)
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
    monkeypatch.setattr(sv, "_memo", {})
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

def _capped_max_dim_top(inst, top, budget):
    """The search before the closed-form row set-up and the sub-triangle
    bound, kept as the oracle for solver._max_dim_top: each row's slacks
    and the level-d bound are read off _scaled_q, and the unfilled cells
    are bounded below by the entries above them only.  No memo; a memo hit
    charges the same nodes."""
    d, b = inst.d, inst.b
    if d == 1:
        return (0, [list(top)]) if top[0] % (b - 1) == 0 else (None, None)
    if sum(top) % (b - 1):
        return None, None
    const = sv._dim_form([top], d)
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
            lows[0] = max(lows[0], -((sv._scaled_q(rows, d, b, d, d)
                                      - sv._scaled_q(rows, d, b, d - 1, d - 1)) // (b + 1)))
        if r >= 3:
            rem = [sv._scaled_q(rows, d, b, r - 1, j) - sv._scaled_q(rows, d, b, r - 2, j - 1)
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


def _vs_capped_oracle(query, monkeypatch):
    monkeypatch.setattr(sv, "_memo", {})
    r = dim_exact(query, budget=10 ** 9)
    with monkeypatch.context() as m:
        m.setattr(sv, "_max_dim_top", _capped_max_dim_top)
        o = dim_exact(query, budget=10 ** 9)
    assert (r.status, r.dim, r.interval, r.witness) == (o.status, o.dim, o.interval, o.witness), \
        query
    return r.nodes, o.nodes


@pytest.mark.parametrize("d", (2, 3, 4))
@pytest.mark.parametrize("b", (2, 3, 5))
def test_closed_form_rows_match_capped_oracle(d, b, monkeypatch):
    # without the sub-triangle bound the closed forms change no node count
    with monkeypatch.context() as m:
        m.setattr(sv, "_sub_bound_certified", lambda d, b: False)
        for q in _oracle_grid(d, b):
            nodes, oracle_nodes = _vs_capped_oracle(q, monkeypatch)
            assert nodes == oracle_nodes, q
    # with it no query costs more, and at d = 4 the bound shows in the count;
    # at b = 5 it prunes nothing on the grid, so one larger type joins it
    counts = [_vs_capped_oracle(q, monkeypatch) for q in _oracle_grid(d, b)]
    if d == 4:
        counts.append(_vs_capped_oracle(
            DimQuery(KisinInstance(4, b), "mu", mu=(24, 12, 8, 0)), monkeypatch))
        assert sum(n for n, _ in counts) < sum(o for _, o in counts)
    assert all(n <= o for n, o in counts)


def test_node_counts_of_the_documented_queries(monkeypatch):
    # the counts the README quotes; a weaker valid bound (a divisor b for
    # b+1, say) changes no result, only these
    monkeypatch.setattr(sv, "_memo", {})
    for e, nodes in ((15, 231), (20, 46_278)):
        assert dim_exact(DimQuery(KisinInstance(4, 2), "le_e", e=e)).nodes == nodes


@pytest.mark.parametrize("d", range(1, 7))
def test_row_slacks_and_sub_bound_are_proved(d):
    for b in (2, 3, 5, 7, 101, 10007):
        assert sv._row_slacks_proved(d, b)
        assert sv._sub_bound_certified(d, b)


def test_row_slacks_proof_catches_a_wrong_step(monkeypatch, cold_mu_system):
    # b for b-1 in the step from one scaled-q row to the next
    def mutant(P, Q, R, b):
        rem = [(b - 1) * (Q[0] - P[0]) + 2 * sum(Q) - sum(P) - sum(R)]
        for k, x in enumerate(R):
            rem.append(rem[k] + b * (Q[k + 1] - P[k + 1] + Q[k] - x))
        return rem

    monkeypatch.setattr(sv, "_row_slacks", mutant)
    for d in (3, 4):
        with pytest.raises(AssertionError, match="disagree"):
            sv._row_slacks_proved(d, 2)
    monkeypatch.setattr(sv, "_memo", {})
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
        sv._row_slacks_proved(2, 3)


def test_sub_bound_needs_every_smaller_certificate(monkeypatch, cold_mu_system):
    certified = sv._top_bound_certified
    monkeypatch.setattr(sv, "_top_bound_certified",
                        lambda d, b, divisor=None: d != 3 and certified(d, b, divisor))
    assert not sv._sub_bound_certified(4, 2)
    assert sv._sub_bound_certified(2, 2)


def test_sub_bound_needs_the_shifted_rows(monkeypatch, cold_mu_system):
    # a d'-system row that the d-system lacks voids the bound
    rows = sv._mu_system_rows

    def extra(d, b):
        out = rows(d, b)
        return out + ((1,) + (0,) * (len(out[0]) - 1),) if d == 2 else out

    monkeypatch.setattr(sv, "_mu_system_rows", extra)
    assert not sv._sub_bound_certified(3, 2)
