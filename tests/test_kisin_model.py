import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from kisindim import kisin_model as km, perm as pm
from kisindim.kisin_model import (KisinInstance, MuTriangle, QPoint, chain_dual_generators,
                                  d2_lattice_invariants, delta_vec, dim_phi, in_cone_q,
                                  mu_from_q, phi_from_q, q_from_mu, read_back_q,
                                  regular_dual_generators, validate_phi)
from kisindim.polyhedra import dot
from oracles import (HPolyhedron, S_T, apply_terms, cone_chain, cone_q, cone_qmax, cone_qmin,
                     cone_qw, cone_regular, contains, dense_transform_rows, dim_phi_fraction,
                     dim_phi_q, mu_cell_terms, mu_cell_vector, polyhedra_set_equal,
                     q_cell_terms, q_in_lattice)


def rand_qpoint(inst, rng, denom=(1, 2, 3)):
    return QPoint(inst, [F(rng.randint(-20, 20), rng.choice(denom))
                         for _ in inst.cells])


# ---------------------------------------------------------------------------
# the coordinate transforms
# ---------------------------------------------------------------------------

def test_d1_transform():
    inst = KisinInstance(1, 7)
    q = QPoint(inst, [F(5)])
    assert mu_from_q(q)[(1, 1)] == 6 * 5
    assert q_from_mu(MuTriangle(inst, [F(12)]))[(1, 1)] == 2


def test_worked_d2_transform():
    inst = KisinInstance(2, 2)
    q = QPoint(inst, {(1, 1): 2, (1, 2): 1, (2, 2): 2})
    m = mu_from_q(q)
    assert (m[(1, 1)], m[(1, 2)], m[(2, 2)]) == (3, 0, 2)
    assert q_from_mu(m) == q


def test_transforms_inverse_random():
    rng = random.Random(20)
    for d in range(1, 7):
        inst = KisinInstance(d, rng.choice((2, 3, 5)))
        for _ in range(30):
            q = rand_qpoint(inst, rng)
            assert q_from_mu(mu_from_q(q)) == q
            m = MuTriangle(inst, [F(rng.randint(-9, 9), rng.choice((1, 2)))
                                  for _ in inst.cells])
            assert mu_from_q(q_from_mu(m)) == m


def _mu_from_q_loops(q):
    """mu_{i,j} = b q_{j,j} - q_{j,d} + b * sum_{s=i}^{j-1} (q_{s,j} - q_{s,j-1}),
    term by term in Fraction arithmetic: the oracle for mu_from_q."""
    inst = q.instance
    b, d = inst.b, inst.d
    vals = {}
    for (i, j) in inst.cells:
        v = b * q[(j, j)] - q[(j, d)]
        for s in range(i, j):
            v += b * (q[(s, j)] - q[(s, j - 1)])
        vals[(i, j)] = v
    return MuTriangle(inst, vals)


def _q_from_mu_loops(m):
    """q_{i,j} = (mu_{i,i} + sum_{s=i+1}^{j}(mu_{i,s}-mu_{i+1,s})
    + sum_{s=j+1}^{d}(mu_{i,s}-mu_{i+1,s})/b) / (b-1), term by term in
    Fraction arithmetic: the oracle for q_from_mu."""
    inst = m.instance
    b, d = inst.b, inst.d
    vals = {}
    for (i, j) in inst.cells:
        v = m[(i, i)]
        for s in range(i + 1, j + 1):
            v += m[(i, s)] - m[(i + 1, s)]
        for s in range(j + 1, d + 1):
            v += F(m[(i, s)] - m[(i + 1, s)], b)
        vals[(i, j)] = v / (b - 1)
    return QPoint(inst, vals)


def test_transforms_match_the_fraction_loops():
    # both transforms read one integer definition per coordinate, the
    # (coefficient, cell) terms of mu_{i,j} and of b(b-1) q_{i,j}
    rng = random.Random(23)
    for d in range(1, 7):
        for b in (2, 3, 5, 7, 101):
            inst = KisinInstance(d, b)
            for _ in range(10):
                q = rand_qpoint(inst, rng)
                assert mu_from_q(q) == _mu_from_q_loops(q)
                m = MuTriangle(inst, [F(rng.randint(-9, 9), rng.choice((1, 2)))
                                      for _ in inst.cells])
                assert q_from_mu(m) == _q_from_mu_loops(m)


def _rational_triangle(cls, inst, rng):
    """Random cells, mostly integral, some with denominator 2, 3 or b."""
    return cls(inst, [F(rng.randint(-20, 20), rng.choice((1, 1, 1, 2, 3, inst.b)))
                      for _ in inst.cells])


KERNEL_GRID = [(d, b) for d in range(1, 7) for b in (2, 3, 5, 7, 101)]


@pytest.mark.parametrize("d", range(1, 11))
def test_sparse_transform_rows_match_the_dense_matrices(d):
    # the running sums at each unit triangle are the columns of the dense
    # matrices that sum the term generators; both are linear, so they are
    # the same maps
    n = d * (d + 1) // 2
    units = [[int(k == t) for k in range(n)] for t in range(n)]
    for b in (2, 3, 5, 101, 10007):
        mu_rows, q_rows = dense_transform_rows(d, b)
        assert list(zip(*(km._mu_of(e, d, b) for e in units))) == list(mu_rows), b
        assert list(zip(*(km._q_of(e, d, b) for e in units))) == list(q_rows), b


def test_transforms_match_the_term_walk():
    # the running sums against the Fraction walk of the (coefficient, cell)
    # terms of the dense matrices
    rng = random.Random(24)
    for d, b in KERNEL_GRID:
        inst = KisinInstance(d, b)
        for _ in range(10):
            q = _rational_triangle(QPoint, inst, rng)
            assert list(mu_from_q(q).values) == apply_terms(q, mu_cell_terms, 1)
            m = _rational_triangle(MuTriangle, inst, rng)
            assert list(q_from_mu(m).values) == apply_terms(m, q_cell_terms, b * (b - 1))


def test_dim_phi_matches_the_fraction_forms():
    rng = random.Random(25)
    for d, b in KERNEL_GRID:
        inst = KisinInstance(d, b)
        for _ in range(10):
            for check, cls in ((dim_phi_q, QPoint), (dim_phi, MuTriangle)):
                x = _rational_triangle(cls, inst, rng)
                value = check(x)
                assert value == dim_phi_fraction(x) and type(value) is F, x


def test_dim_phi_takes_only_a_mu_triangle():
    # read as mu-cells, a QPoint's cells would pass the cross-check and
    # give the dimension of another point
    q = QPoint(KisinInstance(2, 2), {(1, 1): 2, (1, 2): 1, (2, 2): 2})
    with pytest.raises(TypeError, match="MuTriangle"):
        dim_phi(q)
    assert dim_phi(mu_from_q(q)) == dim_phi_q(q) == 1


@pytest.mark.parametrize("d, b", [(1, 2), (2, 3), (4, 5), (6, 101)])
def test_dim_phi_raises_on_a_delta_coefficient_off_by_one(monkeypatch, d, b):
    # the q-form is cross-checked against the mu-form on every cell: no
    # cell of q is 0, so each wrong coefficient moves the q-form
    inst = KisinInstance(d, b)
    q = QPoint(inst, [F(k + 1, b) if k % 2 else F(-k - 1) for k in range(inst.dim_E)])
    m = mu_from_q(q)
    row = delta_vec(inst)
    for k in range(inst.dim_E):
        for step in (1, -1):
            bad = row[:k] + (row[k] + step,) + row[k + 1:]
            monkeypatch.setattr(km, "delta_vec", lambda inst, bad=bad: bad)
            for check, x in ((dim_phi_q, q), (dim_phi, m)):
                with pytest.raises(AssertionError, match="mismatch"):
                    check(x)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.integers(2, 4), st.integers(2, 6), st.data())
def test_transforms_inverse_property(d, b, data):
    inst = KisinInstance(d, b)
    vals = data.draw(st.lists(
        st.fractions(min_value=-30, max_value=30, max_denominator=6),
        min_size=inst.dim_E, max_size=inst.dim_E))
    q = QPoint(inst, vals)
    assert q_from_mu(mu_from_q(q)) == q


def test_mu_vectors_agree_with_transform():
    rng = random.Random(21)
    for d in (2, 3, 4, 5):
        inst = KisinInstance(d, 3)
        for _ in range(10):
            q = rand_qpoint(inst, rng)
            m = mu_from_q(q)
            for (i, j) in inst.cells:
                assert dot(mu_cell_vector(inst, i, j), q.values) == m[(i, j)]
            assert tuple(dot(mu_cell_vector(inst, 1, j), q.values)
                         for j in range(1, d + 1)) == m.top_row


# ---------------------------------------------------------------------------
# lattice membership (the two integrality conditions)
# ---------------------------------------------------------------------------

def test_lattice_conditions_equivalent():
    # the equivalence MuTriangle.in_lattice proves, from both sides
    rng = random.Random(22)
    for d in range(1, 6):
        for b in (2, 3, 4, 5, 7):
            inst = KisinInstance(d, b)
            hits = {True: 0, False: 0}
            for _ in range(120):
                if rng.random() < 0.5:
                    q = QPoint(inst, [F(rng.randint(-8, 8), rng.choice((1, 1, b, 2)))
                                      for _ in inst.cells])
                    m = mu_from_q(q)
                else:
                    # rational mu rows: integral, mostly with forced
                    # divisibility (which hits the lattice from the mu
                    # side), now and then with one fractional cell
                    vals = {}
                    for i in range(1, d + 1):
                        row = [F(rng.randint(-9, 9)) for _ in range(i, d + 1)]
                        if rng.random() < 0.8:
                            row[-1] += (-sum(row)) % (b - 1)
                        if rng.random() < 0.1:
                            row[rng.randrange(len(row))] += F(1, rng.choice((2, b, b * b)))
                        vals.update(zip(((i, j) for j in range(i, d + 1)), row))
                    m = MuTriangle(inst, vals)
                    q = q_from_mu(m)
                assert q_in_lattice(q) == m.in_lattice(), m.values
                hits[m.in_lattice()] += 1
            assert hits[True] > 0 and hits[False] > 0, (d, b)


def _grid_q_point(inst, rng, kind):
    """A q-triangle of one of four kinds: a point constant on the bands
    j - i with integral levels nonincreasing in j - i (in Q_min, so in Q,
    and in the lattice); the same plus 1/(b+1) on every cell (still in Q,
    off the lattice); the first kind with one cell moved by +-13 or 13/b
    (mostly outside Q); and random cells with denominators 1, 2 and b."""
    d, b = inst.d, inst.b
    if kind == 3:
        return QPoint(inst, [F(rng.randint(-12, 12), rng.choice((1, 1, 2, b)))
                             for _ in inst.cells])
    levels = sorted(rng.randint(-6, 6) for _ in range(d))
    q = [F(levels[d - 1 - (j - i)]) for (i, j) in inst.cells]
    if kind == 1:
        q = [x + F(1, b + 1) for x in q]
    if kind == 2:
        q[rng.randrange(len(q))] += rng.choice((-13, 13, F(13, b)))
    return QPoint(inst, q)


def test_mu_triangle_checks_match_the_q_side_oracles():
    # the package decides the lattice and dim(phi) of a point on its
    # mu-triangle alone; the q-side oracles decide them on q.  At every
    # d >= 2 the grid has points in and outside Q, on and off the lattice
    # (at d = 1 there are no games, so Q is all of E)
    rng = random.Random(40)
    seen = Counter()
    for d in range(1, 6):
        for b in (2, 3, 5):
            inst = KisinInstance(d, b)
            for trial in range(40):
                q = _grid_q_point(inst, rng, trial % 4)
                m = mu_from_q(q)
                assert m.in_lattice() == q_in_lattice(q), (d, b, q.values)
                value = dim_phi(m)
                assert value == dim_phi_q(q) and type(value) is F, (d, b, q.values)
                seen[d, contains(cone_q(inst), q.values), q_in_lattice(q)] += 1
    assert all(seen[d, inside, lattice] for d in range(2, 6)
               for inside in (True, False) for lattice in (True, False)), seen


# ---------------------------------------------------------------------------
# cones
# ---------------------------------------------------------------------------

def test_game_counts_d3():
    inst = KisinInstance(3, 2)
    assert len(cone_q(inst).ineqs) == 9  # three games, three couples each
    assert len(cone_qmax(inst).ineqs) == 6
    assert len(cone_qmin(inst).ineqs) == 3 and len(cone_qmin(inst).eqs) == 3


def _fraction_mu_cell(inst, i, j):
    b = inst.b
    coeffs = [F(0)] * inst.dim_E
    coeffs[inst.cell_index(j, j)] += b
    coeffs[inst.cell_index(j, inst.d)] -= 1
    for s in range(i, j):
        coeffs[inst.cell_index(s, j)] += b
        coeffs[inst.cell_index(s, j - 1)] -= b
    return coeffs


def _fraction_difference(inst, x, y):
    a = [F(0)] * inst.dim_E
    a[inst.cell_index(*x)] += 1
    a[inst.cell_index(*y)] -= 1
    return a


def _fraction_cone(inst, games):
    """The cone of the games with its rows built cell by cell in Fraction
    arithmetic: the oracle for the games of kisin_model._game_pairs."""
    ineqs, eqs = [], []
    for i in range(1, inst.d + 1):
        for j in range(i, inst.d):
            if "I" in games:
                ineqs.append(_fraction_difference(inst, (i, j), (i, j + 1)))
            if "II" in games:
                ineqs.append(_fraction_difference(inst, (i + 1, j + 1), (i, j)))
            if "II'" in games:
                eqs.append(_fraction_difference(inst, (i + 1, j + 1), (i, j)))
            if "III" in games:
                ineqs.append([x - y for x, y in zip(_fraction_mu_cell(inst, i, j),
                                                    _fraction_mu_cell(inst, i + 1, j + 1))])
    return HPolyhedron.build(inst.dim_E, [(a, F(0)) for a in ineqs], [(a, F(0)) for a in eqs])


def test_integer_cone_rows_match_the_fraction_construction():
    # the same halfspaces in the same order, for every cone built from rows
    for d in range(1, 7):
        for b in (2, 3, 5, 7):
            inst = KisinInstance(d, b)
            for cone, games in ((cone_q, ("I", "II", "III")), (cone_qmax, ("I", "II")),
                                (cone_qmin, ("I", "II'"))):
                assert cone(inst).halfspaces == _fraction_cone(inst, games).halfspaces, \
                    (cone.__name__, d, b)
            for (i, j) in inst.cells:
                v = mu_cell_vector(inst, i, j)
                assert v == tuple(_fraction_mu_cell(inst, i, j))
                assert all(type(x) is F for x in v)
    for d in (2, 3, 4):
        inst = KisinInstance(d, 3)
        for w in pm.all_permutations(d):
            tab = pm.ord_tableau(pm.w_star(w))
            rows = [(_fraction_difference(inst, x, y), F(0)) for x in inst.cells
                    for y in inst.cells if x != y and tab.entries[x] >= tab.entries[y]]
            assert cone_qw(inst, w).halfspaces == HPolyhedron.build(inst.dim_E, rows).halfspaces


def _random_mu_triangle(inst, rng, kind):
    """A rational triangle of one of four kinds: random cells; a
    nonincreasing top row with each lower cell between its two upper
    neighbours (the order rows hold, ends and ties included); the image of
    a point constant on the bands j - i and nonincreasing in j - i, which
    lies in Q_min and so in Q; and such a point with one cell moved."""
    d, b = inst.d, inst.b

    def value():
        return F(rng.randint(-12, 12), rng.choice((1, 1, 2, 3, b)))

    if kind == 0:
        return MuTriangle(inst, [value() for _ in inst.cells])
    if kind == 1:
        rows = [sorted((value() for _ in range(d)), reverse=True)]
        for _ in range(d - 1):
            up = rows[-1]
            rows.append([lo + (hi - lo) * F(rng.randint(0, 4), 4)
                         for hi, lo in zip(up, up[1:])])
        return MuTriangle(inst, [x for row in rows for x in row])
    levels = sorted(value() for _ in range(d))
    q = [levels[d - 1 - (j - i)] for (i, j) in inst.cells]
    if kind == 3:
        q[rng.randrange(len(q))] += F(rng.choice((-1, 1)), rng.choice((1, 2, b)))
    return mu_from_q(QPoint(inst, q))


def test_in_cone_q_decides_the_mu_games_first(monkeypatch):
    # a triangle that fails a mu-game is outside Q before any q-cell is
    # computed: with the q running sum refused, it still gets its answer
    def refused(mu, d, b):
        raise AssertionError("the q-cells were computed")

    monkeypatch.setattr(km, "_q_of", refused)
    for d, b in ((2, 2), (3, 3), (5, 101)):
        inst = KisinInstance(d, b)
        # game III at (d-1, d-1), mu_{d-1,d-1} - mu_{d,d}, is -1/b
        cells = [F(0)] * (inst.dim_E - 1) + [F(1, b)]
        assert not in_cone_q(MuTriangle(inst, cells)), (d, b)
    # control: a triangle that passes every mu-game reaches the q-cells
    with pytest.raises(AssertionError, match="q-cells"):
        in_cone_q(MuTriangle(KisinInstance(2, 2), [0, 0, 0]))


def test_in_cone_q_matches_the_h_polyhedron():
    # membership from the games against the Fraction H-polyhedron of Q, on
    # seeded rational triangles; at every d >= 2 both outcomes occur
    rng = random.Random(27)
    seen = Counter()
    for d in range(1, 7):
        for b in (2, 3, 5, 7, 101):
            inst = KisinInstance(d, b)
            Q = cone_q(inst)
            for trial in range(100):
                m = _random_mu_triangle(inst, rng, trial % 4)
                inside = in_cone_q(m)
                assert inside == contains(Q, q_from_mu(m).values), (d, b, m.values)
                seen[d, inside] += 1
    assert all(seen[d, True] and seen[d, False] for d in range(2, 7)), seen


def banded_point(inst, levels, tilt=0, jitter=None, rng=None):
    """q constant on the anti-diagonal bands (levels[k] on the band with
    j - i = d - 1 - k), plus an optional dilation-breaking row tilt."""
    d = inst.d
    vals = {}
    for (i, j) in inst.cells:
        v = F(levels[d - 1 - (j - i)]) + tilt * i
        if jitter is not None:
            v += rng.randint(0, jitter)
        vals[(i, j)] = v
    return QPoint(inst, vals)


def test_cone_nesting_sampled():
    rng = random.Random(23)
    for d in (2, 3, 4):
        inst = KisinInstance(d, 3)
        Q, Qmx, Qmn = cone_q(inst), cone_qmax(inst), cone_qmin(inst)
        seen_min = seen_q = 0
        for k in range(300):
            kind = k % 3
            if kind == 0:
                x = tuple(F(rng.randint(-5, 5), rng.choice((1, 2))) for _ in inst.cells)
            elif kind == 1:
                levels = sorted(rng.randint(-8, 8) for _ in range(d))
                x = banded_point(inst, levels).values
            else:
                M = 40
                levels = sorted(rng.sample(range(-8, 9), d))
                x = banded_point(inst, [M * v for v in levels], tilt=3,
                                 jitter=1, rng=rng).values
            if contains(Qmn, x):
                seen_min += 1
                assert contains(Q, x)
            if contains(Q, x):
                seen_q += 1
                assert contains(Qmx, x)
        assert seen_min > 20 and seen_q > 20


def test_regular_cone_is_chain_cone_for_d2():
    rng = random.Random(24)
    inst = KisinInstance(2, 5)
    Reg, C = cone_regular(inst), cone_chain(2)
    for _ in range(200):
        x = (F(rng.randint(-9, 9)), F(rng.randint(-9, 9)))
        assert contains(Reg, x) == contains(C, x)


# the Fraction builders of C, C*, Reg and Reg* from before each cone was read
# off its integer generators, kept as oracles for the integer builders


def _fraction_chain_rows(d):
    out = []
    for i in range(d - 1):
        a = [F(0)] * d
        a[i], a[i + 1] = F(1), F(-1)
        out.append(tuple(a))
    return out


def _fraction_cone_chain(d):
    return HPolyhedron.build(d, [(a, F(0)) for a in _fraction_chain_rows(d)])


def _fraction_cone_regular(inst):
    b, d = inst.b, inst.d
    ineqs = []
    for i in range(1, d):
        a = [F(0)] * d
        a[i - 1] -= 1
        a[i] += 1
        a[d - i - 1] += b
        a[d - i] -= b
        ineqs.append((tuple(a), F(0)))
    return HPolyhedron.build(d, ineqs)


def _fraction_regular_dual_generators(inst):
    b, d = inst.b, inst.d

    def v(i):
        a = [F(0)] * d
        a[i - 1], a[i] = F(1), F(-1)
        return a

    return [tuple(b * x - y for x, y in zip(v(d - i), v(i))) for i in range(1, d)]


def test_chain_and_regular_cones_match_their_fraction_builders():
    for d in range(1, 8):
        gens = chain_dual_generators(d)
        assert gens == _fraction_chain_rows(d)
        assert all(type(x) is int for g in gens for x in g)
        assert cone_chain(d).halfspaces == _fraction_cone_chain(d).halfspaces
        for b in (2, 3, 5, 7, 101):
            inst = KisinInstance(d, b)
            gens = regular_dual_generators(inst)
            assert gens == _fraction_regular_dual_generators(inst), (d, b)
            assert all(type(x) is int for g in gens for x in g)
            assert cone_regular(inst).halfspaces == _fraction_cone_regular(inst).halfspaces


def test_qw_of_reversal_is_qmin():
    for d in (2, 3, 4):
        inst = KisinInstance(d, 3)
        assert polyhedra_set_equal(cone_qw(inst, pm.w0(d)), cone_qmin(inst))


def test_mu_order_inside_q():
    # for q in Q the derived mu satisfy the two order relations
    rng = random.Random(25)
    for d in (2, 3, 4):
        inst = KisinInstance(d, 2)
        Q = cone_q(inst)
        cells = set(inst.cells)
        found = 0
        for k in range(300):
            if k % 2:
                levels = sorted(rng.randint(-6, 6) for _ in range(d))
                q = banded_point(inst, levels)
            else:
                levels = sorted(rng.sample(range(-8, 9), d))
                q = banded_point(inst, [30 * v for v in levels], tilt=3,
                                 jitter=1, rng=rng)
            if not contains(Q, q.values):
                continue
            found += 1
            m = mu_from_q(q)
            for (i, j) in cells:
                if (i + 1, j) in cells:
                    assert m[(i, j)] <= m[(i + 1, j)]
                if (i + 1, j + 1) in cells:
                    assert m[(i, j)] >= m[(i + 1, j + 1)]
        assert found > 50


def build_cones(inst):
    """All the standing cones plus the lattice membership predicates."""
    return {
        "Q": cone_q(inst),
        "Q_max": cone_qmax(inst),
        "Q_min": cone_qmin(inst),
        "C": cone_chain(inst.d),
        "Reg": cone_regular(inst),
        "lattice_q": q_in_lattice,
        "lattice_mu": lambda m: m.in_lattice(),
    }


def test_build_cones_keys():
    inst = KisinInstance(3, 2)
    cones = build_cones(inst)
    assert set(cones) >= {"Q", "Q_max", "Q_min", "C", "Reg"}
    q = QPoint(inst, [F(0)] * inst.dim_E)
    assert cones["lattice_q"](q)


def wv_chain(w):
    """The permutations v_i with v_i(j) = w_i^{-1}(d+2-i-j), where w_1 = w
    and w_{i+1} is the losers' permutation of w_i."""
    out, wi = [], w
    while True:
        di = wi.d  # = d + 1 - i
        inv = wi.inverse()
        out.append(pm.Permutation(tuple(inv(di + 1 - j) for j in range(1, di + 1))))
        if di == 1:
            return out
        wi = pm.losers_permutation(wi)


def test_wv_chain_shapes():
    w = pm.Permutation((3, 2, 4, 5, 1))
    chain = wv_chain(w)
    assert [v.d for v in chain] == [5, 4, 3, 2, 1]


def test_levels_give_qw_members():
    # the expression of mu on the graph cone: mu_{i,j} = b q_{v_i(j-i+1)+i-1} - q_j
    # for q constant on the filling levels of w with nondecreasing values
    rng = random.Random(26)
    for d in (2, 3, 4, 5):
        b = 3
        inst = KisinInstance(d, b)
        for w in pm.all_permutations(d):
            tab = pm.ord_tableau(w)
            chain = wv_chain(w)
            for _ in range(3):
                levels = sorted(rng.randint(-9, 9) for _ in range(d))
                q = QPoint(inst, {c: F(levels[tab.entries[c] - 1]) for c in inst.cells})
                m = mu_from_q(q)
                for (i, j) in inst.cells:
                    expected = b * levels[chain[i - 1](j - i + 1) + i - 1 - 1] - levels[j - 1]
                    assert m[(i, j)] == expected


# ---------------------------------------------------------------------------
# S_T and the dimension functional
# ---------------------------------------------------------------------------

def test_S_T_level_identities():
    for d in (2, 3, 4, 5):
        b = 7
        inst = KisinInstance(d, b)
        m1, md, dl = mu_cell_vector(inst, 1, 1), mu_cell_vector(inst, 1, d), delta_vec(inst)
        for s in range(1, d):
            T = set(range(1, s + 1))
            assert S_T(m1, T, d) == -1
            assert S_T(md, T, d) == b
            assert S_T(dl, T, d) == -s * (d - s)
        full = set(range(1, d + 1))
        assert S_T(m1, full, d) == b - 1
        assert S_T(md, full, d) == b - 1
        assert S_T(dl, full, d) == 0


def test_S_T_general_formulas():
    from itertools import combinations

    d, b = 5, 4
    inst = KisinInstance(d, b)
    dl = delta_vec(inst)
    for r in range(d + 1):
        for T in combinations(range(1, d + 1), r):
            T = set(T)
            s = len(T)
            for i in range(1, d + 1):
                expected = b * (1 if (d + 1 - i) in T else 0) - (1 if s >= i else 0)
                assert S_T(mu_cell_vector(inst, 1, i), T, d) == expected
            ts = sorted(T)
            assert S_T(dl, T, d) == -s * (d - s) + b * sum(t - i for i, t in enumerate(ts, 1))


def test_dim_phi_d1_is_zero():
    inst = KisinInstance(1, 3)
    q = QPoint(inst, [F(7, 2)])
    assert dim_phi_q(q) == dim_phi(mu_from_q(q)) == 0


def test_dim_phi_worked_example():
    inst = KisinInstance(2, 2)
    m = MuTriangle(inst, {(1, 1): 3, (1, 2): 0, (2, 2): 2})
    assert dim_phi(m) == 1


def test_dim_phi_two_forms_symbolic():
    # the mu-form, rewritten through the transform, is the delta vector
    for d in (2, 3, 4, 5):
        inst = KisinInstance(d, 3)
        acc = [F(0)] * inst.dim_E
        for j in range(1, d + 1):
            v = mu_cell_vector(inst, 1, j)
            acc = [a + (d + 1 - j) * x for a, x in zip(acc, v)]
        for (i, j) in inst.cells:
            v = mu_cell_vector(inst, i, j)
            acc = [a - x for a, x in zip(acc, v)]
        assert tuple(acc) == delta_vec(inst)


def test_dim_congruence_on_lattice_points():
    rng = random.Random(27)
    for d in (2, 3):
        for b in (2, 3, 4):
            inst = KisinInstance(d, b)
            for _ in range(40):
                vals = {}
                for i in range(1, d + 1):
                    row = [rng.randint(-5, 5) for _ in range(i, d + 1)]
                    row[-1] += (-sum(row)) % (b - 1)
                    for k, j in enumerate(range(i, d + 1)):
                        vals[(i, j)] = F(row[k])
                m = MuTriangle(inst, vals)
                assert m.in_lattice()
                val = dim_phi(m)
                top = m.top_row
                assert (val + sum(j * top[j - 1] for j in range(1, d + 1))) % (b - 1) == 0


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

def test_phi_d1():
    inst = KisinInstance(1, 3)
    q = QPoint(inst, [F(2)])
    p = phi_from_q(q)
    assert p.phi(1, F(3, 2)) is None
    assert p.phi(1, 2) == 4 and p.phi(1, 3) == 7  # 3v - 2


def test_phi_requires_cone_membership():
    inst = KisinInstance(2, 2)
    with pytest.raises(ValueError):
        phi_from_q(QPoint(inst, {(1, 1): 0, (1, 2): 1, (2, 2): 0}))


def rand_interior_lattice_point(inst, rng):
    """Random integer point with all three games strict: widely separated
    bands beat the jitter and the row tilt breaks the band equalities."""
    d, b = inst.d, inst.b
    M = 4 * b * b + 7
    levels = sorted(rng.sample(range(0, 4 * d), d))
    q = banded_point(inst, [M * v for v in levels], tilt=3, jitter=1, rng=rng)
    for h in cone_q(inst).ineqs:  # construction must land strictly inside
        assert dot(h.normal, q.values) > 0
    return q


def test_phi_validate_and_read_back_random():
    rng = random.Random(28)
    count = 0
    for d in (2, 3, 4, 5):
        for b in (2, 3):
            inst = KisinInstance(d, b)
            for _ in range(10):
                q = rand_interior_lattice_point(inst, rng)
                if not contains(cone_q(inst), q.values):
                    continue
                p = phi_from_q(q)
                assert validate_phi(p)
                assert q_in_lattice(q)
                # breakpoints land in (1/b)Z for lattice points
                for pieces in p.phi_pieces:
                    for brk, _ in pieces:
                        assert (brk * b).denominator == 1
                assert read_back_q(p) == q
                count += 1
    assert count >= 60


def test_phi_boundary_multiplicity():
    # on the wall q_{1,1} = q_{2,2} two profile graphs share a point; the
    # counting condition still balances
    inst = KisinInstance(2, 2)
    q = QPoint(inst, {(1, 1): 2, (1, 2): 0, (2, 2): 2})
    assert contains(cone_q(inst), q.values)
    p = phi_from_q(q)
    assert validate_phi(p)


def test_phi_round_trip_via_mu():
    rng = random.Random(29)
    inst = KisinInstance(3, 2)
    for _ in range(20):
        q = rand_interior_lattice_point(inst, rng)
        p = phi_from_q(q)
        m = mu_from_q(q)
        # psi start points are the top mu row, phi start points the last
        # q column
        assert tuple(pieces[0][0] for pieces in p.psi_pieces) == m.top_row
        assert tuple(pieces[0][0] for pieces in p.phi_pieces) \
            == tuple(q[(i, inst.d)] for i in range(1, inst.d + 1))


# ---------------------------------------------------------------------------
# the d = 2 lattice oracle
# ---------------------------------------------------------------------------

def test_d2_oracle_worked_example():
    data = d2_lattice_invariants(alpha=2, gamma=0, delta=1, b=2)
    assert (data.mu1, data.mu2) == (5, -2)
    assert data.profile.phi(1, F(-1, 2)) is None
    assert data.profile.phi(1, 0) == -2
    assert data.profile.phi(1, 2) == 2
    assert data.profile.phi(1, F(5, 2)) == 5
    assert data.profile.phi(1, 3) == 6


def test_d2_oracle_requires_ordering():
    with pytest.raises(ValueError):
        d2_lattice_invariants(alpha=1, gamma=0, delta=2, b=2)


def test_d2_oracle_matches_generic_parametrization():
    rng = random.Random(30)
    for _ in range(40):
        b = rng.choice((2, 3, 5))
        gamma = rng.randint(-5, 5)
        delta = gamma + rng.randint(1, 5)
        alpha = delta + rng.randint(1, 5)
        data = d2_lattice_invariants(alpha, gamma, delta, b)
        prof = data.profile
        assert validate_phi(prof)
        assert data.mu1 >= data.mu2
        assert data.mu1 == b * (alpha + delta - gamma) - delta
        assert data.mu2 == b * gamma - alpha
        # psi_2's middle breakpoint
        assert prof.psi_pieces[1][1][0] == (b - 1) * (alpha + delta - gamma)
        # closed-form pieces
        v_star = F(alpha) + F((b - 1) * (delta - gamma), b)
        for v in (F(gamma), F(gamma) + F(1, b), v_star - F(1, b)):
            assert prof.phi(1, v) == b * v - alpha
        for v in (v_star, v_star + 3):
            assert prof.phi(1, v) == b * v - gamma
        assert prof.phi(1, F(gamma) - F(1, b)) is None
        a2 = alpha + delta - gamma
        assert prof.phi(2, F(a2) - F(1, b)) is None
        assert prof.phi(2, F(a2) + 1) == b * (a2 + 1) - alpha + gamma - delta
