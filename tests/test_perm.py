import hashlib
from fractions import Fraction as F

import pytest

from kisindim import perm as pm
from kisindim.perm import (Permutation, admissible_from_subset, all_permutations,
                           hasse_diagram, hasse_dot, identity, level_set,
                           losers_permutation, maximal_elements, ord_tableau, records,
                           rho_w, w0, w_star)
from kisindim.polyhedra import dot, vec
from oracles import (admissible_level, hasse_diagram_pairwise, in_dual_chain_cone, precedes,
                     precedes_pairwise, rho_w_fraction)


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    with pytest.raises(ValueError):
        Permutation((0, 1))


def test_inverse_and_compose():
    w = Permutation((3, 1, 2))
    assert w.compose(w.inverse()).images == (1, 2, 3)
    assert w.power(w.order()).images == (1, 2, 3)


# ---------------------------------------------------------------------------
# records and losers
# ---------------------------------------------------------------------------

def test_records_worked_example():
    assert [v for v, _ in records(Permutation((3, 2, 4, 5, 1)))] == [3, 4, 5]


def test_records_identity_and_reversal():
    d = 6
    assert [v for v, _ in records(identity(d))] == list(range(1, d + 1))
    assert records(w0(d)) == [(d, 1)]


def test_losers_worked_example():
    assert losers_permutation(Permutation((3, 2, 4, 5, 1))).images == (2, 3, 4, 1)


def test_losers_identity():
    # unfolding the recursion: the minimum of {1..i+1} minus {1..i-1} is i
    for d in range(2, 7):
        assert losers_permutation(identity(d)) == identity(d - 1)


def test_losers_d2():
    assert losers_permutation(Permutation((2, 1))).images == (1,)


def test_losers_record_characterization():
    # independent characterization: w'(i) = w(i+1) unless w(i+1) is a
    # record, in which case w'(i) is the previous record
    for d in (2, 3, 4, 5):
        for w in all_permutations(d):
            wp = losers_permutation(w)
            rec_vals = [v for v, _ in records(w)]
            for i in range(1, d):
                if w(i + 1) in rec_vals:
                    prev = max(w(j) for j in range(1, i + 1))
                    assert wp(i) == prev
                else:
                    assert wp(i) == w(i + 1)


def losers_chain(w):
    """[w, w', w'', ...] down to the unique permutation of size 1."""
    chain = [w]
    while chain[-1].d > 1:
        chain.append(losers_permutation(chain[-1]))
    return chain


def test_losers_chain_terminates():
    for d in (1, 2, 3, 4, 5):
        for w in all_permutations(d):
            chain = losers_chain(w)
            assert len(chain) == d and chain[-1].d == 1


# ---------------------------------------------------------------------------
# ord tableaux and admissible subsets
# ---------------------------------------------------------------------------

def test_ord_tableau_worked_example():
    t = ord_tableau(Permutation((3, 2, 4, 5, 1)))
    assert t.row(1) == (4, 3, 1, 1, 1)
    assert t.row(2) == (4, 3, 2, 2)
    assert t.row(3) == (4, 3, 3)
    assert t.row(4) == (4, 4)
    assert t.row(5) == (5,)


def test_ord_tableau_band_structure():
    # the chain tableau of w0 (= the filling tableau of w0* = identity) is
    # constant on the anti-diagonal bands: ord(i,j) = d - (j-i)
    for d in (2, 3, 4, 5):
        t = ord_tableau(w_star(w0(d)))
        for (i, j), v in t.entries.items():
            assert v == d - (j - i)
        for s in range(1, d + 1):
            assert t.level_set(s).cells == admissible_level(d, s).cells


def test_ord_tableau_value_counts():
    for d in (2, 3, 4, 5, 6):
        for w in all_permutations(d):
            t = ord_tableau(w)
            for s in range(1, d + 1):
                assert sum(1 for v in t.entries.values() if v == s) == w(s)


def test_ord_tableau_level_sets_are_admissible_chain():
    for d in (3, 4, 5):
        for w in list(all_permutations(d))[:30]:
            t = ord_tableau(w)
            prev = frozenset()
            for s in range(1, d + 1):
                cur = t.level_set(s).cells  # validates admissibility
                assert prev <= cur
                prev = cur
            assert prev == frozenset((i, j) for i in range(1, d + 1)
                                     for j in range(i, d + 1))


def test_losers_shift_identity_exhaustive():
    # ord_{w'}(i,j) = ord_w(i+1,j+1) - 1, exhaustively through d = 8
    for d in range(2, 9):
        for w in all_permutations(d):
            t = ord_tableau(w)
            tp = ord_tableau(losers_permutation(w))
            for (i, j), v in tp.entries.items():
                assert v == t[(i + 1, j + 1)] - 1


def test_admissible_from_levels():
    d = 5
    for s in range(0, d + 1):
        J = admissible_from_subset(d, range(1, s + 1))
        assert J.cells == frozenset((i, j) for i in range(1, d + 1)
                                    for j in range(i, d + 1) if j - i >= d - s)


def test_admissible_empty_and_full():
    d = 4
    assert admissible_from_subset(d, ()).cells == frozenset()
    assert admissible_from_subset(d, range(1, d + 1)).cells == frozenset(
        (i, j) for i in range(1, d + 1) for j in range(i, d + 1))


def subset_from_admissible(adm):
    """Inverse of admissible_from_subset: the nonzero row counts of J."""
    counts = (sum(1 for (a, _) in adm.cells if a == i) for i in range(1, adm.d + 1))
    return frozenset(c for c in counts if c)


def test_admissible_round_trip_all_subsets():
    d = 6
    for mask in range(2 ** d):
        T = frozenset(t for t in range(1, d + 1) if mask & (1 << (t - 1)))
        J = admissible_from_subset(d, T)
        assert subset_from_admissible(J) == T


def test_admissible_closure_validation():
    with pytest.raises(ValueError):
        pm.AdmissibleSubset(3, frozenset({(1, 2)}), frozenset({2}))


# ---------------------------------------------------------------------------
# rho_w
# ---------------------------------------------------------------------------

def test_rho_w0_is_scaled_half_sums():
    for d in (2, 3, 4, 5):
        for b in (2, 3, 17):
            expected = tuple(F(d + 1 - 2 * i, b + 1) for i in range(1, d + 1))
            assert rho_w(w0(d), b) == expected


def test_rho_identity_d2():
    # geometric series: (b-1) * sum 1/b^n = 1
    for b in (2, 5, 11):
        assert rho_w(identity(2), b) == (F(1), F(-1))


def test_rho_reversal_d2():
    for b in (2, 3, 10):
        assert rho_w(Permutation((2, 1)), b) == (F(1, b + 1), F(-1, b + 1))


def test_rho_w_matches_the_fraction_closed_form():
    for d in range(1, 6):
        for b in (2, 3, 5, 7, 10):
            for w in all_permutations(d):
                assert rho_w(w, b) == rho_w_fraction(w, b)


def test_rho_w_refuses_b_below_two():
    for b in (1, 0):
        with pytest.raises(ValueError):
            rho_w(identity(2), b)


def test_rho_coordinates_sum_to_zero():
    for d in (2, 3, 4, 5):
        for b in (2, 7):
            for w in all_permutations(d):
                assert sum(rho_w(w, b)) == 0


def test_rho_solves_the_chain_hyperplane_system():
    # independent oracle: rho_w is the unique solution of the linear system
    # cut out by the chain subsets T_s(w) = {w*(1..s)} and the zero-sum, as
    # it satisfies every row with equality and the d rows have rank d
    from kisindim.kisin_model import KisinInstance
    from oracles import f_T_halfspace, rank

    for d in (3, 4):
        b = 17
        inst = KisinInstance(d, b)
        for w in all_permutations(d):
            ws = w_star(w)
            rows, rhs = [], []
            for s in range(1, d):
                a, c = f_T_halfspace(inst, {ws(i) for i in range(1, s + 1)})
                rows.append(a)
                rhs.append(c)
            rows.append(vec([1] * d))
            rhs.append(F(0))
            rho = rho_w(w, b)
            assert all(dot(a, rho) == c for a, c in zip(rows, rhs))
            assert rank(rows, d) == d


# ---------------------------------------------------------------------------
# the order on S_d
# ---------------------------------------------------------------------------

def test_precedes_reflexive():
    for w in all_permutations(4):
        assert precedes(w, w)


def test_precedes_is_partial_order_d_le_5():
    for d in (2, 3, 4, 5):
        perms = list(all_permutations(d))
        rel = {(a.images, b.images) for a in perms for b in perms if precedes(a, b)}
        for a in perms:
            for b in perms:
                if (a.images, b.images) in rel and (b.images, a.images) in rel:
                    assert a == b  # antisymmetry
        for a in perms:
            for b in perms:
                for c in perms:
                    if (a.images, b.images) in rel and (b.images, c.images) in rel:
                        assert (a.images, c.images) in rel  # transitivity


def test_precedes_matches_the_pairwise_oracle():
    # the signatures run to lcm(1..d); the oracle stops at lcm of the two orders
    for d in range(1, 5):
        perms = list(all_permutations(d))
        for w1 in perms:
            for w2 in perms:
                assert precedes(w1, w2) == precedes_pairwise(w1, w2)


def test_precedes_rho_characterization():
    # w1 <= w2 iff rho_{w1} - rho_{w2} lies in the dual chain cone; verified
    # exhaustively on its actual range of validity, b >= floor(d^2/4) + 1
    # (plus every b >= 2 when d <= 3) -- see the regression below for the
    # gap at smaller b
    for d, bs in ((2, (2, 17)), (3, (2, 17)), (4, (5, 17)), (5, (7,))):
        for b in bs:
            rhos = {w.images: rho_w(w, b) for w in all_permutations(d)}
            for w1 in all_permutations(d):
                r1 = rhos[w1.images]
                for w2 in all_permutations(d):
                    lhs = precedes(w1, w2)
                    diff = tuple(x - y for x, y in zip(r1, rhos[w2.images]))
                    assert lhs == in_dual_chain_cone(diff)


def test_precedes_rho_gap_at_small_b():
    # regression: at d = 4, b = 3 the two tests genuinely differ
    w1, w2 = Permutation((1, 4, 2, 3)), Permutation((3, 1, 4, 2))
    diff = tuple(x - y for x, y in zip(rho_w(w1, 3), rho_w(w2, 3)))
    assert in_dual_chain_cone(diff) and not precedes(w1, w2)


def test_maximal_elements_d4():
    labels = {w.label() for w in maximal_elements(4)}
    assert "2431" in labels and "4213" in labels
    assert identity(4).label() not in labels


@pytest.mark.parametrize("d", range(1, 6))
def test_hasse_diagram_matches_the_pairwise_oracle(d):
    edges = [(lo.images, hi.images) for lo, hi in hasse_diagram(d)]
    assert len(set(edges)) == len(edges)
    assert sorted(edges) == sorted((lo.images, hi.images)
                                   for lo, hi in hasse_diagram_pairwise(d))


def test_maximal_elements_match_the_pairwise_oracle():
    for d in range(1, 5):
        perms = list(all_permutations(d))
        assert maximal_elements(d) == [
            a for a in perms if not any(a != c and precedes_pairwise(a, c) for c in perms)]


# sha256 and line count of hasse_dot(d), as the pairwise construction drew them
HASSE_DOT_DIGESTS = {
    5: ("3cc5b2ea7d1ecc629880d7cd0a91fd8cf97ed70f5d6f3719be731be5aaccf6fd", 919),
    6: ("a97674f0ea9fa4b2c5e5f17abe3a078322608a014b1359877537d96e4f30a675", 12564),
}


@pytest.mark.parametrize("d", sorted(HASSE_DOT_DIGESTS))
def test_hasse_dot_matches_its_pinned_digest(d):
    text = hasse_dot(d)
    assert (hashlib.sha256(text.encode()).hexdigest(),
            text.count("\n")) == HASSE_DOT_DIGESTS[d]


def test_hasse_diagram_covers():
    edges = hasse_diagram(3)
    perms = list(all_permutations(3))
    # every strict relation decomposes into covers
    for a in perms:
        for b in perms:
            if a != b and precedes(a, b):
                # walk up through covers
                frontier = {a.images}
                seen = set()
                while frontier:
                    cur = frontier.pop()
                    if cur == b.images:
                        break
                    seen.add(cur)
                    frontier |= {hi.images for lo, hi in edges
                                 if lo.images == cur and hi.images not in seen}
                else:
                    pytest.fail(f"no cover path from {a.images} to {b.images}")


def test_hasse_dot_format():
    dot = hasse_dot(3)
    assert dot.startswith("digraph")
    assert '"123";' in dot
    assert "->" in dot
    n_nodes = dot.count(";") - dot.count("->")
    assert n_nodes == 6


def test_level_set_matches_star_subsets():
    for d in (3, 4):
        for w in all_permutations(d):
            ws = w_star(w)
            for s in range(1, d + 1):
                T = {ws(i) for i in range(1, s + 1)}
                assert level_set(w, s).t_set == frozenset(T)
