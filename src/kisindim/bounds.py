"""Duality layer and closed-form bounds.

The A-set lives in the target space R^d of the constraint map g and
consists of the y whose lift ``sum_i y_i F_i - delta`` lands in the dual
of the cone Q_max.  Its vertices are the rho_w (`extremal_points_a_qmax`).

Q_max is given by the generator rows of `_dual_hrep`: they cut out its
dual, and so the A-set, whose rows are the facet forms f_T (`a_set`, as
integer rows on homogeneous points).  The A-sets of the other cone
variants (the full cone Q, Q_min, the graph cones Q_w) and of the
two-sided form f, the optimal-value function `b_value` and the
H-representations of the variants are test oracles, in tests/oracles.py.

Every polyhedral computation here is one `polyhedra.double_description`
from a simplicial seed known in closed form: the A-set's vertices from
rho_{w0} and its d-1 edges to the rho_{w_s}, the K(b) tables from the
simplicial cone of Reg* at the apex 2 rho/(b+1), and the dominance sups
from the orthant.  The general H -> V engine (`enumerate_vertices`) is
the tests' reference for all three, in tests/oracles.py.

Everything refuses (typed `UnsupportedRegime`) outside the regime where
the identity it computes is actually proved: b0 = 1 + floor((d-1)^2/4) is
the threshold for the extremal-point and cone-equality statements.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import ceil, gcd, lcm
from operator import sub

from . import kisin_model as km
from . import perm as pm
from .polyhedra import (Frozen, IVec, Vec, _idot, dot, double_description,
                        primitive_ints, scaled_ints, vec)


class UnsupportedRegime(Exception):
    """Raised when an identity is requested outside its proven range of b."""


def two_rho(d: int) -> IVec:
    """(d-1, d-3, ..., 1-d): twice the half-sum vector."""
    return tuple(d + 1 - 2 * i for i in range(1, d + 1))


# ---------------------------------------------------------------------------
# the dual description of Q_max and its A-set
# ---------------------------------------------------------------------------

def _proper_subsets(d: int):
    """The nonempty proper subsets T of {1..d}, in the order of their bitmasks."""
    for mask in range(1, 2 ** d - 1):
        yield frozenset(t for t in range(1, d + 1) if mask & (1 << (t - 1)))


def _dual_hrep(inst: km.KisinInstance):
    """(rows, eq_rows) in E: Q_max is cone(rows) + span(eq_rows), so z is in
    its dual iff <z, r> >= 0 for the rows and <z, l> = 0 for the eq row.

    Q_max is cut out by rows q_x >= q_y, the arcs x -> y of a graph on the
    cells.  So it is spanned by the all-ones line and the rays -1_J, J a
    nonempty proper cell set closed under the arcs: the admissible sets of
    the proper subsets T of {1..d}, in `_proper_subsets` order."""
    sets = (pm.admissible_from_subset(inst.d, T).cells for T in _proper_subsets(inst.d))
    return [[-int(c in J) for c in inst.cells] for J in sets], [[1] * inst.dim_E]


def a_set(inst: km.KisinInstance) -> tuple[list[IVec], IVec]:
    """The Q_max A-set {y : sum_i y_i F_i - delta in Q_max*} as integer
    rows on the homogeneous points (Y, T), y = Y/T: the row
    (<F_i, v>_i, -<delta, v>) >= 0 of each row v of `_dual_hrep`, one per
    proper subset in `_proper_subsets` order, and the equation row, the
    same map of its eq row, which is 0 on the A-set.  The F_i are the
    q-forms of the top mu-cells, <q, F_i> = mu_{1,i}(q): the constraint
    map g, so the <F_i, v> are the top row of `km._mu_of` at v.  No row
    has a zero image: the row of T has entries summing to |T| (1 - b) < 0
    (the f_T of `extremal_points_a_qmax`)."""
    d, b = inst.d, inst.b
    delta = km.delta_vec(inst)
    rows, (eq,) = _dual_hrep(inst)

    def homogeneous(v):
        return (*km._mu_of(v, d, b)[:d], -_idot(delta, v))

    return [homogeneous(v) for v in rows], homogeneous(eq)


def _chain_mask(w: pm.Permutation) -> int:
    """The chain T_s(w) = {w*(1), ..., w*(s)}, s = 1..d-1, as a bitmask over
    the `_proper_subsets` indices: T has index (its bitmask) - 1."""
    ws, mask, out = pm.w_star(w), 0, 0
    for i in range(1, w.d):
        mask |= 1 << (ws(i) - 1)
        out |= 1 << (mask - 1)
    return out


def extremal_points_a_qmax(inst: km.KisinInstance) -> dict[pm.Permutation, Vec]:
    """The vertex map w -> rho_w of the A-set for Q_max (needs b >= b0).

    The vertices come from one double description in the rows of `a_set`,
    seeded at the vertex rho_{w0} = 2 rho/(b+1).  The chain of w0 is
    T_s = {1..s}, since w0* = id, and the seed rows are its facets f_{1..s},
    s = 1..d-1, then T >= 0.  The seed rays are rho_{w_s} - rho_{w0} with
    T = 0, w_s being w0 with the values s and s+1 swapped (its chain differs
    from w0's only at step s), then (rho_{w0}, 1), all as primitive
    integer rows over D = `pm.rho_denominator`.  The seed is checked by
    integer dots before the double description runs: each ray is zero on
    every other seed row and on the equation row, and positive on its own.
    So the seed rays span the equation's plane, the seed is the simplicial
    cone of its rows there, and every ray the double description builds, a
    combination of seed rays, stays in the plane.  The other rows of
    `a_set` are inserted in order.

    The rays must then be exactly the primitive (D rho_w, D), so no ray has
    T = 0, and the facet structure is read off the zero sets, mapped back
    through the seed-row order to the forms f_T, one per proper subset T:
    f_T vanishes at rho_w on the chain T_s(w), and only there once b > b0.
    (At b = b0 itself extra facets can meet a vertex: at d = 4, b = 3 some
    off-chain f_T vanish, though the vertex set is still exactly the rho_w
    family.)
    """
    if inst.b < inst.b0:
        raise UnsupportedRegime(
            f"extremal points of the Q_max A-set need b >= b0 = {inst.b0}")
    d, b = inst.d, inst.b
    rows, eq = a_set(inst)
    D = pm.rho_denominator(d, b)
    rho = {w: pm.rho_row(w.images, b, D) for w in pm.all_permutations(d)}
    w0 = pm.w0(d)
    apex = rho[w0]
    seed = []
    for s in range(1, d):
        ws = tuple(s + 1 if x == s else s if x == s + 1 else x for x in w0.images)
        seed.append(primitive_ints((*map(sub, pm.rho_row(ws, b, D), apex), 0)))
    seed.append(primitive_ints((*apex, D)))
    chain = [(1 << s) - 2 for s in range(1, d)]  # f_{1..s}, the chain of w0
    seed_rows = [rows[i] for i in chain] + [(0,) * d + (1,)]
    for j, r in enumerate(seed):
        vals = [_idot(a, r) for a in seed_rows]
        if _idot(eq, r) or vals[j] <= 0 or any(vals[:j] + vals[j + 1:]):
            raise AssertionError(f"the seed at rho_w0 is not simplicial: ray {j}")
    rest = [i for i in range(len(rows)) if i not in chain]
    rays, zsets = double_description(seed, [rows[i] for i in rest])
    if set(rays) != {primitive_ints((*r, D)) for r in rho.values()}:
        raise AssertionError("vertex set differs from the rho_w family")
    # zero-set bit k is the row rows[order[k]]; bit d-1, T >= 0, is tight at
    # no vertex
    order = chain + [None] + rest
    tight = {r: sum(1 << i for k, i in enumerate(order) if z >> k & 1)
             for r, z in zip(rays, zsets)}
    # the map need not be injective near b0: at (d, b) = (4, 3) two
    # permutations share their vertex, though the vertex SET is still exact
    for w, r in rho.items():
        have, want = tight[primitive_ints((*r, D))], _chain_mask(w)
        if have & want != want:
            raise AssertionError(f"f_T nonzero on the chain of {w.images}")
        if b > inst.b0 and have != want:
            raise AssertionError(f"f_T not strictly positive off the chain of {w.images}")
    return {w: tuple(Fraction(x, D) for x in r) for w, r in rho.items()}


# ---------------------------------------------------------------------------
# regularity and the minimum over permutations
# ---------------------------------------------------------------------------

class RegularityClass(Frozen):
    def __init__(self, mu: Vec, b_regular: bool, integrally_b_regular: bool,
                 strongly_integrally_b_regular: bool):
        self._store(locals())


def strong_regularity(inst: km.KisinInstance) -> tuple[IVec, int]:
    """mu_{d-1} - mu_d <= b (mu_1 - mu_2) - d (b^2 - 1) as the primitive
    integer row (a, c) of <a, mu> >= c (d >= 2)."""
    d, b = inst.d, inst.b
    a = [b, -b] + [0] * (d - 2)
    a[d - 2] -= 1
    a[d - 1] += 1
    *a, c = primitive_ints((*a, d * (b * b - 1)))
    return tuple(a), c


def _b_regular(imu: IVec, inst: km.KisinInstance) -> bool:
    """Whether mu, given by its integer numerators imu over a positive
    denominator, lies in Reg: the rows of `km.regular_dual_generators`."""
    return all(_idot(g, imu) >= 0 for g in km.regular_dual_generators(inst))


def regularity(mu, inst: km.KisinInstance) -> RegularityClass:
    """The three nested regularity flags of a d-tuple, each decided by
    integer rows on the numerators of mu over their common denominator."""
    mu = vec(mu)
    d, b = inst.d, inst.b
    if len(mu) != d:
        raise ValueError("mu must have d entries")
    imu, scale = scaled_ints(mu)
    breg = _b_regular(imu, inst)
    integrally = breg and scale == 1 and sum(imu) % (b - 1) == 0
    if integrally and d >= 2:
        a, c = strong_regularity(inst)
        strongly = _idot(a, imu) >= c
    else:
        strongly = integrally
    return RegularityClass(mu, breg, integrally, strongly)


def min_over_permutations(mu, inst: km.KisinInstance):
    """min_w <rho_w | mu> over all of S_d, with the argmin set in the order
    of all_permutations.

    The dots are taken on integers: the rows D * rho_w of `pm.rho_row`
    against mu scaled to integers, so the value is the least integer dot
    over D times that scale.  This equals (b-1) times the minimum of the
    defining series.  For b-regular mu the minimum sits at w0 and equals
    <2 rho | mu>/(b+1).
    """
    mu = vec(mu)
    d, b = inst.d, inst.b
    if len(mu) != d:
        raise ValueError(f"dimension mismatch: {d} vs {len(mu)}")
    imu, scale = scaled_ints(mu)
    D = pm.rho_denominator(d, b)
    best = None
    argmin = []
    # the one-line images in the order of all_permutations; only the
    # argmin become Permutations
    for images in permutations(range(1, d + 1)):
        v = _idot(pm.rho_row(images, b, D), imu)
        if best is None or v < best:
            best, argmin = v, [images]
        elif v == best:
            argmin.append(images)
    argmin = [pm.Permutation(images) for images in argmin]
    if _b_regular(imu, inst):
        if best * (b + 1) != _idot(two_rho(d), imu) * D or pm.w0(d) not in argmin:
            raise AssertionError("regular minimum not attained at w0")
    return Fraction(best, D * scale), argmin


# ---------------------------------------------------------------------------
# theorem bounds
# ---------------------------------------------------------------------------

def _dominated_sup(mu: IVec, inst: km.KisinInstance, strong: bool):
    """sup <2 rho | mu'> over the real mu' dominated by mu in Reg (and in the
    strong-regularity halfspace when strong), or None when there is none.

    In root coordinates mu' = mu - sum_t x_t (e_t - e_{t+1}), domination is
    x >= 0 and <2 rho | e_t - e_{t+1}> = 2, so the sup is <2 rho | mu> - 2 min
    sum x.  One double description in the rows (x, T), seeded with the
    orthant, inserts each row <a, mu'> >= c as ((a_{t+1} - a_t)_t, <a, mu> - c).
    A ray with T > 0 is a vertex x/T; along one with T = 0, x >= 0 is nonzero,
    so sum x grows and the min sits at a vertex.
    """
    d = inst.d
    rows = [(a, 0) for a in km.regular_dual_generators(inst)]
    if strong and d >= 2:
        rows.append(strong_regularity(inst))
    seed = [tuple(int(i == j) for i in range(d)) for j in range(d)]
    rays, _ = double_description(seed, [(*(a[t + 1] - a[t] for t in range(d - 1)),
                                         _idot(a, mu) - c) for a, c in rows])
    vertices = [Fraction(sum(r[:-1]), r[-1]) for r in rays if r[-1]]
    if not vertices:
        return None
    return _idot(two_rho(d), mu) - 2 * min(vertices)


def theorem_bounds(target: str, params, inst: km.KisinInstance) -> dict:
    """The closed-form lower/upper dimension bounds for one of the three
    variety families.  Values are exact rationals; bounds that are not
    theorems at this (d, b) are refused via UnsupportedRegime.

    target "le_e":  params = e.
    target "mu":    params = integer tuple mu (nonincreasing).
    target "le_mu": params = integer tuple mu (nonincreasing).  The lower
    bound and "upper_strong" read the sup of <2 rho | mu'> over the real mu'
    dominated by mu (`_dominated_sup`), in the strongly regular and the
    regular mu' respectively; either is None when there is no such mu'.
    """
    d, b = inst.d, inst.b
    eps = inst.epsilon_slack
    quarter = d * d // 4
    if target == "le_e":
        e = int(params)
        if e < 0:
            raise ValueError("e must be nonnegative")
        n = (e - b + 2) // (b + 1)
        lower_raw = quarter * n
        return {
            "target": "le_e", "params": {"e": e},
            "lower_raw": lower_raw,
            # the variety contains the standard point for e >= 0, so the
            # bound clamps to 0 when e < b-2 makes the raw term negative
            "lower": max(0, lower_raw),
            "upper": eps + Fraction(quarter * e, b + 1),
        }
    mu = tuple(int(x) for x in params)
    if list(mu) != sorted(mu, reverse=True):
        raise ValueError("mu must be nonincreasing")
    # the regime depends on (d, b) alone, so it is refused whatever mu's length
    if target == "mu" and inst.b < inst.b0:
        raise UnsupportedRegime(
            f"the minimum-over-permutations upper bound needs b >= b0 = {inst.b0}")
    if len(mu) != d:
        raise ValueError("mu must have d entries")
    divisible = sum(mu) % (b - 1) == 0
    if target == "mu":
        out = {
            "target": "mu", "params": {"mu": list(mu)},
            "empty": not divisible,
            "congruence_mod_b_minus_1": (-sum(i * m for i, m in enumerate(mu, 1))) % (b - 1),
            "lower": None,  # the generic lower bound's constants are not explicit
        }
        val, _ = min_over_permutations(mu, inst)
        out["upper"] = eps + val
        return out
    if target == "le_mu":
        out = {
            "target": "le_mu", "params": {"mu": list(mu)},
            "empty": not divisible,
            "upper": eps + Fraction(_idot(two_rho(d), mu), b + 1),
        }
        sup = _dominated_sup(mu, inst, strong=True)
        out["lower_sup_relaxed"] = True  # the sup over real mu'; integrality relaxed
        out["lower"] = None if sup is None else \
            -(d - 1) ** 2 - Fraction((d - 2) ** 2, 4) + Fraction(sup, b + 1)
        if b >= 1 + max(d, (d - 1) ** 2 // 4):
            sup2 = _dominated_sup(mu, inst, strong=False)
            out["upper_strong"] = None if sup2 is None else eps + Fraction(sup2, b + 1)
        return out
    raise ValueError(f"unknown target {target!r}")


# ---------------------------------------------------------------------------
# witness constructions
# ---------------------------------------------------------------------------

def witness_le_e(inst: km.KisinInstance, e: int):
    """The banded lattice point certifying the lower bound for the e-bounded
    family: n = floor((e-b+2)/(b+1)) (clamped at 0), m = (-n) mod (b-1),
    q_{i,j} = (m+bn)/(b-1) on the bands j-i < d/2 and (m+n)/(b-1) beyond.

    Returns (q, report); the report re-derives every guarantee mechanically.
    """
    if e < 0:
        raise ValueError("e must be nonnegative")
    d, b = inst.d, inst.b
    n_raw = (e - b + 2) // (b + 1)
    n = max(0, n_raw)
    m = (-n) % (b - 1)
    hi = Fraction(m + b * n, b - 1)
    lo = Fraction(m + n, b - 1)
    q = km.QPoint(inst, {(i, j): (hi if 2 * (j - i) < d else lo)
                         for (i, j) in inst.cells})
    quarter = d * d // 4
    mu = km.mu_from_q(q)
    report = {
        "n_raw": n_raw, "n": n, "m": m,
        "in_Q": km.in_cone_q(mu),
        "in_R": mu.in_lattice(),
        "mu_top_le_e": mu[(1, 1)] <= e,
        "mu_bottom_ge_0": mu[(1, d)] >= 0,
        "objective": km.dim_phi(mu),
        "objective_target": quarter * n,
        "objective_lower_target": quarter * n_raw,
    }
    report["ok"] = (report["in_Q"] and report["in_R"] and report["mu_top_le_e"]
                    and report["mu_bottom_ge_0"]
                    and report["objective"] == report["objective_target"]
                    and report["objective"] >= report["objective_lower_target"])
    return q, report


def witness_le_mu(inst: km.KisinInstance, mu, reg=None):
    """The rounded lattice point certifying the lower bound for the mu-dominated
    family; mu must be strongly integrally b-regular (reg: regularity(mu, inst)).

    q'_i = (mu_i + b mu_{d+1-i})/(b^2-1); q_i = ceil(q'_i) for i < d and the
    last one balances the (integral) total; the point is constant on bands.
    """
    mu = vec(mu)
    d, b = inst.d, inst.b
    reg = reg or regularity(mu, inst)
    if not reg.strongly_integrally_b_regular:
        raise ValueError("mu must be strongly integrally b-regular")
    qp = [Fraction(mu[i - 1] + b * mu[d - i], b * b - 1) for i in range(1, d + 1)]
    total = sum(qp)
    if total.denominator != 1:
        raise AssertionError("the rounded levels need an integral total")
    qq = [ceil(x) for x in qp[:-1]]
    qq.append(int(total) - sum(qq))
    if any(x > y for x, y in zip(qq, qq[1:])):
        raise AssertionError("rounded levels not nondecreasing")
    q = km.QPoint(inst, {(i, j): qq[d - 1 - (j - i)] for (i, j) in inst.cells})
    m = km.mu_from_q(q)
    g = m.top_row
    target = Fraction(dot(two_rho(d), mu), b + 1)
    # the rounding errors eps_i = q_i - q'_i satisfy sum eps = 0 and
    # eps_i in [0,1) below the last level, so the objective loss is
    # 2 * sum_{i<d} (d-i) eps_i: 0 when no level is rounded (always so at
    # d = 1, which has no level below the last) and < d(d-1) otherwise;
    # the tighter constant
    # (d-1)^2 + (d-2)^2/4 sometimes quoted for this construction is NOT
    # met by it (d = 2, b = 2, mu = (10,0) loses 4/3 > 1), so the verified
    # guarantee uses the provable slack and the stated one is reported
    report = {
        "q_levels": qq,
        "in_Q": km.in_cone_q(m),
        "in_R": m.in_lattice(),
        # image constraint: g(q) dominated by mu (partial sums, equal total)
        "image_dominated": all(sum(g[:t]) <= sum(mu[:t]) for t in range(1, d))
        and sum(g) == sum(mu),
        "objective": km.dim_phi(m),
        "objective_provable_target": target - d * (d - 1),
        "objective_stated_target": target - (d - 1) ** 2 - Fraction((d - 2) ** 2, 4),
        "exact_when_integral": qp == qq,
    }
    report["meets_stated_constant"] = report["objective"] >= report["objective_stated_target"]
    report["ok"] = (report["in_Q"] and report["in_R"] and report["image_dominated"]
                    and (report["objective"] == target if report["exact_when_integral"]
                         else report["objective"] > report["objective_provable_target"]))
    return q, report


# ---------------------------------------------------------------------------
# the K(b) polytopes
# ---------------------------------------------------------------------------

def _fmt_row(row: IVec) -> list[str]:
    """The coordinates a/T of a homogeneous integer row (a_1, ..., a_d, T),
    T > 0, each in lowest terms as `fmt_frac` prints it."""
    *Y, T = row
    out = []
    for a in Y:
        g = gcd(a, T)
        out.append(str(a // g) if g == T else f"{a // g}/{T // g}")
    return out


class KTables(Frozen):
    """The vertex tables of K and K + C*, all integer rows.  A vertex y is
    kept as the primitive homogeneous row (Y, T), T > 0, with y = Y/T, and
    a ray of K as its primitive row; the Fraction coordinates are built
    only when `K_vertices` or `Kp_vertices` is read."""

    def __init__(self, instance: km.KisinInstance, K_rows: tuple[IVec, ...],
                 K_rays: tuple[IVec, ...], Kp_rows: tuple[IVec, ...]):
        self._store(locals())

    @property
    def K_vertices(self) -> tuple[Vec, ...]:
        return tuple(tuple(Fraction(a, r[-1]) for a in r[:-1]) for r in self.K_rows)

    @property
    def Kp_vertices(self) -> tuple[Vec, ...]:
        return tuple(tuple(Fraction(a, r[-1]) for a in r[:-1]) for r in self.Kp_rows)

    @property
    def counts(self) -> tuple[int, int]:
        return len(self.K_rows), len(self.Kp_rows)

    def _formatted(self) -> tuple[list[list[str]], list[list[str]]]:
        """The `_fmt_row` coordinates of the K rows and the K + C* rows, each
        K row formatted once (the K + C* rows are among them)."""
        K = [_fmt_row(r) for r in self.K_rows]
        by_row = dict(zip(self.K_rows, K))
        return K, [by_row[r] for r in self.Kp_rows]

    def to_json(self) -> str:
        import json

        K, Kp = self._formatted()
        return json.dumps({
            "d": self.instance.d, "b": self.instance.b,
            "K_vertex_count": len(self.K_rows),
            "K_plus_Cstar_vertex_count": len(self.Kp_rows),
            "K_vertices": K, "K_plus_Cstar_vertices": Kp,
        }, sort_keys=True)

    def coords_csv(self) -> str:
        d = self.instance.d
        lines = ["polytope," + ",".join(f"y{i}" for i in range(1, d + 1))]
        K, Kp = self._formatted()
        lines += ["K," + ",".join(c) for c in K]
        lines += ["K+C*," + ",".join(c) for c in Kp]
        return "\n".join(lines) + "\n"


def _kept_by_cover(d: int, covers: list[int], tight_masks) -> list[bool]:
    """For each vertex of K = K(b), given by the bitmask of the inequalities
    of K tight there (bit t < d-1: the t-th facet row of `reg_star_facets`;
    bit d-2+k: the chain row c_k), whether it is a vertex of K + C*.
    covers[t] has bit k-1 set at each k where facet row t is positive on
    v_k = e_k - e_{k+1}.  A coordinate k in 1..d-1 is covered by a tight
    facet row positive at k or by the tight chain row c_k, and the vertex
    is kept exactly when every k is covered.

    By the normal-fan criterion for Minkowski sums (Ziegler, *Lectures on
    Polytopes*, sec. 7), a vertex y of K is a vertex of K + cone(v_k)
    exactly when some nonnegative combination c of the inner normals tight
    at y and the equation normal (either sign) has <c, v_k> > 0 for every
    k, so the images (<a, v_k>)_k of the normals decide it.  Facet row t
    is positive on the generator g_sigma of Reg* and zero on the others,
    and v = (bJ + I) g / (b^2 - 1) with b^2 - 1 > 0 (b >= 2), so its image
    is >= 0 and positive exactly at k = sigma and k = d - sigma.  The
    chain images are the rows of the Cartan matrix A of type A_{d-1}, and
    the equation image is 0.
    (<=) Let U be the coordinates that no tight facet covers, each with
    its chain row tight.  Every run of consecutive indices of U gives a
    Cartan block with a positive inverse, so some x > 0 has A_U x = 1, and
    the tight facet images, added in large multiples, make every other
    coordinate positive.
    (=>) At an uncovered k whose chain row is not tight, every tight image
    is <= 0, so no c is positive at k.
    """
    full = (1 << (d - 1)) - 1
    out = []
    for mask in tight_masks:
        covered = mask >> (d - 1)
        for t, c in enumerate(covers):
            if mask >> t & 1:
                covered |= c
        out.append(covered == full)
    return out


def reg_star_facets(inst: km.KisinInstance) -> list[tuple[IVec, IVec]]:
    """The facet rows of Reg* = cone(g_j), g_j = b v_{d-j} - v_j, sorted,
    each with the one generator g_j it is positive on (zero on the others).

    Reg* lies in the plane sum y = 0, and its facet row j is d (P_j +
    b P_{d-j}) - (j + b (d-j)) (1, ..., 1), P_j the indicator vector of
    {1..j}: the fundamental weights w_j + b w_{d-j} (dual to the basis v_i
    of the plane), reduced mod the all-ones line, since (bJ - I)^-1 =
    (bJ + I)/(b^2 - 1) for the reversal J v_i = v_{d-i}.
    """
    d, b = inst.d, inst.b
    rows = [primitive_ints([d * ((i < j) + b * (i < d - j)) - j - b * (d - j)
                            for i in range(d)]) for j in range(1, d)]
    return sorted(zip(rows, km.regular_dual_generators(inst)))


def k_polytopes(inst: km.KisinInstance) -> KTables:
    """The vertices of K = (2 rho/(b+1) + Reg*) cap C and of K' = K + C*,
    as integer rows, and the rays of K, with no Fraction arithmetic.

    K is cut out by the facet rows a of Reg* (`reg_star_facets`), each
    shifted by its value at the apex 2 rho/(b+1) (which always survives
    into K' as a vertex), the plane sum y = 0 and the chain rows c_i of C.
    Its vertices come from one double description in the homogeneous rows
    (Y, T) of the points y = Y/T, where facet row a reads
    (b+1) <a, Y> >= <a, 2 rho> T.  The seed is the simplicial cone of the
    facet rows and T >= 0: its rays are the primitive (g_j, 0), in the
    order of the sorted facet rows, and the apex row (2 rho, b+1).  Only
    the d-1 chain rows (c_i, 0) are inserted.  A ray with T > 0 is a
    vertex, already its primitive integer row; one with T = 0 is a ray of
    K.  The inequalities of K tight at a vertex are read off its zero set
    (bit j < d-1: the facet row positive on the j-th generator; bit d-1:
    T = 0; bit d + i: the chain row c_i), and `_kept_by_cover`
    decides K + C* from them with no LP, with the cover of each facet row
    read off its integer entries.
    """
    d, b = inst.d, inst.b
    facets = reg_star_facets(inst)
    chain = km.chain_dual_generators(d)
    apex = primitive_ints((*two_rho(d), b + 1))
    seed = [primitive_ints((*g, 0)) for _, g in facets] + [apex]
    rays, zsets = double_description(seed, [(*c, 0) for c in chain])
    verts, K_rays = [], []
    low = (1 << (d - 1)) - 1
    for r, z in zip(rays, zsets):
        if r[d]:
            # the zero set without its T bit: bit t < d-1 is facet row t
            verts.append((r, z & low | z >> d << (d - 1)))
        else:
            K_rays.append(r[:d])
    # sorted as the rational vertices are, by an exact integer key
    L = lcm(*(r[d] for r, _ in verts))
    verts.sort(key=lambda v: [a * (L // v[0][d]) for a in v[0][:d]])
    # <a, v_k> = a_k - a_{k+1} for the chain generator v_k = e_k - e_{k+1}
    covers = [sum(1 << k for k in range(d - 1) if a[k] > a[k + 1]) for a, _ in facets]
    kept = _kept_by_cover(d, covers, [mask for _, mask in verts])
    K_rows = tuple(r for r, _ in verts)
    kp = tuple(r for r, keep in zip(K_rows, kept) if keep)
    if apex not in kp:
        raise AssertionError("the apex 2rho/(b+1) must be a vertex of K + C*")
    return KTables(inst, K_rows, tuple(sorted(K_rays)), kp)


TABLE2_VALIDITY = {2: 2, 3: 2, 4: 3, 5: 6}
