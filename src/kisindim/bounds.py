"""Duality layer and closed-form bounds.

The A-sets live in the target space of the constraint map (R^d for the
full map g, R^2 for the two-sided map f) and consist of the y whose lift
``sum_i y_i F_i - delta`` lands in the dual of the chosen cone variant.
Minimizing <alpha | y> over the relevant B-set evaluates the optimal-value
function, which is how every bound in this module is produced.

Each cone variant is given once, by the generator rows of `_dual_hrep`:
they cut out its dual, and so the A-set (whose Q_max rows are the facet
forms f_T), and their images span the image that `b_value` tests.

Everything refuses (typed `UnsupportedRegime`) outside the regime where
the identity it computes is actually proved: b0 = 1 + floor((d-1)^2/4) is
the threshold for the extremal-point and cone-equality statements.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, inf, lcm

from . import kisin_model as km
from . import perm as pm
from .polyhedra import (Frozen, Halfspace, HPolyhedron, IVec, Vec, _idot, cone_generators,
                        dot, double_description, dual_cone, enumerate_vertices, frac, in_cone,
                        kept_in_sum, primitive_ints, vec)


class UnsupportedRegime(Exception):
    """Raised when an identity is requested outside its proven range of b."""


def two_rho(d: int) -> IVec:
    """(d-1, d-3, ..., 1-d): twice the half-sum vector."""
    return tuple(d + 1 - 2 * i for i in range(1, d + 1))


# ---------------------------------------------------------------------------
# dual descriptions of the cone variants and the A-sets
# ---------------------------------------------------------------------------

def _proper_subsets(d: int):
    """The nonempty proper subsets T of {1..d}, in the order of their bitmasks."""
    for mask in range(1, 2 ** d - 1):
        yield frozenset(t for t in range(1, d + 1) if mask & (1 << (t - 1)))


def _dual_hrep(inst: km.KisinInstance, variant):
    """(rows, eq_rows) in E: the variant cone is cone(rows) + span(eq_rows),
    so z is in its dual iff <z, r> >= 0 for the rows and <z, l> = 0 for the
    eq rows.

    Q_max and the graph cones Q_w (Q_min is Q_{w0}) are cut out by rows
    q_x >= q_y, the arcs x -> y of a graph on the cells.  So each is spanned
    by the all-ones line and the rays -1_J, J a nonempty proper cell set
    closed under the arcs: the admissible sets of the proper subsets T of
    {1..d} (in `_proper_subsets` order) for Q_max, the level sets I_s(w),
    s < d, for Q_w.  The rays of the full cone Q come from a double description."""
    d = inst.d
    if variant == "Q":
        lines, rays = _q_generators(d, inst.b)
        return rays, lines
    if variant == "Qmax":
        sets = [pm.admissible_from_subset(d, T) for T in _proper_subsets(d)]
    elif variant == "Qmin" or (isinstance(variant, tuple) and variant[0] == "Qw"):
        w = pm.w0(d) if variant == "Qmin" else variant[1]
        sets = [pm.level_set(w, s) for s in range(1, d)]
    else:
        raise ValueError(f"unknown cone variant {variant!r}")
    rows = [km._int_row(inst, ((-1, c) for c in adm.cells)) for adm in sets]
    return rows, [km._int_row(inst, ((1, c) for c in inst.cells))]


@lru_cache(maxsize=128)
def _q_generators(d: int, b: int):
    """The (lines, rays) of the full cone Q, by double description."""
    cone = km.cone_q(km.KisinInstance(d, b))
    return cone_generators([h.normal for h in cone.ineqs], [h.normal for h in cone.eqs], cone.dim)


def _form_vectors(inst: km.KisinInstance, form: str) -> list[Vec]:
    if form == "g":
        return [km.mu_vec(inst, i) for i in range(1, inst.d + 1)]
    if form == "f":
        return [km.mu_vec(inst, 1), km.mu_vec(inst, inst.d)]
    raise ValueError(f"unknown constraint form {form!r}")


def a_set(inst: km.KisinInstance, variant, form: str = "g") -> HPolyhedron:
    """H-representation of A = {y : sum_i y_i F_i - delta in (variant)*}, one
    row per row of `_dual_hrep` (in order, those with a zero image dropped).
    The A-set of the full cone Q is refused below b0."""
    if variant == "Q" and inst.b < inst.b0:
        raise UnsupportedRegime(
            f"A-set for the full cone Q needs b >= b0 = {inst.b0}, got b = {inst.b}")
    F = _form_vectors(inst, form)
    delta = km.delta_vec(inst)
    ineq_rows, eq_rows = _dual_hrep(inst, variant)
    n = len(F)
    ineqs = [(tuple(dot(Fi, v) for Fi in F), dot(delta, v)) for v in ineq_rows]
    eqs = [(tuple(dot(Fi, v) for Fi in F), dot(delta, v)) for v in eq_rows]
    ineqs = [(a, c) for a, c in ineqs if any(x != 0 for x in a)]
    return HPolyhedron.build(n, ineqs, eqs)


def extremal_points_a_qmax(inst: km.KisinInstance) -> dict[pm.Permutation, Vec]:
    """The vertex map w -> rho_w of the A-set for Q_max (needs b >= b0).

    Also certifies the facet structure on the A-set's inequalities, the
    forms f_T up to a positive factor, one per proper subset T in the order
    of `_proper_subsets`: f_T(rho_w) >= 0 with equality on the chain T_s(w),
    and strict positivity off the chain once b > b0.  (At b = b0 itself
    extra facets can meet a vertex: at d = 4, b = 3 some off-chain f_T
    vanish, though the vertex set is still exactly the rho_w family.)
    """
    if inst.b < inst.b0:
        raise UnsupportedRegime(
            f"extremal points of the Q_max A-set need b >= b0 = {inst.b0}")
    d = inst.d
    A = a_set(inst, "Qmax", "g")
    if len(A.ineqs) != 2 ** d - 2:
        raise AssertionError("the Q_max A-set needs one facet per proper subset")
    V = enumerate_vertices(A)
    out = {w: pm.rho_w(w, inst.b) for w in pm.all_permutations(d)}
    if set(V.vertices) != set(out.values()):
        raise AssertionError("vertex set differs from the rho_w family")
    # the map need not be injective near b0: at (d, b) = (4, 3) two
    # permutations share their vertex, though the vertex SET is still exact
    facets = list(zip(_proper_subsets(d), A.ineqs))
    for w, v in out.items():
        chain = {frozenset(pm.w_star(w)(i) for i in range(1, s + 1)) for s in range(1, d)}
        for T, h in facets:
            val = dot(h.normal, v) - h.offset
            if T in chain:
                if val != 0:
                    raise AssertionError(f"f_T nonzero on the chain of {w.images}: T={set(T)}")
            elif val < 0:
                raise AssertionError(f"f_T negative at a vertex: T={set(T)}")
            elif val == 0 and inst.b > inst.b0:
                raise AssertionError(f"f_T not strictly positive off the chain: T={set(T)}")
    return out


# ---------------------------------------------------------------------------
# optimal-value evaluators
# ---------------------------------------------------------------------------

class DualityData(Frozen):
    """A cone variant, a constraint form, and target-space cones C and D.

    C and D are given by generator lists (rays; lines as +-pairs); D = None
    means the whole target space.
    """

    def __init__(self, instance: km.KisinInstance, variant: object = "Q", form: str = "g",
                 C_gens: tuple[Vec, ...] = (), D_gens: tuple[Vec, ...] | None = None):
        self._store(locals())


def b_value(dd: DualityData, y) -> Fraction | float:
    """The optimal-value function at y: min <alpha | y> over the vertices of
    A cap C* when y lies in D cap (image(Q) + C), -inf otherwise, +inf when
    A cap C* is empty.  The image is spanned by the rows of `_dual_hrep`.

    This is the minimum over B = (A cap C*) + D* with no D* filter (weak
    LP duality).  For y = F(q) + c in D, q in Q, c in C, each ray r of
    A cap C* has <r, y> = <sum_i r_i F_i, q> + <r, c> >= 0, and each g in D*
    has <g, y> >= 0, so no direction of B lowers <., y>.
    """
    inst = dd.instance
    y = vec(y)
    F = _form_vectors(inst, dd.form)
    if dd.D_gens is not None and not in_cone(list(dd.D_gens), y):
        return -inf
    rays, lines = _dual_hrep(inst, dd.variant)
    image_gens = [tuple(dot(Fi, r) for Fi in F) for r in rays]
    image_gens += [tuple(s * dot(Fi, l) for Fi in F) for l in lines for s in (1, -1)]
    if not in_cone(image_gens + list(dd.C_gens), y):
        return -inf
    A = a_set(inst, dd.variant, dd.form)
    if dd.C_gens:
        A = A.intersect(dual_cone(list(dd.C_gens), len(F)))
    V = enumerate_vertices(A)
    if V.is_empty:
        return inf
    return min(dot(v, y) for v in V.vertices)


# ---------------------------------------------------------------------------
# regularity and the minimum over permutations
# ---------------------------------------------------------------------------

class RegularityClass(Frozen):
    def __init__(self, mu: Vec, b_regular: bool, integrally_b_regular: bool,
                 strongly_integrally_b_regular: bool):
        self._store(locals())


def strong_regularity(inst: km.KisinInstance) -> Halfspace:
    """mu_{d-1} - mu_d <= b (mu_1 - mu_2) - d (b^2 - 1) as an integer row
    (d >= 2)."""
    d, b = inst.d, inst.b
    a = [b, -b] + [0] * (d - 2)
    a[d - 2] -= 1
    a[d - 1] += 1
    return Halfspace(a, d * (b * b - 1))


def regularity(mu, inst: km.KisinInstance) -> RegularityClass:
    """The three nested regularity flags of a d-tuple."""
    mu = vec(mu)
    d, b = inst.d, inst.b
    if len(mu) != d:
        raise ValueError("mu must have d entries")
    breg = km.cone_regular(inst).contains(mu)
    integrally = (breg and all(x.denominator == 1 for x in mu)
                  and sum(mu) % (b - 1) == 0)
    strongly = integrally and (d < 2 or HPolyhedron(d, (strong_regularity(inst),)).contains(mu))
    return RegularityClass(mu, breg, integrally, strongly)


def min_over_permutations(mu, inst: km.KisinInstance):
    """min_w <rho_w | mu> over all of S_d, with the argmin set.

    This equals (b-1) times the minimum of the defining series.  For
    b-regular mu the minimum sits at w0 and equals <2 rho | mu>/(b+1).
    """
    mu = vec(mu)
    d, b = inst.d, inst.b
    best = None
    argmin = []
    for w in pm.all_permutations(d):
        v = dot(pm.rho_w(w, b), mu)
        if best is None or v < best:
            best, argmin = v, [w]
        elif v == best:
            argmin.append(w)
    if regularity(mu, inst).b_regular:
        expected = Fraction(dot(two_rho(d), mu), b + 1)
        if best != expected or pm.w0(d) not in argmin:
            raise AssertionError("regular minimum not attained at w0")
    return best, argmin


# ---------------------------------------------------------------------------
# theorem bounds
# ---------------------------------------------------------------------------

def dominance_polytope(mu, inst: km.KisinInstance, strong: bool) -> HPolyhedron:
    """{mu' : mu' dominated by mu} cap the (strong) regularity halfspaces."""
    mu = vec(mu)
    d = inst.d
    ineqs = []
    eqs = []
    for t in range(1, d):
        a = [Fraction(-1)] * t + [Fraction(0)] * (d - t)
        ineqs.append((tuple(a), -sum(mu[:t])))  # partial sums <= those of mu
    eqs.append((vec([1] * d), sum(mu)))
    Reg = km.cone_regular(inst)
    for h in Reg.ineqs:
        ineqs.append((h.normal, h.offset))
    if strong and d >= 2:
        h = strong_regularity(inst)
        ineqs.append((h.normal, h.offset))
    return HPolyhedron.build(d, ineqs, eqs)


def _sup_over(polytope: HPolyhedron, objective: Vec):
    V = enumerate_vertices(polytope)
    if V.is_empty:
        return None
    if any(dot(objective, r) > 0 for r in V.rays):
        return inf
    return max(dot(objective, v) for v in V.vertices)


def theorem_bounds(target: str, params, inst: km.KisinInstance) -> dict:
    """The closed-form lower/upper dimension bounds for one of the three
    variety families.  Values are exact rationals; bounds that are not
    theorems at this (d, b) are refused via UnsupportedRegime.

    target "le_e":  params = e.
    target "mu":    params = integer tuple mu (decreasing).
    target "le_mu": params = integer tuple mu (decreasing).
    """
    d, b = inst.d, inst.b
    eps = frac(inst.epsilon_slack)
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
            "upper": eps + Fraction(dot(two_rho(d), vec(mu)), b + 1),
        }
        sup = _sup_over(dominance_polytope(mu, inst, strong=True), two_rho(d))
        out["lower_sup_relaxed"] = True  # real LP; integrality of mu' relaxed
        out["lower"] = None if sup is None else \
            -frac((d - 1) ** 2) - Fraction((d - 2) ** 2, 4) + Fraction(sup, b + 1)
        if b >= 1 + max(d, (d - 1) ** 2 // 4):
            sup2 = _sup_over(dominance_polytope(mu, inst, strong=False), two_rho(d))
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
        "in_Q": km.cone_q(inst).contains(q.values),
        "in_R": q.in_lattice(),
        "mu_top_le_e": mu[(1, 1)] <= e,
        "mu_bottom_ge_0": mu[(1, d)] >= 0,
        "objective": km.dim_phi(q),
        "objective_target": quarter * n,
        "objective_lower_target": quarter * n_raw,
    }
    report["ok"] = (report["in_Q"] and report["in_R"] and report["mu_top_le_e"]
                    and report["mu_bottom_ge_0"]
                    and report["objective"] == report["objective_target"]
                    and report["objective"] >= report["objective_lower_target"])
    return q, report


def witness_le_mu(inst: km.KisinInstance, mu):
    """The rounded lattice point certifying the lower bound for the
    mu-dominated family; requires mu strongly integrally b-regular.

    q'_i = (mu_i + b mu_{d+1-i})/(b^2-1); q_i = ceil(q'_i) for i < d and the
    last one balances the (integral) total; the point is constant on bands.
    """
    mu = vec(mu)
    d, b = inst.d, inst.b
    reg = regularity(mu, inst)
    if not reg.strongly_integrally_b_regular:
        raise ValueError("mu must be strongly integrally b-regular")
    qp = [Fraction(mu[i - 1] + b * mu[d - i], b * b - 1) for i in range(1, d + 1)]
    total = sum(qp)
    if total.denominator != 1:
        raise AssertionError("the rounded levels need an integral total")
    qq = [-(-x.numerator // x.denominator) for x in qp[:-1]]  # ceil
    qq.append(int(total) - sum(qq))
    if any(x > y for x, y in zip(qq, qq[1:])):
        raise AssertionError("rounded levels not nondecreasing")
    q = km.QPoint(inst, {(i, j): frac(qq[d - 1 - (j - i)]) for (i, j) in inst.cells})
    g = [dot(km.mu_vec(inst, i), q.values) for i in range(1, d + 1)]
    target = Fraction(dot(two_rho(d), mu), b + 1)
    # the rounding errors eps_i = q_i - q'_i satisfy sum eps = 0 and
    # eps_i in [0,1) below the last level, so the objective loss is
    # 2 * sum (d-i) eps_i < d(d-1); the tighter constant
    # (d-1)^2 + (d-2)^2/4 sometimes quoted for this construction is NOT
    # met by it (d = 2, b = 2, mu = (10,0) loses 4/3 > 1), so the verified
    # guarantee uses the provable slack and the stated one is reported
    report = {
        "q_levels": qq,
        "in_Q": km.cone_q(inst).contains(q.values),
        "in_R": q.in_lattice(),
        # image constraint: g(q) dominated by mu (partial sums, equal total)
        "image_dominated": all(sum(g[:t]) <= sum(mu[:t]) for t in range(1, d))
        and sum(g) == sum(mu),
        "objective": km.dim_phi(q),
        "objective_provable_target": target - d * (d - 1),
        "objective_stated_target": target - frac((d - 1) ** 2) - Fraction((d - 2) ** 2, 4),
        "exact_when_integral": all(x == y for x, y in zip(qp, map(frac, qq))),
    }
    report["meets_stated_constant"] = report["objective"] >= report["objective_stated_target"]
    report["ok"] = (report["in_Q"] and report["in_R"] and report["image_dominated"]
                    and report["objective"] > report["objective_provable_target"])
    if report["exact_when_integral"]:
        report["ok"] = report["ok"] and report["objective"] == target
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
    """The vertex tables of K and K + C*.  A vertex y is kept as the
    primitive homogeneous integer row (Y, T), T > 0, with y = Y/T."""

    def __init__(self, instance: km.KisinInstance, K: HPolyhedron, K_rows: tuple[IVec, ...],
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

    def to_json(self) -> str:
        import json

        return json.dumps({
            "d": self.instance.d, "b": self.instance.b,
            "K_vertex_count": len(self.K_rows),
            "K_plus_Cstar_vertex_count": len(self.Kp_rows),
            "K_vertices": [_fmt_row(r) for r in self.K_rows],
            "K_plus_Cstar_vertices": [_fmt_row(r) for r in self.Kp_rows],
        }, sort_keys=True)

    def coords_csv(self) -> str:
        d = self.instance.d
        lines = ["polytope," + ",".join(f"y{i}" for i in range(1, d + 1))]
        lines += ["K," + ",".join(_fmt_row(r)) for r in self.K_rows]
        lines += ["K+C*," + ",".join(_fmt_row(r)) for r in self.Kp_rows]
        return "\n".join(lines) + "\n"


def k_polytopes(inst: km.KisinInstance) -> KTables:
    """K = (2 rho/(b+1) + Reg*) cap C and K' = K + C*, with exact vertices.

    Reg* = cone(g_j), g_j = b v_{d-j} - v_j, lies in the plane sum y = 0.
    Its facet rows, sorted, are d (P_j + b P_{d-j}) - (j + b (d-j)) (1, ...,
    1) for j = 1..d-1, P_j the indicator vector of {1..j}: the fundamental
    weights w_j + b w_{d-j} (dual to the basis v_i of the plane), reduced
    mod the all-ones line, since (bJ - I)^-1 = (bJ + I)/(b^2 - 1) for the
    reversal J v_i = v_{d-i}.  Row j is positive on g_j and zero on every
    other generator.  Each row is shifted by its value at the apex
    2 rho/(b+1), which always survives into K' as a vertex.

    The vertices come from one double description in the coordinates of
    the simplicial cone itself: x = (lambda_1..lambda_{d-1}, s) >= 0 maps
    to y = ((b+1) sum_j lambda_j g_j + 2 rho s) / ((b+1) s), with lambda
    in the order of the sorted facet rows.  The d unit rows are the seed,
    whose rays are the unit vectors, and only the d-1 chain rows
    c_i((b+1) G lambda + 2 rho s) >= 0 are inserted.  A ray with s > 0 is
    a vertex, kept as the primitive integer row (Y, T) of its image; one
    with s = 0 is a ray of K.  The inequalities of K tight at a vertex are
    read off its zero set (bit j < d-1: the facet row that is zero on the
    j-th generator, lambda_j = 0; bit d-1: s = 0; bit d + i: the chain row
    c_i), and `kept_in_sum` decides K + C* from them.
    """
    d, b = inst.d, inst.b
    rho2 = two_rho(d)
    rows = [primitive_ints([d * ((i < j) + b * (i < d - j)) - j - b * (d - j)
                            for i in range(d)]) for j in range(1, d)]
    order = sorted(range(d - 1), key=rows.__getitem__)
    K = HPolyhedron.build(d, [(rows[j], dot(rows[j], rho2) / (b + 1)) for j in order],
                          [((1,) * d, 0)]).intersect(km.cone_chain(d))
    gens = km.regular_dual_generators(inst)
    gens = [[(b + 1) * x for x in gens[j]] for j in order]
    # (Y, T) = M x: the rows of M are the coordinates of y, then T
    M = [tuple(g[i] for g in gens) + (rho2[i],) for i in range(d)] + [(0,) * (d - 1) + (b + 1,)]
    chain = km.chain_dual_generators(d)
    seed = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    # the chain rows <c_i, Y> >= 0 in x-coordinates
    rays, zsets = double_description(seed, [[_idot(c, m) for m in zip(*M[:d])]
                                              for c in chain])
    verts, K_rays = [], []
    low = (1 << (d - 1)) - 1
    for x, z in zip(rays, zsets):
        image = [_idot(m, x) for m in M]
        g = gcd(*image)
        image = tuple(a // g for a in image)
        if image[d]:
            # the zero set without its s bit: bit i is K.ineqs[i]
            verts.append((image, z & low | z >> d << (d - 1)))
        else:
            K_rays.append(image[:d])
    # sorted as the rational vertices are, by an exact integer key
    L = lcm(*(r[d] for r, _ in verts))
    verts.sort(key=lambda v: [a * (L // v[0][d]) for a in v[0][:d]])
    kept = kept_in_sum(K, chain, [mask for _, mask in verts])
    K_rows = tuple(r for r, _ in verts)
    kp = tuple(r for r, keep in zip(K_rows, kept) if keep)
    if primitive_ints((*rho2, b + 1)) not in kp:
        raise AssertionError("the apex 2rho/(b+1) must be a vertex of K + C*")
    return KTables(inst, K, K_rows, tuple(sorted(K_rays)), kp)


TABLE2_VALIDITY = {2: 2, 3: 2, 4: 3, 5: 6}
