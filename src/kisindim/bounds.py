"""Duality layer and closed-form bounds.

The A-sets live in the target space of the constraint map (R^d for the
full map g, R^2 for the two-sided map f) and consist of the y whose lift
``sum_i y_i F_i - delta`` lands in the dual of the chosen cone variant.
Minimizing <alpha | y> over the relevant B-set evaluates the optimal-value
function, which is how every bound in this module is produced.

Everything refuses (typed `UnsupportedRegime`) outside the regime where
the identity it computes is actually proved: b0 = 1 + floor((d-1)^2/4) is
the threshold for the extremal-point and cone-equality statements.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import inf

from . import kisin_model as km
from . import perm as pm
from .polyhedra import (HPolyhedron, Vec, cone_generators, cone_hull, dot, dual_cone,
                        enumerate_vertices, fmt_frac, frac, in_cone, vec, vertices_of_sum)


class UnsupportedRegime(Exception):
    """Raised when an identity is requested outside its proven range of b."""


def two_rho(d: int) -> Vec:
    """(d-1, d-3, ..., 1-d): twice the half-sum vector."""
    return tuple(Fraction(d + 1 - 2 * i) for i in range(1, d + 1))


def f_T(inst: km.KisinInstance, T, y) -> Fraction:
    """The facet form of the A-set for Q_max at the subset T."""
    a, c = f_T_halfspace(inst, T)
    return dot(a, vec(y)) - c


def f_T_halfspace(inst: km.KisinInstance, T) -> tuple[Vec, Fraction]:
    """f_T(y) >= 0 written as <a, y> >= c."""
    d, b = inst.d, inst.b
    T = sorted(set(int(t) for t in T))
    s = len(T)
    a = [Fraction(0)] * d
    for i in range(1, s + 1):
        a[i - 1] += 1
    for t in T:
        a[d - t] -= b
    c = frac(s * (d - s)) - b * (sum(T) - Fraction(s * (s + 1), 2))
    return tuple(a), c


# ---------------------------------------------------------------------------
# dual descriptions of the cone variants and the A-sets
# ---------------------------------------------------------------------------

def _indicator(inst, cells) -> Vec:
    v = [Fraction(0)] * inst.dim_E
    for (i, j) in cells:
        v[inst.cell_index(i, j)] = Fraction(1)
    return tuple(v)


@lru_cache(maxsize=None)
def _q_rays(d: int, b: int):
    """Extreme rays and lines of the full cone Q (double description)."""
    inst = km.KisinInstance(d, b)
    Q = km.cone_q(inst)
    lines, rays = cone_generators([h.normal for h in Q.ineqs], [], inst.dim_E)
    return lines, rays


def _dual_hrep(inst: km.KisinInstance, variant):
    """(ineq_rows, eq_rows) in E such that z is in (variant cone)* iff
    <z, v> >= 0 for the ineq rows and <z, v> = 0 for the eq rows."""
    d = inst.d
    ones = _indicator(inst, inst.cells)
    if variant == "Qmin":
        rows = [tuple(-x for x in _indicator(inst, pm.admissible_level(d, s).cells))
                for s in range(1, d)]
        return rows, [ones]
    if variant == "Qmax":
        subsets = []
        for mask in range(1, 2 ** d - 1):
            T = {t for t in range(1, d + 1) if mask & (1 << (t - 1))}
            subsets.append(T)
        rows = [tuple(-x for x in _indicator(inst, pm.admissible_from_subset(d, T).cells))
                for T in subsets]
        return rows, [ones]
    if isinstance(variant, tuple) and variant[0] == "Qw":
        w = variant[1]
        rows = [tuple(-x for x in _indicator(inst, pm.level_set(w, s).cells))
                for s in range(1, d)]
        return rows, [ones]
    if variant == "Q":
        if inst.b < inst.b0:
            raise UnsupportedRegime(
                f"A-set for the full cone Q needs b >= b0 = {inst.b0}, got b = {inst.b}")
        lines, rays = _q_rays(inst.d, inst.b)
        return list(rays), list(lines)
    raise ValueError(f"unknown cone variant {variant!r}")


def _form_vectors(inst: km.KisinInstance, form: str) -> list[Vec]:
    if form == "g":
        return [km.mu_vec(inst, i) for i in range(1, inst.d + 1)]
    if form == "f":
        return [km.mu_vec(inst, 1), km.mu_vec(inst, inst.d)]
    raise ValueError(f"unknown constraint form {form!r}")


def a_set(inst: km.KisinInstance, variant, form: str = "g") -> HPolyhedron:
    """H-representation of A = {y : sum_i y_i F_i - delta in (variant)*}."""
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

    Also certifies the facet structure: f_T(rho_w) >= 0 for every proper
    subset with equality on the chain T_s(w), and strict positivity off the
    chain once b > b0.  (At b = b0 itself extra facets can meet a vertex:
    at d = 4, b = 3 some off-chain f_T vanish, though the vertex set is
    still exactly the rho_w family.)
    """
    if inst.b < inst.b0:
        raise UnsupportedRegime(
            f"extremal points of the Q_max A-set need b >= b0 = {inst.b0}")
    d = inst.d
    A = a_set(inst, "Qmax", "g")
    V = enumerate_vertices(A)
    out = {w: pm.rho_w(w, inst.b) for w in pm.all_permutations(d)}
    if set(V.vertices) != set(out.values()):
        raise AssertionError("vertex set differs from the rho_w family")
    # the map need not be injective near b0: at (d, b) = (4, 3) two
    # permutations share their vertex, though the vertex SET is still exact
    for w, v in out.items():
        chain = {frozenset(pm.w_star(w)(i) for i in range(1, s + 1)) for s in range(1, d)}
        for mask in range(1, 2 ** d - 1):
            T = frozenset(t for t in range(1, d + 1) if mask & (1 << (t - 1)))
            val = f_T(inst, T, v)
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

@dataclass(frozen=True)
class DualityData:
    """A cone variant, a constraint form, and target-space cones C and D.

    C and D are given by generator lists (rays; lines as +-pairs); D = None
    means the whole target space.
    """

    instance: km.KisinInstance
    variant: object = "Q"
    form: str = "g"
    C_gens: tuple[Vec, ...] = ()
    D_gens: tuple[Vec, ...] | None = None


def orthant_pm_gens() -> tuple[Vec, ...]:
    """Generators of R+ x R- in the plane."""
    return (vec((1, 0)), vec((0, -1)))


def chain_cone_gens(d: int) -> tuple[Vec, ...]:
    """Generators of {y_1 >= ... >= y_d}: prefix indicators plus the
    constants line (both signs)."""
    gens = []
    for k in range(1, d):
        gens.append(vec([1] * k + [0] * (d - k)))
    gens.append(vec([1] * d))
    gens.append(vec([-1] * d))
    return tuple(gens)


def b_value(dd: DualityData, y) -> Fraction | float:
    """The optimal-value function at y: min <alpha | y> over the finite
    vertices of B = (A cap C*) + D* when y lies in D cap (image(Q) + C),
    -inf otherwise, +inf when B is empty."""
    inst = dd.instance
    y = vec(y)
    F = _form_vectors(inst, dd.form)
    n = len(F)
    # membership: y in D
    if dd.D_gens is not None and not in_cone(list(dd.D_gens), y):
        return -inf
    # membership: y in image(Q) + C, via the cone hull of the generators
    lines, rays = _variant_generators(inst, dd.variant)
    image_gens = [tuple(dot(Fi, r) for Fi in F) for r in rays]
    image_gens += [tuple(dot(Fi, l) for Fi in F) for l in lines]
    image_gens += [tuple(-dot(Fi, l) for Fi in F) for l in lines]
    image_gens += [vec(c) for c in dd.C_gens]
    hull = cone_hull([g for g in image_gens if any(x != 0 for x in g)], [], n)
    if not hull.contains(y):
        return -inf
    A = a_set(inst, dd.variant, dd.form)
    if dd.C_gens:
        A = A.intersect(dual_cone(list(dd.C_gens), n))
    V = enumerate_vertices(A)
    if V.is_empty:
        return inf
    verts = V.vertices
    if dd.D_gens:
        # D* = cone(rays) + span(lines); y in D is orthogonal to the lines,
        # which therefore move no value, so only the rays filter vertices
        _, dual_D = cone_generators(list(dd.D_gens), [], n)
        verts = vertices_of_sum(A, verts, dual_D)
    return min(dot(v, y) for v in verts)


@lru_cache(maxsize=None)
def _variant_generators_cached(d: int, b: int, key):
    inst = km.KisinInstance(d, b)
    cone = {"Q": km.cone_q, "Qmax": km.cone_qmax, "Qmin": km.cone_qmin}[key](inst)
    return cone_generators([h.normal for h in cone.ineqs],
                           [h.normal for h in cone.eqs], inst.dim_E)


def _variant_generators(inst, variant):
    if isinstance(variant, tuple) and variant[0] == "Qw":
        cone = km.cone_qw(inst, variant[1])
        return cone_generators([h.normal for h in cone.ineqs], [], inst.dim_E)
    return _variant_generators_cached(inst.d, inst.b, variant)


# ---------------------------------------------------------------------------
# regularity and the minimum over permutations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegularityClass:
    mu: Vec
    b_regular: bool
    integrally_b_regular: bool
    strongly_integrally_b_regular: bool


def regularity(mu, inst: km.KisinInstance) -> RegularityClass:
    """The three nested regularity flags of a d-tuple."""
    mu = vec(mu)
    d, b = inst.d, inst.b
    if len(mu) != d:
        raise ValueError("mu must have d entries")
    breg = all(mu[i - 1] - mu[i] <= b * (mu[d - i - 1] - mu[d - i])
               for i in range(1, d))
    integrally = (breg and all(x.denominator == 1 for x in mu)
                  and sum(mu) % (b - 1) == 0)
    strongly = bool(integrally and (d < 2 or mu[d - 2] - mu[d - 1]
                                    <= b * (mu[0] - mu[1]) - d * (b * b - 1)))
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
    d, b = inst.d, inst.b
    ineqs = []
    eqs = []
    for t in range(1, d):
        a = [Fraction(-1)] * t + [Fraction(0)] * (d - t)
        ineqs.append((tuple(a), -sum(mu[:t])))  # partial sums <= those of mu
    eqs.append((vec([1] * d), sum(mu)))
    Reg = km.cone_regular(inst)
    for h in Reg.ineqs:
        ineqs.append((h.normal, h.offset))
    if strong:
        a = [Fraction(0)] * d
        if d >= 2:
            a[0] += b
            a[1] -= b
            a[d - 2] -= 1
            a[d - 1] += 1
            ineqs.append((tuple(a), frac(d * (b * b - 1))))
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
    divisible = sum(mu) % (b - 1) == 0
    if target == "mu":
        out = {
            "target": "mu", "params": {"mu": list(mu)},
            "empty": not divisible,
            "congruence_mod_b_minus_1": (-sum(i * m for i, m in enumerate(mu, 1))) % (b - 1),
            "lower": None,  # the generic lower bound's constants are not explicit
        }
        if inst.b < inst.b0:
            raise UnsupportedRegime(
                f"the minimum-over-permutations upper bound needs b >= b0 = {inst.b0}")
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
    assert total.denominator == 1
    qq = [-(-x.numerator // x.denominator) for x in qp[:-1]]  # ceil
    qq.append(int(total) - sum(qq))
    assert all(x <= y for x, y in zip(qq, qq[1:])), "rounded levels not nondecreasing"
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

@dataclass(frozen=True)
class KTables:
    instance: km.KisinInstance
    K: HPolyhedron
    K_vertices: tuple[Vec, ...]
    K_rays: tuple[Vec, ...]
    Kp_vertices: tuple[Vec, ...]

    @property
    def counts(self) -> tuple[int, int]:
        return len(self.K_vertices), len(self.Kp_vertices)

    def to_json(self) -> str:
        import json

        return json.dumps({
            "d": self.instance.d, "b": self.instance.b,
            "K_vertex_count": len(self.K_vertices),
            "K_plus_Cstar_vertex_count": len(self.Kp_vertices),
            "K_vertices": [[fmt_frac(x) for x in v] for v in self.K_vertices],
            "K_plus_Cstar_vertices": [[fmt_frac(x) for x in v] for v in self.Kp_vertices],
        }, sort_keys=True)

    def coords_csv(self) -> str:
        d = self.instance.d
        lines = ["polytope," + ",".join(f"y{i}" for i in range(1, d + 1))]
        for v in self.K_vertices:
            lines.append("K," + ",".join(fmt_frac(x) for x in v))
        for v in self.Kp_vertices:
            lines.append("K+C*," + ",".join(fmt_frac(x) for x in v))
        return "\n".join(lines) + "\n"


def k_polytopes(inst: km.KisinInstance) -> KTables:
    """K = (2 rho/(b+1) + Reg*) cap C and K' = K + C*, with exact vertices.

    The vertex 2 rho/(b+1) always survives into K'.
    """
    d, b = inst.d, inst.b
    apex = tuple(Fraction(x, b + 1) for x in two_rho(d))
    shifted = cone_hull(km.regular_dual_generators(inst), [], d).translate(apex)
    K = shifted.intersect(km.cone_chain(d))
    V = enumerate_vertices(K)
    kp = vertices_of_sum(K, V.vertices, km.chain_dual_generators(d))
    if apex not in kp:
        raise AssertionError("the apex 2rho/(b+1) must be a vertex of K + C*")
    return KTables(inst, K, V.vertices, V.rays, tuple(kp))


TABLE2_VALIDITY = {2: 2, 3: 2, 4: 3, 5: 6}
