"""Exact oracles, the cones they are run on, a Fraction counter and the
package's lru caches, shared by the test modules."""

import importlib
import pkgutil
import sys
from fractions import Fraction
from math import inf, lcm

import kisindim
from kisindim import kisin_model as km
from kisindim.bounds import reg_star_facets, strong_regularity, two_rho
from kisindim.kisin_model import cone_chain
from kisindim.perm import all_permutations
from kisindim.polyhedra import (HPolyhedron, IVec, Vec, VPolyhedron, _echelon, _idot,
                                cone_generators, dot, dual_cone, enumerate_vertices, fmt_frac,
                                in_cone, primitive_ints, vec)


def cone_hull(rays: list[Vec], lines: list[Vec], n: int) -> HPolyhedron:
    """Minimal H-representation of cone(rays) + span(lines)."""
    dlines, drays = cone_generators(rays, lines, n)
    return HPolyhedron.build(n, [(r, 0) for r in drays], [(l, 0) for l in dlines])


def v_to_h(V: VPolyhedron) -> HPolyhedron:
    """H-representation of a nonempty V-polyhedron."""
    if V.is_empty:
        raise ValueError("cannot convert the empty polyhedron to halfspaces")
    n = V.dim
    gens = [(*v, 1) for v in V.vertices] + [(*r, 0) for r in V.rays]
    H = cone_hull(gens, [(*l, 0) for l in V.lines], n + 1)
    ineqs = []
    eqs = []
    for h in H.ineqs:
        a, a0 = h.normal[:n], h.normal[n]
        if not any(a):
            continue  # the trivial t >= 0 facet
        ineqs.append((a, -a0))
    for h in H.eqs:
        a, a0 = h.normal[:n], h.normal[n]
        if not any(a):
            if a0 != 0:
                raise AssertionError("inconsistent homogenization")
            continue
        eqs.append((a, -a0))
    return HPolyhedron.build(n, ineqs, eqs)


def cone_regular(inst: km.KisinInstance) -> HPolyhedron:
    """Reg = {mu : mu_i - mu_{i+1} <= b (mu_{d-i} - mu_{d-i+1}) for all i},
    the dual of Reg*."""
    return dual_cone(km.regular_dual_generators(inst), inst.d)


def polyhedra_set_equal(P: HPolyhedron, Q: HPolyhedron) -> bool:
    """Exact set equality via mutual containment of V-representations."""
    VP, VQ = enumerate_vertices(P), enumerate_vertices(Q)
    return _v_inside_h(VP, Q) and _v_inside_h(VQ, P)


def _v_inside_h(V: VPolyhedron, H: HPolyhedron) -> bool:
    if V.is_empty:
        return enumerate_vertices(H).is_empty
    return (all(H.contains(v) for v in V.vertices)
            and all(H.contains_ray(r) for r in V.rays)
            and all(H.contains_ray(l) and H.contains_ray(tuple(-a for a in l)) for l in V.lines))


def minkowski_sum_cone(P: HPolyhedron | VPolyhedron, cone_gens) -> HPolyhedron:
    """H-representation of P + cone(cone_gens), by the double description
    of the sum's vertices and rays."""
    V = P if isinstance(P, VPolyhedron) else enumerate_vertices(P)
    if V.is_empty:
        raise ValueError("Minkowski sum with the empty polyhedron")
    gens = [g for g in map(primitive_ints, cone_gens) if any(g)]
    return v_to_h(VPolyhedron(V.dim, V.vertices, tuple(sorted(set(list(V.rays) + gens))), V.lines))


def rank(rows, n: int) -> int:
    return len(_echelon(rows, n)[1])


def _sign_certificate(tight: list[IVec], eq_images: list[IVec], k: int) -> bool | None:
    """The certificates of `kept_in_sum` on the integer images in Z^k
    of the tight rows and the equations: False for a reject, True for an
    accept, None when neither is found.  The accepting combination starts
    from the sum of the tight images and, for at most 3k rounds, lifts the
    first coordinate that is still <= 0 to 1 with copies of the tight image
    largest there."""
    for j in range(k):
        if all(t[j] <= 0 for t in tight) and not any(e[j] for e in eq_images):
            return False
    if not tight:
        return None
    s = [sum(col) for col in zip(*tight)]
    for _ in range(3 * k):
        j = next((j for j in range(k) if s[j] <= 0), None)
        if j is None:
            return True
        t = max(tight, key=lambda t: t[j])
        if t[j] <= 0:
            return None
        m = -s[j] // t[j] + 1
        s = [x + m * y for x, y in zip(s, t)]
    return None if any(x <= 0 for x in s) else True


def kept_in_sum(P: HPolyhedron, gens, tight_masks) -> list[bool]:
    """For each vertex v of P, given by the bitmask of the inequalities of
    P tight at v (bit i for P.ineqs[i]), whether v is a vertex of
    P + cone(gens).

    Every vertex of the sum is a vertex of P, and by the normal-fan
    criterion for Minkowski sums (Ziegler, *Lectures on Polytopes*, sec. 7)
    a vertex v of P is one exactly when some c in the normal cone N of P at
    v has <c, g> > 0 for every generator g.  If c exposes v in the sum, it
    lies in N and is positive on every g.  Conversely, the set
    {c : <c, g> > 0 for all g} is open and N is full-dimensional at a
    vertex, so the set also meets the interior of N; such a c is minimised
    over P at v alone, and over the sum too.

    N is generated by the normals of the inequalities tight at v plus the
    equation normals with both signs, so the question lives on their
    integer images (<a, g>)_g in Z^|gens|.  Two certificates settle it
    first.  Reject: in some coordinate j every tight image is <= 0 and
    every equation image is 0, so <c, g_j> <= 0 on all of N; the equation
    images must be 0, not just <= 0, since they enter N with both signs.
    Accept: a nonnegative integer combination of the tight images is
    positive everywhere, and it is (<c, g>)_g for a c in N.  Only when
    neither is found does one exact LP decide (`in_cone`): is (1, ..., 1)
    a nonnegative combination of the tight images, the equation images
    with both signs and the slacks -e_k?  The recession cone of P is part
    of its H-representation and needs no separate care.  Rows and images
    are integers, so the certificates and the LP are exact.
    """
    gens = [g for g in map(primitive_ints, gens) if any(g)]
    k = len(gens)
    images = [tuple(_idot(h.normal, g) for g in gens) for h in P.ineqs]
    eq_images = [tuple(_idot(h.normal, g) for g in gens) for h in P.eqs]
    cone_gens = eq_images + [tuple(-x for x in e) for e in eq_images]
    cone_gens += [tuple(-int(i == j) for j in range(k)) for i in range(k)]
    out = []
    for mask in tight_masks:
        tight = [image for i, image in enumerate(images) if mask >> i & 1]
        keep = _sign_certificate(tight, eq_images, k)
        out.append(in_cone(tight + cone_gens, (1,) * k) if keep is None else keep)
    return out


def vertices_of_sum(P: HPolyhedron, vertices, gens) -> list:
    """The vertices of P + cone(gens), given the vertices of P, in the
    order given: the inequalities tight at each vertex are found by integer
    dots, and `kept_in_sum` decides the vertex from them."""
    n = P.dim
    if rank([h.normal for h in P.halfspaces], n) < n:
        raise ValueError("summand with lines has no vertices")
    rows = [h.normal + (-h.offset,) for h in P.ineqs]
    masks = []
    for v in vertices:
        # v scaled by L, the lcm of its denominators, and homogenized
        L = lcm(*(x.denominator for x in v))
        hv = [x.numerator * (L // x.denominator) for x in v] + [L]
        masks.append(sum(1 << i for i, a in enumerate(rows) if _idot(a, hv) == 0))
    return [v for v, keep in zip(vertices, kept_in_sum(P, gens, masks)) if keep]


def k_hrep(inst) -> HPolyhedron:
    """The H-representation of K(b) that `bounds.k_polytopes` enumerates in
    (Y, T) rows: the facet rows of Reg*, in the order of `reg_star_facets`,
    each shifted to the apex 2 rho/(b+1), the plane sum y = 0, and the
    chain rows of C."""
    d, b = inst.d, inst.b
    rho2 = two_rho(d)
    return HPolyhedron.build(
        d, [(a, Fraction(_idot(a, rho2), b + 1)) for a, _ in reg_star_facets(inst)],
        [((1,) * d, 0)]).intersect(cone_chain(d))


def f_T_halfspace(inst, T) -> tuple[tuple[Fraction, ...], Fraction]:
    """The paper's facet form f_T(y) >= 0 of the Q_max A-set at the proper
    subset T of {1..d}, in closed form, written as <a, y> >= c."""
    d, b = inst.d, inst.b
    T = sorted(set(int(t) for t in T))
    s = len(T)
    a = [Fraction(0)] * d
    for i in range(1, s + 1):
        a[i - 1] += 1
    for t in T:
        a[d - t] -= b
    c = Fraction(s * (d - s)) - b * (sum(T) - Fraction(s * (s + 1), 2))
    return tuple(a), c


def chain_cone_gens(d):
    """Generators of {y_1 >= ... >= y_d}: prefix indicators plus the
    constants line (both signs)."""
    prefixes = [vec([1] * k + [0] * (d - k)) for k in range(1, d)]
    return tuple(prefixes + [vec([1] * d), vec([-1] * d)])


# ---------------------------------------------------------------------------
# the dominance sup by the general vertex route
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
    Reg = cone_regular(inst)
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


def dominated_sup(mu, inst: km.KisinInstance, strong: bool):
    """sup <2 rho | mu'> over the dominance polytope, by its vertices."""
    return _sup_over(dominance_polytope(mu, inst, strong), two_rho(inst.d))


# ---------------------------------------------------------------------------
# the triangle kernel and the JSON encoder by the Fraction route
# ---------------------------------------------------------------------------

def apply_terms(x, terms, scale: int) -> list[Fraction]:
    """For each cell (i, j), the sum of c * x[cell] over the (coefficient,
    cell) terms(inst, i, j), divided by scale, walking the term generators
    cell by cell in Fractions: mu_from_q is apply_terms(q,
    km._mu_cell_terms, 1) and q_from_mu is apply_terms(m, km._q_cell_terms,
    b(b-1))."""
    inst = x.instance
    return [sum((c * x[cell] for c, cell in terms(inst, i, j)), Fraction(0)) / scale
            for (i, j) in inst.cells]


def dim_phi_fraction(x) -> Fraction:
    """dim(phi) by both Fraction forms: the mu-form on mu_from_q(x) (or x)
    and the q-form, the dot with delta_vec, on q_from_mu(x) (or x)."""
    inst = x.instance
    d = inst.d
    if isinstance(x, km.QPoint):
        q = x.values
        m = apply_terms(x, km._mu_cell_terms, 1)
    else:
        m = x.values
        q = apply_terms(x, km._q_cell_terms, inst.b * (inst.b - 1))
    mu_form = (sum((d - j) * v for j, v in enumerate(m[:d], 1))
               - sum(m[d:], Fraction(0)))
    if mu_form != dot(km.delta_vec(inst), q):
        raise AssertionError("dimension functional mismatch between coordinates")
    return mu_form


def encode(obj):
    """A payload with every Fraction replaced by its "p/q" string and every
    tuple by a list, walked before json.dumps sees it."""
    if isinstance(obj, Fraction):
        return fmt_frac(obj)
    if isinstance(obj, dict):
        return {k: encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [encode(v) for v in obj]
    return obj


# ---------------------------------------------------------------------------
# the search's top-row bound by an exact LP
# ---------------------------------------------------------------------------

def top_bound_lp(d: int, b: int, divisor: int | None = None) -> bool:
    """The top-row bound by an exact LP (Farkas' lemma): is
    <2 rho | top> - divisor * dim (divisor b+1 unless given), read off the
    search's code on unit triangles, a nonnegative combination of the rows
    of its real relaxation, km._mu_system_rows?  The reference for
    solver._top_bound_certified, which checks one known combination."""
    divisor = b + 1 if divisor is None else divisor
    target = [_idot(two_rho(d), r[0]) - divisor * km._dim_form(r, d)
              for r in km._unit_triangles(d)]
    return in_cone(km._mu_system_rows(d, b), target)


# ---------------------------------------------------------------------------
# the witness reports by the Fraction route
# ---------------------------------------------------------------------------

def witness_le_e_report(inst: km.KisinInstance, e: int, q: km.QPoint) -> dict:
    """The report of bounds.witness_le_e on its point q, re-derived in
    Fractions: membership by the H-polyhedron cone_q, the top row of mu by
    dots with mu_cell_vector and the objective by the q-form of dim(phi)."""
    d, b = inst.d, inst.b
    n_raw = (e - b + 2) // (b + 1)
    n = max(0, n_raw)
    quarter = d * d // 4
    top = [dot(km.mu_cell_vector(inst, 1, j), q.values) for j in range(1, d + 1)]
    report = {
        "n_raw": n_raw, "n": n, "m": (-n) % (b - 1),
        "in_Q": km.cone_q(inst).contains(q.values),
        "in_R": q.in_lattice(),
        "mu_top_le_e": top[0] <= e,
        "mu_bottom_ge_0": top[-1] >= 0,
        "objective": dot(km.delta_vec(inst), q.values),
        "objective_target": quarter * n,
        "objective_lower_target": quarter * n_raw,
    }
    report["ok"] = (report["in_Q"] and report["in_R"] and report["mu_top_le_e"]
                    and report["mu_bottom_ge_0"]
                    and report["objective"] == report["objective_target"]
                    and report["objective"] >= report["objective_lower_target"])
    return report


def witness_le_mu_report(inst: km.KisinInstance, mu, q: km.QPoint) -> dict:
    """The report of bounds.witness_le_mu on its point q, re-derived in
    Fractions as in witness_le_e_report, with g(q) the dots with the
    top-row vectors and each level rounded up by floor division."""
    mu = vec(mu)
    d, b = inst.d, inst.b
    qp = [Fraction(mu[i - 1] + b * mu[d - i], b * b - 1) for i in range(1, d + 1)]
    qq = [-(-x.numerator // x.denominator) for x in qp[:-1]]
    qq.append(int(sum(qp)) - sum(qq))
    g = [dot(km.mu_cell_vector(inst, 1, i), q.values) for i in range(1, d + 1)]
    target = Fraction(dot(two_rho(d), mu), b + 1)
    report = {
        "q_levels": qq,
        "in_Q": km.cone_q(inst).contains(q.values),
        "in_R": q.in_lattice(),
        "image_dominated": all(sum(g[:t]) <= sum(mu[:t]) for t in range(1, d))
        and sum(g) == sum(mu),
        "objective": dot(km.delta_vec(inst), q.values),
        "objective_provable_target": target - d * (d - 1),
        "objective_stated_target": target - (d - 1) ** 2 - Fraction((d - 2) ** 2, 4),
        "exact_when_integral": all(x == y for x, y in zip(qp, qq)),
    }
    report["meets_stated_constant"] = report["objective"] >= report["objective_stated_target"]
    # the rounding loss is 0 with no level rounded (always at d = 1) and
    # below d(d-1) otherwise
    report["ok"] = (report["in_Q"] and report["in_R"] and report["image_dominated"]
                    and (report["objective"] == target if report["exact_when_integral"]
                         else report["objective"] > report["objective_provable_target"]))
    return report


# ---------------------------------------------------------------------------
# the permutation layer on Fractions and on pairs of permutations
# ---------------------------------------------------------------------------

def rho_w_fraction(w, b: int):
    """rho_w in Fractions, summed in closed form over each cycle of w:
    coordinate i is (d+1-i) - (b-1) s / (b^L - 1), with L the length of
    i's cycle and s = sum_{n=1..L} w^n(i) b^{L-n}."""
    d = w.d
    out = [Fraction(0)] * d
    for cyc in w.cycles():
        L = len(cyc)
        for i in cyc:
            s = 0
            j = i
            for n in range(1, L + 1):
                j = w(j)
                s += j * b ** (L - n)
            out[i - 1] = Fraction(d + 1 - i) - Fraction((b - 1) * s, b ** L - 1)
    return tuple(out)


def min_over_permutations_fraction(mu, b: int):
    """min_w <rho_w | mu> over S_d by Fraction dots, with the argmin in the
    order of all_permutations."""
    best, argmin = None, []
    for w in all_permutations(len(mu)):
        v = sum((x * m for x, m in zip(rho_w_fraction(w, b), mu)), Fraction(0))
        if best is None or v < best:
            best, argmin = v, [w]
        elif v == best:
            argmin.append(w)
    return best, argmin


def _prefix_sum_sequence(w, s: int, length: int) -> list[int]:
    """(sum_{i<=s} w^n(i)) for n = 1..length."""
    cur = list(range(1, w.d + 1))
    out = []
    for _ in range(length):
        cur = [w(x) for x in cur]
        out.append(sum(cur[:s]))
    return out


def precedes_pairwise(w1, w2) -> bool:
    """w1 <= w2 in the order on S_d, comparing the prefix-sum sequences up
    to n = lcm of the two permutation orders."""
    n = lcm(w1.order(), w2.order())
    return all(_prefix_sum_sequence(w1, s, n) <= _prefix_sum_sequence(w2, s, n)
               for s in range(1, w1.d))


def hasse_diagram_pairwise(d: int) -> list:
    """The covers (lower, upper) of the order on S_d, from the strict
    relation on every ordered pair and a second pass over the pairs."""
    perms = list(all_permutations(d))
    less = {a: {c for c in perms if a != c and precedes_pairwise(a, c)} for a in perms}
    return [(a, c) for a in perms for c in less[a]
            if not any(c in less[m] for m in less[a] if m != c)]


def fraction_constructions(fn) -> int:
    """The number of Fraction.__new__ calls made while fn() runs."""
    calls = 0
    code = Fraction.__new__.__code__

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is code:
            calls += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def lru_caches():
    """(qualified name, function) for every lru_cache of the package."""
    for info in pkgutil.iter_modules(kisindim.__path__):
        module = importlib.import_module(f"kisindim.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_parameters") and obj.__module__ == module.__name__:
                yield f"{module.__name__}.{name}", obj


def clear_caches():
    for _, fn in lru_caches():
        fn.cache_clear()
