"""The duality layer: A-sets, their extremal points, and the bounds.

Optimizing the dimension functional over a cone dualizes to minimizing
<alpha | y> over an A-set; the extremal alpha are twisted half-sum vectors
rho_w, one per permutation, and the closed-form bounds are their values.
"""

from fractions import Fraction as F

from kisindim.bounds import (extremal_points_a_qmax, min_over_permutations, regularity,
                             theorem_bounds, two_rho, witness_le_e,
                             witness_le_mu)
from kisindim.kisin_model import KisinInstance, mu_from_q
from kisindim.perm import w0
from kisindim.polyhedra import dot, fmt_frac

inst = KisinInstance(3, 5)
pts = extremal_points_a_qmax(inst)
print("extremal points of the Q_max A-set, d=3 b=5 (one per permutation):")
for w, v in sorted(pts.items(), key=lambda kv: kv[0].images):
    print(f"  {w.label()}: (" + ", ".join(fmt_frac(x) for x in v) + ")")

# on regular tuples the minimum sits at the order-reversing permutation
mu = (F(9), F(5), F(1))
val, argmin = min_over_permutations(mu, inst)
print(f"\nmin <rho_w | mu> over S_3 at mu=(9,5,1): {fmt_frac(val)}"
      f" attained at {[w.label() for w in argmin]}")
print("  equals <2 rho | mu>/(b+1):",
      val == F(dot(two_rho(3), mu), 6), "| w0:", w0(3).label())

# closed-form sandwich for the e-bounded family
inst2 = KisinInstance(2, 2)
tb = theorem_bounds("le_e", 3, inst2)
print(f"\nbounds for d=2 b=2 e=3: lower={tb['lower']} upper={fmt_frac(tb['upper'])}")

# and the witness that certifies the lower bound, rebuilt and re-verified
q, report = witness_le_e(inst2, 3)
print("witness point q:", {c: fmt_frac(q[c]) for c in inst2.cells})
print("  top divisor row:", [fmt_frac(mu_from_q(q)[(1, j)]) for j in (1, 2)])
print("  all postconditions hold:", report["ok"])

# the dominance-family witness needs strong regularity
mu = (F(12), F(5), F(0))
q, report = witness_le_mu(KisinInstance(3, 2), mu)
print(f"\ndominance witness at mu=(12,5,0), b=2: objective={fmt_frac(report['objective'])}"
      f" >= {fmt_frac(report['objective_provable_target'])}: {report['ok']}")

# the dominance-bounded family: the sups over the real mu' dominated by mu
# come from one double description in root coordinates; mu itself need
# not be regular
mu = (30, 2, 0)
tb = theorem_bounds("le_mu", mu, inst)
print(f"\nle_mu bounds at mu=(30,2,0), d=3 b=5 (regular: {regularity(mu, inst).b_regular}):"
      f" upper {fmt_frac(tb['upper'])}, lower {fmt_frac(tb['lower'])},"
      f" upper_strong {fmt_frac(tb['upper_strong'])}")
