"""Permutation combinatorics and the piecewise-affine profiles.

Records and the losers' permutation drive the triangular ord tableaux; the
profile functions phi_i/psi_j are what a coordinate point actually encodes,
and the rank-2 lattice family has fully closed-form profiles.
"""

from fractions import Fraction as F

from kisindim.kisin_model import (KisinInstance, QPoint, d2_lattice_invariants,
                                  mu_from_q, phi_from_q, read_back_q)
from kisindim.perm import (Permutation, hasse_dot, losers_permutation,
                           maximal_elements, ord_tableau, records)

w = Permutation((3, 2, 4, 5, 1))
print("w =", w.label())
print("records:", [v for v, _ in records(w)])
print("losers' permutation:", losers_permutation(w).label())
tab = ord_tableau(w)
print("ord tableau rows:")
for i in range(1, 6):
    print("  ", tab.row(i))

print("\nmaximal elements of the order on S_4:",
      sorted(m.label() for m in maximal_elements(4)))
print("DOT export has one node per permutation; head of the file:")
print("\n".join(hasse_dot(3).splitlines()[:5]), "...")

# a lattice point of the cone and the functions it encodes
inst = KisinInstance(2, 2)
q = QPoint(inst, (2, 1, 2))
p = phi_from_q(q)
print("\nprofile of q = (2, 1, 2):")
for x in (0, 1, F(3, 2), 2, 3):
    print(f"  phi_1({x}) = {p.phi(1, x)}   phi_2({x}) = {p.phi(2, x)}")
print("breakpoints recover the point:", read_back_q(p) == q)
print("divisor row:", [int(mu_from_q(q)[(1, j)]) for j in (1, 2)])

# the closed-form rank-2 family
data = d2_lattice_invariants(alpha=2, gamma=0, delta=1, b=2)
print(f"\nrank-2 lattice with (alpha, gamma, delta) = (2, 0, 1), b = 2:")
print(f"  elementary-divisor exponents: mu1 = {data.mu1}, mu2 = {data.mu2}")
print(f"  phi_1 jumps slope-intercept at v = 5/2: "
      f"{data.profile.phi(1, F(2))} -> {data.profile.phi(1, F(5, 2))}")
