"""
Hankel determinants, computed twice
===================================

d_n = det(a(i+j)) for i, j < n decides everything: the orthogonal sequence
exists exactly when no d_n vanishes. The package computes d_n by fraction-free
elimination on the moment matrix and, separately, as a product of the
recurrence coefficients t_i. The two must match exactly.
"""

from qortho.momentfamilies import family
from qortho.orthocore import (
    QuasiDefinitenessError,
    hankel_direct,
    hankel_minors,
    hankel_product,
    orthopoly_det,
    stieltjes,
)

fam = family("q-double-factorial")
for n in range(5):
    direct = hankel_direct(fam.moments, n)
    via_t = hankel_product(fam.moments, n)
    print(f"d_{n} direct  =", direct)
    print(f"d_{n} product =", via_t, " match:", direct == via_t)

# A classic spot check: the factorial moments 1, 1, 2, 6, ... at q=1 have
# d_3 = 4, and the aerated Catalan moments have every d_n equal to 1.
factorial_at_one = family("q-factorial:m=0").specialized_moments(1)
print("factorial d_3 at q=1:", hankel_direct(factorial_at_one, 3))

# hankel_minors reads d_0, ..., d_n off one elimination.
catalan_like = family("fibonacci-functional").specialized_moments(1)
print("catalan-style d_n at q=1:",
      [str(d) for d in hankel_minors(catalan_like, 6)])

# Quasi-definiteness can fail at special points. The geometric family has
# moments q^binom(n,2), and at q=1 every moment is 1, so the 2x2 Hankel
# determinant is zero and no p_2 exists there.
geometric_at_one = family("geometric-q").specialized_moments(1)
print("geometric d_2 at q=1:", hankel_direct(geometric_at_one, 2))
try:
    orthopoly_det(geometric_at_one, 2)
except QuasiDefinitenessError as err:
    print("p_2 at q=1 ->", err, "(level", str(err.level) + ")")

# Symbolically there is no obstruction; the determinants are explicit
# monomial multiples of factorials and never identically zero.
table = stieltjes(family("geometric-q").moments, 5)
for n in range(5):
    print(f"symbolic norm L(p_{n}^2) =", table.norms[n])
