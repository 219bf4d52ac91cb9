"""The main factorization: the total dihedral twisted polynomial of a
2-bridge knot in H(p) splits as F(t)F(-t), constructively.

The pipeline on display:
  Fox derivative -> 2x2 matrices over Z[omega][t] -> Wada quotient
  -> companion substitution omega -> C_n -> one integer determinant,
then the split-form extraction and the V_n square root of 4E + C_n
separate F(t) from F(-t), with the certificate checked exactly.

Run: python demos/02_dihedral_factorization.py
"""

from talex import (
    TwoBridgeFraction,
    alexander,
    dihedral_total,
    f_polynomial,
    presentation,
)
from talex.factorization import conjecture_report

knot = TwoBridgeFraction(85, 19)
p = 5

print("=" * 64)
print(f"K({knot}), p = {p}")
print("=" * 64)
print("Alexander polynomial:")
print("  ", alexander(presentation(knot)))

D = dihedral_total(knot, p)
print("total dihedral twisted polynomial D(t):")
print("  ", D)

cert = f_polynomial(knot, p)
print()
print("constructive factorization D = F(t) F(-t):")
print("  q (torus part)  =", cert.q)
print("  f (extra part)  =", cert.f)
print("  F = q*f, degree", cert.F.degree)
print("  certificate F(t)F(-t) == D:", cert.verify())

print()
report = conjecture_report(knot, p)
print("findings:")
print("  split route succeeded: ", report.split)
print("  H(p) membership:       ", report.hp)
print("  total mod-p congruence: ", report.modp)
print("  factor mod-p congruence:", report.modp_f)
print("  torus q(t) shape:       ", report.remark53)

print()
print("=" * 64)
print("Off the beaten track: K(4/9) has no H(3) expansion in any")
print("Schubert form, yet the factorization still certifies -- an")
print("empirical finding beyond the proven range.")
print("=" * 64)
other = conjecture_report(TwoBridgeFraction(9, 4), 3)
print("split:", other.split, "| hp:", other.hp, "| F =", other.F)
