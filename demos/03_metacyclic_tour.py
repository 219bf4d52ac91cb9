"""Metacyclic targets beyond the dihedral group: binary dihedral,
N(q,p) maximum-permutation modules, and K-metacyclic representations.

Run: python demos/03_metacyclic_tour.py
"""

from talex import (
    TwoBridgeFraction,
    binary_dihedral_total,
    kmeta_total,
    metacyclic_total,
    nqp_total,
    presentation,
    presentation_8_5,
)

k19 = TwoBridgeFraction(9, 1)

print("=" * 64)
print("Binary dihedral (q = 2): computed over Z[v]/(1+v+...+v^{p-1}),")
print("then v -> companion matrix; the +-i product identity is")
print("re-checked against the dihedral total on every call")
print("=" * 64)
print("K(1/9), p=3:", binary_dihedral_total(k19, 3))

print()
print("=" * 64)
print("N(q,p): the 2pq-dimensional permutation module, computed twice")
print("(directly, and through the product formula) and compared")
print("=" * 64)
for q, p in [(4, 3), (5, 3)]:
    total = nqp_total(k19, q, p)
    print(f"q={q}, p={p}: degree {total.degree}, exponents all multiples of {2*q}:",
          all(e % (2 * q) == 0 for e in total.support()))
    print("   ", total)

print()
print("the primitive-root product (the total of the 2n-dim metacyclic")
print("representation) for the same knot:")
print("q=4, p=3:", metacyclic_total(k19, 4, 3))

print()
print("=" * 64)
print("K-metacyclic: G(p-1, p | k) with k a primitive root mod p;")
print("Conjecture A recognizes the quotient as a polynomial in t^(p-1)")
print("=" * 64)
report = kmeta_total(presentation(TwoBridgeFraction(3, 1)), 7, -2)
print("trefoil, p=7, k=-2:")
print("  factor F:", report.factor, "| period:", report.period,
      "| Conjecture A:", report.conjecture_a_holds)

print()
print("the non-2-bridge knot 8_5 (3 generators, 2 relators):")
r5 = kmeta_total(presentation_8_5(), 7, -2)
print("  factor F:", r5.factor)
print("  Conjecture A:", r5.conjecture_a_holds)
