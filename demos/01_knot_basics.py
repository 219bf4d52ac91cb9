"""A tour of the 2-bridge layer: fractions, presentations, continued
fractions, and Alexander polynomials.

Run: python demos/01_knot_basics.py
"""

from talex import (
    TwoBridgeFraction,
    alexander,
    cf_eval,
    epsilon_sequence,
    hp_expansion,
    presentation,
)

print("=" * 64)
print("The trefoil is K(1/3): two bridges, one relator")
print("=" * 64)
trefoil = TwoBridgeFraction(3, 1)
pres = presentation(trefoil)
print("generators:", pres.gens)
print("relator:   ", pres.relators[0].to_text())
print("epsilons:  ", epsilon_sequence(trefoil))
print("Alexander: ", alexander(pres))

print()
print("=" * 64)
print("K(5/27): the epsilon pattern comes from floor(i*5/27)")
print("=" * 64)
k527 = TwoBridgeFraction(27, 5)
eps = epsilon_sequence(k527)
print("epsilons:", "".join("+" if e > 0 else "-" for e in eps))
delta = alexander(presentation(k527))
print("Alexander:", delta)
print("determinant |Delta(-1)| =", abs(delta.eval_int(-1)), "= alpha =", k527.alpha)

print()
print("=" * 64)
print("Membership in H(p): continued fractions alternating p*k and 2m")
print("=" * 64)
knots = [((27, 5), 3), ((85, 19), 5), ((115, 21), 5), ((329, 328), 7), ((9, 4), 3)]
for pair, p in knots:
    f = TwoBridgeFraction(*pair)
    cf = hp_expansion(f, p)
    if cf is not None:
        print(f"K({f}) in H({p}): {list(cf.entries)} ->", cf_eval(cf))
    else:
        print(f"K({f}): no H({p}) expansion in any Schubert form")
