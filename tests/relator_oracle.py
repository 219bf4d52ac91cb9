"""The 2-bridge relator built letter by letter: an oracle for
``talex.knots.presentation``.

W is assembled from ``epsilon_sequence`` as a ``FreeWord`` (which
reduces it) and the relator W x W^-1 y^-1 is formed with the free
product and inverse of ``FreeWord``, each of which cancels at the
joins.  The library builds the same codes in one pass as a trusted
tuple, relying on W being reduced and on no join cancelling; agreement
certifies that reliance.
"""

from talex.knots import epsilon_sequence
from talex.words import FreeWord


def relator(f):
    codes = [
        (1 if i % 2 == 0 else 2) * e for i, e in enumerate(epsilon_sequence(f))
    ]
    w = FreeWord(codes)
    return w * FreeWord((1,)) * w.inverse() * FreeWord((-2,))
