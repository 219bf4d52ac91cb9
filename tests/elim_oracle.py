"""Entry-by-entry elimination mod m: an independent oracle for the
packed-row ``talex.matrices._eliminated_det``.

Rows are lists of residues, and every update is one Python-level
``x + f * y`` per entry, so the slot widths and folds of the packed
kernel play no part here.
"""


def eliminated_det(rows, m):
    """det of a square matrix of residues mod m by Gaussian elimination.

    Every pivot is inverted with pow(x, -1, m), which raises ValueError
    for a non-unit, so the result is exact over Z/m for any m.  Rows
    shrink by their pivot column as the elimination proceeds, and the
    updates are reduced mod m only when a row becomes the pivot row."""
    rows = [list(row) for row in rows]
    det = 1
    n = len(rows)
    for k in range(n):
        for i in range(k, n):
            pivot = rows[i][0] % m
            if pivot:
                break
        else:
            return 0
        if i != k:
            rows[i], rows[k] = rows[k], rows[i]
            det = -det
        det = det * pivot % m
        scale = pow(-pivot, -1, m)
        tail = [y * scale % m for y in rows[k][1:]]
        for i in range(k + 1, n):
            row = rows[i]
            f = row[0] % m
            rows[i] = [x + f * y for x, y in zip(row[1:], tail)] if f else row[1:]
    return det % m
