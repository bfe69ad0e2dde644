"""Reference elimination: ``nagata.pde._echelon`` as it was before its
one-entry pivot path, kept as test_pde.py keeps the dense kernel oracle.
Every reduction cross-multiplies the row with the pivot row found at its
leading column and strips the content of the result; the package's
``_echelon`` must return the same pivot columns, and each pivot row equal
to this one's or to its negation.
"""

import math


def _strip_content(row):
    g = math.gcd(*row.values())
    return {c: v // g for c, v in row.items()} if g > 1 else row


def echelon(rows, steps=None, sizes=None):
    """The echelon form of ``rows``.  With a list ``steps``, the length of
    the pivot row that each reduction meets is appended to it; with a list
    ``sizes``, the largest absolute entry of each row it holds (each input
    row, and each cross-multiplied row before its content is divided out)."""
    pivots = {}
    for row in rows:
        if sizes is not None:
            sizes.append(max(map(abs, row.values()), default=0))
        while row:
            lead = min(row)
            pivot_row = pivots.get(lead)
            if pivot_row is None:
                pivots[lead] = _strip_content(row)
                break
            if steps is not None:
                steps.append(len(pivot_row))
            p, v = pivot_row[lead], row[lead]
            combined = {c: p * x for c, x in row.items()}
            for c, x in pivot_row.items():
                combined[c] = combined.get(c, 0) - v * x
            row = {c: x for c, x in combined.items() if x}
            if sizes is not None:
                sizes.append(max(map(abs, row.values()), default=0))
            row = _strip_content(row)
    return pivots
