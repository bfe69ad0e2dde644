"""Homogeneous polynomial solutions of -2*y*phi_x + z*phi_y = 0.

Two independent routes to the degree-d solution space:

* ``solution_basis`` enumerates the closed-form basis
  (x*z + y^2)^k1 * z^k2 over 2*k1 + k2 = d, which spans the space because
  every solution is a polynomial in x*z + y^2 and z.
* ``kernel_oracle`` knows nothing about that structure: it assembles the
  exact linear map taking the coefficient vector of a generic homogeneous
  degree-d polynomial to the coefficient vector of its residual, and
  computes a kernel basis of it by fraction-free Gaussian elimination,
  one block at a time.  The blocks come from the map, not from its
  kernel: D = -2*y*d/dx + z*d/dy lowers the weight 2a + b of
  x^a*y^b*z^c by exactly 1, so the columns of one weight share rows only
  with each other.  Cost and memory grow with the block sizes, not with
  the square of the number of monomials.  Every elimination step on
  these blocks meets a pivot row of one entry, which ``_echelon`` applies
  by deleting an entry, with no multiplication; a row's content is
  divided out only before a step that multiplies and when it becomes a
  pivot row.  Each pivot row is, up to sign, the one that
  cross-multiplying and dividing out the content at every step gives;
  no output reads that sign.

``verify_basis_against_oracle`` checks that the two spans agree.  Both
routes refuse degrees above ``DEGREE_BOUND``, so that no degree runs
without bound (the dense rows of ``oracle 100 --json`` fill about 3 MB).
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from typing import NamedTuple

from .poly import Exponent, Poly, RING2, expand_bivariate

DEGREE_BOUND = 100


class KernelOracleResult(NamedTuple):
    """Exact kernel of the residual map on homogeneous polynomials of the
    degree passed to ``kernel_oracle``; the degree itself is not stored.

    ``monomials`` fixes the coordinate order (exponent tuples ascending
    lexicographically, x-exponent first); each kernel vector lists its
    nonzero entries as (index into ``monomials``, int value) pairs, index
    strictly ascending; the values are coprime and the first is positive.
    """

    monomials: tuple[Exponent, ...]
    kernel_basis: tuple[tuple[tuple[int, int], ...], ...]


def _check_degree(d: int) -> None:
    if d < 0:
        raise ValueError("degree must be nonnegative")
    if d > DEGREE_BOUND:
        raise ValueError(f"degree {d} exceeds the degree bound {DEGREE_BOUND}")


def solution_basis(d: int) -> tuple[Poly, ...]:
    """The floor(d/2)+1 expansions (x*z + y^2)^k1 * z^k2 with 2*k1 + k2 = d,
    k1 descending, for 0 <= d <= DEGREE_BOUND."""
    _check_degree(d)
    # _raw skips the public constructor's checks, which would take d = 0..12
    # from 7 to 12-14 µs per degree, about 4% of an oracle op
    return tuple(
        expand_bivariate(Poly._raw(RING2, {(k1, d - 2 * k1): 1}, 1))
        for k1 in range(d // 2, -1, -1)
    )


def _strip_content(row: dict[int, int]) -> dict[int, int]:
    """row divided by the gcd of its entries."""
    g = math.gcd(*row.values())
    return {c: v // g for c, v in row.items()} if g != 1 else row


def _echelon(rows: Iterable[dict[int, int]]) -> dict[int, dict[int, int]]:
    """Fraction-free echelon form of sparse integer rows (no zero
    entries), keyed by pivot column.

    Each row is reduced at its leading column against the pivot row found
    there until its leading column is new, and is then stored, divided by
    its content, as the pivot row of that column.  The pivot columns are
    those not in the span of the columns before them, as in
    column-by-column elimination.  No input row is changed.

    Against a pivot row {lead: p} a step only deletes the row's entry at
    lead; cross-multiplying would give that result times p.  Against a
    longer pivot row it divides out the row's content, then
    cross-multiplies (p * row - v * pivot row, for the leading entries p
    and v).  So each pivot row is, up to sign, the one that
    cross-multiplying and dividing out the content after every step
    gives, no row multiplied is larger than that elimination's, and a
    deletion makes no new entry.  No output reads a pivot row's sign:
    ``_kernel_vector`` normalizes its vectors, and ``_spans_agree`` reads
    ranks.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        while row:
            lead = min(row)
            pivot_row = pivots.get(lead)
            if pivot_row is None:
                pivots[lead] = _strip_content(row)
                break
            if len(pivot_row) == 1:
                row = row.copy()
                del row[lead]
                continue
            row = _strip_content(row)
            p, v = pivot_row[lead], row[lead]
            combined = {c: p * x for c, x in row.items()}
            for c, x in pivot_row.items():
                combined[c] = combined.get(c, 0) - v * x
            row = {c: x for c, x in combined.items() if x}
    return pivots


def _kernel_vector(free_col: int, pivots: dict[int, dict[int, int]]) -> dict[int, int]:
    """Integer kernel vector with 1 (up to scale) at ``free_col``, zero at
    every other free column, by back-substitution through ``pivots``;
    normalized to coprime entries with a positive leading entry."""
    v = {free_col: 1}
    for pc in sorted((pc for pc in pivots if pc < free_col), reverse=True):
        row = pivots[pc]
        s = sum(x * v[c] for c, x in row.items() if c in v)
        if not s:
            continue
        p = row[pc]
        scale = abs(p) // math.gcd(s, p)
        if scale != 1:
            v = {c: x * scale for c, x in v.items()}
            s *= scale
        v[pc] = -s // p
    g = math.gcd(*v.values())
    if v[min(v)] < 0:
        g = -g
    return {c: x // g for c, x in v.items()}


def kernel_oracle(d: int) -> KernelOracleResult:
    """Exact kernel of the residual map in degree d.

    The residual map over the (d+1)(d+2)/2 monomials of degree d is
    graded by the weight w = 2a + b of x^a*y^b*z^c: column x^a*y^b*z^c
    has its entries, at most two, in rows x^(a-1)*y^(b+1)*z^c and
    x^a*y^(b-1)*z^(c+1), both of weight w - 1.  So each weight gives one
    block of sparse rows, built straight from the monomials; it is
    connected, since the columns a and a + 1 of one weight share a row.
    Each block is eliminated fraction-free on its own and its kernel
    vectors are found by back-substitution inside the block, so cost and
    memory grow with the block sizes rather than with the square of the
    number of monomials.
    Kernel vectors are listed by ascending free column.  ``d`` is at most
    ``DEGREE_BOUND``.
    """
    _check_degree(d)
    # exponents (a, b, c) with a + b + c = d, ascending lexicographically
    monomials = [(a, b, d - a - b) for a in range(d + 1) for b in range(d - a + 1)]
    # one block of rows per weight w = 2a + b, 0 to 2d; its rows have weight
    # w - 1 and degree d - 1, so each is keyed by its x-exponent
    blocks: list[dict[int, dict[int, int]]] = [{} for _ in range(2 * d + 1)]
    for j, (a, b, _) in enumerate(monomials):
        rows = blocks[2 * a + b]
        if a:
            rows.setdefault(a - 1, {})[j] = -2 * a
        if b:
            # the row's other column, x^(a+1)*y^(b-2)*z^(c+1), comes later
            rows[a] = {j: b}
    pivots = [_echelon(rows.values()) for rows in blocks]
    vectors = []
    for j, (a, b, _) in enumerate(monomials):
        block_pivots = pivots[2 * a + b]
        if j not in block_pivots:
            vectors.append(tuple(sorted(_kernel_vector(j, block_pivots).items())))
    return KernelOracleResult(monomials=tuple(monomials), kernel_basis=tuple(vectors))


def _spans_agree(oracle: KernelOracleResult, basis: tuple[Poly, ...]) -> bool:
    """True iff the closed-form basis and the oracle kernel span the same
    subspace over Q (checked by exact rank computations)."""
    index = {m: i for i, m in enumerate(oracle.monomials)}
    a_rows = [{index[m]: c for m, c in p._coeffs.items()} for p in basis]
    b_rows = [dict(vec) for vec in oracle.kernel_basis]
    rank_a = len(_echelon(a_rows))
    rank_b = len(_echelon(b_rows))
    rank_ab = len(_echelon(a_rows + b_rows))
    return rank_a == rank_b == rank_ab


def verify_basis_against_oracle(d: int) -> bool:
    """True iff the closed-form basis and the oracle kernel in degree d
    span the same subspace over Q (checked by exact rank computations)."""
    return _spans_agree(kernel_oracle(d), solution_basis(d))
