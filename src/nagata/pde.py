"""Homogeneous polynomial solutions of -2*y*phi_x + z*phi_y = 0.

Two independent routes to the degree-d solution space:

* ``solution_basis`` enumerates the closed-form basis
  (x*z + y^2)^k1 * z^k2 over 2*k1 + k2 = d, which spans the space because
  every solution is a polynomial in x*z + y^2 and z.
* ``kernel_oracle`` knows nothing about that structure: it assembles the
  exact linear map taking the coefficient vector of a generic homogeneous
  degree-d polynomial to the coefficient vector of its residual, as
  sparse columns, splits it into the connected components of its
  sparsity pattern, and computes a kernel basis of each block by
  fraction-free Gaussian elimination.  Cost and memory grow with the
  block sizes, not with the square of the number of monomials.

``verify_basis_against_oracle`` checks that the two spans agree.  Both
routes refuse degrees above ``DEGREE_BOUND``, so that no degree runs
without bound (the oracle's dense kernel vectors grow as d^3).
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction

from .poly import Exponent, Poly, RING3, T1, T2, expand_bivariate

DEGREE_BOUND = 100


@dataclass(frozen=True)
class SolutionBasis:
    degree: int
    elements: tuple[Poly, ...]


@dataclass(frozen=True)
class KernelOracleResult:
    """Exact kernel of the residual map on homogeneous degree-d polynomials.

    ``monomials`` fixes the coordinate order (exponent tuples ascending
    lexicographically, x-exponent first); each kernel vector lists one
    coefficient per monomial, normalized to coprime integers with a
    positive leading entry.
    """

    degree: int
    dimension: int
    monomials: tuple[Exponent, ...]
    kernel_basis: tuple[tuple[Fraction, ...], ...]

    def polynomials(self) -> list[Poly]:
        return [
            Poly(RING3, {m: c for m, c in zip(self.monomials, vector) if c})
            for vector in self.kernel_basis
        ]


def invariant_monomials(d: int) -> list[tuple[int, int]]:
    """Exponent pairs (k1, k2) with 2*k1 + k2 = d, k1 descending."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    return [(k1, d - 2 * k1) for k1 in range(d // 2, -1, -1)]


def _check_degree(d: int) -> None:
    if d < 0:
        raise ValueError("degree must be nonnegative")
    if d > DEGREE_BOUND:
        raise ValueError(f"degree {d} exceeds the degree bound {DEGREE_BOUND}")


def solution_basis(d: int) -> SolutionBasis:
    """The floor(d/2)+1 expansions (x*z + y^2)^k1 * z^k2 with 2*k1 + k2 = d,
    for 0 <= d <= DEGREE_BOUND."""
    _check_degree(d)
    elements = tuple(
        expand_bivariate(T1 ** k1 * T2 ** k2) for k1, k2 in invariant_monomials(d)
    )
    return SolutionBasis(degree=d, elements=elements)


def degree_monomials(d: int) -> list[Exponent]:
    """Exponents (a, b, c) with a + b + c = d, ascending lexicographically."""
    return [
        (a, b, d - a - b)
        for a in range(d + 1)
        for b in range(d - a + 1)
    ]


def _residual_columns(monomials: list[Exponent]) -> list[dict[int, int]]:
    """Sparse integer matrix of the residual map, one column per monomial.

    Column j maps row index to entry: x^a*y^b*z^c contributes -2a to
    x^(a-1)*y^(b+1)*z^c and b to x^a*y^(b-1)*z^(c+1).
    """
    index = {m: i for i, m in enumerate(monomials)}
    columns = []
    for a, b, c in monomials:
        column = {}
        if a:
            column[index[(a - 1, b + 1, c)]] = -2 * a
        if b:
            column[index[(a, b - 1, c + 1)]] = b
        columns.append(column)
    return columns


def _blocks(columns: list[dict[int, int]]) -> list[list[int]]:
    """Connected components of the sparsity pattern: two columns are in one
    block when they share a row.  Each block lists its columns ascending."""
    parent = list(range(len(columns)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    first_in_row: dict[int, int] = {}
    for j, column in enumerate(columns):
        for row in column:
            k = first_in_row.setdefault(row, j)
            parent[find(j)] = find(k)
    blocks: dict[int, list[int]] = {}
    for j in range(len(columns)):
        blocks.setdefault(find(j), []).append(j)
    return list(blocks.values())


def _strip_content(row: dict[int, int]) -> dict[int, int]:
    g = math.gcd(*row.values())
    return {c: v // g for c, v in row.items()} if g > 1 else row


def _echelon(rows: Iterable[dict[int, int]]) -> dict[int, dict[int, int]]:
    """Fraction-free echelon form of sparse integer rows (no zero
    entries), keyed by pivot column.

    Each row is reduced at its leading column against the pivot row found
    there (integer cross-multiplication, then content stripping) until its
    leading column is new.  The pivot columns are those not in the span of
    the columns before them, as in column-by-column elimination.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        while row:
            lead = min(row)
            pivot_row = pivots.get(lead)
            if pivot_row is None:
                pivots[lead] = _strip_content(row)
                break
            p, v = pivot_row[lead], row[lead]
            combined = {c: p * x for c, x in row.items()}
            for c, x in pivot_row.items():
                combined[c] = combined.get(c, 0) - v * x
            row = _strip_content({c: x for c, x in combined.items() if x})
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

    The residual map is built as sparse columns over the (d+1)(d+2)/2
    monomials of degree d and split into blocks, the connected components
    of its sparsity pattern.  Each block is eliminated fraction-free on
    its own and its kernel vectors are found by back-substitution inside
    the block, so cost and memory grow with the block sizes rather than
    with the square of the number of monomials.  Kernel vectors are
    listed by ascending free column.  ``d`` is at most ``DEGREE_BOUND``.
    """
    _check_degree(d)
    monomials = degree_monomials(d)
    columns = _residual_columns(monomials)
    sparse: list[tuple[int, dict[int, int]]] = []
    for block in _blocks(columns):
        rows: dict[int, dict[int, int]] = {}
        for j in block:
            for r, value in columns[j].items():
                rows.setdefault(r, {})[j] = value
        pivots = _echelon(rows.values())
        sparse.extend(
            (j, _kernel_vector(j, pivots)) for j in block if j not in pivots
        )
    sparse.sort(key=lambda item: item[0])
    zero = Fraction(0)
    vectors = []
    for _, v in sparse:
        dense = [zero] * len(monomials)
        for c, x in v.items():
            dense[c] = Fraction(x)
        vectors.append(tuple(dense))
    return KernelOracleResult(
        degree=d,
        dimension=len(vectors),
        monomials=tuple(monomials),
        kernel_basis=tuple(vectors),
    )


def _integer_row(terms: Iterable[tuple[int, Fraction]]) -> dict[int, int]:
    """Sparse row of rational entries, scaled to integers."""
    entries = dict(terms)
    denom = math.lcm(*(x.denominator for x in entries.values()))
    return {c: int(x * denom) for c, x in entries.items() if x}


def _spans_agree(oracle: KernelOracleResult, basis: SolutionBasis) -> bool:
    """True iff the closed-form basis and the oracle kernel span the same
    subspace over Q (checked by exact rank computations)."""
    index = {m: i for i, m in enumerate(oracle.monomials)}
    a_rows = [_integer_row((index[m], c) for m, c in p.terms()) for p in basis.elements]
    b_rows = [_integer_row((c, x) for c, x in enumerate(vec) if x) for vec in oracle.kernel_basis]
    rank_a = len(_echelon(a_rows))
    rank_b = len(_echelon(b_rows))
    rank_ab = len(_echelon(a_rows + b_rows))
    return rank_a == rank_b == rank_ab


def verify_basis_against_oracle(d: int) -> bool:
    """True iff the closed-form basis and the oracle kernel in degree d
    span the same subspace over Q (checked by exact rank computations)."""
    return _spans_agree(kernel_oracle(d), solution_basis(d))
