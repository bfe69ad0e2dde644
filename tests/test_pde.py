import hashlib
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given

from nagata import (
    DEGREE_BOUND,
    KernelOracleResult,
    Poly,
    RING3,
    X,
    Y,
    Z,
    kernel_oracle,
    pde_residual,
    solution_basis,
    verify_basis_against_oracle,
)
from nagata import pde
from nagata.cli import run
from nagata.pde import _echelon, _kernel_vector, _spans_agree
from nagata.poly import _monomial_text, _monomial_texts
import _reference_echelon
from _strategies import poly3s

PHI = X * Z + Y ** 2


class TestSolutionBasis:
    def test_low_degrees(self):
        assert [str(e) for e in solution_basis(0)] == ["1"]
        assert [str(e) for e in solution_basis(1)] == ["z"]
        assert solution_basis(2) == (PHI, Z ** 2)

    def test_count_formula(self):
        for d in range(11):
            assert len(solution_basis(d)) == d // 2 + 1

    def test_elements_are_homogeneous_solutions(self):
        for d in range(9):
            for element in solution_basis(d):
                assert all(sum(e) == d for e, _ in element.terms())
                assert pde_residual(element) == 0

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError, match="degree must be nonnegative"):
            solution_basis(-1)

    def test_degree_bound_enforced(self):
        assert len(solution_basis(DEGREE_BOUND)) == DEGREE_BOUND // 2 + 1
        with pytest.raises(ValueError, match=f"degree bound {DEGREE_BOUND}$"):
            solution_basis(DEGREE_BOUND + 1)

    def test_odd_degree_elements_divisible_by_z(self):
        for n in range(4):
            for element in solution_basis(2 * n + 1):
                assert all(e[2] >= 1 for e, _ in element.terms())

    def test_even_degree_y_power_pattern(self):
        # exactly one basis element carries y^(2n), and it is (xz+y^2)^n
        for n in range(1, 5):
            d = 2 * n
            y_top = (0, d, 0)
            carriers = [e for e in solution_basis(d) if y_top in e.support()]
            assert carriers == [PHI ** n]

    def test_coefficient_recursion_between_z_layers(self):
        # write each element as sum_k c_k(x,y) z^k; then 2y * d/dx(c_{k+1}) = d/dy(c_k)
        for d in range(1, 9):
            for element in solution_basis(d):
                layers = {}
                for (a, b, c), coeff in element.terms():
                    layers.setdefault(c, {})[(a, b, 0)] = coeff
                c_of = lambda k: Poly(RING3, layers.get(k, {}))
                assert c_of(0).partial("x") == 0
                for k in range(d + 1):
                    assert 2 * Y * c_of(k + 1).partial("x") == c_of(k).partial("y")


def _homogeneous_split(p):
    """Nonzero homogeneous parts of p as (degree, component), degree ascending."""
    buckets = {}
    for e, c in p.terms():
        buckets.setdefault(sum(e), {})[e] = c
    return [(d, Poly(p.vars, buckets[d])) for d in sorted(buckets)]


class TestHomogeneousSplit:
    # the residual operator has homogeneous coefficients of one degree, so
    # phi solves the equation iff every homogeneous component does
    def test_solution_components(self):
        split = _homogeneous_split(PHI + Z ** 3)
        assert [d for d, _ in split] == [2, 3]
        assert all(pde_residual(comp) == 0 for _, comp in split)

    def test_mixed_components(self):
        split = _homogeneous_split(X + PHI)
        assert split == [(1, X), (2, PHI)]
        assert [pde_residual(comp) for _, comp in split] == [-2 * Y, 0]

    def test_zero_gives_empty_report(self):
        assert _homogeneous_split(Poly.zero(RING3)) == []

    @given(poly3s)
    def test_split_equivalence(self, phi):
        split = _homogeneous_split(phi)
        assert (pde_residual(phi) == 0) == all(
            pde_residual(comp) == 0 for _, comp in split
        )


def _polynomial(oracle, vector):
    """The kernel element whose (column, value) pairs are ``vector``."""
    return Poly(RING3, [(oracle.monomials[c], x) for c, x in vector])


def _dense(oracle):
    """The oracle's kernel vectors with one entry per monomial."""
    n = len(oracle.monomials)
    return tuple(tuple(dict(vector).get(c, 0) for c in range(n))
                 for vector in oracle.kernel_basis)


class TestKernelOracle:
    def test_dimensions(self):
        assert len(kernel_oracle(0).kernel_basis) == 1
        assert len(kernel_oracle(2).kernel_basis) == 2
        assert len(kernel_oracle(5).kernel_basis) == 3

    def test_kernel_vectors_reassemble_to_solutions(self):
        for d in range(7):
            result = kernel_oracle(d)
            for vector in result.kernel_basis:
                polynomial = _polynomial(result, vector)
                assert not polynomial.is_zero()
                assert pde_residual(polynomial) == 0

    def test_degree_bound_enforced(self):
        with pytest.raises(ValueError, match=f"bound {DEGREE_BOUND}"):
            kernel_oracle(DEGREE_BOUND + 1)

    def test_dimension_law(self):
        for d in range(9):
            assert len(kernel_oracle(d).kernel_basis) == d // 2 + 1

    def test_kernel_vectors_are_ints(self):
        for d in range(13):
            for vector in kernel_oracle(d).kernel_basis:
                assert all(type(x) is int for _, x in vector)

    @pytest.mark.parametrize("d", [*range(13), 40])
    def test_kernel_vectors_are_sparse_pairs(self, d):
        """Each vector is a tuple of (column, int) pairs, columns strictly
        ascending and in range, no zero value, coprime values and a
        positive first value."""
        result = kernel_oracle(d)
        assert type(result.kernel_basis) is tuple
        for vector in result.kernel_basis:
            assert type(vector) is tuple
            assert all(type(pair) is tuple and len(pair) == 2 for pair in vector)
            columns = [c for c, _ in vector]
            values = [x for _, x in vector]
            assert all(type(c) is int for c in columns)
            assert all(type(x) is int for x in values)
            assert columns == sorted(set(columns))
            assert 0 <= columns[0] and columns[-1] < len(result.monomials)
            assert 0 not in values
            assert math.gcd(*values) == 1
            assert values[0] > 0

    def test_record_fields_and_hash(self):
        assert KernelOracleResult._fields == ("monomials", "kernel_basis")
        assert hash(kernel_oracle(6)) == hash(kernel_oracle(6))

    def test_large_degree(self):
        result = kernel_oracle(40)
        assert len(result.kernel_basis) == 21
        assert all(pde_residual(_polynomial(result, vector)) == 0
                   for vector in result.kernel_basis)


def _monomials(d):
    """Exponents (a, b, c) with a + b + c = d, ascending lexicographically:
    the oracle's coordinate order, written here apart from the oracle."""
    return [(a, b, d - a - b) for a in range(d + 1) for b in range(d - a + 1)]


def dense_kernel_oracle(d):
    """Reference: eliminate the dense n x n residual matrix, column by
    column; the monomials and the kernel vectors, one entry per monomial."""
    monomials = _monomials(d)
    index = {m: i for i, m in enumerate(monomials)}
    n = len(monomials)
    rows = [[0] * n for _ in range(n)]
    for j, (a, b, c) in enumerate(monomials):
        if a:
            rows[index[(a - 1, b + 1, c)]][j] -= 2 * a
        if b:
            rows[index[(a, b - 1, c + 1)]][j] += b
    pivots, r = [], 0
    for col in range(n):
        pivot_row = next((i for i in range(r, n) if rows[i][col]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        for i in range(r + 1, n):
            if rows[i][col]:
                rows[i] = [rows[r][col] * x - rows[i][col] * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    vectors = []
    for free_col in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[free_col] = Fraction(1)
        for r in range(len(pivots) - 1, -1, -1):
            pc = pivots[r]
            v[pc] = Fraction(-sum(rows[r][c] * v[c] for c in range(pc + 1, n)), rows[r][pc])
        ints = [int(x * math.lcm(*(y.denominator for y in v))) for x in v]
        g = math.gcd(*ints) * (1 if next(x for x in ints if x) > 0 else -1)
        vectors.append(tuple(Fraction(x // g) for x in ints))
    return tuple(monomials), tuple(vectors)


def _dense_oracle_json(d):
    """`nagata oracle d --json` as json.dumps writes it, from the dense
    elimination and the printer's own monomial text."""
    monomials, vectors = dense_kernel_oracle(d)
    return json.dumps({
        "schema": 1,
        "command": "oracle",
        "degree": d,
        "dimension": len(vectors),
        "monomials": [_monomial_text(RING3, m) for m in monomials],
        "kernel_basis": [[str(x) for x in vector] for vector in vectors],
        "verified": True,
    }, indent=2) + "\n"


class TestKernelOracleReference:
    def test_equals_dense_elimination(self):
        for d in (*range(13), 16):
            oracle = kernel_oracle(d)
            assert (oracle.monomials, _dense(oracle)) == dense_kernel_oracle(d)

    # sha256 of `nagata oracle d --json` as printed by the dense elimination;
    # for d = 40, of _dense_oracle_json(40), too slow to build here (about
    # 20 s of CPU on a 2-core VM)
    @pytest.mark.parametrize("d, digest", [
        (0, "64dfe2dcaa51db389502e23b39936e51ff1ece65cb6869ec1e536928a9124f1c"),
        (5, "c8a0afc0c672fef57417430759b53f4b02e5ea20cb8be96a160490268ccb0a3e"),
        (12, "31839a041a52e808cd98d7470a2732ba3098e02039632f914578dfc948fb4502"),
        (40, "7e1eff079a8554df9f432853319bcc26b42905c3fe2ce13618a03eb9c6f918e0"),
    ])
    def test_cli_json_golden(self, capsys, d, digest):
        assert run(["oracle", str(d), "--json"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("d", [*range(13), 16])
    def test_cli_json_equals_the_dense_document(self, capsys, d):
        assert run(["oracle", str(d), "--json"]) == 0
        assert capsys.readouterr().out == _dense_oracle_json(d)

    def test_monomial_table_writer(self):
        for d in range(DEGREE_BOUND + 1):
            monomials = tuple(_monomials(d))
            assert _monomial_texts(RING3, monomials, d) == [
                _monomial_text(RING3, m) for m in monomials]
        monomials = tuple(_monomials(3))
        assert _monomial_texts(("u", "v", "w"), monomials, 3) == [
            _monomial_text(("u", "v", "w"), m) for m in monomials]

    def test_span_equals_sympy_nullspace(self):
        sympy = pytest.importorskip("sympy")
        from sympy.polys.matrices import DomainMatrix

        QQ = sympy.QQ
        for d in range(11):
            monomials = _monomials(d)
            n = len(monomials)
            _, x, y, z, *coeffs = sympy.ring(["x", "y", "z"] + [f"c{j}" for j in range(n)], QQ)
            phi = sum(c * x**a * y**b * z**e for c, (a, b, e) in zip(coeffs, monomials))
            residual = -2 * y * sympy.diff(phi, x) + z * sympy.diff(phi, y)
            rows = {}
            for mono, value in residual.terms():
                rows.setdefault(mono[:3], [QQ.zero] * n)[mono[3:].index(1)] = value
            system = DomainMatrix(list(rows.values()) or [[QQ.zero] * n], (max(len(rows), 1), n), QQ)
            expected = system.nullspace()
            dense = _dense(kernel_oracle(d))
            found = DomainMatrix([[QQ(int(v)) for v in vec] for vec in dense], (len(dense), n), QQ)
            assert expected.rank() == found.rank() == DomainMatrix.vstack(expected, found).rank()


class TestSpanEquality:
    def test_basis_matches_oracle_through_degree_8(self):
        for d in range(9):
            assert verify_basis_against_oracle(d)

    @pytest.mark.parametrize("d", [20, 41, 100])
    def test_basis_matches_oracle_above_degree_8(self, d):
        assert verify_basis_against_oracle(d)

    def test_degree_three_span(self):
        assert solution_basis(3) == (Z * PHI, Z ** 3)
        assert verify_basis_against_oracle(3)


def _with_vectors(oracle, vectors):
    return oracle._replace(kernel_basis=tuple(vectors))


def _bump_last(oracle, vector):
    """vector + e_(x^d); x^d is the last monomial and, for d >= 1, no
    solution holds it, so the result leaves the kernel."""
    last = len(oracle.monomials) - 1
    assert not vector or vector[-1][0] < last
    return (*vector, (last, 1))


class TestSpanMismatch:
    """_spans_agree, and with it `oracle`, fails when the oracle's kernel
    differs from the closed-form span in any way."""

    @pytest.mark.parametrize("d", [2, 4, 9])
    def test_dropped_vector(self, d):
        oracle = kernel_oracle(d)
        for i in range(len(oracle.kernel_basis)):
            vectors = oracle.kernel_basis[:i] + oracle.kernel_basis[i + 1:]
            assert not _spans_agree(_with_vectors(oracle, vectors), solution_basis(d))

    @pytest.mark.parametrize("d", [1, 4, 9])
    def test_perturbed_vector(self, d):
        oracle = kernel_oracle(d)
        for i, vector in enumerate(oracle.kernel_basis):
            vectors = list(oracle.kernel_basis)
            vectors[i] = _bump_last(oracle, vector)
            assert not _spans_agree(_with_vectors(oracle, vectors), solution_basis(d))

    @pytest.mark.parametrize("d", [1, 4, 9])
    def test_appended_independent_row(self, d):
        oracle = kernel_oracle(d)
        extra = _bump_last(oracle, ())
        vectors = (*oracle.kernel_basis, extra)
        assert not _spans_agree(_with_vectors(oracle, vectors), solution_basis(d))

    def test_oracle_exits_1_on_a_wrong_vector(self, capsys, monkeypatch):
        import nagata.cli

        def wrong(d):
            oracle = kernel_oracle(d)
            return _with_vectors(oracle, (_bump_last(oracle, oracle.kernel_basis[0]),
                                          *oracle.kernel_basis[1:]))

        monkeypatch.setattr(nagata.cli, "kernel_oracle", wrong)
        assert run(["oracle", "4", "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["verified"] is False and doc["dimension"] == 3


class TestKernelVector:
    """The residual map never needs these branches of _kernel_vector, but
    the elimination knows nothing of that structure; two fixed matrices
    run them and are checked by hand and against sympy."""

    @pytest.mark.parametrize("matrix, free_col, expected", [
        # the pivot 2 does not divide s = 1, so v is rescaled; then the
        # leading entry -1 flips the sign
        ([[2, 1]], 1, {0: 1, 1: -2}),
        # the pivot row of column 1 misses v, so it is skipped and adds no
        # entry; then the sign flips
        ([[1, 0, 1], [0, 1, 0]], 2, {0: 1, 2: -1}),
    ])
    def test_generic_branches(self, matrix, free_col, expected):
        rows = [{c: x for c, x in enumerate(row) if x} for row in matrix]
        vector = _kernel_vector(free_col, _echelon(rows))
        assert vector == expected
        sympy = pytest.importorskip("sympy")
        null, = sympy.Matrix(matrix).nullspace()
        dense = sympy.Matrix([vector.get(c, 0) for c in range(len(matrix[0]))])
        assert null.rank() == sympy.Matrix.hstack(null, dense).rank() == 1


def _up_to_sign(pivots):
    """pivots with each row negated where its pivot entry is negative."""
    return {c: row if row[c] > 0 else {j: -x for j, x in row.items()}
            for c, row in pivots.items()}


class TestEchelon:
    """Generic rows next to those of the residual map, whose reductions only
    meet pivot rows of one entry."""

    @pytest.mark.parametrize("rows, expected", [
        # the second row reduces at column 0 against a pivot row holding
        # column 1, which the row lacks; the result -1 there is a new pivot
        ([{0: 1, 1: 1}, {0: 1}], {0: {0: 1, 1: 1}, 1: {1: -1}}),
        # a pivot row is stored with its content 2 divided out
        ([{0: 2, 1: 4}], {0: {0: 1, 1: 2}}),
    ])
    def test_generic_rows(self, rows, expected):
        assert _up_to_sign(_echelon(rows)) == _up_to_sign(expected)


def _random_rows(rng, count, width):
    """Sparse integer rows over columns 0 to width - 1: about a third have
    one entry, so later rows meet one-entry pivot rows of either sign, and
    some share a factor, so that stripping their content changes them."""
    rows = []
    for _ in range(count):
        size = 1 if rng.random() < 1 / 3 else rng.randint(1, width)
        factor = rng.choice([1, 1, 2, 3, 6])
        rows.append({c: factor * rng.choice([-1, 1]) * rng.randint(1, 5)
                     for c in rng.sample(range(width), size)})
    return rows


def _copies(rows):
    return [dict(row) for row in rows]


class TestEchelonAgainstReference:
    """_echelon gives the pivot columns of the reference, which
    cross-multiplies and strips the content at every step, and its pivot
    rows up to sign: each is the reference's row or its negation.  It
    changes no input row."""

    def test_random_rows(self):
        for seed in range(400):
            rng = random.Random(seed)
            rows = _random_rows(rng, rng.randint(1, 10), rng.randint(1, 8))
            given_rows = _copies(rows)
            expected = _reference_echelon.echelon(_copies(rows))
            assert _up_to_sign(_echelon(rows)) == _up_to_sign(expected), seed
            assert rows == given_rows, seed

    def test_random_rows_after_earlier_pivots(self):
        for seed in range(400):
            rng = random.Random(seed)
            width = rng.randint(1, 8)
            first = _random_rows(rng, rng.randint(1, 6), width)
            rows = first + _random_rows(rng, rng.randint(1, 6), width)
            given_rows = _copies(rows)
            expected = _reference_echelon.echelon(_copies(rows))
            assert _up_to_sign(_echelon(rows)) == _up_to_sign(expected), seed
            assert rows == given_rows, seed

    def test_random_rows_take_both_paths(self):
        steps = []
        for seed in range(400):
            rng = random.Random(seed)
            _reference_echelon.echelon(
                _random_rows(rng, rng.randint(1, 10), rng.randint(1, 8)), steps=steps)
        assert steps.count(1) > 1000 and len(steps) - steps.count(1) > 1000

    def test_no_row_is_larger_than_the_references(self, monkeypatch):
        """Each row that _echelon divides by its content, before a step
        that multiplies and at insertion, has no entry larger than the
        largest the reference holds; a one-entry step before a step that
        multiplies leaves content that must be divided out first."""
        strip = pde._strip_content
        ours = []

        def recorded(row):
            ours.append(max(map(abs, row.values())))
            return strip(row)

        monkeypatch.setattr(pde, "_strip_content", recorded)
        sizes = []
        # the two pivot rows first, then the row that reduces against them
        rows = [{0: 1}, {1: 3, 2: 1}, {0: 2, 1: 4, 2: 6}]
        expected = _reference_echelon.echelon(_copies(rows), sizes=sizes)
        assert _up_to_sign(_echelon(rows)) == _up_to_sign(expected)
        assert max(ours) == max(sizes) == 7
        for seed in range(400):
            rng = random.Random(seed)
            rows = _random_rows(rng, rng.randint(1, 10), rng.randint(1, 8))
            ours, sizes = [], []
            _echelon(_copies(rows))
            _reference_echelon.echelon(_copies(rows), sizes=sizes)
            assert max(ours) <= max(sizes), seed

    def test_oracle_blocks_and_span_checks(self, monkeypatch):
        """Every call of kernel_oracle(d) and of _spans_agree for d <= 40;
        each step in the oracle's blocks meets a one-entry pivot row, and
        the span checks take both paths."""
        echelon = pde._echelon
        oracle_steps, span_steps = [], []
        steps = oracle_steps  # the list that checked appends to

        def checked(rows):
            rows = list(rows)
            given_rows = _copies(rows)
            expected = _reference_echelon.echelon(_copies(rows), steps)
            result = echelon(rows)
            assert _up_to_sign(result) == _up_to_sign(expected)
            assert rows == given_rows
            return result

        monkeypatch.setattr(pde, "_echelon", checked)
        for d in range(41):
            steps = oracle_steps
            oracle = kernel_oracle(d)
            steps = span_steps
            assert _spans_agree(oracle, solution_basis(d))
        assert set(oracle_steps) == {1}
        assert 1 in span_steps and max(span_steps) > 1


def _rescaled(pivots, rng):
    """pivots with each row multiplied by a random k in +-1, +-2, +-3, so
    that a random subset of them is negated or scaled."""
    rescaled = {}
    for c, row in pivots.items():
        k = rng.choice([1, -1, 2, -2, 3, -3])
        rescaled[c] = {j: k * x for j, x in row.items()}
    return rescaled


class TestPivotSignIsFree:
    """Why _echelon may keep its pivot rows up to sign: negating, or
    multiplying by +-k, any pivot rows changes no kernel vector of
    _kernel_vector and no verdict of _spans_agree."""

    def test_random_rows(self):
        checked = 0
        for seed in range(400):
            rng = random.Random(seed)
            width = rng.randint(1, 8)
            pivots = _echelon(_random_rows(rng, rng.randint(1, 10), width))
            free = [c for c in range(width) if c not in pivots]
            for _ in range(3):
                rescaled = _rescaled(pivots, rng)
                for c in free:
                    assert _kernel_vector(c, rescaled) == _kernel_vector(c, pivots), seed
                    checked += 1
        assert checked > 1000

    def test_oracle_blocks_and_span_checks(self, monkeypatch):
        """kernel_oracle(d) for d <= 20 rescales the pivot rows of each of
        its blocks and still gives every kernel vector; _spans_agree keeps
        its verdict on the true kernel and on one with a vector dropped."""
        echelon = pde._echelon
        rng = random.Random(0)
        oracles = [kernel_oracle(d) for d in range(21)]

        def cases(oracle, basis):
            dropped = oracle._replace(kernel_basis=oracle.kernel_basis[1:])
            return _spans_agree(oracle, basis), _spans_agree(dropped, basis)

        verdicts = [cases(oracles[d], solution_basis(d)) for d in range(21)]
        assert verdicts == [(True, False)] * 21
        monkeypatch.setattr(pde, "_echelon", lambda rows: _rescaled(echelon(rows), rng))
        for d in range(21):
            assert kernel_oracle(d) == oracles[d], d
            assert cases(oracles[d], solution_basis(d)) == verdicts[d], d
