"""Exact matrix layer: arithmetic, Smith normal form contract, and the
lattice helpers built on it."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import det, diagonal_entries
from snf_reference import snf as reference_snf
from snckit.homology import random_complex
from snckit.snc import build_dual_complex
from snckit.fixtures import fermat_cover_config
from snckit.matrices import (
    IntMatrix,
    SnfDecomposition,
    _continue_snf,
    _eliminate,
    _from_rows,
    _least_pivot,
    _power,
    _smith_form,
    _smith_vector,
    _sparse_rows,
    in_column_span,
    kernel_basis,
    preimage_generators,
    snf,
    solve,
    solve_matrix,
)


def matrices_of(entries, max_side: int = 5):
    return st.integers(0, max_side).flatmap(
        lambda r: st.integers(0, max_side).flatmap(
            lambda c: st.lists(
                st.lists(entries, min_size=c, max_size=c),
                min_size=r, max_size=r,
            ).map(lambda rows: IntMatrix.from_rows(rows, cols=c))
        )
    )


matrices = matrices_of(st.integers(-9, 9))


@st.composite
def products(draw):
    """Two matrices that can be multiplied, any side 0 to 4, with small
    entries and entries past 64 bits."""
    n, k, m = (draw(st.integers(0, 4)) for _ in range(3))
    entries = st.integers(-9, 9) | st.integers(-(2 ** 70), 2 ** 70)

    def matrix(rows: int, cols: int) -> IntMatrix:
        return IntMatrix(rows, cols, draw(st.lists(entries, min_size=rows * cols,
                                                   max_size=rows * cols)))

    return matrix(n, k), matrix(k, m)


@st.composite
def identity_products(draw):
    """Two matrices that can be multiplied, one of them an n x n identity
    or an identity with one entry changed, on either side of a partner of
    any shape, with small entries and entries past 64 bits."""
    n, m = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    entries = st.integers(-9, 9) | st.integers(-(2 ** 70), 2 ** 70)
    square = IntMatrix.identity(n)
    if n and draw(st.booleans()):
        i = draw(st.integers(0, n * n - 1))
        changed = list(square._entries)
        changed[i] = draw(entries.filter(lambda x: x != square._entries[i]))
        square = IntMatrix(n, n, changed)
    partner = IntMatrix(n, m, draw(st.lists(entries, min_size=n * m, max_size=n * m)))
    return (square, partner) if draw(st.booleans()) else (partner.transpose(), square)


def _triple_loop(a: IntMatrix, b: IntMatrix) -> list[list[int]]:
    return [[sum(a[i, t] * b[t, j] for t in range(a.cols)) for j in range(b.cols)]
            for i in range(a.rows)]


@st.composite
def smith_candidates(draw):
    """Sparse rows and a column count: random rows, or rows that are
    almost in Smith form, a diagonal drawn with negative entries, zeros
    and non-dividing pairs, extra rows or columns and perhaps one entry
    off the diagonal."""
    if draw(st.booleans()):
        cols = draw(st.integers(0, 5))
        entries = st.integers(-4, 4).filter(bool)
        return draw(st.lists(st.dictionaries(st.integers(0, cols - 1), entries)
                             if cols else st.just({}), max_size=5)), cols
    values = draw(st.lists(st.sampled_from([0, 1, 2, 3, 4, 12, -2]), max_size=4))
    rows = [{i: x} if x else {} for i, x in enumerate(values)]
    rows += [{} for _ in range(draw(st.integers(0, 2)))]
    cols = len(values) + draw(st.integers(0, 2))
    if rows and cols > 1 and draw(st.booleans()):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, cols - 1))
        if i != j:
            rows[i][j] = 5
    return rows, cols


class TestIntMatrix:
    def test_construction_and_access(self):
        m = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
        assert (m.rows, m.cols) == (2, 3)
        assert m[1, 2] == 6
        assert m.row(0) == (1, 2, 3)
        assert m.col(2) == (3, 6)
        assert m.transpose().to_rows() == [[1, 4], [2, 5], [3, 6]]

    def test_rejects_float_entries(self):
        with pytest.raises(TypeError):
            IntMatrix.from_rows([[1.5]])

    def test_negative_shapes_are_rejected(self):
        for make in (lambda: IntMatrix(-1, 0, []), lambda: IntMatrix.zeros(2, -1),
                     lambda: IntMatrix.identity(-1)):
            with pytest.raises(ValueError):
                make()

    def test_empty_shapes_are_legal(self):
        z = IntMatrix.zeros(3, 0)
        assert z.cols == 0
        assert (z @ IntMatrix.zeros(0, 2)).to_rows() == [[0, 0], [0, 0], [0, 0]]

    def test_matmul_and_apply(self):
        a = IntMatrix.from_rows([[1, 2], [3, 4]])
        b = IntMatrix.from_rows([[0, 1], [1, 0]])
        assert (a @ b).to_rows() == [[2, 1], [4, 3]]
        assert a.apply([1, 1]) == (3, 7)

    @given(products())
    @settings(max_examples=200, deadline=None)
    @example((IntMatrix.zeros(2, 0), IntMatrix.zeros(0, 3)))
    @example((IntMatrix.zeros(0, 3), IntMatrix.from_rows([[1, 2]] * 3)))
    @example((IntMatrix.from_rows([[2 ** 64, -1]] * 3), IntMatrix.zeros(2, 0)))
    def test_matmul_matches_the_triple_loop(self, pair):
        """Every shape, zero rows, zero inner width and zero columns
        among them, and entries past 64 bits give the exact product of
        the triple loop."""
        a, b = pair
        product = a @ b
        assert (product.rows, product.cols) == (a.rows, b.cols)
        assert product.to_rows() == _triple_loop(a, b)

    @given(identity_products())
    @settings(max_examples=300, deadline=None)
    @example((IntMatrix.identity(0), IntMatrix.zeros(0, 3)))
    @example((IntMatrix.zeros(3, 0), IntMatrix.identity(0)))
    @example((IntMatrix.identity(3), IntMatrix.zeros(3, 0)))
    @example((IntMatrix.zeros(0, 2), IntMatrix.identity(2)))
    @example((IntMatrix.identity(2), IntMatrix.from_rows([[2 ** 64, -1, 5], [3, -(2 ** 70), 0]])))
    @example((IntMatrix.from_rows([[1, 0], [0, 2]]), IntMatrix.from_rows([[2 ** 64], [7]])))
    @example((IntMatrix.from_rows([[2 ** 64, 1]]), IntMatrix.from_rows([[1, 0], [0, 0]])))
    def test_identity_factors_match_the_triple_loop(self, pair):
        """A product with an identity factor returns the other factor,
        and one with an identity that differs in a single entry, the last
        one included, is multiplied out: either way the result is the
        triple loop's, for every partner shape and for entries past 64
        bits."""
        a, b = pair
        product = a @ b
        assert (product.rows, product.cols) == (a.rows, b.cols)
        assert product.to_rows() == _triple_loop(a, b)

    @given(st.integers(0, 4).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(-1, 2), min_size=n * n,
                                                 max_size=n * n))))
    @settings(max_examples=300, deadline=None)
    @example((3, [1, 0, 0, 0, 1, 0, 0, 0, 1]))
    @example((2, [1, 0, 1, 1]))
    @example((2, [1, 1, 0, 1]))
    def test_is_identity_and_is_zero_match_their_definitions(self, case):
        """``is_identity`` counts the diagonal ones and the zeros of the
        entry tuple, and ``is_zero`` asks whether any entry is nonzero:
        both agree with the entry-by-entry definitions, at every size
        from 0 and on non-square shapes."""
        n, entries = case
        a = IntMatrix(n, n, entries)
        assert a.is_identity() == (a.to_rows() == [[int(i == j) for j in range(n)]
                                                   for i in range(n)])
        assert a.is_zero() == all(x == 0 for x in entries)
        wide = IntMatrix(n, n + 1, entries + [0] * n)
        assert not wide.is_identity()
        assert wide.is_zero() == a.is_zero()
        assert IntMatrix.identity(n).is_identity()

    def test_power(self):
        a = IntMatrix.from_rows([[1, 1], [0, 1]])
        assert _power(a, 5).to_rows() == [[1, 5], [0, 1]]
        assert _power(a, 0).is_identity()

    def test_power_makes_no_product_with_the_identity(self, monkeypatch):
        """Square-and-multiply from the lowest set bit: k.bit_length() - 1
        squares and one product fewer than k has set bits, so a first
        power makes none; the result is the repeated product."""
        a = IntMatrix.from_rows([[1, 2, 0], [0, 1, -1], [3, 0, 1]])
        expected = [IntMatrix.identity(3)]
        for _ in range(70):
            expected.append(expected[-1] @ a)
        products = {"count": 0}
        product = IntMatrix.__matmul__

        def counting(x, y):
            products["count"] += 1
            return product(x, y)

        monkeypatch.setattr(IntMatrix, "__matmul__", counting)
        for k, power in enumerate(expected):
            products["count"] = 0
            assert _power(a, k) == power
            assert products["count"] == max(k.bit_length() - 1, 0) + max(bin(k).count("1") - 1, 0)
        products["count"] = 0
        assert _power(a, 1) == a and products["count"] == 0

    def test_det(self):
        assert det(IntMatrix.from_rows([[2, 0], [1, 3]])) == 6
        assert det(IntMatrix.from_rows([[0, 1], [1, 0]])) == -1
        assert det(IntMatrix.identity(0)) == 1

    def test_diagonal_checks_only_what_it_is_given(self):
        assert IntMatrix.diagonal([2, 3], rows=3) == IntMatrix.from_rows(
            [[2, 0], [0, 3], [0, 0]])
        with pytest.raises(TypeError):
            IntMatrix.diagonal([1, 1.5])
        with pytest.raises(ValueError):
            IntMatrix.diagonal([1, 2, 3], rows=2)
        with pytest.raises(ValueError):
            IntMatrix.diagonal([], rows=-1)

    @given(matrices)
    @settings(max_examples=60, deadline=None)
    def test_det_matches_sympy(self, m):
        sympy = pytest.importorskip("sympy")
        if m.rows != m.cols:
            return
        flat = [x for row in m.to_rows() for x in row]
        assert det(m) == int(sympy.Matrix(m.rows, m.cols, flat).det())


def assert_snf_contract(m: IntMatrix, s: SnfDecomposition | None = None):
    """``s`` (by default ``snf(m)``) is a Smith normal form of ``m``."""
    if s is None:
        s = snf(m)
    assert s.u @ m @ s.v == s.d
    assert s.u @ s.u_inv == IntMatrix.identity(m.rows)
    assert s.v @ s.v_inv == IntMatrix.identity(m.cols)
    assert abs(det(s.u)) == 1
    assert abs(det(s.v)) == 1
    diag = s.diagonal
    for i in range(m.rows):
        for j in range(m.cols):
            if i != j:
                assert s.d[i, j] == 0
    assert all(d >= 0 for d in diag)
    nonzero = [d for d in diag if d != 0]
    assert list(diag[: len(nonzero)]) == nonzero, "zeros must trail"
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0


class TestSnf:
    def test_diagonal_example(self):
        s = snf(IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]))
        assert s.diagonal == (2, 2, 156)

    def test_zero_and_empty(self):
        assert snf(IntMatrix.zeros(2, 3)).diagonal == (0, 0)
        assert snf(IntMatrix.zeros(0, 4)).diagonal == ()

    @given(matrices)
    @settings(max_examples=150, deadline=None)
    def test_contract_random(self, m):
        assert_snf_contract(m)

    @given(matrices)
    @settings(max_examples=60, deadline=None)
    def test_invariant_factors_match_sympy(self, m):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form

        ours = [d for d in snf(m).diagonal if d != 0]
        if m.rows == 0 or m.cols == 0:
            assert ours == []
            return
        flat = [x for row in m.to_rows() for x in row]
        theirs = smith_normal_form(sympy.Matrix(m.rows, m.cols, flat))
        sd = [abs(int(theirs[i, i])) for i in range(min(m.rows, m.cols))]
        assert ours == [d for d in sd if d != 0]

    @given(smith_candidates())
    @settings(max_examples=200, deadline=None)
    @example(([{0: 1}, {1: 2}, {2: 12}, {}, {}], 4))
    @example(([{0: 2}, {1: 2}], 4))
    @example(([{0: 2, 1: 5}, {1: 2}], 4))
    @example(([{}, {}], 0))
    @example(([{0: 1}, {1: -2}], 2))  # a negative diagonal entry
    @example(([{0: 1, 2: 5}, {1: 2}, {2: 2}], 3))  # one entry off the diagonal
    @example(([{1: 3}, {}], 2))  # off the diagonal, with fewer entries than places
    @example(([{0: 1}, {}, {2: 2}], 3))  # a zero row between nonzero ones
    @example(([{0: 2}, {1: 3}], 2))  # a diagonal that is not a divisibility chain
    @example(([{0: 2}, {1: 4}, {0: 1}], 2))  # more rows than columns
    def test_a_smith_form_is_its_own_form(self, candidate):
        """``snf`` of a matrix, and ``_smith_form`` of its sparse rows,
        equal the form ``_eliminate`` reduces a copy of them to, and call
        it exactly when that logs an operation: rows in Smith form
        already are their own form."""
        from test_cli import _rebind

        rows, cols = candidate
        row_log, col_log = [], []
        diagonal = _eliminate([dict(row) for row in rows], cols, row_log, col_log)
        eliminated = SnfDecomposition(diagonal, (len(rows), cols), tuple(row_log),
                                      tuple(col_log))
        for entry, args in ((snf, (_from_rows(rows, cols),)),
                            (_smith_form, ([dict(row) for row in rows], cols))):
            calls = []
            with pytest.MonkeyPatch.context() as patch:
                _rebind(patch, _eliminate, lambda *args: calls.append(args) or _eliminate(*args))
                assert entry(*args) == eliminated
            assert len(calls) == (1 if row_log or col_log else 0)

    def test_deterministic(self):
        m = IntMatrix.from_rows([[3, 1, 4], [1, 5, 9], [2, 6, 5]])
        first = snf(m)
        second = snf(IntMatrix.from_rows(m.to_rows()))
        assert first.u == second.u and first.v == second.v


@st.composite
def extensions(draw):
    """A matrix R and two blocks of columns B1, B2 with R's row count."""
    r = draw(matrices_of(st.integers(-9, 9), max_side=5))
    blocks = []
    for _ in range(2):
        cols = draw(st.integers(0, 4))
        rows = [draw(st.lists(st.integers(-9, 9), min_size=cols, max_size=cols))
                for _ in range(r.rows)]
        blocks.append(IntMatrix.from_rows(rows, cols=cols))
    return r, blocks[0], blocks[1]


def _extended(s: SnfDecomposition, b: IntMatrix) -> SnfDecomposition:
    """The form ``s`` of ``a`` continued over the exact Smith
    coordinates ``u @ b`` of the added columns past its unit factors, a
    form of ``[a | _congruent(s, b)]``."""
    return _continue_snf(s, _sparse_rows(s.u @ b)[s.diagonal.count(1):], b.cols)


def _congruent(s: SnfDecomposition, b: IntMatrix) -> IntMatrix:
    """``b' = u_inv @ c``, with ``c`` the Smith coordinates ``u @ b``
    whose rows at the unit factors of ``s`` are zeroed: congruent to
    ``b`` modulo the column span of ``a``."""
    c, r = s.u @ b, s.diagonal.count(1)
    return s.u_inv @ IntMatrix._of(c.rows, c.cols, (0,) * (r * c.cols) + c._entries[r * c.cols:])


def _block_diagonal(a: IntMatrix, n: int) -> IntMatrix:
    """``diag(a, I)`` with n rows and columns."""
    return IntMatrix.from_rows(
        [list(a.row(i)) + [0] * (n - a.cols) if i < a.rows else
         [int(i == j) for j in range(n)] for i in range(n)], cols=n)


class TestExtendSnf:
    """``_continue_snf`` of ``snf(R)`` over the non-unit rows of ``u @
    B`` is a Smith normal form of ``[R | B']``, ``B'`` congruent to
    ``B``, with the diagonal of ``[R | B]``, and so is a continuation of
    a continuation."""

    @staticmethod
    def assert_extends(stacked: IntMatrix, congruent: IntMatrix, s: SnfDecomposition):
        assert_snf_contract(congruent, s)
        assert s.diagonal == diagonal_entries(reference_snf(stacked).d)

    @given(extensions())
    @settings(max_examples=150, deadline=None)
    def test_one_step(self, case):
        r, b, _ = case
        s = snf(r)
        self.assert_extends(r.hstack(b), r.hstack(_congruent(s, b)), _extended(s, b))

    @given(extensions())
    @settings(max_examples=150, deadline=None)
    def test_two_steps(self, case):
        r, b1, b2 = case
        s = snf(r)
        e = _extended(s, b1)
        congruent = r.hstack(_congruent(s, b1)).hstack(_congruent(e, b2))
        self.assert_extends(r.hstack(b1).hstack(b2), congruent, _extended(e, b2))

    def test_transforms_continue_the_parents(self):
        """A continued form's logs begin with the parent's, so its
        transforms, replayed from the identity, pass through the
        parent's: ``u`` is the new row operations times the parent's
        ``u``, and ``v`` is ``diag(v, I)`` times the new column
        operations.  With no row operation added, ``u`` and ``u_inv``
        equal the parent's."""
        r = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        parent = snf(r)
        for b in (IntMatrix.from_rows([[1], [3], [5]]), IntMatrix.zeros(3, 2)):
            s = _extended(parent, b)
            rows, cols = len(parent.row_log), len(parent.col_log)
            assert s.row_log[:rows] == parent.row_log and s.col_log[:cols] == parent.col_log
            new = SnfDecomposition(s.diagonal, s.shape, s.row_log[rows:], s.col_log[cols:])
            assert s.u == new.u @ parent.u
            assert s.v == _block_diagonal(parent.v, s.d.cols) @ new.v
        assert s.u == parent.u and s.u_inv == parent.u_inv

    @given(matrices_of(st.integers(-9, 9), max_side=5), st.integers(0, 3))
    @settings(max_examples=100, deadline=None)
    def test_zero_block_matches_the_full_elimination(self, r, width):
        """``[d | u @ 0]`` is its own form; eliminating it as for any
        other block logs no operation and gives the same form and
        transforms."""
        parent = snf(r)
        b = IntMatrix.zeros(r.rows, width)
        cols = r.cols + width
        w = _sparse_rows(parent.d.hstack(parent.u @ b))
        row_log, col_log = [], []
        diagonal = _eliminate(w, cols, row_log, col_log)
        assert row_log == [] and col_log == []
        full = SnfDecomposition(diagonal, (r.rows, cols), parent.row_log, parent.col_log)
        s = _extended(parent, b)
        assert s == full
        for name in ("u", "u_inv", "v", "v_inv"):
            assert getattr(s, name) == getattr(full, name), name
        self.assert_extends(r.hstack(b), r.hstack(b), s)


def _eliminated_continuation(s: SnfDecomposition, rows: list[dict[int, int]],
                             width: int) -> SnfDecomposition:
    """``s`` continued by eliminating every row of ``[d | c]``, ``c``
    the ``width`` columns with sparse rows ``rows`` in its rows past the
    unit factors of ``s`` and empty unit rows, and putting the parent's
    logs in front."""
    (m, n), diag = s.shape, s.diagonal
    w = [{i: diag[i]} if i < len(diag) and diag[i] else {} for i in range(m)]
    for row, added in zip(w[diag.count(1):], rows):
        row.update((n + j, x) for j, x in added.items())
    row_log, col_log = [], []
    diagonal = _eliminate(w, n + width, row_log, col_log)
    return SnfDecomposition(diagonal, (m, n + width), s.row_log + tuple(row_log),
                            s.col_log + tuple(col_log))


@st.composite
def coordinate_blocks(draw):
    """A matrix R and two blocks of Smith coordinates as sparse rows, R's
    row count of them: zero blocks, or random entries in any row, so the
    coordinates are not reduced.  A continuation takes the rows past its
    parent's unit factors."""
    r = draw(matrices_of(st.sampled_from([-3, -1, 0, 0, 1, 1, 2, 6]), max_side=5))
    blocks = []
    for _ in range(2):
        width = draw(st.integers(0, 3))
        if width and draw(st.integers(0, 3)):
            entries = st.integers(-9, 9).filter(bool)
            rows = [draw(st.dictionaries(st.integers(0, width - 1), entries))
                    for _ in range(r.rows)]
        else:
            rows = [{} for _ in range(r.rows)]
        blocks.append((rows, width))
    return r, blocks


class TestContinuationBlock:
    """``_continue_snf`` eliminates only the rows of ``[d | c]`` past the
    parent's unit invariant factors, the block it is given, and gives
    the diagonal, row log and column log of eliminating all of them with
    the unit rows of ``c`` empty."""

    @given(coordinate_blocks())
    @example((IntMatrix.from_rows([[1, 0], [0, 2]]), [([{0: 5, 1: -1}, {0: 3}], 2)] * 2))
    @example((IntMatrix.from_rows([[1, 0, 0], [0, 1, 0]]), [([{0: 2}, {1: 4}], 2)] * 2))
    @example((IntMatrix.from_rows([[1], [2], [4]]), [([{}, {}, {}], 1), ([{0: 7}, {}, {0: 3}], 1)]))
    @example((IntMatrix.from_rows([[6, 0], [0, 6]]), [([{0: 4}, {0: 6}], 1)] * 2))
    @settings(max_examples=300, deadline=None)
    def test_matches_eliminating_every_row(self, case):
        r, blocks = case
        s = snf(r)
        for rows, width in blocks:
            block = rows[s.diagonal.count(1):]
            expected = _eliminated_continuation(s, block, width)
            s = _continue_snf(s, block, width)
            assert s == expected


def _reduced_coordinates(s: SnfDecomposition, b: IntMatrix) -> IntMatrix:
    """``u @ b`` with row i reduced into [0, d_i), free rows exact."""
    diag = s.diagonal
    y = s.u @ b
    return IntMatrix._of(y.rows, y.cols, [
        y[i, j] % diag[i] if i < len(diag) and diag[i] else y[i, j]
        for i in range(y.rows) for j in range(y.cols)])


class TestSmithCoordinates:
    """``_smith_vector`` reads single rows of ``u`` and columns of
    ``u_inv`` by walking the row log backwards, and ``_continue_snf``
    continues a form over Smith coordinates known only modulo d."""

    @given(extensions(), st.integers(2, 12))
    @settings(max_examples=150, deadline=None)
    def test_vectors_match_the_replayed_transforms(self, case, modulus):
        r, b, _ = case
        for s in (snf(r), _extended(snf(r), b)):
            diag = s.diagonal
            for i in range(s.d.rows):
                d = diag[i] if i < len(diag) else 0
                row = list(s.u.row(i))
                assert _smith_vector(s, i) == ([x % d for x in row] if d else row)
                column = list(s.u_inv.col(i))
                assert _smith_vector(s, i, column=True) == column
                assert _smith_vector(s, i, column=True, modulus=modulus) == [
                    x % modulus for x in column]

    @given(extensions())
    @settings(max_examples=150, deadline=None)
    def test_continuing_over_reduced_coordinates(self, case):
        """Over reduced coordinates c the form is an exact one of ``[R |
        u_inv @ c]`` and has the diagonal of ``[R | B1 | B2]``."""
        r, b1, b2 = case
        s = snf(r)
        c1 = _reduced_coordinates(s, b1)
        e = _continue_snf(s, _sparse_rows(c1)[s.diagonal.count(1):], c1.cols)
        assert_snf_contract(r.hstack(s.u_inv @ c1), e)
        assert e.diagonal == diagonal_entries(reference_snf(r.hstack(b1)).d)
        c2 = _reduced_coordinates(e, b2)
        e2 = _continue_snf(e, _sparse_rows(c2)[e.diagonal.count(1):], c2.cols)
        assert e2.diagonal == diagonal_entries(reference_snf(r.hstack(b1).hstack(b2)).d)

    def test_walk_keeps_torsion_rows_small(self):
        """A torsion row of u comes back inside [0, d_i) even when u's
        own entries are large."""
        rng = random.Random(3)
        a = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(10)] for _ in range(10)])
        s = snf(a)
        assert max(abs(x) for x in s.u._entries) > 10 ** 6
        for i, d in enumerate(s.diagonal):
            assert all(0 <= x < d for x in _smith_vector(s, i))


class TestSnfMatchesReference:
    """The SNF that reduces only ``d`` and replays its transforms from a
    log returns, entry for entry, the five matrices of the eager SNF
    kept in ``snf_reference``."""

    @staticmethod
    def assert_same(m: IntMatrix):
        ours, ref = snf(m), reference_snf(m)
        for name in ("u", "d", "v", "u_inv", "v_inv"):
            a, b = getattr(ours, name), getattr(ref, name)
            assert (a.rows, a.cols, a._entries) == (b.rows, b.cols, b._entries), name

    @given(matrices_of(st.integers(-9, 9), max_side=7))
    @settings(max_examples=150, deadline=None)
    def test_dense(self, m):
        self.assert_same(m)

    # no entry is a unit, so the general pivot scan and the divisibility
    # sweep run
    @given(matrices_of(st.builds(lambda p, k: p * k, st.sampled_from([2, 3]),
                                 st.integers(-5, 5)), max_side=7))
    @settings(max_examples=150, deadline=None)
    def test_without_units(self, m):
        self.assert_same(m)

    @given(matrices_of(st.sampled_from([0, 0, 0, 1, -1]), max_side=8))
    @settings(max_examples=150, deadline=None)
    def test_sparse_signs(self, m):
        self.assert_same(m)

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_boundary_matrices(self, seed):
        cx = random_complex(random.Random(seed), max_vertices=9)
        for a in range(cx.dimension + 2):
            self.assert_same(cx.boundary_matrix(a))

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
    def test_empty_shapes(self, shape):
        self.assert_same(IntMatrix.zeros(*shape))

    def test_cover_boundary_stacked_with_six(self):
        """``[d_1 | 6 I]`` of the 25-cover, the matrix whose kernel gives
        Z/6 cycles: elimination fills in rows here."""
        cx = build_dual_complex(fermat_cover_config(25))
        d1 = cx.boundary_matrix(1)
        self.assert_same(d1.hstack(IntMatrix.diagonal([6] * d1.rows)))

    def test_least_pivot_is_first_in_column_order(self):
        # row 1 holds -1 before a later +1; row 2's +1 comes later in
        # row-major order
        self.assert_same(IntMatrix.from_rows([[4, 6, 0, 8],
                                              [3, -1, 1, 0],
                                              [1, 2, 0, 5]]))
        # a sparse row lists its keys in insertion order, not column order
        assert _least_pivot([{2: 7}, {3: 1, 1: -1, 0: 2}], 0) == (1, 1)
        # without a unit, the first row holding the least |value| wins
        assert _least_pivot([{0: 4}, {2: -2, 1: 2}, {0: 2}], 0) == (1, 1)

    def test_random_sparse(self):
        """Up to 30 x 30 at about 10% density."""
        rng = random.Random(30)
        for _ in range(12):
            rows, cols = rng.randint(1, 30), rng.randint(1, 30)
            self.assert_same(IntMatrix.from_rows(
                [[rng.randint(-9, 9) if rng.random() < 0.1 else 0 for _ in range(cols)]
                 for _ in range(rows)], cols=cols))


def _reference_solve(a: IntMatrix, b) -> tuple[int, ...] | None:
    """One column solved as the package first did it, on the eager
    oracle SNF: ``u @ b`` divided by the diagonal with free
    coordinates zero, then ``v`` times that; None when unsolvable."""
    s = reference_snf(a)
    diag = diagonal_entries(s.d)
    z = [0] * a.cols
    for i, c in enumerate(s.u.apply(b)):
        d = diag[i] if i < len(diag) else 0
        if d == 0:
            if c != 0:
                return None
        elif c % d != 0:
            return None
        else:
            z[i] = c // d
    return s.v.apply(z)


@st.composite
def systems(draw):
    """A matrix and right-hand sides, each either a @ x (solvable) or
    drawn freely (often not)."""
    a = draw(matrices_of(st.integers(-9, 9), 4))
    columns = []
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            x = draw(st.lists(st.integers(-4, 4), min_size=a.cols, max_size=a.cols))
            columns.append(a.apply(x))
        else:
            columns.append(tuple(draw(st.lists(st.integers(-9, 9), min_size=a.rows,
                                               max_size=a.rows))))
    return a, columns


class TestSolvers:
    def test_solve_unique(self):
        a = IntMatrix.from_rows([[2, 0], [0, 3]])
        assert solve(a, [4, 9]) == (2, 3)
        assert solve(a, [1, 0]) is None

    def test_solve_underdetermined_prefers_zero_free_coords(self):
        a = IntMatrix.from_rows([[1, 1]])
        x = solve(a, [5])
        assert x is not None and a.apply(x) == (5,)

    def test_solve_matrix(self):
        a = IntMatrix.from_rows([[1, 2], [0, 1]])
        b = IntMatrix.from_rows([[3], [1]])
        x = solve_matrix(a, b)
        assert a @ x == b

    @given(matrices, st.lists(st.integers(-4, 4), min_size=0, max_size=5))
    @settings(max_examples=80, deadline=None)
    def test_solve_verifies(self, a, x):
        if len(x) != a.cols:
            return
        b = a.apply(x)
        y = solve(a, b)
        assert y is not None
        assert a.apply(y) == b

    @given(systems())
    @example((IntMatrix.zeros(0, 0), [(), ()]))
    @example((IntMatrix.zeros(0, 3), [()]))
    @example((IntMatrix.zeros(3, 0), [(0, 0, 0), (0, 1, 0)]))
    @example((IntMatrix.zeros(2, 2), []))
    @example((IntMatrix.from_rows([[2, 0], [0, 3]]), [(4, 9), (1, 0)]))
    @settings(max_examples=150, deadline=None)
    def test_solve_matrix_matches_reference(self, system):
        a, columns = system
        expected = [_reference_solve(a, b) for b in columns]
        assert [solve(a, b) for b in columns] == expected
        x = solve_matrix(a, IntMatrix.from_columns(columns, rows=a.rows))
        if None in expected:
            assert x is None
        else:
            assert x == IntMatrix.from_columns(expected, rows=a.cols)

    def test_kernel_basis_spans_kernel(self):
        a = IntMatrix.from_rows([[1, 2, 3], [2, 4, 6]])
        k = kernel_basis(a)
        assert k.cols == 2
        assert (a @ k).is_zero()
        # saturation: (1, 1, -1) is in the kernel, so in the span
        assert in_column_span(k, [1, 1, -1])

    def test_preimage_generators(self):
        # vectors x with a.x divisible by 3 in both coordinates
        a = IntMatrix.from_rows([[1, 0], [0, 1]])
        lattice = IntMatrix.from_rows([[3, 0], [0, 3]])
        g = preimage_generators(a, lattice)
        for j in range(g.cols):
            col = g.col(j)
            assert col[0] % 3 == 0 and col[1] % 3 == 0
        assert in_column_span(g, [3, 0])
        assert in_column_span(g, [0, 3])
        assert not in_column_span(g, [1, 0])

    @given(matrices)
    @settings(max_examples=60, deadline=None)
    def test_kernel_random(self, a):
        k = kernel_basis(a)
        assert (a @ k).is_zero()
