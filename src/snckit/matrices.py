"""Exact integer matrices and a Smith normal form on sparse rows.

Everything in this module runs over Python's arbitrary-precision
integers; no floating point is ever involved.  ``IntMatrix`` is
immutable and stores its entries row-major in one flat tuple.  Shapes
with zero rows or zero columns are legal everywhere and stand for zero
objects, so degenerate inputs flow through every routine without
special casing by the caller.  ``IntMatrix.identity(n)`` builds a new
matrix on every call.  A product with a square factor equal to the
identity returns the other factor, exactly: ``is_identity`` counts the
ones on the diagonal and the zeros of the whole entry tuple in C,
without building an identity to compare with, and no dot product runs
for such a product.

The Smith normal form here is the engine behind all homology and group
computations: ``snf(a)`` returns unimodular ``u``, ``v`` and their
inverses with ``u @ a @ v`` equal to a nonnegative diagonal matrix
whose entries form a divisibility chain.  Elimination works on a copy
of ``a`` held as sparse rows, ``{column: value}`` dicts of the nonzero
entries, so a row operation costs in proportion to the nonzeros it
reads.  One routine, ``_smith_form``, makes every Smith form from
sparse rows: ``snf`` hands it that copy, homology its boundaries and
the relations of H_a, and ``_continue_snf`` the rows of a continued
form.  Rows in Smith form already are their own form, with empty
logs; others go to ``_eliminate``, which nothing else calls.
Elimination reduces only its rows, whose diagonal the form keeps with
its shape, and logs its row and column operations.  ``d`` and each
transform are built from those the first time they are read, a
transform replayed from its log on sparse rows and made dense once,
equal entry for entry to the one that tracking it densely during
elimination would give.  A solve reads no
transform: it replays the row log on the sparse rows of its
right-hand side and the column log on those of the solution.
Coordinates on the columns of ``v``, which ``_v_columns`` reads off a
form (those past the rank span its kernel), need no solve at all:
``_cycle_coordinates`` replays the inverted column log alone, and the
diagonal tells whether each vector is a cycle, over Z or modulo n.
Pivoting always picks the entry of smallest nonzero absolute value,
breaking ties by (row, col), in one scan that stops at the first ±1,
which keeps every run bit-for-bit reproducible.

A matrix that only adds columns ``b`` to one whose form is known gets
its form from ``_continue_snf``, not from ``snf``: ``u @ [a | b] @
diag(v, I)`` is ``[d | u @ b]``, and the Smith coordinates ``c`` of
the added columns need only be right modulo the column span of ``d``.
Coordinate i is then needed only modulo d_i, so those of the leading
d_i == 1 are zero, and their rows of ``[d | c]`` are finished pivots.
A continuation takes the sparse rows of the other coordinates alone,
and ``_smith_form`` puts that block in Smith form, so the work is that
of a nearly diagonal matrix of those rows, and none when their
coordinates are zero.  The diagonal is the one ``snf`` would give,
while ``u`` and ``v`` may differ.  The form is that of ``[a | b']``
for some ``b'`` congruent to ``b`` modulo the column span of ``a``:
the same lattice, the same diagonal.  Groups continue their forms this
way, over reduced coordinates.

A caller that needs a few Smith coordinates, not a whole transform,
reads them with ``_smith_vector``: row i of ``u`` reduced modulo d_i
(every multiple of d_i in coordinate i is a relation), or column i of
``u_inv``, exactly or modulo a given modulus, each by one backward walk
over the row log, or over the part of it past a parent's log.  Every
decomposition keeps the exact unimodular
contract ``u @ a @ v == d`` (for ``_continue_snf``, with ``a`` the
congruent ``[a | b']``); reducing coordinates is left to the callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd
from operator import index as _as_int, mul
from typing import Iterable, Sequence

__all__ = [
    "IntMatrix",
    "SnfDecomposition",
    "snf",
    "solve",
    "solve_matrix",
    "kernel_basis",
    "preimage_generators",
    "in_column_span",
]


def _shape(rows: int, cols: int) -> tuple[int, int]:
    rows = _as_int(rows)
    cols = _as_int(cols)
    if rows < 0 or cols < 0:
        raise ValueError("matrix shape must be nonnegative")
    return rows, cols


class IntMatrix:
    """An immutable ``rows x cols`` matrix of Python ints."""

    __slots__ = ("rows", "cols", "_entries")

    def __init__(self, rows: int, cols: int, entries: Iterable[int]):
        rows, cols = _shape(rows, cols)
        data = tuple(_as_int(x) for x in entries)
        if len(data) != rows * cols:
            raise ValueError(
                f"shape ({rows}, {cols}) needs {rows * cols} entries, got {len(data)}"
            )
        self.rows = rows
        self.cols = cols
        self._entries = data

    @classmethod
    def _of(cls, rows: int, cols: int, entries: Iterable[int]) -> "IntMatrix":
        """A matrix from entries the package computed itself, which are
        ints already; skips the checks that ``__init__`` makes on
        caller data."""
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m._entries = tuple(entries)
        return m

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rows(cls, rows_data: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        rows_list = [list(r) for r in rows_data]
        if rows_list:
            width = len(rows_list[0])
            if any(len(r) != width for r in rows_list):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError("explicit column count does not match rows")
            cols = width
        elif cols is None:
            cols = 0
        flat = [x for r in rows_list for x in r]
        return cls(len(rows_list), cols, flat)

    @classmethod
    def from_columns(cls, cols_data: Sequence[Sequence[int]], rows: int | None = None) -> "IntMatrix":
        cols_list = [list(c) for c in cols_data]
        if cols_list:
            height = len(cols_list[0])
            if any(len(c) != height for c in cols_list):
                raise ValueError("ragged columns")
            if rows is not None and rows != height:
                raise ValueError("explicit row count does not match columns")
            rows = height
        elif rows is None:
            rows = 0
        flat = [cols_list[j][i] for i in range(rows) for j in range(len(cols_list))]
        return cls(rows, len(cols_list), flat)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        rows, cols = _shape(rows, cols)
        return cls._of(rows, cols, [0] * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        """The n x n identity, a new matrix on every call."""
        n, _ = _shape(n, n)
        entries = [0] * (n * n)
        entries[::n + 1] = [1] * n
        return cls._of(n, n, entries)

    @classmethod
    def diagonal(cls, values: Sequence[int], rows: int | None = None, cols: int | None = None) -> "IntMatrix":
        vals = list(values)
        rows, cols = _shape(len(vals) if rows is None else rows,
                            len(vals) if cols is None else cols)
        if len(vals) > min(rows, cols):
            raise ValueError("too many diagonal values for the requested shape")
        # only the given values need checking: every other entry is 0
        entries = [0] * (rows * cols)
        for i, v in enumerate(vals):
            entries[i * cols + i] = _as_int(v)
        return cls._of(rows, cols, entries)

    # -- access -------------------------------------------------------

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i}, {j}) out of range for {self.rows}x{self.cols}")
        return self._entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        if not 0 <= i < self.rows:
            raise IndexError(i)
        return self._entries[i * self.cols:(i + 1) * self.cols]

    def col(self, j: int) -> tuple[int, ...]:
        if not 0 <= j < self.cols:
            raise IndexError(j)
        return tuple(self._entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    # -- algebra ------------------------------------------------------

    def transpose(self) -> "IntMatrix":
        return IntMatrix._of(
            self.cols, self.rows,
            [self._entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)],
        )

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ValueError("hstack needs equal row counts")
        entries = []
        for i in range(self.rows):
            entries.extend(self.row(i))
            entries.extend(other.row(i))
        return IntMatrix._of(self.rows, self.cols + other.cols, entries)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        n, k, m = self.rows, self.cols, other.cols
        if not (n and k and m):
            return IntMatrix._of(n, m, [0] * (n * m))
        # I @ B is B and A @ I is A, exactly: a square factor costs two
        # counts in C, of the ones on its diagonal and of its zeros
        if n == k and self.is_identity():
            return other
        if k == m and other.is_identity():
            return self
        # each entry is one dot product of a row slice and a column
        # slice of the flat tuples, summed in C
        a, b = self._entries, other._entries
        columns = [b[j::m] for j in range(m)]
        return IntMatrix._of(n, m, [sum(map(mul, a[i:i + k], column))
                                    for i in range(0, n * k, k) for column in columns])

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Matrix times column vector."""
        v = [_as_int(x) for x in vec]
        if len(v) != self.cols:
            raise ValueError(f"vector length {len(v)} does not match {self.cols} columns")
        return tuple(
            sum(self._entries[i * self.cols + j] * v[j] for j in range(self.cols))
            for i in range(self.rows)
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return IntMatrix._of(self.rows, self.cols, [a - b for a, b in zip(self._entries, other._entries)])

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self._entries)

    def is_identity(self) -> bool:
        n, e = self.rows, self._entries
        return n == self.cols and e[::n + 1].count(1) == n and e.count(0) == n * n - n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return (self.rows, self.cols, self._entries) == (other.rows, other.cols, other._entries)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._entries))

    def __repr__(self) -> str:
        if self.rows * self.cols <= 36:
            return f"IntMatrix.from_rows({self.to_rows()!r}, cols={self.cols})"
        return f"<IntMatrix {self.rows}x{self.cols}>"


def _power(m: IntMatrix, k: int, modulus: int = 0) -> IntMatrix:
    """The square matrix ``m`` to the power ``k`` >= 0, exact, or with
    every product reduced into [0, modulus) when a modulus is given.
    Square-and-multiply starts at the lowest set bit of ``k`` and stops
    at the highest, so it makes no product with the identity and no
    square past the last one it uses: k.bit_length() - 1 squares and one
    product fewer than k has set bits."""

    def reduced(x: IntMatrix) -> IntMatrix:
        return IntMatrix._of(x.rows, x.cols, [v % modulus for v in x._entries]) if modulus else x

    if not k:
        return reduced(IntMatrix.identity(m.rows))
    base, result = reduced(m), None
    while True:
        if k & 1:
            result = base if result is None else reduced(result @ base)
        k >>= 1
        if not k:
            return result
        base = reduced(base @ base)


# An elimination log is a list of row operations, each a tuple:
# ``(i, j)`` swaps rows i and j, ``(i, j, q)`` adds q times row j to
# row i, and ``(i,)`` negates row i.  Column operations are logged in
# the same form, read on columns.
#
# Working rows are sparse: a row is a ``{column: value}`` dict that
# holds its nonzero entries only, and a transform or right-hand side is
# a list of such rows.


def _add_multiple(row: dict[int, int], other: dict[int, int], q: int) -> None:
    """``row += q * other`` in place, keeping only nonzero entries."""
    if not q:
        return
    get = row.get
    for k, y in other.items():
        x = get(k, 0) + q * y
        if x:
            row[k] = x
        else:
            # q * y is nonzero, so a zero sum means k was present
            del row[k]


def _replay(rows: list[dict[int, int]], log: Sequence[tuple[int, ...]]) -> list[dict[int, int]]:
    """``rows`` after the logged row operations, which rebind its
    entries in place; returns ``rows``."""
    for op in log:
        if len(op) == 3:
            i, j, q = op
            _add_multiple(rows[i], rows[j], q)
        elif len(op) == 2:
            i, j = op
            rows[i], rows[j] = rows[j], rows[i]
        else:
            i = op[0]
            rows[i] = {k: -x for k, x in rows[i].items()}
    return rows


def _sparse_identity(n: int) -> list[dict[int, int]]:
    return [{i: 1} for i in range(n)]


def _inverse_transposed(log: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Row operations that build the transpose of the inverse of what
    ``log`` builds: swaps and negations are their own inverse-transpose,
    and adding q times row j to row i becomes subtracting q times row i
    from row j."""
    return [(op[1], op[0], -op[2]) if len(op) == 3 else op for op in log]


def _transposed(log: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Row operations that, replayed on ``z``, give ``e @ z`` where
    ``e`` is what ``log`` builds when its operations are read on
    columns: the same operations, transposed and in reverse order."""
    return [(op[1], op[0], op[2]) if len(op) == 3 else op for op in reversed(log)]


def _sparse_rows(a: IntMatrix) -> list[dict[int, int]]:
    n, e = a.cols, a._entries
    return [{j: x for j, x in enumerate(e[i * n:(i + 1) * n]) if x} for i in range(a.rows)]


def _from_rows(rows: list[dict[int, int]], cols: int) -> IntMatrix:
    """The ``len(rows) x cols`` matrix with these sparse rows."""
    entries = [0] * (len(rows) * cols)
    for i, row in enumerate(rows):
        base = i * cols
        for j, x in row.items():
            entries[base + j] = x
    return IntMatrix._of(len(rows), cols, entries)


def _from_columns(columns: list[dict[int, int]], rows: int) -> IntMatrix:
    """The ``rows x len(columns)`` matrix with these sparse columns,
    cut to their first ``rows`` coordinates."""
    width = len(columns)
    entries = [0] * (rows * width)
    for k, column in enumerate(columns):
        for i, x in column.items():
            if i < rows:
                entries[i * width + k] = x
    return IntMatrix._of(rows, width, entries)


def _combination(columns: list[dict[int, int]], coefficients: Sequence[int],
                 modulus: int = 0) -> dict[int, int]:
    """The sum of the sparse ``columns`` times their ``coefficients``,
    as a sparse column, reduced into [0, modulus) when a modulus is
    given and exact when it is 0."""
    total: dict[int, int] = {}
    for column, c in zip(columns, coefficients):
        _add_multiple(total, column, c)
    return {k: x % modulus for k, x in total.items()} if modulus else total


@dataclass(frozen=True)
class SnfDecomposition:
    """Smith normal form ``u @ a @ v == d`` with unimodular u, v.

    It holds what elimination computes: ``diagonal``, nonnegative
    entries forming a divisibility chain d_0 | d_1 | ... with zeros
    trailing, the ``shape`` of ``a``, and the logged row operations
    (``row_log``, which ``u`` records) and column operations
    (``col_log``, which ``v`` records).  Every matrix is derived on its
    first read: ``d`` from the diagonal, and ``u``, ``v`` and their
    exact inverses ``u_inv``, ``v_inv`` replayed from the logs on sparse
    rows, so no inversion step is ever needed and no caller pays for a
    matrix it does not read.  A form that ``_continue_snf`` made from a
    parent's has logs that begin with the parent's, so replaying them
    from the identity passes through the parent's transforms.
    """

    diagonal: tuple[int, ...]
    shape: tuple[int, int]
    row_log: tuple[tuple[int, ...], ...]
    col_log: tuple[tuple[int, ...], ...]

    def _replayed(self, name: str, by_rows: bool) -> IntMatrix:
        """Transform ``name`` replayed from the identity on sparse rows,
        which are its rows when ``by_rows`` and its columns otherwise."""
        row_side = name[0] == "u"
        n = self.shape[0] if row_side else self.shape[1]
        log = self.row_log if row_side else self.col_log
        if name.endswith("_inv"):
            log = _inverse_transposed(log)
        rows = _replay(_sparse_identity(n), log)
        return _from_rows(rows, n) if by_rows else _from_columns(rows, n)

    @cached_property
    def d(self) -> IntMatrix:
        return IntMatrix.diagonal(self.diagonal, *self.shape)

    @cached_property
    def u(self) -> IntMatrix:
        return self._replayed("u", True)

    @cached_property
    def u_inv(self) -> IntMatrix:
        return self._replayed("u_inv", False)

    # a column operation on v is the same row operation on its transpose
    @cached_property
    def v(self) -> IntMatrix:
        return self._replayed("v", False)

    @cached_property
    def v_inv(self) -> IntMatrix:
        return self._replayed("v_inv", True)

    @property
    def rank(self) -> int:
        return sum(1 for x in self.diagonal if x != 0)


def _least_pivot(d: list[dict[int, int]], t: int) -> tuple[int, int] | None:
    """The first entry of least nonzero |value| of the working block
    (rows and columns t and after, so all of rows t and after) in
    row-major order, or None when it is zero.  No |value| is less than
    1, so the scan stops at the first row that holds a 1 or -1."""
    least, best = 0, None
    for i in range(t, len(d)):
        row = d[i]
        if not row:
            continue
        ax = min(map(abs, row.values()))
        if best is None or ax < least:
            least, best = ax, (i, min(j for j, x in row.items() if abs(x) == ax))
            if ax == 1:
                break
    return best


def _eliminate(d: list[dict[int, int]], n: int, row_log: list[tuple[int, ...]],
               col_log: list[tuple[int, ...]]) -> tuple[int, ...]:
    """Reduce the sparse rows ``d`` of a matrix with ``n`` columns in
    place to Smith normal form, appending each row and column operation
    to ``row_log`` and ``col_log``, and return its diagonal; the pivot
    rule is the one ``snf`` documents."""
    m = len(d)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        row_log.append((i, j))

    def add_row(i, j, q):
        _add_multiple(d[i], d[j], q)
        row_log.append((i, j, q))

    # Column operations only ever act on columns t and after, and every
    # column at or after t is zero in the rows above t.  So a column
    # swap only touches rows t and below.
    def swap_cols(t, j):
        for r in d[t:]:
            x = r.pop(t, 0)
            y = r.pop(j, 0)
            if y:
                r[t] = y
            if x:
                r[j] = x
        col_log.append((t, j))

    t = 0
    bound = min(m, n)
    while t < bound:
        best = _least_pivot(d, t)
        if best is None:
            break
        bi, bj = best
        if bi != t:
            swap_rows(t, bi)
        if bj != t:
            swap_cols(t, bj)
        while True:
            pivot_row = d[t]
            if pivot_row[t] < 0:
                d[t] = pivot_row = {j: -x for j, x in pivot_row.items()}
                row_log.append((t,))
            p = pivot_row[t]
            disturbed = False
            for i in range(t + 1, m):
                x = d[i].get(t)
                if x is None:
                    continue
                add_row(i, t, -(x // p))
                if t in d[i]:
                    # remainder is strictly smaller than p: promote it
                    swap_rows(t, i)
                    disturbed = True
                    break
            if disturbed:
                continue
            # Column t is now zero below the pivot (and above it), so
            # adding a multiple of column t to column j changes only
            # row t of d.
            for j in sorted(pivot_row):
                if j == t:
                    continue
                x = pivot_row[j]
                q = -(x // p)
                col_log.append((j, t, q))
                x += q * p
                if x:
                    pivot_row[j] = x
                    swap_cols(t, j)
                    disturbed = True
                    break
                del pivot_row[j]
            if disturbed:
                continue
            if p == 1:
                # a pivot of 1 divides every entry
                break
            # a row's entries are all multiples of p iff their gcd is
            offender = next((i for i in range(t + 1, m) if gcd(*d[i].values()) % p), None)
            if offender is None:
                break
            # pull a non-multiple into the pivot row and reduce again
            add_row(t, offender, 1)
        t += 1
    return tuple(d[i].get(i, 0) for i in range(bound))


def snf(a: IntMatrix) -> SnfDecomposition:
    """Smith normal form with smallest-absolute-value pivoting.

    The pivot is the first entry of minimal |value| in a row-major scan
    of the working block, i.e. ties break by (row, col), and the scan
    stops at the first 1 or -1.  Rows are reduced as sparse dicts, so an
    operation costs in proportion to the nonzeros it reads.  The form
    is ``_smith_form``'s of those rows, so a matrix in Smith normal form
    already, such as a group built on its invariant factors, is its own
    form.
    """
    return _smith_form(_sparse_rows(a), a.cols)


def _smith_form(rows: list[dict[int, int]], cols: int) -> SnfDecomposition:
    """``snf`` of the matrix with ``cols`` columns whose sparse rows are
    ``rows``, reduced in place; every Smith form is made here.  Rows in
    Smith form already are their own form, with empty logs, since
    elimination would log no operation on them; any others
    ``_eliminate`` reduces."""
    bound = min(len(rows), cols)
    entries = sum(map(len, rows))
    row_log: list[tuple[int, ...]] = []
    col_log: list[tuple[int, ...]] = []
    # Rows in Smith form hold no entry off the diagonal: no more entries
    # than it has places, and as many as it has nonzero entries.  Each
    # diagonal entry is nonnegative and divides the next (gcd(x, y) ==
    # x), and zeros trail (0 divides only 0).
    diagonal = tuple(rows[i].get(i, 0) for i in range(bound)) if entries <= bound else ()
    if (entries != len(diagonal) - diagonal.count(0)
            or not all(gcd(x, y) == x for x, y in zip(diagonal, diagonal[1:] + (0,)))):
        diagonal = _eliminate(rows, cols, row_log, col_log)
    return SnfDecomposition(diagonal, (len(rows), cols), tuple(row_log), tuple(col_log))


def _continue_snf(s: SnfDecomposition, block: list[dict[int, int]],
                  width: int) -> SnfDecomposition:
    """A Smith normal form of ``[a | b']``, where ``s`` is the form of
    ``a``, ``b'`` is congruent to the ``width`` added columns ``b``
    modulo the column span of ``a``, and ``block`` holds the sparse rows
    of the Smith coordinates ``c`` of ``b`` past the parent's r unit
    invariant factors: row k is coordinate r + k of ``u @ b``, needed
    only modulo d_{r+k} (0 for a free row).

    ``[d | c]``, with the first r rows of ``c`` zero, is ``u @ [a | b']
    @ diag(v, I)`` with ``b' = u_inv @ c``, and ``u @ b - c`` lies in
    the column span of ``d``, so ``b' - b`` lies in that of ``a``:
    ``[a | b']`` and ``[a | b]`` span one lattice and share the
    diagonal.  Its first r rows are finished pivots 1, alone in their
    columns, so its form continues ``s`` by that of the block of rows
    and columns r and after (its own form when it is in Smith form
    already, as when ``c`` is zero): the logs are the parent's
    operations followed by the block's, with indices raised by r, read
    on the wider matrix (the parent's column operations touch only the
    columns of ``a``).
    """
    (m, n), diag = s.shape, s.diagonal
    # the unit factors lead a divisibility chain
    r = diag.count(1)
    w = [{i - r: diag[i]} if i < len(diag) and diag[i] else {} for i in range(r, m)]
    for row, added in zip(w, block):
        row.update((n - r + j, x) for j, x in added.items())
    e = _smith_form(w, n - r + width)
    return SnfDecomposition(diag[:r] + e.diagonal, (m, n + width),
                            s.row_log + _shifted(e.row_log, r),
                            s.col_log + _shifted(e.col_log, r))


def _shifted(log: tuple[tuple[int, ...], ...], r: int) -> tuple[tuple[int, ...], ...]:
    """``log`` with every row or column index raised by r."""
    if not (r and log):
        return log
    return tuple((op[0] + r, op[1] + r, op[2]) if len(op) == 3 else tuple(k + r for k in op)
                 for op in log)


def _smith_vector(s: SnfDecomposition, i: int, column: bool = False,
                  modulus: int = 0, start: int = 0) -> list[int]:
    """Row i of ``u``, reduced into [0, d_i) when d_i > 0 and exact
    when d_i == 0 or i is at or past the rank; with ``column``, column
    i of ``u_inv``, exact, or reduced into [0, modulus) when a modulus
    is given.  No transform is replayed.  The walk skips the first
    ``start`` operations of the row log: on a continued form, with
    ``start`` the length of its parent's row log, it reads the ``u``
    that the continuation's own row operations build.

    ``u`` is the logged row operations applied in order to the
    identity, so its row i is e_i times their product, which is e_i
    acted on by the operations transposed, last first: adding q times
    row j to row i becomes adding q times entry i to entry j.
    ``u_inv`` is the inverse operations in reverse order, so its column
    i is e_i acted on by the inverses, last first: subtracting q times
    entry j from entry i.  Either walk costs one step per operation it
    reads.
    """
    diag = s.diagonal
    m = modulus if column else diag[i] if i < len(diag) else 0
    x = [0] * s.shape[0]
    x[i] = 1 % m if m else 1
    for op in reversed(s.row_log[start:]):
        if len(op) == 3:
            a, b, q = op
            if column:
                if x[b]:
                    x[a] = (x[a] - q * x[b]) % m if m else x[a] - q * x[b]
            elif x[a]:
                x[b] = (x[b] + q * x[a]) % m if m else x[b] + q * x[a]
        elif len(op) == 2:
            a, b = op
            x[a], x[b] = x[b], x[a]
        else:
            a = op[0]
            x[a] = -x[a] % m if m else -x[a]
    return x


def _smith_coordinates(s: SnfDecomposition,
                       c: list[dict[int, int]]) -> list[dict[int, int]] | None:
    """The sparse rows of the z with ``d @ z == c``, free coordinates
    zero, or None when some column of ``c`` has none; ``c`` is given by
    its sparse rows.  For ``c == u @ b``, ``v @ z`` solves ``a @ x ==
    b``."""
    diag = s.diagonal
    z: list[dict[int, int]] = [{} for _ in range(s.shape[1])]
    for i, row in enumerate(c):
        di = diag[i] if i < len(diag) else 0
        if di == 0:
            if row:
                return None
            continue
        zi = z[i]
        for j, x in row.items():
            q, r = divmod(x, di)
            if r:
                return None
            zi[j] = q
    return z


def solve_matrix(a: IntMatrix, b: IntMatrix) -> IntMatrix | None:
    """One integer solution x of ``a @ x == b``, or None when some
    column of ``b`` has no solution.

    The Smith coordinates that are free (the solution is not unique)
    are set to zero, which makes the returned matrix deterministic.
    All columns are solved together, and no transform is built: ``u @
    b`` is the row log replayed on the sparse rows of ``b``, and ``v @
    z`` the column log, transposed and reversed, replayed on the sparse
    rows of z.
    """
    if a.rows != b.rows:
        raise ValueError("row counts differ")
    s = snf(a)
    z = _smith_coordinates(s, _replay(_sparse_rows(b), s.row_log))
    if z is None:
        return None
    return _from_rows(_replay(z, _transposed(s.col_log)), b.cols)


def solve(a: IntMatrix, b: Sequence[int]) -> tuple[int, ...] | None:
    """``solve_matrix`` for the one column ``b``."""
    x = solve_matrix(a, IntMatrix.from_columns([b], rows=a.rows))
    return None if x is None else x.col(0)


def _v_columns(s: SnfDecomposition) -> list[dict[int, int]]:
    """The columns of ``v`` of the form ``s``, as sparse dicts; those
    past the rank are a basis of the kernel.  Column k of ``v`` is row
    k of the column log replayed on the identity, so ``v`` itself is
    never built."""
    return _replay(_sparse_identity(s.shape[1]), s.col_log)


def _cycle_coordinates(s: SnfDecomposition, rows: list[dict[int, int]],
                       modulus: int = 0) -> list[dict[int, int]] | None:
    """The sparse rows of ``w = v_inv @ y``, the coordinates of each
    column of y on the columns of ``v``, where y is the matrix whose
    sparse rows are ``rows`` (replayed in place); None when some column
    of ``a @ y`` is nonzero modulo ``modulus`` (at all, when it is 0).

    ``a @ y == u_inv @ d @ w`` with ``u_inv`` unimodular, so it vanishes
    modulo ``modulus`` exactly when d_i·w_i does for every i below the
    rank; over Z the rows past the rank are then the unique coordinates
    on the kernel columns of ``v``.  ``v_inv`` is the column log,
    inverted and transposed, replayed on the rows of y; nothing is
    eliminated."""
    w = _replay(rows, _inverse_transposed(s.col_log))
    r = s.rank
    if modulus:
        off = any(t * x % modulus for t, row in zip(s.diagonal, w[:r]) for x in row.values())
    else:
        off = any(w[:r])
    return None if off else w


def kernel_basis(a: IntMatrix) -> IntMatrix:
    """A basis of the integer kernel lattice of ``a`` as columns.

    The basis consists of columns of the unimodular ``v`` from the
    Smith decomposition, so it is saturated: it extends to a basis of
    the full ambient lattice Z^cols.
    """
    s = snf(a)
    return _from_columns(_v_columns(s)[s.rank:], a.cols)


def preimage_generators(a: IntMatrix, lattice: IntMatrix) -> IntMatrix:
    """Generators (columns) of ``{x : a @ x lies in the column span of lattice}``.

    Computed as the projection of the kernel of ``[a | lattice]`` onto
    the first block of coordinates; projecting a lattice basis yields a
    generating set of the projected lattice.
    """
    if a.rows != lattice.rows:
        raise ValueError("lattice must live in the codomain of a")
    s = snf(a.hstack(lattice))
    return _from_columns(_v_columns(s)[s.rank:], a.cols)


def _preimage_lattice(s: SnfDecomposition, e: SnfDecomposition) -> IntMatrix:
    """Generators (columns) of ``{x : b @ x lies in the column span of
    a}``, where ``s`` is the Smith form of ``a`` and ``e`` is
    ``_continue_snf`` of ``s`` over ``u @ b`` or over any ``c``
    congruent to it (which changes ``b @ x`` only by a vector of that
    span).

    The kernel of ``[a | b]`` is spanned by the columns of the extended
    ``v`` past the rank, and that ``v`` is ``diag(v_a, I) @ v'`` with
    ``v'`` built by the new column operations alone, so the rows of the
    ``b`` block are those of ``v'``: no transform of ``a`` is replayed.
    Unlike ``preimage_generators`` the generators depend on the
    elimination of ``a``, so they fit where only the lattice matters.
    """
    n, width = s.shape[1], e.shape[1]
    columns = _replay(_sparse_identity(width), e.col_log[len(s.col_log):])[e.rank:]
    return _from_columns([{j - n: x for j, x in c.items() if j >= n} for c in columns],
                         width - n)


def in_column_span(a: IntMatrix, b: Sequence[int]) -> bool:
    """Whether ``b`` lies in the lattice generated by the columns of ``a``."""
    return solve(a, b) is not None
