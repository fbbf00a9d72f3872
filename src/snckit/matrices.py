"""Exact integer matrices and a Smith normal form on sparse rows.

Everything in this module runs over Python's arbitrary-precision
integers; no floating point is ever involved.  ``IntMatrix`` is
immutable and stores its entries row-major in one flat tuple.  Shapes
with zero rows or zero columns are legal everywhere and stand for zero
objects, so degenerate inputs flow through every routine without
special casing by the caller.

The Smith normal form here is the engine behind all homology and
group computations: ``snf(a)`` returns unimodular ``u``, ``v`` and
their inverses with ``u @ a @ v`` equal to a nonnegative diagonal
matrix whose entries form a divisibility chain.  Elimination works on
a copy of ``a`` held as sparse rows, ``{column: value}`` dicts of the
nonzero entries, so a row operation costs in proportion to the
nonzeros it reads.  It reduces only that copy, which becomes ``d``,
and logs its row and column operations.  Each transform is replayed
from the log on sparse rows the first time it is read and made dense
once, at the end; it equals, entry for entry, the one that tracking it
densely during elimination would give.  A solve reads no transform: it
replays the row log on the sparse rows of its right-hand side and the
column log on those of the solution.  Pivoting always picks the entry
of smallest nonzero absolute value, breaking ties by (row, col), which
keeps every run bit-for-bit reproducible.

A matrix that only adds columns ``b`` to one whose form is known gets
its form from ``_extend_snf``, not from ``snf``: ``u @ [a | b] @
diag(v, I)`` is ``[d | u @ b]``, which the same elimination loop
reduces, so the work is that of a nearly diagonal matrix, and the new
transforms replay only the new operations on the known ones.  The
diagonal is the one ``snf`` would give; ``u`` and ``v`` may differ.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import gcd
from operator import index as _as_int
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
        n, _ = _shape(n, n)
        return cls._of(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

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

    def diagonal_entries(self) -> tuple[int, ...]:
        return tuple(self._entries[i * self.cols + i] for i in range(min(self.rows, self.cols)))

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
        out = [0] * (self.rows * other.cols)
        for i in range(self.rows):
            base = i * self.cols
            for k in range(self.cols):
                a = self._entries[base + k]
                if a == 0:
                    continue
                obase = k * other.cols
                tbase = i * other.cols
                for j in range(other.cols):
                    out[tbase + j] += a * other._entries[obase + j]
        return IntMatrix._of(self.rows, other.cols, out)

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Matrix times column vector."""
        v = [_as_int(x) for x in vec]
        if len(v) != self.cols:
            raise ValueError(f"vector length {len(v)} does not match {self.cols} columns")
        return tuple(
            sum(self._entries[i * self.cols + j] * v[j] for j in range(self.cols))
            for i in range(self.rows)
        )

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return IntMatrix._of(self.rows, self.cols, [a + b for a, b in zip(self._entries, other._entries)])

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return IntMatrix._of(self.rows, self.cols, [a - b for a, b in zip(self._entries, other._entries)])

    def __neg__(self) -> "IntMatrix":
        return IntMatrix._of(self.rows, self.cols, [-a for a in self._entries])

    def power(self, k: int) -> "IntMatrix":
        if self.rows != self.cols:
            raise ValueError("power needs a square matrix")
        k = _as_int(k)
        if k < 0:
            raise ValueError("negative powers are not supported")
        result = IntMatrix.identity(self.rows)
        base = self
        while k:
            if k & 1:
                result = result @ base
            base = base @ base
            k >>= 1
        return result

    def det(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant needs a square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = self.to_rows()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

    # -- predicates ---------------------------------------------------

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return all(x == 0 for x in self._entries)

    def is_identity(self) -> bool:
        return self.is_square() and self == IntMatrix.identity(self.rows)

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


@dataclass(frozen=True)
class SnfDecomposition:
    """Smith normal form ``u @ a @ v == d`` with unimodular u, v.

    ``d`` is diagonal with nonnegative entries forming a divisibility
    chain d_0 | d_1 | ...; zero entries trail.  Elimination computed
    only ``d`` and logged its operations: ``row_log`` holds the row
    operations, which ``u`` records, and ``col_log`` the column
    operations, which ``v`` records.  ``u``, ``v`` and their exact
    inverses ``u_inv``, ``v_inv`` are replayed from the logs on sparse
    rows the first time each is read, so no inversion step is ever
    needed and no caller pays for a transform it does not read.  A form
    that ``_extend_snf`` continued from a parent's starts its replays
    from the parent's transforms, and its logs begin with the parent's.
    """

    d: IntMatrix
    row_log: tuple[tuple[int, ...], ...]
    col_log: tuple[tuple[int, ...], ...]
    _parent: "SnfDecomposition | None" = field(default=None, repr=False, compare=False)

    def _replayed(self, name: str, by_rows: bool) -> IntMatrix:
        """Transform ``name`` replayed on sparse rows, which are its rows
        when ``by_rows`` and its columns otherwise.  A continued form
        replays only the operations its parent's logs lack, on the
        parent's transform padded by identity rows for the added
        columns, and shares a transform those operations leave alone."""
        row_side = name[0] == "u"
        n = self.d.rows if row_side else self.d.cols
        log = self.row_log if row_side else self.col_log
        p = self._parent
        if p is None:
            start = _sparse_identity(n)
        else:
            log = log[len(p.row_log if row_side else p.col_log):]
            t = getattr(p, name)
            if not log and t.rows == n:
                return t
            start = _sparse_rows(t if by_rows else t.transpose())
            start += [{j: 1} for j in range(len(start), n)]
        if name.endswith("_inv"):
            log = _inverse_transposed(log)
        rows = _replay(start, log)
        return _from_rows(rows, n) if by_rows else _from_columns(rows, n)

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

    def diagonal(self) -> tuple[int, ...]:
        return self.d.diagonal_entries()

    @property
    def rank(self) -> int:
        return sum(1 for x in self.diagonal() if x != 0)


def _unit_pivot(d: list[dict[int, int]], t: int) -> tuple[int, int] | None:
    """The first 1 or -1 of the working block (rows and columns t and
    after) in row-major order, or None."""
    # columns before t are zero in rows t and below, so a membership
    # test on the whole row answers for the working block
    for i in range(t, len(d)):
        row = d[i]
        values = row.values()
        if 1 in values or -1 in values:
            return i, min(j for j, x in row.items() if x == 1 or x == -1)
    return None


def _least_pivot(d: list[dict[int, int]], t: int) -> tuple[int, int] | None:
    """The first entry of least nonzero |value| of the working block in
    row-major order, or None when the block is zero."""
    least, best = 0, None
    for i in range(t, len(d)):
        row = d[i]
        if not row:
            continue
        ax = min(map(abs, row.values()))
        if best is None or ax < least:
            least, best = ax, (i, min(j for j, x in row.items() if abs(x) == ax))
    return best


def _eliminate(d: list[dict[int, int]], n: int, row_log: list[tuple[int, ...]],
               col_log: list[tuple[int, ...]]) -> None:
    """Reduce the sparse rows ``d`` of a matrix with ``n`` columns in
    place to Smith normal form, appending each row and column operation
    to ``row_log`` and ``col_log``; the pivot rule is the one ``snf``
    documents."""
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
        best = _unit_pivot(d, t) or _least_pivot(d, t)
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


def snf(a: IntMatrix) -> SnfDecomposition:
    """Smith normal form with smallest-absolute-value pivoting.

    The pivot is the first entry of minimal |value| in a row-major scan
    of the working block, i.e. ties break by (row, col).  A 1 or -1 is
    minimal, so the first of those, when there is one, is taken without
    the full scan.  Rows are reduced as sparse dicts, so an operation
    costs in proportion to the nonzeros it reads.
    """
    d = _sparse_rows(a)
    row_log: list[tuple[int, ...]] = []
    col_log: list[tuple[int, ...]] = []
    _eliminate(d, a.cols, row_log, col_log)
    return SnfDecomposition(_from_rows(d, a.cols), tuple(row_log), tuple(col_log))


def _extend_snf(s: SnfDecomposition, b: IntMatrix) -> SnfDecomposition:
    """A Smith normal form of ``[a | b]`` from the form ``s`` of ``a``.

    ``u @ [a | b] @ diag(v, I)`` is ``w = [d | u @ b]``, so eliminating
    ``w`` continues ``s``: the logs are the parent's operations followed
    by those that reduce ``w``, read on the wider matrix (the parent's
    column operations touch only the columns of ``a``).  Each transform
    replays only the new operations on the parent's, and ``u`` and
    ``u_inv`` are the parent's own when no row operation was added.
    """
    if b.rows != s.d.rows:
        raise ValueError("b must have as many rows as a")
    w = _sparse_rows(s.d.hstack(s.u @ b))
    row_log: list[tuple[int, ...]] = []
    col_log: list[tuple[int, ...]] = []
    _eliminate(w, s.d.cols + b.cols, row_log, col_log)
    return SnfDecomposition(_from_rows(w, s.d.cols + b.cols), s.row_log + tuple(row_log),
                            s.col_log + tuple(col_log), s)


def _smith_coordinates(s: SnfDecomposition,
                       c: list[dict[int, int]]) -> list[dict[int, int]] | None:
    """The sparse rows of the z with ``d @ z == c``, free coordinates
    zero, or None when some column of ``c`` has none; ``c`` is given by
    its sparse rows.  For ``c == u @ b``, ``v @ z`` solves ``a @ x ==
    b``."""
    diag = s.diagonal()
    z: list[dict[int, int]] = [{} for _ in range(s.d.cols)]
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


def _kernel_columns(a: IntMatrix) -> list[dict[int, int]]:
    """The columns of ``v`` past the rank of ``a``, as sparse dicts.
    Column k of ``v`` is row k of the column log replayed on the
    identity, so ``v`` itself is never built."""
    s = snf(a)
    return _replay(_sparse_identity(a.cols), s.col_log)[s.rank:]


def kernel_basis(a: IntMatrix) -> IntMatrix:
    """A basis of the integer kernel lattice of ``a`` as columns.

    The basis consists of columns of the unimodular ``v`` from the
    Smith decomposition, so it is saturated: it extends to a basis of
    the full ambient lattice Z^cols.
    """
    return _from_columns(_kernel_columns(a), a.cols)


def preimage_generators(a: IntMatrix, lattice: IntMatrix) -> IntMatrix:
    """Generators (columns) of ``{x : a @ x lies in the column span of lattice}``.

    Computed as the projection of the kernel of ``[a | lattice]`` onto
    the first block of coordinates; projecting a lattice basis yields a
    generating set of the projected lattice.
    """
    if a.rows != lattice.rows:
        raise ValueError("lattice must live in the codomain of a")
    return _from_columns(_kernel_columns(a.hstack(lattice)), a.cols)


def _preimage_lattice(s: SnfDecomposition, e: SnfDecomposition) -> IntMatrix:
    """Generators (columns) of ``{x : b @ x lies in the column span of
    a}``, where ``s`` is the Smith form of ``a`` and ``e`` is
    ``_extend_snf(s, b)``.

    The kernel of ``[a | b]`` is spanned by the columns of the extended
    ``v`` past the rank, and that ``v`` is ``diag(v_a, I) @ v'`` with
    ``v'`` built by the new column operations alone, so the rows of the
    ``b`` block are those of ``v'``: no transform of ``a`` is replayed.
    Unlike ``preimage_generators`` the generators depend on the
    elimination of ``a``, so they fit where only the lattice matters.
    """
    n, width = s.d.cols, e.d.cols
    columns = _replay(_sparse_identity(width), e.col_log[len(s.col_log):])[e.rank:]
    return _from_columns([{j - n: x for j, x in c.items() if j >= n} for c in columns],
                         width - n)


def in_column_span(a: IntMatrix, b: Sequence[int]) -> bool:
    """Whether ``b`` lies in the lattice generated by the columns of ``a``."""
    return solve(a, b) is not None
