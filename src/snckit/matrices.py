"""Exact dense integer matrices and Smith normal form.

Everything in this module runs over Python's arbitrary-precision
integers; no floating point is ever involved.  Matrices are immutable
and row-major.  Shapes with zero rows or zero columns are legal
everywhere and stand for zero objects, so degenerate inputs flow
through every routine without special casing by the caller.

The Smith normal form here is the engine behind all homology and
group computations: ``snf(a)`` returns unimodular ``u``, ``v`` (and
their inverses, tracked during elimination) with ``u @ a @ v`` equal
to a nonnegative diagonal matrix whose entries form a divisibility
chain.  Pivoting always picks the entry of smallest nonzero absolute
value, breaking ties by (row, col), which keeps every run bit-for-bit
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
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


class IntMatrix:
    """An immutable ``rows x cols`` matrix of Python ints."""

    __slots__ = ("rows", "cols", "_entries")

    def __init__(self, rows: int, cols: int, entries: Iterable[int]):
        rows = _as_int(rows)
        cols = _as_int(cols)
        if rows < 0 or cols < 0:
            raise ValueError("matrix shape must be nonnegative")
        data = tuple(_as_int(x) for x in entries)
        if len(data) != rows * cols:
            raise ValueError(
                f"shape ({rows}, {cols}) needs {rows * cols} entries, got {len(data)}"
            )
        self.rows = rows
        self.cols = cols
        self._entries = data

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
        return cls(rows, cols, [0] * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    @classmethod
    def diagonal(cls, values: Sequence[int], rows: int | None = None, cols: int | None = None) -> "IntMatrix":
        vals = list(values)
        if rows is None:
            rows = len(vals)
        if cols is None:
            cols = len(vals)
        if len(vals) > min(rows, cols):
            raise ValueError("too many diagonal values for the requested shape")
        entries = [0] * (rows * cols)
        for i, v in enumerate(vals):
            entries[i * cols + i] = v
        return cls(rows, cols, entries)

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
        return IntMatrix(
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
        return IntMatrix(self.rows, self.cols + other.cols, entries)

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
        return IntMatrix(self.rows, other.cols, out)

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
        return IntMatrix(self.rows, self.cols, [a + b for a, b in zip(self._entries, other._entries)])

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return IntMatrix(self.rows, self.cols, [a - b for a, b in zip(self._entries, other._entries)])

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, [-a for a in self._entries])

    def scaled(self, k: int) -> "IntMatrix":
        k = _as_int(k)
        return IntMatrix(self.rows, self.cols, [k * a for a in self._entries])

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


@dataclass(frozen=True)
class SnfDecomposition:
    """Smith normal form ``u @ a @ v == d`` with unimodular u, v.

    ``u_inv`` and ``v_inv`` are the exact inverses, maintained during
    elimination so that no separate inversion step is ever needed.
    ``d`` is diagonal with nonnegative entries forming a divisibility
    chain d_0 | d_1 | ...; zero entries trail.
    """

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix
    u_inv: IntMatrix
    v_inv: IntMatrix

    def diagonal(self) -> tuple[int, ...]:
        return self.d.diagonal_entries()

    @property
    def rank(self) -> int:
        return sum(1 for x in self.diagonal() if x != 0)


def snf(a: IntMatrix) -> SnfDecomposition:
    """Smith normal form with smallest-absolute-value pivoting.

    The pivot search scans the working block row-major and keeps the
    first entry of minimal |value|, i.e. ties break by (row, col).
    """
    m, n = a.rows, a.cols
    d = a.to_rows()
    u = IntMatrix.identity(m).to_rows()
    uinv = IntMatrix.identity(m).to_rows()
    v = IntMatrix.identity(n).to_rows()
    vinv = IntMatrix.identity(n).to_rows()

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]
        for r in uinv:
            r[i], r[j] = r[j], r[i]

    def add_row(i, j, q):
        # row_i += q * row_j on d and u; uinv gets the inverse column op
        di, dj = d[i], d[j]
        for k in range(n):
            di[k] += q * dj[k]
        ui, uj = u[i], u[j]
        for k in range(m):
            ui[k] += q * uj[k]
        for r in uinv:
            r[j] -= q * r[i]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]
        for r in uinv:
            r[i] = -r[i]

    def swap_cols(i, j):
        for r in d:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    def add_col(j, i, q):
        # col_j += q * col_i on d and v; vinv gets the inverse row op
        for r in d:
            r[j] += q * r[i]
        for r in v:
            r[j] += q * r[i]
        vi, vj = vinv[i], vinv[j]
        for k in range(n):
            vi[k] -= q * vj[k]

    t = 0
    bound = min(m, n)
    while t < bound:
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = d[i][j]
                if x != 0:
                    ax = -x if x < 0 else x
                    if best is None or ax < best[0]:
                        best = (ax, i, j)
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            swap_rows(t, bi)
        if bj != t:
            swap_cols(t, bj)
        while True:
            if d[t][t] < 0:
                negate_row(t)
            p = d[t][t]
            disturbed = False
            for i in range(t + 1, m):
                x = d[i][t]
                if x == 0:
                    continue
                add_row(i, t, -(x // p))
                if d[i][t] != 0:
                    # remainder is strictly smaller than p: promote it
                    swap_rows(t, i)
                    disturbed = True
                    break
            if disturbed:
                continue
            for j in range(t + 1, n):
                x = d[t][j]
                if x == 0:
                    continue
                add_col(j, t, -(x // p))
                if d[t][j] != 0:
                    swap_cols(t, j)
                    disturbed = True
                    break
            if disturbed:
                continue
            offender = None
            for i in range(t + 1, m):
                row = d[i]
                for j in range(t + 1, n):
                    if row[j] % p != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            # pull a non-multiple into the pivot row and reduce again
            add_row(t, offender, 1)
        t += 1

    return SnfDecomposition(
        u=IntMatrix.from_rows(u, cols=m),
        d=IntMatrix.from_rows(d, cols=n),
        v=IntMatrix.from_rows(v, cols=n),
        u_inv=IntMatrix.from_rows(uinv, cols=m),
        v_inv=IntMatrix.from_rows(vinv, cols=n),
    )


def _smith_coordinates(s: SnfDecomposition, b: Sequence[int]) -> list[int] | None:
    """The z with ``d @ z == u @ b``, free coordinates zero, or None
    when there is none; then ``v @ z`` solves ``a @ x == b``."""
    c = s.u.apply(b)
    diag = s.diagonal()
    z = [0] * s.d.cols
    for i, ci in enumerate(c):
        di = diag[i] if i < len(diag) else 0
        if di != 0:
            if ci % di != 0:
                return None
            z[i] = ci // di
        elif ci != 0:
            return None
    return z


def solve(a: IntMatrix, b: Sequence[int]) -> tuple[int, ...] | None:
    """One integer solution of ``a @ x == b``, or None.

    When the solution is not unique the free Smith coordinates are set
    to zero, which makes the returned vector deterministic.
    """
    s = snf(a)
    z = _smith_coordinates(s, b)
    return None if z is None else s.v.apply(z)


def solve_matrix(a: IntMatrix, b: IntMatrix) -> IntMatrix | None:
    """Column-wise ``solve``; None if any column has no solution."""
    if a.rows != b.rows:
        raise ValueError("row counts differ")
    s = snf(a)
    coords = [_smith_coordinates(s, b.col(j)) for j in range(b.cols)]
    if any(z is None for z in coords):
        return None
    return IntMatrix.from_columns([s.v.apply(z) for z in coords], rows=a.cols)


def kernel_basis(a: IntMatrix) -> IntMatrix:
    """A basis of the integer kernel lattice of ``a`` as columns.

    The basis consists of columns of the unimodular ``v`` from the
    Smith decomposition, so it is saturated: it extends to a basis of
    the full ambient lattice Z^cols.
    """
    s = snf(a)
    r = s.rank
    return IntMatrix.from_columns([s.v.col(j) for j in range(r, a.cols)], rows=a.cols)


def preimage_generators(a: IntMatrix, lattice: IntMatrix) -> IntMatrix:
    """Generators (columns) of ``{x : a @ x lies in the column span of lattice}``.

    Computed as the projection of the kernel of ``[a | lattice]`` onto
    the first block of coordinates; projecting a lattice basis yields a
    generating set of the projected lattice.
    """
    if a.rows != lattice.rows:
        raise ValueError("lattice must live in the codomain of a")
    k = kernel_basis(a.hstack(lattice))
    cols = [k.col(j)[: a.cols] for j in range(k.cols)]
    return IntMatrix.from_columns(cols, rows=a.cols)


def in_column_span(a: IntMatrix, b: Sequence[int]) -> bool:
    """Whether ``b`` lies in the lattice generated by the columns of ``a``."""
    return solve(a, b) is not None
