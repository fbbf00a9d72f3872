"""The Smith normal form as the package first shipped it, kept only as a
test oracle.

It updates ``d`` and all four transforms eagerly on every elimination
step.  ``snckit.matrices.snf`` must return the same five matrices, entry
for entry; ``test_matrices.TestSnfMatchesReference`` checks that.  The
function body is the original one; only its return type is a local
record, because ``SnfDecomposition`` now holds ``d`` and the elimination
logs instead of the five matrices.  Nothing under ``src/`` imports this
module.
"""

from __future__ import annotations

from typing import NamedTuple

from snckit.matrices import IntMatrix


class SnfDecomposition(NamedTuple):
    u: IntMatrix
    d: IntMatrix
    v: IntMatrix
    u_inv: IntMatrix
    v_inv: IntMatrix


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
