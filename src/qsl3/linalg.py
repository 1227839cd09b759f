"""Fraction-free (Bareiss) linear algebra over Z[v, v^-1].

The forward pass works entirely in the ring: every update is
(pivot*a - b*c) / previous_pivot with an exact ring division, which keeps
intermediate entries determinant-sized.  Back substitution produces the
solution scaled by the pivot-block determinant, again staying inside the
ring; callers divide out the determinant exactly when a Laurent result is
expected.
"""

from __future__ import annotations

from dataclasses import dataclass

from .laurent import LaurentPoly, ZERO, ONE


class Inconsistent(Exception):
    """The linear system has no solution."""

    def __init__(self, rank: int):
        super().__init__(f"inconsistent linear system (rank {rank})")
        self.rank = rank


@dataclass
class _Elimination:
    rows: list          # reduced augmented rows (LaurentPoly)
    pivot_cols: list    # column index per pivot row
    det: LaurentPoly    # determinant of the pivot block (last pivot)
    rank: int
    ncols: int          # number of unknown columns


def _forward(rows: list, ncols: int) -> _Elimination:
    """Fraction-free forward elimination on augmented rows (in place)."""
    m = len(rows)
    width = len(rows[0]) if m else ncols
    prev = ONE
    pivot_cols: list = []
    r = 0
    for col in range(ncols):
        if r >= m:
            break
        best = -1
        best_size = 0
        for i in range(r, m):
            e = rows[i][col]
            if e:
                sz = len(e.terms)
                if best < 0 or sz < best_size:
                    best, best_size = i, sz
        if best < 0:
            continue
        if best != r:
            rows[best], rows[r] = rows[r], rows[best]
        piv = rows[r][col]
        for i in range(r + 1, m):
            ri = rows[i]
            rp = rows[r]
            fi = ri[col]
            if fi:
                for j in range(col + 1, width):
                    ri[j] = (piv * ri[j] - fi * rp[j]).exact_div(prev)
                ri[col] = ZERO
            else:
                # the one-step update degenerates to scaling, which is still
                # required to keep later divisions exact
                for j in range(col + 1, width):
                    ri[j] = (piv * ri[j]).exact_div(prev)
        prev = piv
        pivot_cols.append(col)
        r += 1
    return _Elimination(rows, pivot_cols, prev, r, ncols)


def _back_substitute(elim: _Elimination, rhs_index: int) -> dict:
    """Solve the eliminated triangular system for one rhs column.

    Returns {column: det * x_column} over Z[v, v^-1]; free columns are
    assigned zero and omitted.
    """
    rows, pivot_cols, det = elim.rows, elim.pivot_cols, elim.det
    w: dict = {}
    for t in range(elim.rank - 1, -1, -1):
        c = pivot_cols[t]
        acc = det * rows[t][rhs_index]
        row = rows[t]
        for j, wj in w.items():
            e = row[j]
            if e:
                acc = acc - e * wj
        w[c] = acc.exact_div(row[c])
    return w


def solve_laurent(a_rows: list, b_cols: list) -> tuple:
    """Solve A x = b for each rhs column, fraction-free.

    ``a_rows`` is a dense list of LaurentPoly rows, ``b_cols`` a list of rhs
    columns (each a dense list of LaurentPoly of the same height).  Returns
    ``(det, solutions, rank, free_cols)`` where each solution is a dict
    {column: LaurentPoly} scaled by ``det`` (true value = entry / det).
    Raises Inconsistent when a rhs is not in the column span.
    """
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0
    k = len(b_cols)
    aug = [list(a_rows[i]) + [col[i] for col in b_cols] for i in range(m)]
    elim = _forward(aug, n)
    for i in range(elim.rank, m):
        for j in range(n, n + k):
            if aug[i][j]:
                raise Inconsistent(elim.rank)
    sols = [_back_substitute(elim, n + t) for t in range(k)]
    free = [c for c in range(n) if c not in set(elim.pivot_cols)]
    return elim.det, sols, elim.rank, free


def rank_laurent(a_rows: list) -> int:
    aug = [list(r) for r in a_rows]
    if not aug:
        return 0
    return _forward(aug, len(aug[0])).rank


class LaurentEchelon:
    """Incremental fraction-free row echelon, used for rank tracking.

    Rows are dense LaurentPoly lists.  ``add`` reduces the candidate against
    the stored pivot rows and keeps it when it is independent.
    """

    def __init__(self, width: int):
        self.width = width
        self.rows: list = []        # echelon rows
        self.pivots: list = []      # pivot column of each row

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add(self, row: list) -> bool:
        row = list(row)
        for prow, pc in zip(self.rows, self.pivots):
            c = row[pc]
            if c:
                piv = prow[pc]
                row = [piv * a - c * b for a, b in zip(row, prow)]
                row = _strip_content(row)
        for c in range(self.width):
            if row[c]:
                self.rows.append(row)
                self.pivots.append(c)
                return True
        return False


def _strip_content(row: list) -> list:
    """Divide a row by the gcd of all its integer coefficients; scaling a
    row changes nothing for rank decisions but tames coefficient growth."""
    from math import gcd

    g = 0
    for p in row:
        for c in p.terms.values():
            g = gcd(g, c)
            if g == 1:
                return row
    if g <= 1:
        return row
    return [LaurentPoly._make({e: c // g for e, c in p.terms.items()}) for p in row]
