"""Exact linear algebra over the integers.

Matrices are immutable tuples of tuples of Python ints, so every value is
hashable and can be cached or compared structurally.  The Smith normal form
routine pins its pivot choice (smallest magnitude first, lowest (row, col)
on ties, row-major) so canonical forms built on top of it are reproducible.

The invariant-factor description of a finitely generated abelian group lives
here too, next to the normal form that produces it; ``fgab`` re-exports it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

Vec = tuple[int, ...]


@dataclass(frozen=True)
class IntMatrix:
    """Immutable rows x cols integer matrix, entries stored row-major."""

    rows: int
    cols: int
    entries: tuple[Vec, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimension")
        if len(self.entries) != self.rows:
            raise ValueError("entry rows do not match declared row count")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged matrix")
            for x in row:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise ValueError("entries must be plain ints")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], cols: Optional[int] = None) -> "IntMatrix":
        data = tuple(map(tuple, rows))
        if cols is None:
            cols = len(data[0]) if data else 0
        return IntMatrix(len(data), cols, data)

    @staticmethod
    def from_columns(cols: Sequence[Sequence[int]], rows: Optional[int] = None) -> "IntMatrix":
        data = [tuple(c) for c in cols]
        if rows is None:
            rows = len(data[0]) if data else 0
        entries = tuple(tuple(c[i] for c in data) for i in range(rows))
        return IntMatrix(rows, len(data), entries)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def row(self, i: int) -> Vec:
        return self.entries[i]

    def column(self, j: int) -> Vec:
        return tuple(r[j] for r in self.entries)

    def columns(self) -> list[Vec]:
        return [self.column(j) for j in range(self.cols)]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows, tuple(self.column(j) for j in range(self.cols)))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        ocols = other.columns()
        entries = tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in ocols)
            for row in self.entries
        )
        return IntMatrix(self.rows, other.cols, entries)

    def apply(self, v: Sequence[int]) -> Vec:
        """Matrix times column vector."""
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.entries)

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        return IntMatrix(self.rows, self.cols + other.cols,
                         tuple(a + b for a, b in zip(self.entries, other.entries)))

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "IntMatrix":
        entries = tuple(tuple(self.entries[i][j] for j in col_idx) for i in row_idx)
        return IntMatrix(len(row_idx), len(col_idx), entries)


@dataclass(frozen=True)
class SnfDecomposition:
    """U @ M @ V == S with U, V unimodular and S in Smith normal form.

    ``Uinv`` is the inverse of U.  With r invariant factors, its first r
    columns are a basis of the saturation of the column span of M, and the
    rest complete them to a basis of Z^rows.
    """

    S: IntMatrix
    U: IntMatrix
    V: IntMatrix
    Uinv: IntMatrix
    invariant_factors: tuple[int, ...]


def _smallest_pivot(s: list[list[int]], t: int, rows: int, cols: int) -> Optional[tuple[int, int]]:
    best = None
    best_mag = None
    for i in range(t, rows):
        for j in range(t, cols):
            x = s[i][j]
            if x != 0:
                mag = abs(x)
                if best_mag is None or mag < best_mag:
                    best, best_mag = (i, j), mag
    return best


def snf(m: IntMatrix) -> SnfDecomposition:
    """Smith normal form with transforms.

    Pivot selection is deterministic: among the nonzero entries of the
    working block, the one of smallest absolute value wins, ties broken by
    lowest (row, col) scanning row-major.  Diagonal entries come out
    nonnegative and each divides the next.
    """
    rows, cols = m.rows, m.cols
    s = [list(r) for r in m.entries]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]
    # the columns of U^-1: each row operation on U is a column operation here
    uinv = [[1 if i == j else 0 for i in range(rows)] for j in range(rows)]

    def row_op(i: int, k: int, q: int) -> None:
        # row i -= q * row k, so column k of U^-1 += q * column i
        s[i] = [a - q * b for a, b in zip(s[i], s[k])]
        u[i] = [a - q * b for a, b in zip(u[i], u[k])]
        uinv[k] = [a + q * b for a, b in zip(uinv[k], uinv[i])]

    def col_op(j: int, k: int, q: int) -> None:
        # col j -= q * col k
        for r in s:
            r[j] -= q * r[k]
        for r in v:
            r[j] -= q * r[k]

    def swap_rows(i: int, k: int) -> None:
        s[i], s[k] = s[k], s[i]
        u[i], u[k] = u[k], u[i]
        uinv[i], uinv[k] = uinv[k], uinv[i]

    def swap_cols(j: int, k: int) -> None:
        for r in s:
            r[j], r[k] = r[k], r[j]
        for r in v:
            r[j], r[k] = r[k], r[j]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        pivot = _smallest_pivot(s, t, rows, cols)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)
        while True:
            for i in range(t + 1, rows):
                while s[i][t] != 0:
                    row_op(i, t, s[i][t] // s[t][t])
                    if s[i][t] != 0:
                        # remainder became the smaller pivot
                        swap_rows(i, t)
            for j in range(t + 1, cols):
                while s[t][j] != 0:
                    col_op(j, t, s[t][j] // s[t][t])
                    if s[t][j] != 0:
                        swap_cols(j, t)
            if any(s[i][t] for i in range(t + 1, rows)):
                continue
            if any(s[t][j] for j in range(t + 1, cols)):
                continue
            bad = None
            p = s[t][t]
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if s[i][j] % p != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            # fold the offending row in so the next pass shrinks the pivot
            row_op(t, bad, -1)
        if s[t][t] < 0:
            s[t] = [-a for a in s[t]]
            u[t] = [-a for a in u[t]]
            uinv[t] = [-a for a in uinv[t]]
        t += 1

    factors = tuple(s[i][i] for i in range(limit) if s[i][i] != 0)
    return SnfDecomposition(
        S=IntMatrix.from_rows(s, cols),
        U=IntMatrix.from_rows(u, rows),
        V=IntMatrix.from_rows(v, cols),
        Uinv=IntMatrix.from_columns(uinv, rows),
        invariant_factors=factors,
    )


def row_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of the matrix with these rows, by fraction-free elimination."""
    work = [list(r) for r in rows if any(r)]
    rk = 0
    ncols = len(work[0]) if work else 0
    col = 0
    while work and col < ncols:
        piv = next((i for i, r in enumerate(work) if r[col] != 0), None)
        if piv is None:
            col += 1
            continue
        pivot = work.pop(piv)
        rk += 1
        p = pivot[col]
        reduced = []
        for r in work:
            if r[col] != 0:
                r = [p * a - r[col] * b for a, b in zip(r, pivot)]
                g = math.gcd(*r)
                if g > 1:
                    r = [x // g for x in r]
            if any(r):
                reduced.append(r)
        work = reduced
        col += 1
    return rk


def rank(m: IntMatrix) -> int:
    return row_rank(m.entries)


def saturate(m: IntMatrix) -> IntMatrix:
    """Basis (as columns) of the saturation (colspan QM) ∩ Z^rows."""
    d = snf(m)
    return d.Uinv.submatrix(range(m.rows), range(len(d.invariant_factors)))


@dataclass(frozen=True)
class FgAbGroup:
    """Finitely generated abelian group in invariant-factor form.

    ``Z^free_rank + Z/d_1 + ... + Z/d_t`` with each d_i >= 2 and
    d_1 | d_2 | ... | d_t.  The constructor insists on that shape.
    """

    free_rank: int
    torsion: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.free_rank, int) or self.free_rank < 0:
            raise ValueError("free_rank must be a nonnegative int")
        for d in self.torsion:
            if not isinstance(d, int) or d < 2:
                raise ValueError("torsion invariants must be ints >= 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError("torsion invariants must form a divisibility chain")

    @property
    def ngens(self) -> int:
        return self.free_rank + len(self.torsion)

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def relations(self) -> IntMatrix:
        """Columns generating the relations: d_j on the j-th torsion slot."""
        f, t = self.free_rank, len(self.torsion)
        cols = []
        for j, d in enumerate(self.torsion):
            col = [0] * (f + t)
            col[f + j] = d
            cols.append(col)
        return IntMatrix.from_columns(cols, rows=f + t)

    def reduce(self, v: Sequence[int]) -> Vec:
        """Canonical representative: torsion coordinates into [0, d)."""
        if len(v) != self.ngens:
            raise ValueError("vector length does not match generator count")
        f = self.free_rank
        out = list(int(x) for x in v)
        for j, d in enumerate(self.torsion):
            out[f + j] %= d
        return tuple(out)


def cokernel_presentation(m: IntMatrix) -> tuple[FgAbGroup, IntMatrix]:
    """Cokernel Z^rows / colspan(M) together with a presenting projection.

    The projection matrix has one row per generator of the cokernel (free
    generators first, then torsion), mapping a vector of Z^rows to its
    coordinates in the quotient.  Torsion rows are reduced modulo their
    invariant factor.
    """
    d = snf(m)
    r = len(d.invariant_factors)
    free_rows = [d.U.row(i) for i in range(r, m.rows)]
    torsion = []
    torsion_rows = []
    for i in range(r):
        f = d.invariant_factors[i]
        if f >= 2:
            torsion.append(f)
            torsion_rows.append(tuple(x % f for x in d.U.row(i)))
    group = FgAbGroup(len(free_rows), tuple(torsion))
    proj = IntMatrix.from_rows(free_rows + torsion_rows, cols=m.rows)
    return group, proj


def _least_entry_row(h: list[list[int]], c: int, start: int) -> Optional[int]:
    """First row from start on whose entry in column c is least nonzero in size."""
    best, row = 0, None
    for i in range(start, len(h)):
        x = abs(h[i][c])
        if x and (row is None or x < best):
            best, row = x, i
    return row


def hermite_row_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row Hermite normal form H = T @ M with T unimodular.

    Pivots are positive, entries above a pivot lie in [0, pivot), zero rows
    sink to the bottom.  H is the unique such echelon form of the row
    lattice, which is what makes it usable as a canonical form.

    Each column is cleared below the pivot by rounds of Euclid: the row with
    the least nonzero entry becomes the pivot and every row below takes its
    nearest remainder, at most half the pivot.  Pairwise Euclid, one row
    against the pivot at a time, lets intermediate entries reach thousands
    of digits on lattices whose form has a dozen.
    """
    rows, cols = m.rows, m.cols
    h = [list(r) for r in m.entries]
    t = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    r = 0
    for c in range(cols):
        p = _least_entry_row(h, c, r)
        if p is None:
            continue
        while p is not None:
            h[r], h[p] = h[p], h[r]
            t[r], t[p] = t[p], t[r]
            pivot = h[r][c]
            for i in range(r + 1, rows):
                if h[i][c] != 0:
                    q = (2 * h[i][c] + pivot) // (2 * pivot)
                    h[i] = [x - q * y for x, y in zip(h[i], h[r])]
                    t[i] = [x - q * y for x, y in zip(t[i], t[r])]
            p = _least_entry_row(h, c, r + 1)
        if h[r][c] < 0:
            h[r] = [-x for x in h[r]]
            t[r] = [-x for x in t[r]]
        for i in range(r):
            q = h[i][c] // h[r][c]
            if q:
                h[i] = [x - q * y for x, y in zip(h[i], h[r])]
                t[i] = [x - q * y for x, y in zip(t[i], t[r])]
        r += 1
        if r == rows:
            break
    return IntMatrix.from_rows(h, cols), IntMatrix.from_rows(t, rows)


def reduce_mod_row_lattice(v: Sequence[int], m: IntMatrix) -> Vec:
    """Canonical representative of v modulo the row lattice of M."""
    h, _ = hermite_row_form(m)
    out = list(int(x) for x in v)
    for row in h.entries:
        c = next((j for j, x in enumerate(row) if x != 0), None)
        if c is None:
            break
        q = out[c] // row[c]
        if q:
            out = [x - q * y for x, y in zip(out, row)]
    return tuple(out)
