"""Small exact integer linear algebra used only to check reports.

It shares no code with ``stackyfans`` so that the expected answers do not
come from the code path being timed.  Matrices are lists of rows.
"""

from __future__ import annotations

from math import gcd


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matmul(a: list[list[int]], b: list[list[int]], inner: int) -> list[list[int]]:
    cols = len(b[0]) if b else 0
    return [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
            for i in range(len(a))]


def from_columns(cols: list[list[int]], rows: int) -> list[list[int]]:
    return [[c[i] for c in cols] for i in range(rows)]


def columns(m: list[list[int]], ncols: int) -> list[list[int]]:
    return [[row[j] for row in m] for j in range(ncols)]


def rank(rows: list[list[int]]) -> int:
    """Rank over Q by fraction-free elimination."""
    work = [list(r) for r in rows if any(r)]
    rk = 0
    ncols = len(work[0]) if work else 0
    for col in range(ncols):
        piv = next((i for i, r in enumerate(work) if r[col]), None)
        if piv is None:
            continue
        p = work.pop(piv)
        rk += 1
        nxt = []
        for r in work:
            if r[col]:
                r = [p[col] * a - r[col] * b for a, b in zip(r, p)]
                g = 0
                for x in r:
                    g = gcd(g, x)
                if g > 1:
                    r = [x // g for x in r]
            if any(r):
                nxt.append(r)
        work = nxt
    return rk


def invariant_factors(rows: list[list[int]]) -> list[int]:
    """Nonzero Smith invariants by row and column reduction, no transforms."""
    a = [list(r) for r in rows]
    nr = len(a)
    nc = len(a[0]) if a else 0
    out = []
    t = 0
    while t < min(nr, nc):
        nz = [(abs(a[i][j]), i, j) for i in range(t, nr) for j in range(t, nc) if a[i][j]]
        if not nz:
            break
        _, pi, pj = min(nz)
        a[t], a[pi] = a[pi], a[t]
        for r in a:
            r[t], r[pj] = r[pj], r[t]
        done = False
        while not done:
            done = True
            p = a[t][t]
            for i in range(t + 1, nr):
                q = a[i][t] // p
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                if a[i][t]:
                    a[t], a[i] = a[i], a[t]
                    done = False
                    break
            if not done:
                continue
            for j in range(t + 1, nc):
                q = a[t][j] // p
                if q:
                    for r in a:
                        r[j] -= q * r[t]
                if a[t][j]:
                    for r in a:
                        r[t], r[j] = r[j], r[t]
                    done = False
                    break
        out.append(abs(a[t][t]))
        t += 1
    # diagonal to divisibility chain
    for i in range(len(out)):
        for j in range(i + 1, len(out)):
            g = gcd(out[i], out[j])
            out[i], out[j] = g, out[i] * out[j] // g
    return out


def determinant(m: list[list[int]]) -> int:
    """Bareiss fraction-free determinant of a square matrix."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(r) for r in m]
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]
