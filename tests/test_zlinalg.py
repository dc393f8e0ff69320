"""Exact integer linear algebra tests.

The Smith form is checked against an independent oracle: the k-th
diagonal entry must equal D_k/D_{k-1}, where D_k is the gcd of all k x k
minors.  The oracle and the contract check are shared with the seeded
suite in property_suites; the oracle uses its own cofactor determinant so
it shares no code with the implementation.
"""

import math
import random

import pytest

from property_suites import (
    _minor_gcd_invariants,
    determinant,
    kernel_basis,
    normalized_group,
    row_hermite_problems,
    snf_contract_problems,
    solve_integer,
)
from stackyfans.zlinalg import (
    FgAbGroup,
    IntMatrix,
    cokernel_presentation,
    hermite_row_form,
    rank,
    reduce_mod_row_lattice,
    saturate,
    snf,
)


def _check_snf_contract(m: IntMatrix):
    dec = snf(m)
    assert snf_contract_problems(m, dec) == []
    return dec


def test_snf_matches_minor_gcd_oracle():
    rng = random.Random(20240817)
    for _ in range(150):
        r = rng.randint(0, 3)
        c = rng.randint(0, 3)
        m = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)], cols=c)
        dec = _check_snf_contract(m)
        assert list(dec.invariant_factors) == _minor_gcd_invariants(m)


def test_snf_frozen_example():
    m = IntMatrix.from_rows([[2, 0], [1, 2]])
    dec = snf(m)
    assert dec.S.entries == ((1, 0), (0, 4))
    assert dec.U @ m @ dec.V == dec.S


def test_snf_degenerate_shapes():
    for m in (IntMatrix(0, 0, ()), IntMatrix(0, 3, ()), IntMatrix(2, 0, ((), ())),
              IntMatrix.from_rows([[0, 0], [0, 0]])):
        dec = _check_snf_contract(m)
        assert dec.invariant_factors == ()


def test_rank_and_determinant():
    m = IntMatrix.from_rows([[2, 0], [1, 2]])
    assert rank(m) == 2
    assert determinant(m) == 4
    assert determinant(IntMatrix.identity(3)) == 1
    assert determinant(IntMatrix.from_rows([[2, 4], [1, 2]])) == 0
    assert rank(IntMatrix.from_rows([[2, 4], [1, 2]])) == 1
    with pytest.raises(ValueError):
        determinant(IntMatrix.from_rows([[0, 0, 0], [0, 0, 0]]))


def test_rank_matches_snf():
    rng = random.Random(11)
    for _ in range(300):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        m = IntMatrix.from_rows(
            [[rng.choice((0, 0, 1, -1, 2, 5, -7)) for _ in range(cols)] for _ in range(rows)],
            cols=cols)
        if rows > 1 and rng.random() < 0.5:
            # a combination of two rows, so rank deficiency is common
            a, b = rng.sample(range(rows), 2)
            extra = tuple(3 * x - 2 * y for x, y in zip(m.row(a), m.row(b)))
            m = IntMatrix(rows + 1, cols, m.entries + (extra,))
        assert rank(m) == len(snf(m).invariant_factors)


def test_kernel_basis():
    m = IntMatrix.from_rows([[6, 4, -3]])
    k = kernel_basis(m)
    assert k.cols == 2
    for col in k.columns():
        assert m.apply(col) == (0,)
    # the kernel columns span a saturated rank-2 lattice
    assert snf(k).invariant_factors == (1, 1)
    assert kernel_basis(IntMatrix.identity(2)).cols == 0


def test_solve_integer():
    m = IntMatrix.from_columns([(2, 0), (1, 3)], rows=2)
    assert solve_integer(m, (3, 3)) == (1, 1)
    assert solve_integer(m, (1, 0)) is None
    assert solve_integer(m, (0, 0)) == (0, 0)
    empty = IntMatrix.from_columns([], rows=2)
    assert solve_integer(empty, (0, 0)) == ()
    assert solve_integer(empty, (1, 0)) is None


def test_column_space_and_saturation():
    m = IntMatrix.from_columns([(2, 0), (0, 3)], rows=2)
    assert rank(m) == 2
    sat = saturate(m)
    assert abs(determinant(sat)) == 1
    # the index of the column lattice in its saturation
    assert math.prod(snf(m).invariant_factors) == 6
    assert snf(IntMatrix.from_columns([(1, 0)], rows=2)).invariant_factors == (1,)


def test_hermite_row_form():
    m = IntMatrix.from_rows([[6, 4, -3], [2, 2, 1]])
    h, t = hermite_row_form(m)
    assert h.entries == ((2, 0, -5), (0, 2, 6))
    assert t @ m == h
    assert abs(determinant(t)) == 1
    # uniqueness: a unimodular row shuffle of m gives the same form
    m2 = IntMatrix.from_rows([[2, 2, 1], [8, 6, -2]])
    h2, _ = hermite_row_form(m2)
    assert h2.entries == h.entries


def _hermite_by_pairwise_euclid(m):
    """Reference: the row Hermite form by pairwise Euclid against the pivot row."""
    rows, cols = m.rows, m.cols
    h = [list(r) for r in m.entries]
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if h[i][c] != 0), None)
        if pivot_row is None:
            continue
        h[r], h[pivot_row] = h[pivot_row], h[r]
        for i in range(r + 1, rows):
            while h[i][c] != 0:
                if abs(h[i][c]) < abs(h[r][c]):
                    h[r], h[i] = h[i], h[r]
                q = h[i][c] // h[r][c]
                h[i] = [x - q * y for x, y in zip(h[i], h[r])]
        if h[r][c] < 0:
            h[r] = [-x for x in h[r]]
        for i in range(r):
            q = h[i][c] // h[r][c]
            h[i] = [x - q * y for x, y in zip(h[i], h[r])]
        r += 1
        if r == rows:
            break
    return IntMatrix.from_rows(h, cols)


def test_hermite_row_form_matches_pairwise_reference():
    """Same H on rank-deficient, repeated-row and empty shapes; T unimodular."""
    rng = random.Random(47)
    deficient = 0
    for _ in range(1500):
        rows, cols = rng.randint(0, 6), rng.randint(0, 7)
        if rng.random() < 0.5:
            # combinations of fewer rows than the shape allows
            basis = [[rng.randint(-9, 9) for _ in range(cols)]
                     for _ in range(rng.randint(0, max(min(rows, cols) - 1, 0)))]
            entries = [[sum(c * b[j] for c, b in zip(mult, basis)) for j in range(cols)]
                       for mult in ([rng.randint(-3, 3) for _ in basis] for _ in range(rows))]
        else:
            entries = [[rng.randint(-30, 30) for _ in range(cols)] for _ in range(rows)]
        m = IntMatrix.from_rows(entries, cols=cols)
        h, t = hermite_row_form(m)
        assert h == _hermite_by_pairwise_euclid(m), m.entries
        assert row_hermite_problems(h.entries) == [], m.entries
        assert t @ m == h and abs(determinant(t)) == 1, m.entries
        deficient += rank(m) < min(rows, cols)
    assert deficient >= 300


def test_reduce_mod_row_lattice():
    m = IntMatrix.from_rows([[2, 0], [0, 3]])
    assert reduce_mod_row_lattice((5, 7), m) == (1, 1)
    assert reduce_mod_row_lattice((4, 6), m) == (0, 0)


def test_fgab_group_validation():
    g = FgAbGroup(2, (2, 6))
    assert g.ngens == 4
    assert not g.is_trivial()
    assert FgAbGroup(0, ()).is_trivial()
    assert not FgAbGroup(0, (5,)).is_trivial()
    with pytest.raises(ValueError):
        FgAbGroup(1, (3, 2))
    with pytest.raises(ValueError):
        FgAbGroup(1, (1, 2))
    with pytest.raises(ValueError):
        FgAbGroup(-1, ())


def test_group_reduce():
    g = FgAbGroup(1, (4,))
    assert g.reduce((7, 9)) == (7, 1)
    assert g.reduce((0, -1)) == (0, 3)


def test_normalized_group():
    assert normalized_group(1, [2, 3, 4]) == FgAbGroup(1, (2, 12))
    assert normalized_group(0, [1, 1]) == FgAbGroup(0, ())
    assert normalized_group(2, []) == FgAbGroup(2, ())


def test_cokernel_presentation_mu4():
    # raw presentation; the character-level normalization happens upstream
    m = IntMatrix.from_columns([(2, 1), (0, 2)], rows=2)
    group, proj = cokernel_presentation(m)
    assert group == FgAbGroup(0, (4,))
    assert proj.entries == ((3, 2),)
    # the projection respects the relations: columns of m die
    for col in m.columns():
        assert group.reduce(proj.apply(col)) == (0,)


def test_cokernel_presentation_mixed():
    m = IntMatrix.from_columns([(2, -3, 0), (1, 0, 2)], rows=3)
    group, proj = cokernel_presentation(m)
    assert group == FgAbGroup(1, ())
    assert proj.entries == ((6, 4, -3),)


def test_cokernel_presentation_free_and_trivial():
    group, proj = cokernel_presentation(IntMatrix.from_columns([], rows=2))
    assert group == FgAbGroup(2, ())
    assert abs(determinant(proj)) == 1
    group, _ = cokernel_presentation(IntMatrix.identity(3))
    assert group.is_trivial


def test_intmatrix_basics():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    assert a.transpose().entries == ((1, 3), (2, 4))
    assert (a @ IntMatrix.identity(2)) == a
    assert a.apply((1, 0)) == (1, 3)
    assert a.hstack(IntMatrix.from_columns([(0, 0)])).cols == 3
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1], [1, 2]])
    with pytest.raises(ValueError):
        IntMatrix(1, 1, ((True,),))
    with pytest.raises(ValueError):
        a @ IntMatrix.identity(3)
    for build in (IntMatrix.from_rows, IntMatrix.from_columns):
        for bad in (2.7, True):
            with pytest.raises(ValueError, match="plain ints"):
                build([[bad, 1]])
