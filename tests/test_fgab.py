"""Homomorphism predicates and the dual-of-mapping-cone group data.

The weight table below collects the worked quotient descriptions of small
stacky data; each entry was derived by hand from the cokernel of the
transposed matrix before the implementation existed.
"""

import math
import random

import pytest
from property_suites import (
    _caps,
    _random_unimodular,
    _reference_weights,
    _triangle_sequences,
    count_calls,
    induced_g1_hom,
    kernel_basis,
    normalized_group,
    row_hermite_problems,
    solve_integer,
    verify_exact,
)

from stackyfans import fgab, zlinalg
from stackyfans.fgab import (
    FgAbGroup,
    FgAbHom,
    MalformedHom,
    _unit_for_row,
    free_group,
    group_name,
    has_finite_cokernel,
    identity_hom,
    is_surjective,
    mapping_cone_dual,
)
from stackyfans.zlinalg import IntMatrix, cokernel_presentation, hermite_row_form, rank


def hom(source, target, rows):
    return FgAbHom(source, target, IntMatrix.from_rows(rows, cols=source.ngens))


Z = free_group(1)
Z2 = free_group(2)


def test_hom_reduces_torsion_rows():
    g = FgAbGroup(0, (4,))
    f = hom(Z, g, [[7]])
    assert f.matrix.entries == ((3,),)
    assert f.apply((2,)) == (2,)


def test_hom_well_definedness():
    g = FgAbGroup(0, (4,))
    # Z/2 -> Z/4 must send the generator to an element of order dividing 2
    f = hom(FgAbGroup(0, (2,)), g, [[2]])
    assert f.apply((1,)) == (2,)
    with pytest.raises(MalformedHom):
        hom(FgAbGroup(0, (2,)), g, [[1]])
    with pytest.raises(MalformedHom):
        hom(FgAbGroup(0, (2,)), Z, [[1]])


def test_verify_exact_short_sequence():
    z4 = FgAbGroup(0, (4,))
    z2 = FgAbGroup(0, (2,))
    inc = hom(z2, z4, [[2]])
    quo = hom(z4, z2, [[1]])
    start = hom(FgAbGroup(0, ()), z2, [[]])
    end = FgAbHom(z2, FgAbGroup(0, ()), IntMatrix(0, 1, ()))
    assert verify_exact([start, inc, quo, end])
    # swapping the inclusion for an isomorphism breaks exactness at Z/4
    bad = hom(z2, z4, [[0]])
    assert not verify_exact([start, bad, quo, end])


def test_verify_exact_rejects_non_composable():
    f = hom(Z, Z, [[2]])
    g = hom(Z2, Z, [[1, 0]])
    assert not verify_exact([g, f])


# ---------------------------------------------------------------------------
# dual mapping cone

WEIGHT_TABLE = [
    # (beta rows, source rank, target, g0_rank, group, weight rows)
    ([[1, 1], [0, 2]], 2, free_group(2), 0, FgAbGroup(0, (2,)), ((1, 1),)),
    ([[1, 0]], 2, Z, 0, FgAbGroup(1, ()), ((0, 1),)),
    ([[2]], 1, Z, 0, FgAbGroup(0, (2,)), ((1,),)),
    ([[2, -3], [1, 0]], 2, FgAbGroup(1, (2,)), 0, FgAbGroup(1, ()), ((6, 4),)),
    ([[1, 1]], 2, Z, 0, FgAbGroup(1, ()), ((1, -1),)),
    ([[1, -1]], 2, Z, 0, FgAbGroup(1, ()), ((1, 1),)),
    ([[2, 1], [0, 2]], 2, free_group(2), 0, FgAbGroup(0, (4,)), ((1, 2),)),
    ([], 1, free_group(0), 0, FgAbGroup(1, ()), ((1,),)),
]


def test_mapping_cone_dual_table():
    for rows, ell, target, g0, group, weights in WEIGHT_TABLE:
        beta = FgAbHom(free_group(ell), target,
                       IntMatrix.from_rows(rows, cols=ell))
        mc = mapping_cone_dual(beta)
        assert mc.g0_rank == g0, rows
        assert mc.g1.group == group, rows
        assert mc.g1.weights.entries == weights, rows


def test_mapping_cone_dual_with_torus_factor():
    # nothing maps in, so the dual of Z + Z/2 survives whole
    beta = FgAbHom(free_group(0), FgAbGroup(1, (2,)), IntMatrix(2, 0, ((), ())))
    mc = mapping_cone_dual(beta)
    assert mc.g0_rank == 1
    assert mc.g1.group == FgAbGroup(0, (2,))
    assert mc.g1.weights.cols == 0


def _unit_by_enumeration(row, d):
    """Reference: the least (u*row mod d, u) over all units u of Z/d."""
    return min((tuple(u * x % d for x in row), u)
               for u in range(1, d) if math.gcd(u, d) == 1)[1]


def test_unit_for_row_matches_enumeration():
    rng = random.Random(23)
    for _ in range(3000):
        d = rng.randint(2, 600)
        # zero, multiple-of-d and non-unit entries keep the CRT steps honest
        row = tuple(rng.choice((0, d * rng.randint(-2, 2), rng.randint(-3 * d, 3 * d),
                                rng.choice((2, 3, 4, 6)) * rng.randint(1, d)))
                    for _ in range(rng.randint(0, 5)))
        assert _unit_for_row(row, d) == _unit_by_enumeration(row, d), (row, d)


def test_large_cyclic_weights_ignore_target_automorphisms():
    # G^1 = Z/240168, far past the moduli where units are cheap to enumerate
    beta = IntMatrix.from_rows([[8, 3], [0, 30021]])
    rng = random.Random(29)
    seen = set()
    for _ in range(8):
        mc = mapping_cone_dual(FgAbHom(Z2, Z2, _random_unimodular(rng, 2) @ beta))
        seen.add((mc.g1.group, mc.g1.weights.entries))
    assert seen == {(FgAbGroup(0, (240168,)), ((3, 80048),))}


def _shaped_beta(rng):
    """beta : Z^l -> Z^f + T whose invariant factors reach past 10^4.

    Random unimodular changes of basis hide a chosen diagonal, so G^1 comes
    out free, cyclic, mixed G_m^f x mu_d or with non-cyclic torsion.
    """
    f = rng.randint(0, 3)
    target = normalized_group(f, rng.choice(((), (), (12,), (6, 6 * 10007), (65537,))))
    ell = rng.randint(max(f, 1), f + 2)
    factors = [rng.choice((1, 1, 2, 10007, 3 * 65537)) for _ in range(f)]
    diag = IntMatrix.from_rows([[factors[i] if i == j else 0 for j in range(ell)]
                                for i in range(f)], cols=ell)
    free = _random_unimodular(rng, f) @ diag @ _random_unimodular(rng, ell)
    torsion = [[rng.randrange(d) for _ in range(ell)] for d in target.torsion]
    rows = [list(r) for r in free.entries] + torsion
    return FgAbHom(free_group(ell), target, IntMatrix.from_rows(rows, cols=ell))


def _shape(group):
    if len(group.torsion) >= 2:
        return "non-cyclic"
    if group.torsion:
        return "mixed" if group.free_rank else "cyclic"
    return "free" if group.free_rank else "trivial"


def test_weights_match_the_change_of_basis_reference():
    """Published weights equal A·W with A the old normalizing automorphism."""
    rng = random.Random(31)
    largest = {}
    for _ in range(300):
        beta = _shaped_beta(rng)
        group, weights, _ = _reference_weights(beta)
        mc = mapping_cone_dual(beta)
        assert mc.g1.group == group, beta.matrix.entries
        assert mc.g1.weights == weights, beta.matrix.entries
        shape = _shape(group)
        largest[shape] = max(largest.get(shape, 0), *group.torsion, 0)
    assert largest.keys() >= {"free", "cyclic", "mixed", "non-cyclic"}
    assert all(largest[s] > 10 ** 4 for s in ("cyclic", "mixed", "non-cyclic"))


def _g1_tail_beta(ell, seed):
    """The ``g1_tail`` beta of scripts/scaling.py: Z^l -> Z^(l/3) + Z/d with
    entries in [-99, 99], whose Smith transform rows reach 1000 digits."""
    rng = random.Random(seed)
    f = ell // 3
    rows = [[rng.randint(-99, 99) for _ in range(ell)] for _ in range(f + 1)]
    target = FgAbGroup(f, (rng.choice((45, 60, 210)),))
    return FgAbHom(free_group(ell), target, IntMatrix.from_rows(rows, cols=ell))


def _weights_by_smith_rows(beta):
    """Reference: the free rows of the Smith transform of the cokernel, then
    the row Hermite form of their lattice; torsion rows as published."""
    group, proj = cokernel_presentation(fgab._strictification(beta).transpose())
    f, ell = group.free_rank, beta.source.free_rank
    raw = proj.submatrix(range(group.ngens), range(ell)).entries
    free_rows, _ = hermite_row_form(IntMatrix.from_rows(raw[:f], cols=ell))
    torsion_rows = tuple(tuple(_unit_for_row(row, d) * x % d for x in row)
                         for row, d in zip(raw[f:], group.torsion))
    return group, IntMatrix.from_rows(free_rows.entries + torsion_rows, cols=ell)


def _weight_cases():
    rng = random.Random(53)
    return ([_shaped_beta(rng) for _ in range(200)]
            + [_g1_tail_beta(ell, seed) for ell in (10, 14, 18) for seed in range(5)])


def test_weights_match_the_smith_rows_reference():
    large = 0
    for beta in _weight_cases():
        mc = mapping_cone_dual(beta)
        assert (mc.g1.group, mc.g1.weights) == _weights_by_smith_rows(beta), beta.matrix.entries
        large += max(mc.g1.group.torsion, default=0) > 10 ** 4
    assert large >= 20


def test_free_weights_are_the_hermite_form_of_the_kernel_projection():
    """Definition: the free rows w satisfy B_free w = 0 and B_tors w = 0 mod d,
    are in row Hermite form, and number l - rank(B_free)."""
    for beta in _weight_cases():
        g1 = mapping_cone_dual(beta).g1
        ft, ell = beta.target.free_rank, beta.source.free_rank
        free = g1.weights.entries[:g1.group.free_rank]
        for w in free:
            image = beta.matrix.apply(w)
            assert not any(image[:ft]), (beta.matrix.entries, w)
            assert all(x % d == 0 for x, d in zip(image[ft:], beta.target.torsion)), w
        assert row_hermite_problems(free) == [] and all(map(any, free)), beta.matrix.entries
        b_free = IntMatrix.from_rows(beta.matrix.entries[:ft], cols=ell)
        assert len(free) == ell - rank(b_free), beta.matrix.entries


def test_mapping_cone_dual_hands_small_matrices_to_hermite_form(monkeypatch):
    """The Smith transform rows of these beta carry over 1000 digits; the
    matrix whose Hermite form gives the weights carries beta and d only."""
    hermite = count_calls(monkeypatch, zlinalg.hermite_row_form)
    for ell in (20, 24):
        for seed in range(5):
            fgab._g1_data.cache_clear()
            del hermite[:]
            mapping_cone_dual(_g1_tail_beta(ell, seed))
            (m,), = hermite
            assert max(abs(x) for row in m.entries for x in row) < 10 ** 6, (ell, seed)


def test_mapping_cone_dual_reads_one_smith_form(monkeypatch):
    """A fresh G_beta is one Smith form, one Hermite form for the free rows
    and no separate rank."""
    smith = count_calls(monkeypatch, zlinalg.snf)
    hermite = count_calls(monkeypatch, zlinalg.hermite_row_form)
    ranks = count_calls(monkeypatch, zlinalg.rank)
    rng = random.Random(37)
    for _ in range(20):
        beta = _shaped_beta(rng)
        fgab._g1_data.cache_clear()
        del smith[:], hermite[:], ranks[:]
        mapping_cone_dual(beta)
        assert (len(smith), len(hermite), len(ranks)) == (1, 1, 0), beta.matrix.entries


def test_mapping_cone_rejects_torsion_source():
    f = hom(FgAbGroup(0, (2,)), FgAbGroup(0, (2,)), [[1]])
    with pytest.raises(MalformedHom):
        mapping_cone_dual(f)


def test_dual_name():
    beta = FgAbHom(Z2, Z, IntMatrix.from_rows([[1, 1]]))
    assert group_name(0, mapping_cone_dual(beta).g1.group) == "G_m"
    beta = FgAbHom(Z2, Z2, IntMatrix.from_rows([[2, 0], [1, 2]]))
    assert group_name(0, mapping_cone_dual(beta).g1.group) == "mu_4"
    beta = FgAbHom(Z2, Z2, IntMatrix.identity(2))
    assert group_name(0, mapping_cone_dual(beta).g1.group) == "1"
    # the torus factor G^0 comes first and merges with no other factor
    assert group_name(1, FgAbGroup(0, ())) == "G_m"
    assert group_name(2, FgAbGroup(1, (2,))) == "G_m^2 x G_m x mu_2"
    assert group_name(1, FgAbGroup(3, ())) == "G_m x G_m^3"


def test_triangle_sequence_sandwich():
    """Stacky resolution of the A1 singularity sitting under a mu_4 cover."""
    phi = IntMatrix.from_rows([[1, 1], [0, 2]])
    beta = FgAbHom(Z2, Z2, IntMatrix.from_rows([[1, 0], [0, 2]]))
    r1, r2, s1 = _triangle_sequences(phi, beta)
    assert r1.source == FgAbGroup(0, (2,))
    assert r1.target == FgAbGroup(0, (4,))
    assert r2.target == FgAbGroup(0, (2,))
    assert verify_exact(_caps([r1, r2]))
    assert r1.matrix.entries == ((2,),)
    assert s1.source == free_group(0) and s1.target == free_group(0)


def test_triangle_sequence_sandwich_two():
    phi = IntMatrix.from_rows([[1, 1], [0, 2]])
    beta = FgAbHom(Z2, Z2, IntMatrix.from_rows([[2, 0], [0, 1]]))
    r1, r2, _ = _triangle_sequences(phi, beta)
    # the composite is the mu_2 x mu_2 cover
    assert r1.target == FgAbGroup(0, (2, 2))
    assert r1.source == FgAbGroup(0, (2,))
    assert r2.target == FgAbGroup(0, (2,))
    assert verify_exact(_caps([r1, r2]))


def test_triangle_with_torus_quotient():
    # collapsing the second coordinate: L' = Z, beta' = id
    phi = IntMatrix.from_rows([[1, 0]])
    beta_prime = identity_hom(Z)
    r1, r2, s1 = _triangle_sequences(phi, beta_prime)
    assert r1.source.is_trivial()
    assert r2.source == r1.target
    assert verify_exact(_caps([r1, r2]))
    assert s1.source == free_group(0)


def test_induced_hom_rejects_bad_square():
    f = FgAbHom(Z, Z, IntMatrix.from_rows([[2]]))
    g = FgAbHom(Z, Z, IntMatrix.from_rows([[3]]))
    with pytest.raises(MalformedHom):
        induced_g1_hom(f, g, IntMatrix.identity(1), identity_hom(Z))


def test_finite_cokernel_matches_hom_analysis():
    rng = random.Random(5)
    seen = set()
    for _ in range(300):
        ell, f = rng.randint(0, 4), rng.randint(0, 3)
        target = normalized_group(f, [rng.randint(1, 12) for _ in range(rng.randint(0, 3))])
        # sparse columns make rank-deficient free parts common
        cols = [[rng.choice((0, 0, 0, 1, -2, 3)) for _ in range(target.ngens)]
                for _ in range(ell)]
        beta = FgAbHom(free_group(ell), target,
                       IntMatrix.from_columns(cols, rows=target.ngens))
        want = cokernel_presentation(beta.matrix.hstack(target.relations()))[0].free_rank == 0
        assert has_finite_cokernel(beta) == want
        seen.add((want, bool(target.torsion)))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_is_surjective():
    # Z + Z/2 -> Z/2 onto the torsion part; multiplication by 6 on Z is not
    assert is_surjective(hom(FgAbGroup(1, (2,)), FgAbGroup(0, (2,)), [[0, 1]]))
    assert not is_surjective(hom(Z, Z, [[6]]))
    assert is_surjective(hom(Z2, Z, [[2, 3]]))
    assert is_surjective(hom(Z, FgAbGroup(0, ()), []))


def _reference_is_isomorphism(f: FgAbHom) -> bool:
    """Kernel lattice inside the source relations, and trivial cokernel."""
    big = f.matrix.hstack(f.target.relations())
    n = f.source.ngens
    rel = f.source.relations()
    for k in kernel_basis(big).columns():
        if solve_integer(rel, k[:n]) is None:
            return False
    return cokernel_presentation(big)[0].is_trivial()


def _random_group(rng):
    return normalized_group(rng.randint(0, 2),
                            [rng.choice((2, 3, 4, 6, 12)) for _ in range(rng.randint(0, 2))])


def _random_hom(rng, source, target):
    """A well-defined hom: torsion generators go to elements of fitting order."""
    fs, ft = source.free_rank, target.free_rank
    cols = [[rng.choice((-1, 0, 1, 1, 2)) for _ in range(target.ngens)] for _ in range(fs)]
    for d in source.torsion:
        cols.append([0] * ft + [e // math.gcd(d, e) * rng.randint(0, e)
                                for e in target.torsion])
    return FgAbHom(source, target, IntMatrix.from_columns(cols, rows=target.ngens))


def test_isomorphism_condition_matches_reference():
    """is_isomorphism condition 1 against kernel and cokernel computed directly."""
    rng = random.Random(9)
    seen = set()
    with_torsion = 0
    for _ in range(600):
        source = _random_group(rng)
        # equal endpoints most of the time, so both verdicts show up
        target = source if rng.random() < 0.7 else _random_group(rng)
        f = _random_hom(rng, source, target)
        want = _reference_is_isomorphism(f)
        assert (is_surjective(f) and f.source == f.target) == want, (source, target, f.matrix)
        torsion = bool(source.torsion or target.torsion)
        with_torsion += torsion
        seen.add((want, torsion))
    assert with_torsion >= 300
    assert seen == {(False, False), (False, True), (True, False), (True, True)}
