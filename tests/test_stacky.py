"""Stacky fans, quotient presentations, and the two normalization moves
(torsion removal and torus splitting)."""

import itertools
import random
from collections import Counter

import pytest

from property_suites import (
    _morphism_problems_per_vector,
    _random_group,
    _split_torus_factor_solving,
    _verdict_morphisms,
    count_calls,
)
from stackyfans import zlinalg
from stackyfans.fgab import (
    FgAbGroup,
    FgAbHom,
    MalformedHom,
    free_group,
    has_finite_cokernel,
    identity_hom,
    mapping_cone_dual,
)
from stackyfans.polyhedral import Cone, Fan, canonicalize_cone, validate_fan
from stackyfans.stacky import (
    NotSubfanOfAffineSpace,
    StackyFan,
    StackyMorphism,
    gbeta,
    is_strict,
    present_quotient,
    primitive_collections,
    reduce_nonstrict,
    split_torus_factor,
)
from stackyfans.zlinalg import IntMatrix, row_rank


def _cone(*gens, rank=None):
    return canonicalize_cone(list(gens), ambient_rank=rank)


A1_SF = StackyFan(Fan(2, (_cone((1, 0), (0, 1)),)), free_group(2),
                  ((1, 0), (1, 2)))
PUNCTURED = Fan(2, (_cone((1, 0), rank=2), _cone((0, 1), rank=2)))
P1_COX = StackyFan(PUNCTURED, free_group(1), ((1,), (-1,)))
NONSEP = StackyFan(PUNCTURED, free_group(1), ((1,), (1,)))
M_BAR = StackyFan(PUNCTURED, FgAbGroup(1, (2,)), ((2, 1), (-3, 0)))
BG = StackyFan(Fan(0, (_cone(rank=0),)), FgAbGroup(1, (2,)), ())


def test_images_are_reduced():
    sf = StackyFan(PUNCTURED, FgAbGroup(1, (2,)), ((2, 3), (-3, -1)))
    assert sf.beta_images == ((2, 1), (-3, 1))


def test_beta_property():
    assert A1_SF.beta.matrix.columns() == [(1, 0), (1, 2)]
    assert BG.beta.matrix.cols == 0


def test_image_length_checked():
    with pytest.raises(ValueError):
        StackyFan(PUNCTURED, free_group(1), ((1,),))
    with pytest.raises(ValueError):
        StackyFan(PUNCTURED, free_group(1), ((1, 0), (0, 1)))


def test_strictness():
    assert is_strict(A1_SF)
    assert is_strict(P1_COX)
    assert not is_strict(M_BAR)
    # infinite cokernel also breaks strictness
    wide = StackyFan(Fan(1, (_cone((1,), rank=1),)), free_group(2), ((0, 0),))
    assert not is_strict(wide)


def test_validate_stacky_fan():
    # what the validate command reads: the fan's problems and strictness
    assert validate_fan(A1_SF.fan) == () and is_strict(A1_SF)
    assert validate_fan(M_BAR.fan) == () and not is_strict(M_BAR)
    bad = StackyFan(Fan(2, (_cone((1, 0), (0, 1)), _cone((1, 1), (-1, 1)))),
                    free_group(2), ((1, 0), (0, 1)))
    problems = validate_fan(bad.fan)
    assert problems and all("common face" in p for p in problems)


def test_gbeta_matches_mapping_cone():
    mc = gbeta(A1_SF)
    assert mc.g1.group == FgAbGroup(0, (2,))
    assert mc.g1.weights.entries == ((1, 1),)
    assert mc == mapping_cone_dual(A1_SF.beta)


def test_present_requires_orthant_subfan():
    skew = StackyFan(Fan(2, (_cone((1, 1), rank=2),)), free_group(2),
                     ((1, 0), (0, 1)))
    with pytest.raises(NotSubfanOfAffineSpace):
        present_quotient(skew)


def test_present_a1():
    pres = present_quotient(A1_SF)
    assert pres.describe() == "[(A^2) / mu_2] with weights 1, 1"
    assert pres.removed_locus == ()
    assert pres.group == FgAbGroup(0, (2,))


def test_present_p1_cox():
    pres = present_quotient(P1_COX)
    assert pres.describe() == "[(A^2 - V(x1,x2)) / G_m] with weights 1, 1"
    assert pres.removed_locus == ((1, 2),)


def test_present_with_torus_factor():
    sf = StackyFan(Fan(2, (_cone((1, 0), rank=2),)), free_group(1), ((1,), (0,)))
    pres = present_quotient(sf)
    assert pres.group == FgAbGroup(1, ())
    assert pres.weights.entries == ((0, 1),)
    assert pres.describe() == "[(A^2 - V(x2)) / G_m] with weights 0, 1"


def test_reduce_nonstrict_m_bar():
    reduced, coords = reduce_nonstrict(M_BAR)
    assert coords == (3,)
    assert reduced.target == free_group(2)
    assert reduced.beta_images == ((2, 1), (-3, 0), (0, 2))
    assert reduced.fan == Fan(3, (_cone((0, 0, 1), (1, 0, 0)),
                                  _cone((0, 0, 1), (0, 1, 0))))
    pres = present_quotient(reduced, fixed_coordinates=coords)
    assert pres.describe() == \
        "[(A^3 - V(x1,x2)) / G_m] with weights 6, 4, -3 on x3 = 0"


def test_reduce_strict_is_identity_like():
    reduced, coords = reduce_nonstrict(A1_SF)
    assert coords == ()
    assert reduced == A1_SF


def test_split_then_reduce_bg():
    split, k = split_torus_factor(BG)
    assert k == 1
    assert split.target == FgAbGroup(0, (2,))
    reduced, coords = reduce_nonstrict(split)
    assert coords == (1,)
    assert reduced.beta_images == ((2,),)
    assert reduced.fan == Fan(1, (_cone((1,), rank=1),))
    pres = present_quotient(reduced, fixed_coordinates=coords)
    assert pres.describe() == "[(A^1) / mu_2] with weights 1 on x1 = 0"


def test_split_keeps_finite_part():
    # target Z^2, image spans one axis: one torus factor splits off
    sf = StackyFan(Fan(1, (_cone((1,), rank=1),)), free_group(2), ((2, 0),))
    split, k = split_torus_factor(sf)
    assert k == 1
    assert split.target == free_group(1)
    assert split.beta_images == ((2,),)


def _split_case(rng, ell, target, entries):
    images = [tuple(rng.choice(entries) for _ in range(target.ngens)) for _ in range(ell)]
    return StackyFan(Fan(ell, (Cone(ell, ()),)), target, tuple(images))


def test_split_matches_solving_reference():
    """Coordinates read off U agree with solving in the saturation basis."""
    rng = random.Random(53)
    seen = set()
    for _ in range(400):
        target = _random_group(rng, max_free=4)
        # sparse images, so the free block is often rank-deficient
        sf = _split_case(rng, rng.randint(0, 5), target, (0, 0, 0, 1, -2, 3, 6))
        assert split_torus_factor(sf) == _split_torus_factor_solving(sf), sf
        f = target.free_rank
        deficient = row_rank([v[:f] for v in sf.beta_images]) < min(f, sf.lattice_rank)
        seen.add((bool(target.torsion), has_finite_cokernel(sf.beta), deficient))
    assert {(t, c) for t, c, _ in seen} == set(itertools.product((False, True), repeat=2))
    assert any(deficient for _, _, deficient in seen)


def test_split_makes_two_smith_forms(monkeypatch):
    # the shape of the largest group_algebra requests: rank 18 into Z^6 + Z/60
    sf = _split_case(random.Random(7), 18, FgAbGroup(6, (60,)), range(-99, 100))
    smith = count_calls(monkeypatch, zlinalg.snf)
    saturations = count_calls(monkeypatch, zlinalg.saturate)
    split_torus_factor(sf)
    assert (len(smith), saturations) == (2, [])


def test_validate_morphism_good():
    target = StackyFan(Fan(1, (_cone((1,), rank=1), _cone((-1,), rank=1))),
                       free_group(1), ((1,),))
    mor = StackyMorphism(P1_COX, target,
                         IntMatrix.from_rows([[1, -1]]),
                         identity_hom(free_group(1)))
    assert mor.problems == ()
    assert mor.ray_images == {(0, 1): (-1,), (1, 0): (1,)}


def test_validate_morphism_catches_noncommuting():
    target = StackyFan(Fan(1, (_cone((1,), rank=1), _cone((-1,), rank=1))),
                       free_group(1), ((1,),))
    mor = StackyMorphism(P1_COX, target,
                         IntMatrix.from_rows([[1, 1]]),
                         identity_hom(free_group(1)))
    assert mor.problems == (
        "square does not commute on basis vector 2: phi(beta(e)) = (-1,), beta'(Phi(e)) = (1,)",)


def test_validate_morphism_catches_fan_incompatibility():
    # the fan map must send each cone into some target cone
    a1_var = StackyFan(Fan(2, (_cone((1, 0), (1, 2)),)), free_group(2),
                       ((1, 0), (0, 1)))
    mor = StackyMorphism(A1_SF, a1_var,
                         IntMatrix.identity(2), identity_hom(free_group(2)))
    # (the betas differ too, so the square fails on e_2 first)
    assert mor.problems == (
        "square does not commute on basis vector 2: phi(beta(e)) = (1, 2), beta'(Phi(e)) = (0, 1)",
        "image of cone with rays ((0, 1), (1, 0)) lies in no target cone")


def _moved_entry(m, rng):
    rows = [list(r) for r in m.entries]
    rows[rng.randrange(m.rows)][rng.randrange(m.cols)] += rng.choice((-1, 1))
    return IntMatrix.from_rows(rows, cols=m.cols)


def _broken_variants(m, rng):
    """m with one entry of Phi moved, with one of phi moved, with a maximal
    cone of the target fan dropped, and with a row too many in Phi."""
    out = []
    if m.Phi.rows and m.Phi.cols:
        out.append(StackyMorphism(m.source, m.target, _moved_entry(m.Phi, rng), m.phi))
    if m.phi.matrix.rows and m.phi.matrix.cols:
        try:
            phi = FgAbHom(m.phi.source, m.phi.target, _moved_entry(m.phi.matrix, rng))
            out.append(StackyMorphism(m.source, m.target, m.Phi, phi))
        except MalformedHom:
            pass
    cones = m.target.fan.maximal_cones
    if cones:
        k = rng.randrange(len(cones))
        fan = Fan(m.target.lattice_rank, cones[:k] + cones[k + 1:])
        target = StackyFan(fan, m.target.target, m.target.beta_images)
        out.append(StackyMorphism(m.source, target, m.Phi, m.phi))
    taller = IntMatrix.from_rows(m.Phi.entries + ((0,) * m.Phi.cols,), cols=m.Phi.cols)
    out.append(StackyMorphism(m.source, m.target, taller, m.phi))
    return out


def test_problems_match_the_per_vector_reference():
    rng = random.Random(71)
    seen = Counter()
    for _, m in _verdict_morphisms(rng, 300):
        for mor in [m] + _broken_variants(m, rng):
            want = _morphism_problems_per_vector(mor)
            assert mor.problems == want, mor
            seen["morphism"] += not want
            seen["shape"] += bool(want) and want[0].startswith("Phi is")
            seen["square"] += any("commute" in p for p in want)
            seen["cone"] += any("no target cone" in p for p in want)
            seen["both"] += (any("commute" in p for p in want)
                             and any("no target cone" in p for p in want))
    assert all(seen[k] >= 50 for k in ("morphism", "shape", "square", "cone", "both")), seen


# ---------------------------------------------------------------------------
# primitive collections, against the two routines they replaced

def _reference_hitting_sets(families):
    """Minimal sets meeting every family member, by branching on each member."""
    fams = [frozenset(f) for f in families]
    if any(not f for f in fams):
        return []
    found = set()

    def rec(chosen, rest):
        if not rest:
            found.add(chosen)
            return
        head, tail = rest[0], rest[1:]
        if chosen & head:
            rec(chosen, tail)
            return
        for x in sorted(head):
            rec(chosen | {x}, tail)

    rec(frozenset(), fams)
    keep = [s for s in found if not any(t < s for t in found)]
    return sorted(tuple(sorted(s)) for s in keep)


def _reference_nonfaces(n, facesets):
    """Minimal index sets in no faceset, all subsets tried by size."""
    out = []
    for size in range(1, n + 1):
        for comb in itertools.combinations(range(1, n + 1), size):
            s = set(comb)
            if any(set(prev) <= s for prev in out):
                continue
            if not any(s <= f for f in facesets):
                out.append(comb)
    return out


def test_primitive_collections_match_references():
    rng = random.Random(31)
    for _ in range(2000):
        n = rng.randint(0, 8)
        facesets = [{i for i in range(1, n + 1) if rng.random() < rng.random()}
                    for _ in range(rng.randint(1, 7))]
        got = primitive_collections(n, facesets)
        # the removed locus of present, in its lexicographic order
        universe = set(range(1, n + 1))
        assert got == _reference_hitting_sets([sorted(universe - f) for f in facesets])
        # the intersection relations of moduli, in their (size, set) order
        by_size = sorted(got, key=lambda s: (len(s), s))
        assert by_size == _reference_nonfaces(n, facesets), (n, facesets)


def test_primitive_collections_edge_cases():
    # no cones: the empty set is the one minimal nonface
    assert primitive_collections(3, []) == [()]
    # the whole orthant: every set is a face
    assert primitive_collections(3, [{1, 2, 3}]) == []
    # the zero cone alone: every coordinate is a nonface
    assert primitive_collections(2, [set()]) == [(1,), (2,)]


def test_primitive_collections_large_complexes():
    # (P^1)^8: one of each pair {2k-1, 2k} per maximal cone
    cubes = [set(c) for c in itertools.product(*[(2 * k + 1, 2 * k + 2) for k in range(8)])]
    assert primitive_collections(16, cubes) == [(2 * k + 1, 2 * k + 2) for k in range(8)]
    # 18-gon: the non-adjacent pairs
    ring = [{i, i % 18 + 1} for i in range(1, 19)]
    got = primitive_collections(18, ring)
    assert len(got) == 135
    assert all(len(s) == 2 and (s[1] - s[0]) % 18 not in (1, 17) for s in got)
