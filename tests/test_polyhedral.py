"""Cones, fans, and the combinatorial predicates built on them."""

import ast
import itertools
import random
from fractions import Fraction

import pytest

from property_suites import (
    _all_cones,
    _in_generated_cone,
    _preimage_all_cones,
    _rand_matrix,
    _random_cone,
    _random_polyhedral_stacky_fan,
    _random_stacky_fan,
    _random_unimodular,
    _unstable_per_ray,
    count_calls,
)
from stackyfans import polyhedral, zlinalg
from stackyfans.fgab import FgAbGroup, FgAbHom, free_group
from stackyfans.polyhedral import (
    Cone,
    Fan,
    NotStronglyConvex,
    PreconditionViolated,
    canonicalize_cone,
    cone_contains,
    faces,
    fan_rays,
    halfspace_intersection,
    intersect_cones,
    is_unstable,
    maximal_among,
    minimal_face_containing,
    monoid_iso_on_cone,
    preimage_fan,
    primitive,
    unstable_face,
    validate_fan,
)
from stackyfans.zlinalg import IntMatrix, row_rank, saturate, snf

QUAD = canonicalize_cone([(1, 0), (0, 1)])
A1 = canonicalize_cone([(1, 0), (1, 2)])


def test_primitive():
    assert primitive((4, -6)) == (2, -3)
    assert primitive((0, 0)) is None
    assert primitive((0, -5)) == (0, -1)


def test_canonicalize_drops_redundant_generators():
    c = canonicalize_cone([(2, 0), (1, 2), (3, 2)])
    assert c.rays == ((1, 0), (1, 2))
    assert canonicalize_cone([], ambient_rank=2).rays == ()
    assert canonicalize_cone([(0, 0)], ambient_rank=2).rays == ()


def test_canonicalize_rejects_lines():
    with pytest.raises(NotStronglyConvex):
        canonicalize_cone([(1, 0), (-1, 0)])
    with pytest.raises(NotStronglyConvex):
        canonicalize_cone([(1, 0), (-1, 1), (0, -1)])


def _canonicalize_two_pass(gens, n):
    """Reference: dualize the generators, then dualize facets and equations back."""
    eqs, facets = halfspace_intersection(
        sorted({p for p in map(primitive, gens) if p is not None}), n)
    lin, rays = halfspace_intersection(
        list(facets) + list(eqs) + [tuple(-x for x in e) for e in eqs], n)
    if lin:
        raise NotStronglyConvex(f"cone contains the line through {lin[0]}")
    return tuple(rays), (tuple(eqs), tuple(facets))


def _canonicalize_by_dd(gens, n):
    """Reference: the one-DD route for every generating set, independent or not."""
    prims = sorted({p for p in map(primitive, gens) if p is not None})
    eqs, facets = halfspace_intersection(prims, n)
    tight = {g: {f for f in facets if sum(a * b for a, b in zip(f, g)) == 0} for g in prims}
    for g, z in tight.items():
        if len(z) == len(facets):
            raise NotStronglyConvex(f"cone contains the line through {g}")
    rays = tuple(g for g, z in tight.items() if not any(zh > z for zh in tight.values()))
    return rays, (tuple(eqs), tuple(facets))


def test_independent_generators_match_dd_reference(monkeypatch):
    """Independent generators, with multiples, repeats, zero vectors or none
    at all, give the reference's rays and H-representation with no DD."""
    calls = count_calls(monkeypatch, halfspace_intersection)
    rng = random.Random(43)
    sizes = set()
    for _ in range(800):
        n = rng.randint(0, 6)
        k = rng.randint(0, n)
        basis = []
        while len(basis) < k:
            g = tuple(rng.randint(-4, 4) for _ in range(n))
            if row_rank(basis + [g]) > len(basis):
                basis.append(g)
        gens = list(basis)
        for _ in range(rng.randint(0, 3)):
            if basis:
                c = rng.randint(1, 3)
                gens.append(tuple(c * x for x in rng.choice(basis)))
        if rng.random() < 0.3:
            gens.append((0,) * n)
        rng.shuffle(gens)
        want = _canonicalize_by_dd(gens, n)
        del calls[:]
        c = canonicalize_cone(gens, ambient_rank=n)
        assert calls == [], gens
        assert (c.rays, c.h_representation) == want, gens
        sizes.add(len(c.rays))
    assert sizes == set(range(7))


def _random_generators(rng):
    """Small generating sets: lower-dimensional, with zeros and repeats."""
    n = rng.randint(1, 5)
    k = rng.randint(1, n)
    embed = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(n)]
    gens = []
    for _ in range(rng.randint(0, 7)):
        g = [rng.randint(-3, 3) for _ in range(k)]
        if rng.random() < 0.7:
            g[0] = abs(g[0]) + 1  # on one side of a hyperplane: often pointed
        gens.append(tuple(sum(a * b for a, b in zip(row, g)) for row in embed))
    if gens and rng.random() < 0.3:
        gens.append(tuple(rng.choice((1, 2, 3)) * x for x in rng.choice(gens)))
    if rng.random() < 0.2:
        gens.append((0,) * n)
    rng.shuffle(gens)
    return gens, n


def test_canonicalize_matches_two_pass_reference():
    rng = random.Random(17)
    pointed = lines = lower = 0
    for _ in range(2400):
        gens, n = _random_generators(rng)
        try:
            want = _canonicalize_two_pass(gens, n)
        except NotStronglyConvex:
            with pytest.raises(NotStronglyConvex):
                canonicalize_cone(gens, ambient_rank=n)
            lines += 1
            continue
        c = canonicalize_cone(gens, ambient_rank=n)
        assert (c.rays, c.h_representation) == want, gens
        pointed += 1
        lower += row_rank(c.rays) < n
    assert pointed >= 1500 and lines >= 400 and lower >= 1000


def test_line_witness_lies_in_the_lineality_space():
    rng = random.Random(19)
    seen = 0
    for _ in range(600):
        gens, n = _random_generators(rng)
        try:
            canonicalize_cone(gens, ambient_rank=n)
        except NotStronglyConvex as e:
            v = ast.literal_eval(str(e).rsplit("through ", 1)[1])
            assert _in_generated_cone(gens, v, n)
            assert _in_generated_cone(gens, tuple(-x for x in v), n)
            assert any(x != 0 for x in v)
            seen += 1
    assert seen >= 100


def test_canonicalize_runs_one_double_description(monkeypatch):
    """Dependent generators take one double description (DD).  Independent
    ones, the zero vector and the empty set take none: the cone runs its one
    DD only when something asks for its H-representation."""
    calls = []

    def counting(normals, dim):
        calls.append(dim)
        return halfspace_intersection(normals, dim)

    monkeypatch.setattr(polyhedral, "halfspace_intersection", counting)
    for gens, dds in (([(1, 0, 0), (0, 1, 0), (1, 1, 0)], 1), ([(1, 0), (-1, 0)], 1),
                      ([(2, 0), (0, 3), (0, 1)], 0), ([(0, 0)], 0), ([], 0)):
        calls.clear()
        try:
            c = canonicalize_cone(gens, ambient_rank=len(gens[0]) if gens else 2)
        except NotStronglyConvex:
            c = None
        assert len(calls) == dds, gens
        if c is not None:
            c.h_representation
            c.h_representation
            assert len(calls) == 1, gens


def test_halfspace_intersection_quadrant():
    lin, rays = halfspace_intersection(((1, 0), (0, 1)), 2)
    assert lin == []
    assert sorted(rays) == [(0, 1), (1, 0)]


def test_halfspace_intersection_with_lineality():
    lin, rays = halfspace_intersection(((1, 0),), 2)
    assert [primitive(v) for v in lin] == [(0, 1)] or [primitive(v) for v in lin] == [(0, -1)]
    assert rays == [(1, 0)]


def test_cone_contains():
    assert cone_contains(A1, (2, 2))
    assert cone_contains(A1, (1, 0))
    assert not cone_contains(A1, (0, 1))
    assert cone_contains(A1, (Fraction(1, 2), Fraction(1, 3)))
    zero = canonicalize_cone([], ambient_rank=2)
    assert cone_contains(zero, (0, 0))
    assert not cone_contains(zero, (1, 0))


def test_faces_of_cone_over_square():
    c = canonicalize_cone([(0, 1, 0), (0, 1, 1), (1, 1, 1), (1, 1, 0)])
    fs = faces(c)
    assert sorted(len(f.rays) for f in fs) == [0, 1, 1, 1, 1, 2, 2, 2, 2, 4]


def _faces_by_facet_subsets(c):
    """Reference: the ray set on every subset of facets, one subset at a time."""
    _, facets = halfspace_intersection(c.rays, c.ambient_rank)
    found = set()
    for k in range(len(facets) + 1):
        for sub in itertools.combinations(facets, k):
            found.add(tuple(r for r in c.rays
                            if all(sum(a * b for a, b in zip(n, r)) == 0 for n in sub)))
    return sorted(found, key=lambda rs: (len(rs), rs))


def test_faces_match_facet_subset_enumeration():
    rng = random.Random(3)
    checked = lower = 0
    facet_counts = set()
    while checked < 240:
        n = rng.randint(2, 4)
        k = rng.randint(2, n)
        # a cone over lattice points of height one in Z^k, mapped into Z^n
        # by a random matrix when k < n (so of lower dimension)
        embed = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(n)]
        gens = []
        for _ in range(rng.randint(1, 8)):
            g = (1,) + tuple(rng.randint(-3, 3) for _ in range(k - 1))
            if k < n:
                g = tuple(sum(a * b for a, b in zip(row, g)) for row in embed)
            gens.append(g)
        try:
            c = canonicalize_cone(gens, ambient_rank=n)
        except NotStronglyConvex:
            continue
        assert [f.rays for f in faces(c)] == _faces_by_facet_subsets(c)
        checked += 1
        lower += row_rank(c.rays) < n
        facet_counts.add(len(c.h_representation[1]))
    assert lower >= 50
    assert max(facet_counts) >= 8


def test_faces_of_cone_over_20_gon():
    c = canonicalize_cone([(1, i, i * i) for i in range(20)])
    assert len(c.rays) == 20
    assert sorted(len(f.rays) for f in faces(c)) == [0] + [1] * 20 + [2] * 20 + [20]


def test_intersect_cones():
    assert intersect_cones(QUAD, canonicalize_cone([(1, 1), (-1, 1)])) == [(0, 1), (1, 1)]
    assert intersect_cones(QUAD, canonicalize_cone([(1, -1), (1, 1)])) == [(1, 0), (1, 1)]
    assert intersect_cones(QUAD, canonicalize_cone([(-1, 0)], ambient_rank=2)) == []


def test_minimal_face_containing():
    assert minimal_face_containing(A1, (1, 0)) == ((1, 0),)
    assert minimal_face_containing(A1, (2, 1)) == ((1, 0), (1, 2))
    assert minimal_face_containing(A1, (0, 0)) == ()


def test_fan_sorts_maximal_cones():
    f1 = Fan(2, (QUAD, canonicalize_cone([(-1, 0)], ambient_rank=2)))
    f2 = Fan(2, (canonicalize_cone([(-1, 0)], ambient_rank=2), QUAD))
    assert f1 == f2
    assert [len(c.rays) for c in f1.maximal_cones] == [1, 2]


def test_validate_fan_accepts_p2():
    p2 = Fan(2, (canonicalize_cone([(1, 0), (0, 1)]),
                 canonicalize_cone([(1, 0), (-1, -1)]),
                 canonicalize_cone([(0, 1), (-1, -1)])))
    diag = validate_fan(p2)
    assert diag.valid and diag.problems == ()
    assert sorted(fan_rays(p2)) == [(-1, -1), (0, 1), (1, 0)]
    assert len(_all_cones(p2)) == 7


def test_validate_fan_rejects_overlap():
    bad = Fan(2, (QUAD, canonicalize_cone([(1, 1), (-1, 1)])))
    diag = validate_fan(bad)
    assert not diag.valid
    assert any("common face" in p for p in diag.problems)


def test_validate_fan_rejects_contained_maximal_cone():
    bad = Fan(2, (QUAD, canonicalize_cone([(1, 1)], ambient_rank=2)))
    diag = validate_fan(bad)
    assert not diag.valid


def test_preimage_fan():
    fan = Fan(2, (QUAD,))
    m = IntMatrix.identity(2)
    assert preimage_fan(m, fan, QUAD) == QUAD
    # only the origin maps into the zero cone
    zero = canonicalize_cone([], ambient_rank=2)
    assert preimage_fan(m, fan, zero) == zero
    # collapse onto the x-axis: the whole quadrant maps into the ray
    proj = IntMatrix.from_rows([[1, 0], [0, 0]])
    assert preimage_fan(proj, fan, canonicalize_cone([(1, 0)], ambient_rank=2)) == QUAD
    # two rays of different cones map into the ray: no single cone
    two_rays = Fan(2, (canonicalize_cone([(1, 0)]), canonicalize_cone([(0, 1)])))
    half_line = canonicalize_cone([(1,)])
    assert preimage_fan(IntMatrix.from_rows([[1, 1]]), two_rays, half_line) is None
    # the fan with no cones has no preimage cone at all
    assert preimage_fan(m, Fan(2, ()), QUAD) is None


def _random_target(rng, rank):
    """A pointed cone in Z^rank from up to four small generators."""
    while True:
        try:
            return canonicalize_cone(
                [[rng.randint(-2, 2) for _ in range(rank)] for _ in range(rng.randint(0, 4))],
                ambient_rank=rank)
        except NotStronglyConvex:
            pass


def test_preimage_fan_matches_all_cones_reference():
    rng = random.Random(23)
    found = missing = nonsimplicial = 0
    for i in range(1500):
        sf = (_random_stacky_fan if i % 2 else _random_polyhedral_stacky_fan)(rng)
        n = sf.lattice_rank
        m = IntMatrix.from_rows(
            [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(1, 3))], cols=n)
        if rng.random() < 0.5:
            # the image of a cone of the fan, as the moduli construction asks
            c = rng.choice(_all_cones(sf.fan))
            try:
                target = canonicalize_cone([m.apply(r) for r in c.rays], ambient_rank=m.rows)
            except NotStronglyConvex:
                continue
        else:
            target = _random_target(rng, m.rows)
        got = preimage_fan(m, sf.fan, target)
        assert got == _preimage_all_cones(m, sf.fan, target), (sf.fan, m, target)
        found += got is not None
        missing += got is None
        nonsimplicial += any(len(c.rays) > row_rank(c.rays) for c in sf.fan.maximal_cones)
    assert found >= 1000 and missing >= 100 and nonsimplicial >= 200


def test_maximal_among_reports_each_cone_once():
    zero = canonicalize_cone([], ambient_rank=2)
    ray = canonicalize_cone([(1, 0)])
    assert maximal_among([zero, zero]) == [zero]
    assert maximal_among([ray, QUAD, ray, zero]) == [QUAD]


def test_unstable_face():
    # P^1 as a quotient of A^2 - 0: each maximal ray has the zero cone as
    # its unstable face, and the two agree
    weights = FgAbHom(free_group(2), free_group(1), IntMatrix.from_rows([[1, 1]]))
    for r in ((1, 0), (0, 1)):
        assert unstable_face(canonicalize_cone([r]), weights) == Cone(2, ())
    line = FgAbHom(free_group(2), free_group(1), IntMatrix.from_rows([[1, -1]]))
    assert unstable_face(QUAD, line) == QUAD
    # a 3-ray cone mapping onto a half-plane: the two rays on its boundary
    # line span the unstable face
    c = canonicalize_cone([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    half = FgAbHom(free_group(3), free_group(2), IntMatrix.from_rows([[1, -1, 0], [0, 0, 1]]))
    assert unstable_face(c, half) == canonicalize_cone([(1, 0, 0), (0, 1, 0)])


def test_unstable_faces_give_the_maximal_unstable_cones():
    rng = random.Random(29)
    proper = 0
    for i in range(1000):
        sf = (_random_stacky_fan if i % 2 else _random_polyhedral_stacky_fan)(rng)
        beta = sf.beta
        by_face = []
        for sigma in sf.fan.maximal_cones:
            u = unstable_face(sigma, beta)
            assert u in faces(sigma) and _unstable_per_ray(u, beta), (sigma, beta)
            proper += Cone(sf.lattice_rank, ()) != u != sigma
            by_face.append(u)
        want = maximal_among([c for c in _all_cones(sf.fan) if _unstable_per_ray(c, beta)])
        assert set(maximal_among(by_face)) == set(want), sf
        for c in _all_cones(sf.fan):
            assert is_unstable(c, beta) == _unstable_per_ray(c, beta), (c, beta)
    assert proper >= 50


def test_monoid_iso_identity_and_index():
    assert monoid_iso_on_cone(IntMatrix.identity(2), QUAD, QUAD)
    assert not monoid_iso_on_cone(IntMatrix.from_rows([[2, 0], [0, 2]]),
                                  QUAD, QUAD)
    with pytest.raises(PreconditionViolated):
        monoid_iso_on_cone(IntMatrix.from_rows([[-1, 0], [0, 1]]), QUAD, QUAD)


def test_monoid_iso_needs_filled_image():
    # x-axis ray into the quadrant: injective but far from onto
    ray = canonicalize_cone([(1, 0)], ambient_rank=2)
    assert not monoid_iso_on_cone(IntMatrix.identity(2), ray, QUAD)
    # projection of the quadrant onto its ray is onto but not injective
    proj = IntMatrix.from_rows([[1, 1]])
    assert not monoid_iso_on_cone(proj, QUAD, canonicalize_cone([(1,)], ambient_rank=1))


def test_monoid_iso_a1_cone_vs_quadrant():
    m = IntMatrix.from_columns([(1, 0), (1, 2)], rows=2)
    # the quadrant maps onto the A1 cone but the lattice index is 2
    assert not monoid_iso_on_cone(m, QUAD, A1)


def _monoid_iso_saturating(m, sigma, sigma_prime):
    """Reference monoid_iso_on_cone: m·S extends to a lattice basis, with S
    a basis of the saturated span of sigma."""
    if not polyhedral.maps_onto(m, sigma, sigma_prime):
        return False
    span = saturate(IntMatrix.from_columns(sigma.rays, rows=sigma.ambient_rank))
    factors = snf(m @ span).invariant_factors
    return len(factors) == span.cols and all(f == 1 for f in factors)


def _monoid_cases(rng, count):
    """(m, sigma, sigma') with sigma' the image cone, so only the lattice
    test decides; m is unimodular, or small and often singular."""
    cases = []
    while len(cases) < count:
        n = rng.randint(1, 4)
        sigma = _random_cone(rng, n, max_gens=4, bound=6)
        if rng.random() < 0.4:
            m = _random_unimodular(rng, n)
        else:
            m = _rand_matrix(rng, rng.randint(1, 4), n, bound=2)
        try:
            image = canonicalize_cone([m.apply(r) for r in sigma.rays], ambient_rank=m.rows)
        except NotStronglyConvex:
            continue
        cases.append((m, sigma, image))
    return cases


def test_monoid_iso_matches_saturating_reference():
    verdicts = set()
    for m, sigma, image in _monoid_cases(random.Random(41), 600):
        want = _monoid_iso_saturating(m, sigma, image)
        assert monoid_iso_on_cone(m, sigma, image) == want, (m.entries, sigma.rays)
        verdicts.add((want, len(sigma.rays) < sigma.ambient_rank))
    assert verdicts == {(False, False), (False, True), (True, False), (True, True)}


def test_monoid_iso_saturates_nothing(monkeypatch):
    saturations = count_calls(monkeypatch, zlinalg.saturate)
    for m, sigma, image in _monoid_cases(random.Random(43), 50):
        monoid_iso_on_cone(m, sigma, image)
    assert saturations == []


def test_unstable():
    line = FgAbHom(free_group(2), free_group(1), IntMatrix.from_rows([[1, -1]]))
    assert is_unstable(QUAD, line)
    half = FgAbHom(free_group(2), free_group(1), IntMatrix.from_rows([[1, 1]]))
    assert not is_unstable(QUAD, half)
    zero_cone = canonicalize_cone([], ambient_rank=2)
    assert is_unstable(zero_cone, half)
    to_point = FgAbHom(free_group(2), free_group(0), IntMatrix(0, 2, ()))
    assert is_unstable(QUAD, to_point)
    # torsion in the target is invisible to stability
    tor = FgAbHom(free_group(2), FgAbGroup(1, (2,)),
                  IntMatrix.from_rows([[1, 1], [1, 0]]))
    assert not is_unstable(QUAD, tor)
