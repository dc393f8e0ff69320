"""The double description against its rank-pruned reference.

Nothing here builds a cone at import time, so a broken double description
fails these tests one by one instead of failing their collection.
"""

import itertools
import random

from property_suites import (
    _dd_rank_pruned,
    _intersect_from_zn,
    _random_fan,
    _random_polyhedral_fan,
    _validate_fan_pairwise,
)
from stackyfans import polyhedral, zlinalg
from stackyfans.polyhedral import (
    Fan,
    NotStronglyConvex,
    canonicalize_cone,
    halfspace_intersection,
    intersect_cones,
    validate_fan,
)
from stackyfans.zlinalg import row_rank


def _random_generating_set(rng):
    """Generators in Z^0 to Z^7 spanning any dimension, often not a pointed
    cone, with zero vectors, repeats and multiples."""
    n = rng.randint(0, 7)
    k = rng.randint(0, n)
    embed = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(n)]
    gens = []
    for _ in range(rng.randint(0, 9)):
        g = [rng.randint(-3, 3) for _ in range(k)]
        if k and rng.random() < 0.7:
            g[0] = abs(g[0]) + 1  # on one side of a hyperplane: often pointed
        gens.append(tuple(sum(a * b for a, b in zip(row, g)) for row in embed))
    if gens and rng.random() < 0.3:
        gens.append(tuple(rng.choice((1, 2, 3)) * x for x in rng.choice(gens)))
    if rng.random() < 0.2:
        gens.append((0,) * n)
    rng.shuffle(gens)
    return gens, n


def test_halfspace_intersection_matches_rank_pruned_reference():
    rng = random.Random(41)
    dims = set()
    lines = lower = 0
    for _ in range(2500):
        gens, n = _random_generating_set(rng)
        eqs, facets = want = _dd_rank_pruned(gens, n)
        assert halfspace_intersection(gens, n) == want, gens
        # and back: the cone the generators span, from its facets and equations
        back = list(facets) + [s for e in eqs for s in (e, tuple(-x for x in e))]
        lin, _ = want_back = _dd_rank_pruned(back, n)
        assert halfspace_intersection(back, n) == want_back, gens
        dims.add(n)
        lines += bool(lin)
        lower += bool(eqs)
    assert dims == set(range(8)) and lines >= 300 and lower >= 1500


def _random_pointed_cone(rng, n):
    """A pointed cone in Z^n, often lower-dimensional, sometimes the zero cone."""
    if rng.random() < 0.05:
        return canonicalize_cone([], ambient_rank=n)
    for _ in range(100):
        k = rng.randint(1, n)
        embed = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(n)]
        gens = []
        for _ in range(rng.randint(1, n + 2)):
            g = [rng.randint(-2, 2) for _ in range(k)]
            if k:
                g[0] = abs(g[0]) + 1
            gens.append([sum(a * b for a, b in zip(row, g)) for row in embed])
        try:
            return canonicalize_cone(gens, ambient_rank=n)
        except NotStronglyConvex:
            pass
    raise AssertionError("no pointed cone in 100 draws")


def test_intersect_cones_matches_reference():
    rng = random.Random(43)
    zero = lower = met = contained = 0
    for _ in range(2400):
        n = rng.randint(1, 5)
        a = _random_pointed_cone(rng, n)
        b = _random_pointed_cone(rng, n)
        if a.rays and rng.random() < 0.5:
            # share some rays of a, so the cones meet more often
            try:
                b = canonicalize_cone(list(b.rays) + rng.sample(a.rays, rng.randint(1, len(a.rays))),
                                      ambient_rank=n)
            except NotStronglyConvex:
                pass
        got = intersect_cones(a, b)
        assert got == _intersect_from_zn(a, b), (a, b)
        assert intersect_cones(b, a) == got, (a, b)
        zero += not a.rays or not b.rays
        lower += len(a.h_representation[0]) > 0
        met += bool(got)
        contained += bool(a.rays) and got == list(a.rays)
    assert zero >= 250 and lower >= 1500 and met >= 900 and contained >= 600


def test_validate_fan_matches_pairwise_reference():
    rng = random.Random(47)
    invalid = contained = nonsimplicial = 0
    for i in range(2000):
        if i % 2:
            fan = _random_fan(rng, rng.choice((1, 2, 2)))
        else:
            fan = _random_polyhedral_fan(rng)
            nonsimplicial += any(len(c.rays) > row_rank(c.rays) for c in fan.maximal_cones)
        if i % 4 < 2:
            # overlapping extra cones
            extra = [_random_pointed_cone(rng, fan.ambient_rank) for _ in range(rng.randint(1, 2))]
            fan = Fan(fan.ambient_rank, fan.maximal_cones + tuple(extra))
        got = validate_fan(fan)
        want = _validate_fan_pairwise(fan)
        assert got.problems == want and got.valid == (not want), fan
        invalid += not got.valid
        contained += any("contained" in p for p in want)
    assert invalid >= 500 and contained >= 400 and nonsimplicial >= 300


def test_validate_fan_starts_every_intersection_from_a_cone(monkeypatch):
    def no_rank(rows):
        raise AssertionError("a double description reached row_rank")

    monkeypatch.setattr(zlinalg, "row_rank", no_rank)
    assert "row_rank" not in vars(polyhedral)
    # the Cox fan of (P^1)^4, loaded as the CLI loads it: coordinates 2j and
    # 2j + 1 of Z^8 stand for the rays e_j and -e_j of Z^4
    fan = Fan(8, tuple(
        canonicalize_cone([tuple(int(k == 2 * j + bit) for k in range(8))
                           for j, bit in enumerate(bits)])
        for bits in itertools.product((0, 1), repeat=4)))
    starts = []

    def counting(normals, dim, start=None):
        starts.append(start)
        return halfspace_intersection(normals, dim, start)

    monkeypatch.setattr(polyhedral, "halfspace_intersection", counting)
    assert validate_fan(fan).valid
    assert len(starts) == 16 * 15 // 2
    assert all(s in fan.maximal_cones for s in starts)
