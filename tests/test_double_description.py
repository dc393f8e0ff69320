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
    Cone,
    Fan,
    NotStronglyConvex,
    canonicalize_cone,
    halfspace_intersection,
    intersect_cones,
    maximal_among,
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


def _orthant_face_fan(rng):
    """Faces of one orthant of Z^1 to Z^6, so linearly independent rays: a
    fan about half the time, else with duplicate cones, nested faces or the
    zero cone."""
    n = rng.randint(1, 6)
    basis = [tuple(rng.choice((-1, 1)) * (j == i) for j in range(n)) for i in range(n)]
    cones = [Cone(n, tuple(sorted(rng.sample(basis, rng.randint(0, n)))))
             for _ in range(rng.randint(2, 5))]
    if rng.random() < 0.5:
        return Fan(n, tuple(maximal_among(cones)))
    if rng.random() < 0.5:
        cones.append(rng.choice(cones))
    if rng.random() < 0.5:
        c = rng.choice(cones)
        cones.append(Cone(n, tuple(sorted(rng.sample(c.rays, rng.randint(0, len(c.rays)))))))
    if rng.random() < 0.2:
        cones.append(Cone(n, ()))
    return Fan(n, tuple(cones))


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
        assert got == want, fan
        invalid += bool(got)
        contained += any("contained" in p for p in want)
    assert invalid >= 500 and contained >= 400 and nonsimplicial >= 300
    invalid = contained = 0
    for _ in range(600):
        fan = _orthant_face_fan(rng)
        got = validate_fan(fan)
        want = _validate_fan_pairwise(fan)
        assert got == want, fan
        invalid += bool(got)
        contained += sum("contained" in p for p in want)
    assert 200 <= invalid <= 400 and contained >= 2000


def _complete_fan_cones(kind, n):
    """Ray lists of the maximal cones of a complete fan in Z^n: the variety
    fan of (P^1)^n ("p1", the orthants), of P^n ("pn", every n of e_1, ...,
    e_n and -(e_1 + ... + e_n)), or the cones over the facets of the cube
    [-1, 1]^n ("cube", not simplicial for n >= 3)."""
    unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    if kind == "p1":
        return [[tuple(s * x for x in unit[j]) for j, s in enumerate(signs)]
                for signs in itertools.product((1, -1), repeat=n)]
    if kind == "pn":
        return [list(c) for c in itertools.combinations(unit + [(-1,) * n], n)]
    return [[v for v in itertools.product((-1, 1), repeat=n) if v[i] == s]
            for i in range(n) for s in (-1, 1)]


def _random_unimodular(rng, n):
    """Rows of a random matrix in GL_n(Z): signed row swaps and shears."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i == j or rng.random() < 0.3:
            rows[i] = [-x for x in rows[i]]
            rows[i], rows[j] = rows[j], rows[i]
        else:
            c = rng.choice((-2, -1, 1, 2))
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return rows


def test_validate_fan_certificate_matches_pairwise_reference(monkeypatch):
    """Complete fans moved by GL_n(Z), half of them with an extra cone that
    overlaps them or is spanned by some rays of one of their cones: both the
    certificate and its fallback run."""
    rng = random.Random(53)
    fallbacks = []

    def counting_intersect(a, b):
        fallbacks.append((a, b))
        return intersect_cones(a, b)

    monkeypatch.setattr(polyhedral, "intersect_cones", counting_intersect)
    pairs = not_face = 0
    for i in range(240):
        kind = ("p1", "pn", "cube")[i % 3]
        n = rng.randint(3, 4) if kind == "cube" else rng.randint(1, 4)
        move = _random_unimodular(rng, n)
        cones = [canonicalize_cone([[sum(a * b for a, b in zip(row, r)) for row in move]
                                    for r in rays], ambient_rank=n)
                 for rays in _complete_fan_cones(kind, n)]
        if i % 4 == 1:
            cones.append(_random_pointed_cone(rng, n))
        elif i % 4 == 3:
            rays = rng.choice(cones).rays
            cones.append(canonicalize_cone(rng.sample(rays, rng.randint(0, len(rays))),
                                           ambient_rank=n))
        fan = Fan(n, tuple(cones))
        got = validate_fan(fan)
        want = _validate_fan_pairwise(fan)
        assert got == want, fan
        # a moved fan is a fan; it is complete, so any extra cone breaks it
        assert (got == ()) == (i % 2 == 0), fan
        pairs += len(cones) * (len(cones) - 1) // 2
        not_face += i % 4 == 3 and any("common face" in p for p in want)
    # 5249 pairs, 130 of them fall back; 9 extra cones lie in a cone but not as a face
    assert pairs - len(fallbacks) >= 2000 and len(fallbacks) >= 50 and not_face >= 5


def _p1_power_fans(m):
    """The variety fan of (P^1)^m (the orthants of Z^m, rays +-e_j) and its
    Cox fan, loaded as the CLI loads it: coordinates 2j and 2j + 1 of Z^2m
    stand for the rays e_j and -e_j."""
    variety, cox = [], []
    for bits in itertools.product((0, 1), repeat=m):
        variety.append(canonicalize_cone([tuple((-1) ** bit * (k == j) for k in range(m))
                                          for j, bit in enumerate(bits)]))
        cox.append(canonicalize_cone([tuple(int(k == 2 * j + bit) for k in range(2 * m))
                                      for j, bit in enumerate(bits)]))
    return Fan(m, tuple(variety)), Fan(2 * m, tuple(cox))


def test_validate_fan_runs_no_double_description_on_independent_rays(monkeypatch):
    variety, cox = _p1_power_fans(4)
    calls = {"dd": 0, "rank": 0, "intersect": 0}
    inside = []

    def counting_dd(normals, dim):
        calls["dd"] += 1
        inside.append(dim)
        try:
            return halfspace_intersection(normals, dim)
        finally:
            inside.pop()

    def counting_rank(rows):
        if inside:
            raise AssertionError("a double description reached row_rank")
        calls["rank"] += 1
        return row_rank(rows)

    def counting_intersect(a, b):
        calls["intersect"] += 1
        return intersect_cones(a, b)

    monkeypatch.setattr(polyhedral, "halfspace_intersection", counting_dd)
    monkeypatch.setattr(polyhedral, "row_rank", counting_rank)
    monkeypatch.setattr(zlinalg, "row_rank", counting_rank)
    monkeypatch.setattr(polyhedral, "intersect_cones", counting_intersect)
    # 8 dependent rays in Z^4: each orthant computes its H-representation
    # (the loader ran no DD on their independent rays), and the separating
    # functionals decide all 120 pairs with no intersection
    assert validate_fan(variety) == ()
    assert calls == {"dd": 16, "rank": 1, "intersect": 0}
    # 8 independent rays in Z^8: ray sets alone
    calls.update(dd=0, rank=0)
    assert validate_fan(cox) == ()
    assert calls == {"dd": 0, "rank": 1, "intersect": 0}
    # one maximal cone: nothing to compare
    calls.update(dd=0, rank=0)
    assert validate_fan(Fan(4, variety.maximal_cones[:1])) == ()
    assert calls == {"dd": 0, "rank": 0, "intersect": 0}
    # every qualifying constraint of the pair ((1, 2, 4)), ((1, -2, 4), (1, 3, 9))
    # vanishes on (1, -2, 4), which only the second cone holds: the first
    # cone keeps no ray there, so the pair meets in the zero cone with no
    # intersection
    fan = Fan(3, (canonicalize_cone([(1, 0, 0)]), canonicalize_cone([(1, 2, 4)]),
                  canonicalize_cone([(1, -2, 4), (1, 3, 9)])))
    calls.update(dd=0, rank=0)
    assert validate_fan(fan) == ()
    assert calls["intersect"] == 0
    # here both cones keep rays on every qualifying constraint, different
    # ones: exactly this pair falls back to an intersection
    fan = Fan(3, (canonicalize_cone([(-1, 0, -1), (0, 1, 1)]),
                  canonicalize_cone([(0, 1, -2), (1, -1, 2)])))
    assert validate_fan(fan) == ()
    assert calls["intersect"] == 1
