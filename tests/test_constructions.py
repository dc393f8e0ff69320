"""The four headline constructions: fantastacks, canonical stacks,
good-moduli-space decisions, and the functor-of-points readings."""

import random
from collections import Counter
from itertools import product

import pytest

from property_suites import (
    _all_cones,
    _canonical_phi_inverting,
    _cone_pool,
    _finite_kernel_mod_tau_lattice,
    _gms_check_all_cones,
    _in_generated_cone,
    _is_isomorphism_all_cones,
    _morphism_pool,
    _onto_preimage_canonical,
    _preimage_all_cones,
    _product_morphism,
    _random_fan,
    _random_group,
    _random_polyhedral_stacky_fan,
    _random_stacky_fan,
    _random_unimodular,
    _twist_morphism,
    _unstable_per_ray,
    _verdict_morphisms,
    count_calls,
)
from stackyfans import constructions, polyhedral, zlinalg
from stackyfans.constructions import (
    FantastackPreconditionViolated,
    GmsResult,
    _finite_kernel_mod_tau,
    canonical_stack,
    cox_presentation,
    fantastack,
    gerbe_decomposition,
    gms_check,
    gms_construct,
    is_isomorphism,
    moduli_description,
)
from stackyfans.fgab import FgAbGroup, free_group, has_finite_cokernel, identity_hom
from stackyfans.polyhedral import (
    Cone,
    Fan,
    NotStronglyConvex,
    PreconditionViolated,
    canonicalize_cone,
    cone_contains,
    fan_rays,
    halfspace_intersection,
    is_unstable,
    maximal_among,
    monoid_iso_on_cone,
    ray_images,
)
from stackyfans.stacky import NotSubfanOfAffineSpace, StackyFan, StackyMorphism
from stackyfans.zlinalg import IntMatrix, cokernel_presentation, row_rank, saturate, snf


def _cone(*gens, rank=None):
    return canonicalize_cone(list(gens), ambient_rank=rank)


def _sf(fan, target, images):
    return StackyFan(fan, target, tuple(tuple(v) for v in images))


A1_CONE_FAN = Fan(2, (_cone((1, 0), (1, 2)),))
QUAD_FAN = Fan(2, (_cone((1, 0), (0, 1)),))
PUNCTURED = Fan(2, (_cone((1, 0), rank=2), _cone((0, 1), rank=2)))
P1_FAN = Fan(1, (_cone((1,), rank=1), _cone((-1,), rank=1)))
P2_FAN = Fan(2, (_cone((1, 0), (0, 1)), _cone((1, 0), (-1, -1)),
                 _cone((0, 1), (-1, -1))))
POINT_SF = _sf(Fan(0, (_cone(rank=0),)), free_group(0), ())


# ---------------------------------------------------------------------------
# fantastacks

def test_fantastack_a1():
    sf, pres = fantastack(A1_CONE_FAN, [(1, 0), (1, 2)])
    assert sf.fan == QUAD_FAN
    assert sf.beta_images == ((1, 0), (1, 2))
    assert pres.describe() == "[(A^2) / mu_2] with weights 1, 1"


def test_fantastack_a1_rooted():
    _, pres = fantastack(A1_CONE_FAN, [(2, 0), (1, 2)])
    assert pres.describe() == "[(A^2) / mu_4] with weights 1, 2"


def test_fantastack_double_ray():
    _, pres = fantastack(Fan(1, (_cone((1,), rank=1),)), [(1,), (1,)])
    assert pres.describe() == "[(A^2) / G_m] with weights 1, -1"


def test_fantastack_blowup():
    fan = Fan(2, (_cone((1, 0), (1, 1)), _cone((1, 1), (0, 1))))
    sf, pres = fantastack(fan, [(1, 0), (1, 1), (0, 1)])
    assert pres.describe() == "[(A^3 - V(x1,x3)) / G_m] with weights 1, -1, 1"
    assert sf.fan == Fan(3, (_cone((1, 0, 0), (0, 1, 0)),
                             _cone((0, 1, 0), (0, 0, 1))))


def test_fantastack_square_cone():
    rays = [(0, 1, 0), (0, 1, 1), (1, 1, 1), (1, 1, 0)]
    fan = Fan(3, (_cone(*rays),))
    _, pres = fantastack(fan, rays)
    assert pres.describe() == "[(A^4) / G_m] with weights 1, -1, 1, -1"


def test_fantastack_preconditions():
    with pytest.raises(FantastackPreconditionViolated) as e:
        fantastack(Fan(2, (_cone((1, 0), rank=2),)), [(1, 0)])
    assert e.value.condition == "finite_cokernel"
    with pytest.raises(FantastackPreconditionViolated) as e:
        fantastack(QUAD_FAN, [(1, 0), (1, 1)])
    assert e.value.condition == "ray_coverage"
    with pytest.raises(FantastackPreconditionViolated) as e:
        fantastack(QUAD_FAN, [(1, 0), (0, 1), (-1, 0), (0, -1)])
    assert e.value.condition == "support"
    assert str(e.value) == "image (-1, 0) lies outside the fan's support"
    with pytest.raises(FantastackPreconditionViolated) as e:
        fantastack(Fan(0, ()), [()])
    assert e.value.condition == "support"
    assert str(e.value) == "fan has no cones but images exist"


def test_fantastack_tests_each_membership_once(monkeypatch):
    fan = Fan(2, (_cone((1, 0), (1, 1)), _cone((1, 1), (0, 1))))
    calls = count_calls(monkeypatch, polyhedral.cone_contains)
    fantastack(fan, [(1, 0), (1, 1), (0, 1)])
    # one test per (maximal cone, image) pair serves the support check and the hats
    assert len(calls) == 2 * 3


# ---------------------------------------------------------------------------
# canonical stacks and Cox data

def test_canonical_stack_of_a1_variety():
    variety = _sf(A1_CONE_FAN, free_group(2), [(1, 0), (0, 1)])
    mor = canonical_stack(variety)
    assert mor.source.fan == QUAD_FAN
    assert mor.source.beta_images == ((1, 0), (1, 2))
    assert mor.target == variety
    assert mor.Phi.columns() == [(1, 0), (1, 2)]
    iso = is_isomorphism(mor)
    assert not iso.verdict
    assert iso.failing_condition == 3
    assert iso.witness_cone == _cone((1, 0), (1, 2))


def test_canonical_stack_smooth_input_is_iso():
    smooth = _sf(QUAD_FAN, free_group(2), [(1, 0), (0, 1)])
    assert is_isomorphism(canonical_stack(smooth)).verdict


def test_canonical_stack_square_cone():
    rays = [(0, 1, 0), (0, 1, 1), (1, 1, 1), (1, 1, 0)]
    variety = _sf(Fan(3, (_cone(*rays),)), free_group(3), IntMatrix.identity(3).columns())
    mor = canonical_stack(variety)
    from stackyfans.stacky import gbeta
    mc = gbeta(mor.source)
    assert mc.g1.group == FgAbGroup(1, ())
    # lexicographic ray order pins the weight signs
    assert mc.g1.weights.entries == ((1, -1, -1, 1),)


def _embedded_stacky_fan(rng):
    """A random fan on Z^2 carried into Z^4 by a unimodular map, so that its
    rays span a proper sublattice, with random beta into a group."""
    fan = _random_fan(rng, 2)
    u = _random_unimodular(rng, 4) @ _random_unimodular(rng, 4)
    cones = tuple(canonicalize_cone([u.apply(r + (0, 0)) for r in c.rays], ambient_rank=4)
                  for c in fan.maximal_cones)
    target = _random_group(rng, max_free=2)
    images = [tuple(rng.randint(-5, 5) for _ in range(target.ngens)) for _ in range(4)]
    return _sf(Fan(4, cones), target, images)


def test_canonical_stack_matches_inverting_reference():
    rng = random.Random(47)
    seen = set()
    for _ in range(300):
        sf = _embedded_stacky_fan(rng)
        assert canonical_stack(sf).Phi == _canonical_phi_inverting(sf), sf
        rays = IntMatrix.from_columns(fan_rays(sf.fan), rows=4)
        factors = snf(rays).invariant_factors
        seen.add((len(factors), any(f > 1 for f in factors)))
    assert seen >= {(0, False), (1, False), (2, False), (2, True)}, seen


def test_canonical_stack_makes_two_smith_forms(monkeypatch):
    sf = _sf(Fan(3, (_cone((1, 0, 0), (1, 2, 0)),)), FgAbGroup(1, (2,)),
             [(1, 0), (0, 1), (2, 1)])
    smith = count_calls(monkeypatch, zlinalg.snf)
    # two rays spanning an index-2 sublattice of a rank-2 saturation
    assert canonical_stack(sf).Phi.cols == 3
    assert len(smith) == 2


def test_cox_presentation_p2():
    sf = cox_presentation(P2_FAN)
    from stackyfans.stacky import present_quotient
    assert present_quotient(sf).describe() == \
        "[(A^3 - V(x1,x2,x3)) / G_m] with weights 1, 1, 1"


def test_cox_presentation_p1():
    sf = cox_presentation(P1_FAN)
    from stackyfans.stacky import present_quotient
    assert present_quotient(sf).describe() == \
        "[(A^2 - V(x1,x2)) / G_m] with weights 1, 1"


def test_cox_presentation_affine_line():
    sf = cox_presentation(Fan(1, (_cone((1,), rank=1),)))
    from stackyfans.stacky import present_quotient
    assert present_quotient(sf).describe() == "[(A^1) / 1]"


# ---------------------------------------------------------------------------
# isomorphism decisions

def _p1_cox_morphism():
    source = _sf(PUNCTURED, free_group(1), [(1,), (-1,)])
    target = _sf(P1_FAN, free_group(1), [(1,)])
    return StackyMorphism(source, target, IntMatrix.from_rows([[1, -1]]),
                          identity_hom(free_group(1)))


def test_iso_warning_pair():
    res = is_isomorphism(_p1_cox_morphism())
    assert res.verdict
    assert res.failing_condition is None


def test_iso_p2_cox():
    source = cox_presentation(P2_FAN)
    target = _sf(P2_FAN, free_group(2), [(1, 0), (0, 1)])
    mor = StackyMorphism(source, target, source.beta.matrix,
                         identity_hom(free_group(2)))
    assert is_isomorphism(mor).verdict


def test_iso_rejects_coarse_map():
    mu2_line = _sf(Fan(1, (_cone((1,), rank=1),)), free_group(1), [(2,)])
    a1_line = _sf(Fan(1, (_cone((1,), rank=1),)), free_group(1), [(1,)])
    mor = StackyMorphism(mu2_line, a1_line, IntMatrix.from_rows([[2]]),
                         identity_hom(free_group(1)))
    res = is_isomorphism(mor)
    assert not res.verdict
    assert res.failing_condition == 3


def test_iso_rejects_collapse_to_point():
    from stackyfans.fgab import FgAbHom
    to_point = StackyMorphism(
        _sf(QUAD_FAN, free_group(1), [(1,), (-1,)]), POINT_SF,
        IntMatrix(0, 2, ()),
        FgAbHom(free_group(1), free_group(0), IntMatrix(0, 1, ())))
    res = is_isomorphism(to_point)
    assert not res.verdict
    assert res.failing_condition == 1


def test_iso_rejects_invalid_morphism():
    # gms_check refuses it too, with the same text
    source = _sf(PUNCTURED, free_group(1), [(1,), (-1,)])
    target = _sf(P1_FAN, free_group(1), [(1,)])
    broken = StackyMorphism(source, target, IntMatrix.from_rows([[1, 1]]),
                            identity_hom(free_group(1)))
    for check in (is_isomorphism, gms_check):
        with pytest.raises(PreconditionViolated) as e:
            check(broken)
        assert str(e.value) == ("not a morphism of stacky fans: square does not commute on "
                                "basis vector 2: phi(beta(e)) = (-1,), beta'(Phi(e)) = (1,)")


# ---------------------------------------------------------------------------
# good moduli space decisions

from stackyfans.fgab import FgAbHom  # noqa: E402


def test_gms_check_mu2_line():
    mu2_line = _sf(Fan(1, (_cone((1,), rank=1),)), free_group(1), [(2,)])
    a1_line = _sf(Fan(1, (_cone((1,), rank=1),)), free_group(1), [(1,)])
    mor = StackyMorphism(mu2_line, a1_line, IntMatrix.from_rows([[2]]),
                         identity_hom(free_group(1)))
    res = gms_check(mor)
    assert res.verdict
    assert res.tau == _cone(rank=1)


def test_gms_check_a2_mod_gm_to_point():
    source = _sf(QUAD_FAN, free_group(1), [(1,), (-1,)])
    mor = StackyMorphism(source, POINT_SF, IntMatrix(0, 2, ()),
                         FgAbHom(free_group(1), free_group(0), IntMatrix(0, 1, ())))
    res = gms_check(mor)
    assert res.verdict
    assert res.tau == _cone((1, 0), (0, 1))


def test_gms_check_p1_to_point_fails():
    source = _sf(P1_FAN, free_group(1), [(1,)])
    mor = StackyMorphism(source, POINT_SF, IntMatrix(0, 1, ()),
                         FgAbHom(free_group(1), free_group(0), IntMatrix(0, 1, ())))
    res = gms_check(mor)
    assert not res.verdict
    assert res.failing_condition == "1"


def test_gms_check_canonical_stack_morphisms():
    for variety in (
        _sf(A1_CONE_FAN, free_group(2), [(1, 0), (0, 1)]),
        _sf(P2_FAN, free_group(2), [(1, 0), (0, 1)]),
    ):
        res = gms_check(canonical_stack(variety))
        assert res.verdict, res.failing_condition


def test_gms_check_surjectivity_failure():
    # phi multiplication by 2 fails the character-surjectivity condition
    line = _sf(Fan(1, (_cone((1,), rank=1),)), free_group(1), [(1,)])
    mor = StackyMorphism(line, line, IntMatrix.from_rows([[2]]),
                         FgAbHom(free_group(1), free_group(1),
                                 IntMatrix.from_rows([[2]])))
    res = gms_check(mor)
    assert not res.verdict
    assert res.failing_condition == "3"


def test_gms_construct_a1():
    sf = _sf(QUAD_FAN, free_group(2), [(1, 0), (1, 2)])
    res = gms_construct(sf)
    assert res.verdict
    assert res.tau == _cone(rank=2)
    assert res.gms_fan == A1_CONE_FAN
    assert gms_check(res.morphism).verdict


def test_gms_construct_a2_mod_gm():
    sf = _sf(QUAD_FAN, free_group(1), [(1,), (-1,)])
    res = gms_construct(sf)
    assert res.verdict
    assert res.tau == _cone((1, 0), (0, 1))
    assert res.gms_fan == Fan(0, (_cone(rank=0),))
    assert gms_check(res.morphism).verdict


def test_gms_construct_rejects_p1_mod_torus():
    sf = _sf(PUNCTURED, free_group(0), [(), ()])
    res = gms_construct(sf)
    assert not res.verdict
    assert res.failing_condition == "(i)"


def test_gms_construct_rejects_nonseparated():
    sf = _sf(PUNCTURED, free_group(1), [(1,), (1,)])
    res = gms_construct(sf)
    assert not res.verdict
    assert res.failing_condition == "(ii)"


def test_gms_construct_p2_variant():
    sf = _sf(P2_FAN, free_group(2), [(1, 0), (0, 1)])
    res = gms_construct(sf)
    assert res.verdict
    assert res.gms_fan == P2_FAN


def _reference_gms(sf):
    """gms_construct's fan and verdict with the pairwise geometric filter.

    Kept candidates are filtered by containment in one another, and "(ii)"
    is tested against every cone of the constructed fan.  Returns None when
    the unstable cones have no unique maximal element.
    """
    beta = sf.beta
    maximal = maximal_among([c for c in _all_cones(sf.fan) if is_unstable(c, beta)])
    if len(maximal) != 1:
        return None
    tspan = saturate(IntMatrix.from_columns(list(maximal[0].rays), rows=sf.lattice_rank))
    beta_mat = IntMatrix.from_columns(list(sf.beta_images), rows=sf.target.ngens)
    grp, proj = cokernel_presentation(
        saturate((beta_mat @ tspan).hstack(sf.target.relations())))
    big_phi = proj @ beta_mat
    images = ray_images(big_phi, sf.fan)
    kept = []
    for c in _all_cones(sf.fan):
        try:
            cand = canonicalize_cone([big_phi.apply(r) for r in c.rays],
                                     ambient_rank=grp.free_rank)
        except NotStronglyConvex:
            continue
        if cand not in kept and _onto_preimage_canonical(sf.fan, images, cand) is not None:
            kept.append(cand)
    fan = Fan(grp.free_rank, tuple(
        c for c in kept
        if not any(c != d and all(cone_contains(d, v) for v in c.rays) for d in kept)))
    fits = all(any(all(cone_contains(tc, big_phi.apply(r)) for r in c.rays)
                   for tc in _all_cones(fan))
               for c in sf.fan.maximal_cones)
    return fan, fits, len(kept)


def test_gms_filter_matches_pairwise_reference():
    rng = random.Random(77)
    checked = 0
    seen = set()
    while checked < 600:
        sf = _random_stacky_fan(rng)
        if not has_finite_cokernel(sf.beta):
            continue
        checked += 1
        res = gms_construct(sf)
        ref = _reference_gms(sf)
        if ref is None:
            assert res.failing_condition == "(i)"
            seen.add("(i)")
            continue
        fan, fits, nkept = ref
        assert res.gms_fan == (fan if fits else None), sf
        assert res.verdict == fits and res.failing_condition == (None if fits else "(ii)"), sf
        seen.add(res.failing_condition)
        if len(fan.maximal_cones) < nkept:
            seen.add("filtered")
    assert seen == {None, "(i)", "(ii)", "filtered"}


def _gms_all_cones(sf):
    """Reference gms_construct: walk every cone of the fan.

    The unstable cones give tau; every pointed image of a cone is a
    candidate, kept when its preimage (the all-cones reference) maps onto
    it; the moduli fan is the maximal kept candidates, and "(ii)" means a
    maximal cone maps into none of them.  The "(ii)" report keeps that
    partial fan.
    """
    beta = sf.beta
    maximal = maximal_among([c for c in _all_cones(sf.fan) if _unstable_per_ray(c, beta)])
    if len(maximal) != 1:
        return GmsResult(False, "(i)", None, None)
    tau = maximal[0]
    tspan = saturate(IntMatrix.from_columns(list(tau.rays), rows=sf.lattice_rank))
    beta_mat = IntMatrix.from_columns(list(sf.beta_images), rows=sf.target.ngens)
    grp, proj = cokernel_presentation(
        saturate((beta_mat @ tspan).hstack(sf.target.relations())))
    phi = FgAbHom(sf.target, grp, proj)
    big_phi = proj @ beta_mat
    rp = grp.free_rank
    candidates = {}
    for c in _all_cones(sf.fan):
        try:
            cand = canonicalize_cone([big_phi.apply(r) for r in c.rays], ambient_rank=rp)
        except NotStronglyConvex:
            continue
        candidates[cand.rays] = cand
    images = ray_images(big_phi, sf.fan)
    kept = {}
    for cand in candidates.values():
        sigma = _preimage_all_cones(sf.fan, images, cand)
        if sigma is not None and all(
                _in_generated_cone([big_phi.apply(r) for r in sigma.rays], w, rp)
                for w in cand.rays):
            kept[sigma] = cand
    gms_fan = Fan(rp, tuple(kept[sigma] for sigma in maximal_among(list(kept))))
    if not all(any(all(cone_contains(tc, big_phi.apply(r)) for r in c.rays)
                   for tc in gms_fan.maximal_cones)
               for c in sf.fan.maximal_cones):
        return GmsResult(False, "(ii)", tau, gms_fan)
    target_sf = StackyFan(gms_fan, grp, tuple(IntMatrix.identity(rp).columns()))
    return GmsResult(True, None, tau, gms_fan, StackyMorphism(sf, target_sf, big_phi, phi))


def test_gms_construct_matches_all_cones_reference():
    rng = random.Random(83)
    seen = {}
    checked = nonsimplicial = 0
    while checked < 2000:
        sf = (_random_stacky_fan if checked % 2 else _random_polyhedral_stacky_fan)(rng)
        if not has_finite_cokernel(sf.beta):
            continue
        checked += 1
        nonsimplicial += any(len(c.rays) > row_rank(c.rays) for c in sf.fan.maximal_cones)
        res, ref = gms_construct(sf), _gms_all_cones(sf)
        assert (res.verdict, res.failing_condition, res.tau) == \
            (ref.verdict, ref.failing_condition, ref.tau), sf
        if res.verdict:
            assert (res.gms_fan, res.morphism) == (ref.gms_fan, ref.morphism), sf
        else:
            assert res.gms_fan is None and res.morphism is None, sf
        key = (res.failing_condition, sf.lattice_rank > 2)
        seen[key] = seen.get(key, 0) + 1
    assert all(seen.get((c, big), 0) >= 20
               for c in (None, "(i)", "(ii)") for big in (False, True)), seen
    assert nonsimplicial >= 200


def test_verdicts_match_all_cones_references():
    # the references walk every target cone; the package reads the maximal
    # ones and looks at faces only to name the witness of a failure
    rng = random.Random(31)
    seen = Counter()
    for kind, m in _verdict_morphisms(rng, 600):
        iso = is_isomorphism(m)
        assert iso == _is_isomorphism_all_cones(m), (kind, m)
        gms = gms_check(m)
        assert gms == _gms_check_all_cones(m), (kind, m)
        proper = iso.witness_cone is not None and iso.witness_cone not in m.target.fan.maximal_cones
        seen[iso.failing_condition, proper] += 1
        seen[gms.failing_condition] += 1
    assert all(seen[k] >= 20 for k in ((None, False), (1, False), (2, False), (2, True),
                                       (3, False), (3, True), None, "1", "2", "3")), seen
    assert seen["4"] >= 1, seen


def _forget_torsion(sf):
    """sf onto the same fan with the torsion of its target dropped: Phi the
    identity, phi the projection onto the free part."""
    f, n = sf.target.free_rank, sf.target.ngens
    free = _sf(sf.fan, free_group(f), [v[:f] for v in sf.beta_images])
    proj = IntMatrix.from_rows([[int(i == j) for j in range(n)] for i in range(f)], cols=n)
    return StackyMorphism(sf, free, IntMatrix.identity(sf.lattice_rank),
                          FgAbHom(sf.target, free.target, proj))


def _product_map(rng):
    """A^2 -> A^1 by (x, y) -> xy, with random torsion on the source target:
    tau is the zero cone, and ker(phi) is not finite over it."""
    target = FgAbGroup(2, rng.choice(((), (2,), (3, 6))))
    images = [v + tuple(rng.randrange(d) for d in target.torsion) for v in ((1, 0), (0, 1))]
    phi = IntMatrix.from_rows([[1, 1] + [0] * len(target.torsion)], cols=target.ngens)
    line = _sf(Fan(1, (_cone((1,), rank=1),)), free_group(1), [(1,)])
    return StackyMorphism(_sf(QUAD_FAN, target, images), line, IntMatrix.from_rows([[1, 1]]),
                          FgAbHom(target, free_group(1), phi))


def test_finite_kernel_mod_tau_matches_kernel_lattice_reference():
    """Twists and products of the verdict pool, torsion dropped from random
    stacky fans, and twisted product maps with and without torsion."""
    rng = random.Random(59)
    pool = _morphism_pool()
    cases = [m for _, m in _verdict_morphisms(rng, 500)]
    while len(cases) < 700:
        sf = _random_stacky_fan(rng)
        if sf.target.torsion and has_finite_cokernel(sf.beta):
            cases.append(_forget_torsion(sf))
    while len(cases) < 800:
        m = _product_map(rng)
        if not m.source.target.torsion and rng.random() < 0.5:
            m = _product_morphism(m, rng.choice(pool))
        cases.append(_twist_morphism(m, rng) if rng.random() < 0.6 else m)
    seen = Counter()
    for m in cases:
        res = gms_check(m)
        tau = res.tau or Cone(m.source.lattice_rank, ())
        want = _finite_kernel_mod_tau_lattice(m, tau)
        assert _finite_kernel_mod_tau(m, tau) == want, m
        if res.failing_condition in (None, "4"):
            assert res.verdict == want, m
            seen[want, bool(m.source.target.torsion)] += 1
    assert all(seen[k] >= 5 for k in product((False, True), repeat=2)), seen


def test_gms_check_builds_no_kernel_lattice(monkeypatch):
    cases = [m for _, m in _verdict_morphisms(random.Random(61), 200)]
    saturations = count_calls(monkeypatch, zlinalg.saturate)
    reached = sum(gms_check(m).failing_condition in (None, "4") for m in cases)
    assert reached >= 20
    assert saturations == []


def test_verdicts_on_success_read_only_the_maximal_cones(monkeypatch):
    # the canonical morphism of (P^1)^3: 8 maximal target cones of 27
    fan = Fan(3, tuple(_cone_pool(3, 2, ())))
    m = canonical_stack(_sf(fan, free_group(3), IntMatrix.identity(3).columns()))
    tested = []

    def counting(images, sigma, sigma_prime):
        tested.append(sigma_prime)
        return monoid_iso_on_cone(images, sigma, sigma_prime)

    def no_faces(c):
        raise AssertionError("a successful verdict walked the faces of a cone")

    monkeypatch.setattr(constructions, "monoid_iso_on_cone", counting)
    monkeypatch.setattr(constructions, "faces", no_faces)
    assert is_isomorphism(m).verdict
    assert tested == list(fan.maximal_cones)
    assert gms_check(m).verdict


def _kgon_fantastack(k):
    """The fantastack of the cone over the lattice k-gon (1, i, i^2): one k-ray cone."""
    rays = tuple(sorted(tuple(int(j == i) for j in range(k)) for i in range(k)))
    return _sf(Fan(k, (Cone(k, rays),)), free_group(3), [(1, i, i * i) for i in range(k)])


def test_gms_construct_reads_the_maximal_cones(monkeypatch):
    sf = _kgon_fantastack(12)
    want = Fan(3, (_cone(*[(1, i, i * i) for i in range(12)]),))
    budget = 3 * len(sf.fan.maximal_cones)
    calls = []

    def counting(normals, dim):
        calls.append(dim)
        if len(calls) > budget:
            raise AssertionError(f"more than {budget} double descriptions")
        return halfspace_intersection(normals, dim)

    monkeypatch.setattr(polyhedral, "halfspace_intersection", counting)
    res = gms_construct(sf)
    assert res.verdict and res.tau == Cone(12, ())
    assert res.gms_fan == want


# ---------------------------------------------------------------------------
# moduli descriptions and gerbes

def test_moduli_p2_cox():
    # same data as cox_presentation(P2_FAN) but with rays ordered
    # e1, e2, e3 mapping to (1,0), (0,1), (-1,-1)
    fan = Fan(3, (_cone((1, 0, 0), (0, 1, 0)), _cone((1, 0, 0), (0, 0, 1)),
                  _cone((0, 1, 0), (0, 0, 1))))
    sf = _sf(fan, free_group(2), [(1, 0), (0, 1), (-1, -1)])
    md = moduli_description(sf)
    assert md.ambient_dim == 3
    assert md.linear_relations == ((1, 0, -1), (0, 1, -1))
    assert md.intersection_relations == ((1, 2, 3),)
    assert md.forced_zero_sections == ()


def test_moduli_cox_ray_order_invariance():
    # the lex-sorted Cox build permutes coordinates but spans the same
    # relation lattice
    from stackyfans.zlinalg import hermite_row_form
    md = moduli_description(cox_presentation(P2_FAN))
    got, _ = hermite_row_form(IntMatrix.from_rows([list(r) for r in md.linear_relations]))
    perm = {0: 2, 1: 1, 2: 0}  # lex order (-1,-1),(0,1),(1,0) vs e1,e2,e3
    rows = [[r[perm[j]] for j in range(3)] for r in ((1, 0, -1), (0, 1, -1))]
    want, _ = hermite_row_form(IntMatrix.from_rows(rows))
    assert got == want


def test_moduli_a1():
    sf = _sf(QUAD_FAN, free_group(2), [(1, 0), (1, 2)])
    md = moduli_description(sf)
    assert md.linear_relations == ((1, 1), (0, 2))
    assert md.intersection_relations == ()


def test_moduli_forced_zero():
    sf = _sf(QUAD_FAN, free_group(2), [(1, 0), (1, 2)])
    md = moduli_description(sf, forced_zero=(2,))
    assert md.forced_zero_sections == (2,)


def test_moduli_rejects_singular():
    sf = _sf(A1_CONE_FAN, free_group(2), [(1, 0), (0, 1)])
    with pytest.raises(NotSubfanOfAffineSpace):
        moduli_description(sf)


def test_moduli_makes_no_smith_form(monkeypatch):
    # orthant cones are smooth, so nothing is factored
    fan = Fan(3, (_cone((1, 0, 0), (0, 1, 0)), _cone((1, 0, 0), (0, 0, 1)),
                  _cone((0, 1, 0), (0, 0, 1))))
    sf = _sf(fan, free_group(2), [(1, 0), (0, 1), (-1, -1)])
    smith = count_calls(monkeypatch, zlinalg.snf)
    moduli_description(sf)
    assert smith == []


def test_moduli_rejects_torsion_target():
    sf = _sf(PUNCTURED, FgAbGroup(1, (2,)), [(2, 1), (-3, 0)])
    with pytest.raises(PreconditionViolated):
        moduli_description(sf)


def test_gerbe_weighted_line_bundle_roots():
    fan = Fan(3, (_cone((0, 0, 1), (1, 0, 0)), _cone((0, 0, 1), (0, 1, 0))))
    sf = _sf(fan, free_group(2), [(2, 1), (-3, 0), (0, 2)])
    gd = gerbe_decomposition(sf, (3,))
    assert gd.bg_m_rank == 0
    assert len(gd.roots) == 1
    root = gd.roots[0]
    assert root.coordinate == 3
    assert root.order == 2
    assert root.exponents == (-1, 0)
    assert gd.base.fan == Fan(2, (_cone((1, 0), rank=2), _cone((0, 1), rank=2)))
    assert gd.base.beta_images == ((2,), (-3,))


def test_gerbe_bmu2():
    sf = _sf(Fan(1, (_cone((1,), rank=1),)), free_group(1), [(2,)])
    gd = gerbe_decomposition(sf, (1,))
    assert gd.bg_m_rank == 0
    assert gd.roots[0].order == 2
    assert gd.roots[0].exponents == ()
    assert gd.base.lattice_rank == 0


def test_gerbe_trivial_direction():
    sf = _sf(QUAD_FAN, free_group(2), [(1, 0), (0, 1)])
    gd = gerbe_decomposition(sf, (2,))
    assert gd.bg_m_rank == 0
    assert gd.roots[0].order == 1
    assert gd.roots[0].exponents == (0,)


ORTHANT4 = Fan(4, (_cone((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),))
SPLIT_SF = _sf(ORTHANT4, free_group(3), [(2, 0, 0), (0, 3, 0), (0, 0, 5), (1, 1, 1)])


def test_gerbe_two_coordinates_split_into_roots():
    gd = gerbe_decomposition(SPLIT_SF, (1, 2))
    assert gd.bg_m_rank == 0
    assert [(r.coordinate, r.order, r.exponents) for r in gd.roots] == [
        (1, 2, (0, -1)), (2, 3, (0, -1))]
    assert gd.base.fan == QUAD_FAN
    assert gd.base.beta_images == ((5,), (1,))


def test_gerbe_three_coordinates_split_into_roots():
    gd = gerbe_decomposition(SPLIT_SF, (1, 2, 3))
    assert gd.bg_m_rank == 0
    assert [(r.coordinate, r.order, r.exponents) for r in gd.roots] == [
        (1, 2, (-1,)), (2, 3, (-1,)), (3, 5, (-1,))]


def test_gerbe_makes_one_smith_form(monkeypatch):
    smith = count_calls(monkeypatch, zlinalg.snf)
    hermite = count_calls(monkeypatch, zlinalg.hermite_row_form)
    gd = gerbe_decomposition(SPLIT_SF, (1, 2, 3))
    # the base's relations and all three roots come from one factorization;
    # each root reduces its exponents by one Hermite form
    assert len(smith) == 1
    assert len(hermite) == len(gd.roots) == 3


def test_gerbe_needs_cone_membership():
    sf = _sf(PUNCTURED, free_group(1), [(1,), (-1,)])
    with pytest.raises(PreconditionViolated):
        gerbe_decomposition(sf, (1, 2))
