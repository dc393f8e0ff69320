"""Constructions on stacky fans: fantastacks, canonical stacks, good
moduli spaces, moduli interpretations, and gerbe decompositions.

Everything here consumes and produces the value types of
:mod:`stackyfans.stacky`; no function mutates its input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .fgab import FgAbHom, free_group, has_finite_cokernel, identity_hom, is_surjective
from .polyhedral import (
    Cone,
    Fan,
    NotStronglyConvex,
    PreconditionViolated,
    _size_order,
    canonicalize_cone,
    cone_contains,
    faces,
    fan_rays,
    is_unstable,
    maps_onto,
    maximal_among,
    maximal_unstable_cones,
    monoid_iso_on_cone,
    preimage_fan,
    primitive,
    ray_images,
)
from .stacky import (
    QuotientPresentation,
    StackyFan,
    StackyMorphism,
    _orthant_ray_indices,
    present_quotient,
    primitive_collections,
)
from .zlinalg import (
    IntMatrix,
    Vec,
    cokernel_presentation,
    rank,
    reduce_mod_row_lattice,
    row_rank,
    saturate,
    snf,
)


class FantastackPreconditionViolated(Exception):
    def __init__(self, condition: str, message: str) -> None:
        super().__init__(message)
        self.condition = condition


def fantastack(fan: Fan, beta_images: Sequence[Sequence[int]]) -> tuple[StackyFan, QuotientPresentation]:
    """Stacky fan over a fan on N whose rays are marked by lattice points.

    ``beta_images[i]`` is the prospective image of e_i in N = Z^rank.
    Preconditions, each reported by name in
    :class:`FantastackPreconditionViolated`:

    * ``finite_cokernel`` -- the images span N rationally;
    * ``ray_coverage`` -- every ray of the fan is hit by a positive
      multiple of some image;
    * ``support`` -- every image lies in the support of the fan.

    The cone over sigma collects the basis vectors whose image lies in
    sigma.  Returns the stacky fan together with its quotient presentation.
    """
    r = fan.ambient_rank
    images = [tuple(int(x) for x in v) for v in beta_images]
    for v in images:
        if len(v) != r:
            raise ValueError("image length does not match fan ambient rank")
    n = len(images)
    if rank(IntMatrix.from_columns(images, rows=r)) != r:
        raise FantastackPreconditionViolated(
            "finite_cokernel", "images do not span the target rationally")
    prims = {primitive(v) for v in images if primitive(v) is not None}
    for ray in fan_rays(fan):
        if ray not in prims:
            raise FantastackPreconditionViolated(
                "ray_coverage", f"no image generates the ray {ray}")
    if images and not fan.maximal_cones:
        raise FantastackPreconditionViolated(
            "support", "fan has no cones but images exist")
    inside = [[cone_contains(c, v) for v in images] for c in fan.maximal_cones]
    for i, v in enumerate(images):
        if not any(row[i] for row in inside):
            raise FantastackPreconditionViolated(
                "support", f"image {v} lies outside the fan's support")
    hats = []
    for row in inside:
        rays = tuple(sorted(tuple(1 if k == i else 0 for k in range(n))
                            for i, hit in enumerate(row) if hit))
        hats.append(Cone(n, rays))
    sf = StackyFan(Fan(n, tuple(hats)), free_group(r), tuple(images))
    return sf, present_quotient(sf)


def canonical_stack(sf: StackyFan) -> StackyMorphism:
    """Resolve a stacky fan by the cone over its own ray set.

    Returns the morphism from the canonical stacky fan (its ``source``) to
    sf.  Rays are enumerated in lexicographic order; the new lattice has one
    coordinate per ray plus a complement of the saturated ray span, and the
    fan becomes a subfan of the orthant.  The morphism maps the new basis
    vectors to the original primitive ray generators (identity on N).
    """
    ell = sf.lattice_rank
    rays = fan_rays(sf.fan)
    span = saturate(IntMatrix.from_columns(rays, rows=ell))
    complement = snf(span).Uinv.columns()[span.cols:]
    phi_cols = list(rays) + complement
    big = IntMatrix.from_columns(phi_cols, rows=ell)
    beta = sf.beta
    images = tuple(beta.apply(c) for c in phi_cols)
    nr = len(phi_cols)
    pos = {ray: i for i, ray in enumerate(rays)}
    new_cones = []
    for c in sf.fan.maximal_cones:
        sel = tuple(sorted(
            tuple(1 if k == pos[r] else 0 for k in range(nr)) for r in c.rays))
        new_cones.append(Cone(nr, sel))
    canonical = StackyFan(Fan(nr, tuple(new_cones)), sf.target, images)
    return StackyMorphism(canonical, sf, big, identity_hom(sf.target))


def cox_presentation(fan: Fan) -> StackyFan:
    """Cox quotient datum of the toric variety of a fan."""
    r = fan.ambient_rank
    variety = StackyFan(
        fan, free_group(r),
        tuple(IntMatrix.identity(r).columns()))
    return canonical_stack(variety).source


def _require_valid_morphism(m: StackyMorphism) -> None:
    if m.problems:
        raise PreconditionViolated(
            "not a morphism of stacky fans: " + "; ".join(m.problems))


def _onto_preimage(m: StackyMorphism, target: Cone) -> Optional[Cone]:
    """The unique maximal source cone mapping into target, if it maps onto it.

    None when the cones mapping into target have no unique maximal element,
    or when that element's image does not fill target.
    """
    sigma = preimage_fan(m.source.fan, m.ray_images, target)
    if sigma is None or not maps_onto(m.ray_images, sigma, target):
        return None
    return sigma


def _smallest_failing_face(cones: Sequence[Cone], fails) -> Cone:
    """The first face in (number of rays, rays) order, over the given cones, that fails."""
    return min((next(f for f in faces(c) if fails(f)) for c in cones),
               key=lambda c: _size_order(c.rays))


@dataclass(frozen=True)
class IsoResult:
    verdict: bool
    failing_condition: Optional[int]
    witness_cone: Optional[Cone]


def is_isomorphism(m: StackyMorphism) -> IsoResult:
    """Decide whether a morphism of stacky fans is an isomorphism of stacks.

    Both sides must have finite cokernel (else PreconditionViolated).  The
    three conditions, checked in order with the first failure reported:

    1. phi is an isomorphism of the targets;
    2. every cone of the target fan has a unique maximal preimage cone
       mapping onto it;
    3. that preimage maps isomorphically as a monoid.

    The witness of 2 or 3 is the first failing target cone in (number of
    rays, rays) order.  Failure is closed upward: if sigma is the unique
    maximal preimage of sigma' and maps onto it, then Phi^-1(tau') ∩ sigma
    is one for each face tau', and a monoid isomorphism restricts to one
    on every face.  So the maximal cones decide, and the witness is the
    smallest failing face of a failing maximal cone.
    """
    _require_valid_morphism(m)
    if not (has_finite_cokernel(m.source.beta) and has_finite_cokernel(m.target.beta)):
        raise PreconditionViolated(
            "isomorphism test needs finite cokernels on both sides")
    # a surjection between isomorphic f.g. abelian groups is injective
    if not (is_surjective(m.phi) and m.phi.source == m.phi.target):
        return IsoResult(False, 1, None)

    # every cone must pass condition 2 before any is tested for condition 3
    onto = [(_onto_preimage(m, sp), sp) for sp in m.target.fan.maximal_cones]
    failing = [sp for sigma, sp in onto if sigma is None]
    if failing:
        return IsoResult(False, 2, _smallest_failing_face(
            failing, lambda f: _onto_preimage(m, f) is None))
    images = m.ray_images
    failing = [sp for sigma, sp in onto if not monoid_iso_on_cone(images, sigma, sp)]
    if failing:
        return IsoResult(False, 3, _smallest_failing_face(
            failing, lambda f: not monoid_iso_on_cone(images, _onto_preimage(m, f), f)))
    return IsoResult(True, None, None)


@dataclass(frozen=True)
class GmsResult:
    verdict: bool
    failing_condition: Optional[str]
    tau: Optional[Cone]
    gms_fan: Optional[Fan]
    morphism: Optional[StackyMorphism] = None


def gms_check(m: StackyMorphism) -> GmsResult:
    """Does a given morphism exhibit its target as the good moduli space?

    Conditions, first failure reported as "1".."4":

    1. every target cone has a unique maximal preimage cone mapping onto
       it (tau is the preimage of the zero cone);
    2. tau is unstable for the source;
    3. phi is surjective;
    4. ker(phi) / beta(tau-span) is finite.

    Condition 1 is closed upward (see :func:`is_isomorphism`): the zero
    cone, checked first for tau, and the maximal cones decide it.
    """
    _require_valid_morphism(m)
    if not has_finite_cokernel(m.source.beta):
        raise PreconditionViolated("good moduli space check needs finite cokernel")
    fan = m.target.fan
    # a fan with no cones at all has nothing to check
    tau = Cone(m.source.lattice_rank, ())
    if fan.maximal_cones:
        tau = _onto_preimage(m, Cone(fan.ambient_rank, ()))
        if tau is None or any(_onto_preimage(m, sp) is None for sp in fan.maximal_cones):
            return GmsResult(False, "1", tau, fan)
    if not is_unstable(tau, m.source.beta):
        return GmsResult(False, "2", tau, fan)
    if not is_surjective(m.phi):
        return GmsResult(False, "3", tau, fan)
    if not _finite_kernel_mod_tau(m, tau):
        return GmsResult(False, "4", tau, fan)
    return GmsResult(True, None, tau, fan, m)


def _finite_kernel_mod_tau(m: StackyMorphism, tau: Cone) -> bool:
    """Is ker(phi) modulo the image of the tau-span finite?

    Compares ranks.  phi sends torsion to torsion, so the free rows of its
    matrix alone cut out the kernel rationally.
    """
    n = m.source.target.ngens
    kernel_rank = n - row_rank(m.phi.matrix.entries[:m.phi.target.free_rank])
    rays = IntMatrix.from_columns(list(tau.rays), rows=m.source.lattice_rank)
    moved = m.source.beta.matrix @ rays
    return kernel_rank == rank(moved.hstack(m.source.target.relations()))


def gms_construct(sf: StackyFan) -> GmsResult:
    """Construct the candidate good moduli space of a stacky fan.

    Requires finite cokernel and reads the maximal cones only.  Fails with
    "(i)" when the unstable faces of the maximal cones have no unique
    maximal element tau (every unstable cone lies in one of them), with
    "(ii)" when the image of a maximal cone sigma is not pointed or its
    preimage is not sigma: a maximal sigma mapping into a fan cone
    Phi(sigma_d) with preimage sigma_d lies in sigma_d, so sigma = sigma_d.
    Otherwise returns the fan of the images with the morphism onto it.
    """
    beta = sf.beta
    if not has_finite_cokernel(beta):
        raise PreconditionViolated("good moduli space construction needs finite cokernel")
    maximal = maximal_unstable_cones(sf.fan, beta)
    if len(maximal) != 1:
        return GmsResult(False, "(i)", None, None)
    tau = maximal[0]
    tspan = saturate(IntMatrix.from_columns(list(tau.rays), rows=sf.lattice_rank))
    killed = saturate((beta.matrix @ tspan).hstack(sf.target.relations()))
    grp, proj = cokernel_presentation(killed)
    if grp.torsion:
        raise AssertionError("quotient by a saturated sublattice must be free")
    phi = FgAbHom(sf.target, grp, proj)
    big_phi = proj @ beta.matrix
    rp = grp.free_rank
    images = ray_images(big_phi, sf.fan)
    cones = []
    for sigma in sf.fan.maximal_cones:
        try:
            image = canonicalize_cone([images[r] for r in sigma.rays], ambient_rank=rp)
        except NotStronglyConvex:
            return GmsResult(False, "(ii)", tau, None)
        if preimage_fan(sf.fan, images, image) != sigma:
            return GmsResult(False, "(ii)", tau, None)
        cones.append(image)
    gms_fan = Fan(rp, tuple(cones))
    target_sf = StackyFan(gms_fan, grp, tuple(IntMatrix.identity(rp).columns()))
    morphism = StackyMorphism(sf, target_sf, big_phi, phi)
    return GmsResult(True, None, tau, gms_fan, morphism)


@dataclass(frozen=True)
class ModuliDescription:
    """Linear functional and vanishing data cut out by a moduli problem.

    A point is a tuple of sections (x_1, ..., x_n) with the
    ``intersection_relations`` index sets never vanishing simultaneously,
    the ``forced_zero_sections`` identically zero, and line-bundle degrees
    balanced along each row of ``linear_relations``.
    """

    ambient_dim: int
    linear_relations: tuple[Vec, ...]
    intersection_relations: tuple[tuple[int, ...], ...]
    forced_zero_sections: tuple[int, ...]


def _moduli_preconditions(sf: StackyFan) -> list[set[int]]:
    # orthant cones are smooth: distinct standard basis vectors extend to a basis
    idx = _orthant_ray_indices(sf.fan)
    if sf.target.torsion:
        raise PreconditionViolated("moduli reading needs a free target")
    if not has_finite_cokernel(sf.beta):
        raise PreconditionViolated("moduli reading needs finite cokernel")
    return idx


def moduli_description(sf: StackyFan, forced_zero: Sequence[int] = ()) -> ModuliDescription:
    """Functor-of-points reading of a smooth orthant-supported stacky fan."""
    idx = _moduli_preconditions(sf)
    n = sf.lattice_rank
    fz = tuple(sorted(set(int(i) for i in forced_zero)))
    for i in fz:
        if not 1 <= i <= n:
            raise ValueError(f"forced zero section {i} outside 1..{n}")
    return ModuliDescription(
        ambient_dim=n,
        linear_relations=sf.beta.matrix.entries,
        intersection_relations=tuple(
            sorted(primitive_collections(n, idx), key=lambda s: (len(s), s))),
        forced_zero_sections=fz,
    )


@dataclass(frozen=True)
class RootDatum:
    """One rooted line bundle of a gerbe decomposition.

    The zero coordinate ``coordinate`` contributes the b-th root of the
    bundle on the base whose multidegree is ``exponents`` (one entry per
    surviving coordinate, in their original order).
    """

    coordinate: int
    order: int
    exponents: Vec


@dataclass(frozen=True)
class GerbeData:
    bg_m_rank: int
    roots: tuple[RootDatum, ...]
    base: StackyFan


def gerbe_decomposition(sf: StackyFan, zero_coordinates: Sequence[int]) -> GerbeData:
    """Split the substack at a torus-fixed face into roots over a base.

    ``zero_coordinates`` (1-based) must index the rays of a face of some
    maximal cone; the closed substack they cut out is a gerbe over the
    toric stack of the surviving coordinates, banded by the listed roots
    plus ``bg_m_rank`` full torus gerbe factors.

    Let R be the relations (rows of beta) restricted to the zero
    coordinates and g_i the gcd of their entries at coordinate i.  R lies
    in the sum of the g_i Z e_i, so it splits by coordinate, as the product
    form needs, exactly when each g_i e_i lies in R; otherwise
    PreconditionViolated is raised.  Coordinate i then gives a B G_m factor
    when g_i = 0 and a g_i-th root otherwise, whose exponents are minus the
    surviving entries of a relation restricting to g_i e_i, reduced modulo
    the base's relations.

    One Smith form U A V = S of the constraint matrix A (one row per zero
    coordinate, one column per relation) gives the base and every root:
    with r invariant factors f_j, the base's relations are the columns of
    V past r, and A y = g_i e_i is solvable exactly when c = g_i U e_i has
    f_j | c_j below r and c_j = 0 from r on, with y = V (c_j / f_j, 0...).
    """
    idx = _moduli_preconditions(sf)
    n = sf.lattice_rank
    zset = sorted(set(int(i) for i in zero_coordinates))
    for i in zset:
        if not 1 <= i <= n:
            raise ValueError(f"zero coordinate {i} outside 1..{n}")
    if not any(set(zset) <= s for s in idx):
        raise PreconditionViolated(
            "zero coordinates do not index a face of any maximal cone")
    # row j - 1 holds every relation's entry at coordinate j
    coeffs = sf.beta.matrix.transpose()
    comp = [j for j in range(1, n + 1) if j not in zset]
    constraint = coeffs.submatrix([i - 1 for i in zset], range(coeffs.cols))
    surviving = coeffs.submatrix([j - 1 for j in comp], range(coeffs.cols))
    d = snf(constraint)
    factors = d.invariant_factors
    r = len(factors)
    # the base's relations are those vanishing on every zero coordinate
    base_images = surviving @ d.V.submatrix(range(d.V.rows), range(r, d.V.cols))
    unit = {j: tuple(1 if k == p else 0 for k in range(len(comp))) for p, j in enumerate(comp)}
    kept = [Cone(len(comp), tuple(sorted(unit[j] for j in s if j in unit))) for s in idx]
    base = StackyFan(Fan(len(comp), tuple(maximal_among(kept))),
                     free_group(base_images.cols), base_images.entries)
    roots = []
    for k, i in enumerate(zset):
        g = math.gcd(*constraint.row(k))
        if g == 0:
            continue
        c = [g * x for x in d.U.column(k)]
        if any(x % f for x, f in zip(c, factors)) or any(c[r:]):
            raise PreconditionViolated(
                "the relations on the zero coordinates do not split by coordinate, "
                "so the band is not a product of one group per coordinate")
        # y combines the relations into one restricting to g e_i on the zero coordinates
        y = d.V.apply([x // f for x, f in zip(c, factors)] + [0] * (d.V.cols - r))
        a = reduce_mod_row_lattice(surviving.apply(y), base_images.transpose())
        roots.append(RootDatum(coordinate=i, order=g, exponents=tuple(-x for x in a)))
    return GerbeData(bg_m_rank=len(zset) - len(roots), roots=tuple(roots), base=base)
