"""Rational polyhedral cones and fans, exact arithmetic only.

Cones are stored by their sorted primitive extreme rays, which is a
canonical form for strongly convex cones.  The workhorse is one incremental
double-description routine (:func:`halfspace_intersection`) that starts
from all of Z^n.  A cone with dependent generators runs it once over them,
and its extreme rays and pointedness are read off the generator-facet
incidences of that one pass (independent generators are already the extreme
rays); intersecting two cones runs it once over the facets and equations
of both.  Every ray carries its zero set, the bitmask of the constraints it
lies on, updated incrementally; a (+, -) pair of rays is combined only when
no third ray lies on all their shared constraints (the combinatorial
adjacency test of Fukuda & Prodon 1996), which keeps the ray set exactly
the extreme rays at every step with no rank computation.  A fan whose rays
are linearly independent is validated from its ray sets, with no double
description at all.  Otherwise each pair of maximal cones is first decided
by a separating functional read off bitmasks over the fan rays (one per
facet normal and +- equation of each cone); only the pairs that certificate
cannot decide run an intersection.

Derived structure lives on the immutable values and is computed once per
value: a cone keeps its H-representation (equations and facet normals).
A fan keeps only its maximal cones; no command walks every cone of a fan.
Faces come from ray-facet incidences: the ray sets of the faces are the
intersections of facet ray sets (Kaibel & Pfetsch 2002), so subsets of
facets are never enumerated.  A lattice map on a fan is read through one
table, the images of the fan rays (:func:`ray_images`): the preimage, fill
and monoid-isomorphism tests take that table, not the map.
Inputs stay modest (ambient rank up to about 20, a few dozen rays), so
clarity wins over asymptotics throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, prod
from operator import mul
from typing import Iterable, Optional, Sequence

from .zlinalg import IntMatrix, Vec, row_rank, snf


class NotStronglyConvex(Exception):
    """Raised when a cone expected to be pointed contains a line."""


class PreconditionViolated(Exception):
    """Raised when an operation's stated precondition fails."""


def _dot(a: Sequence, b: Sequence):
    return sum(map(mul, a, b))


def _size_order(rays: tuple[Vec, ...]) -> tuple:
    """Sort key of cones and faces: number of rays, then the rays."""
    return len(rays), rays


def primitive(v: Sequence[int]) -> Optional[Vec]:
    """Primitive integer vector on the same ray, or None for the zero vector."""
    g = 0
    for x in v:
        g = gcd(g, x)
    if g == 0:
        return None
    return tuple(x // g for x in v)


def halfspace_intersection(normals: Sequence[Vec], dim: int) -> tuple[list[Vec], list[Vec]]:
    """Lineality basis and extreme rays of {x : n . x >= 0 for all n}.

    Adds the halfspaces one at a time, starting from all of Z^dim.

    Each ray carries its zero set, the bitmask of the seen constraints it
    lies on.  A constraint that meets the lineality space turns one line
    into a ray that lies on every old constraint, and projects the other
    rays onto its hyperplane: they keep their bits and gain the new one.  A
    constraint that vanishes on the lineality space and that no ray violates
    is skipped.  Otherwise the rays on its negative side give way to one ray
    per adjacent (+, -) pair, lying on the pair's shared constraints and the
    new one; rays on the hyperplane gain its bit.  Two rays are adjacent
    exactly when no third ray lies on every seen constraint they share
    (Fukuda & Prodon 1996, Prop. 7), so the rays stay exactly the extreme
    rays at every step and nothing needs pruning.
    """
    lineality = [tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)]
    rays: list[tuple[Vec, int]] = []
    nseen = 0
    for raw in normals:
        a = tuple(map(int, raw))
        if not any(a):
            continue
        bit = 1 << nseen
        products = [(_dot(a, l), l) for l in lineality]
        pivots = [(s, l) for s, l in products if s != 0]
        if pivots:
            s0, l0 = pivots[0]
            if s0 < 0:
                s0, l0 = -s0, tuple(-x for x in l0)
            new_lin = []
            for s, l in products:
                if l == pivots[0][1]:
                    continue
                if s == 0:
                    new_lin.append(l)
                else:
                    w = primitive(tuple(s0 * x - s * y for x, y in zip(l, l0)))
                    if w is not None:
                        new_lin.append(w)
            projected = []
            for r, z in rays:
                t = _dot(a, r)
                projected.append((primitive(tuple(s0 * x - t * y for x, y in zip(r, l0))),
                                  z | bit))
            rays = projected + [(l0, bit - 1)]
            lineality = new_lin
        else:
            plus, zero, minus = [], [], []
            for r, z in rays:
                t = _dot(a, r)
                (plus if t > 0 else zero if t == 0 else minus).append((t, r, z))
            if not minus:
                continue
            masks = [z for _, z in rays]
            kept = [(r, z) for _, r, z in plus] + [(r, z | bit) for _, r, z in zero]
            for tp, p, zp in plus:
                for tm, m, zm in minus:
                    common = zp & zm
                    if sum(1 for z in masks if (z & common) == common) == 2:
                        kept.append((primitive(tuple(tp * x - tm * y for x, y in zip(m, p))),
                                     common | bit))
            rays = kept
        nseen += 1
    return lineality, sorted(r for r, _ in rays)


HRep = tuple[tuple[Vec, ...], tuple[Vec, ...]]


def _h_representation(gens: Iterable[Sequence[int]], dim: int) -> HRep:
    """(equation normals, facet normals) of the cone spanned by gens."""
    key = sorted({p for p in map(primitive, gens) if p is not None})
    lin, rays = halfspace_intersection(key, dim)
    return tuple(lin), tuple(rays)


@dataclass(frozen=True)
class Cone:
    """Strongly convex rational cone, canonical by sorted primitive rays."""

    ambient_rank: int
    rays: tuple[Vec, ...]

    def __post_init__(self) -> None:
        for r in self.rays:
            if len(r) != self.ambient_rank:
                raise ValueError("ray length does not match ambient rank")

    @cached_property
    def h_representation(self) -> HRep:
        """(equation normals, facet normals), computed once per cone."""
        return _h_representation(self.rays, self.ambient_rank)


def cone_contains(c: Cone, v: Sequence) -> bool:
    """Membership of a rational vector."""
    if len(v) != c.ambient_rank:
        raise ValueError("vector length does not match ambient rank")
    eqs, facets = c.h_representation
    return all(_dot(e, v) == 0 for e in eqs) and all(_dot(f, v) >= 0 for f in facets)


def canonicalize_cone(generators: Sequence[Sequence[int]], ambient_rank: Optional[int] = None) -> Cone:
    """Cone from an arbitrary generating set; raises NotStronglyConvex.

    Linearly independent generators are the extreme rays of a simplicial
    cone, so they need no double description; the cone computes its
    H-representation when something asks for it.  Otherwise one
    double-description pass over the primitive generators gives the
    equations and facet normals; the rest is read off the facets Z(g)
    vanishing on each generator g.  A generator on every facet lies in the
    lineality space, so the cone contains a line.  Otherwise the minimal
    face containing g is cut out by Z(g) and is spanned by the generators h
    whose Z(h) contains Z(g).  It is a ray exactly when none of them lies on
    a smaller face, i.e. has Z(h) strictly larger (Fukuda & Prodon 1996).
    """
    gens = [tuple(int(x) for x in g) for g in generators]
    if ambient_rank is None:
        if not gens:
            raise ValueError("ambient rank needed for an empty generating set")
        ambient_rank = len(gens[0])
    if any(len(g) != ambient_rank for g in gens):
        raise ValueError("mixed ambient ranks in generating set")
    prims = sorted({p for p in map(primitive, gens) if p is not None})
    if row_rank(prims) == len(prims):
        return Cone(ambient_rank, tuple(prims))
    eqs, facets = _h_representation(prims, ambient_rank)
    tight = {g: {n for n in facets if _dot(n, g) == 0} for g in prims}
    for g, z in tight.items():
        if len(z) == len(facets):
            raise NotStronglyConvex(f"cone contains the line through {g}")
    rays = tuple(g for g, z in tight.items() if not any(zh > z for zh in tight.values()))
    cone = Cone(ambient_rank, rays)
    # the generators and the extreme rays span one cone: share its H-representation
    cone.__dict__["h_representation"] = (eqs, facets)
    return cone


def faces(c: Cone) -> list[Cone]:
    """All faces, ordered by (number of rays, rays).

    The ray set of a face is the set of rays lying on some collection of
    facets, so the face ray sets are {all rays} closed under intersection
    with the ray set of each facet (Kaibel & Pfetsch 2002).  That costs one
    pass over the faces found so far per facet, not one per facet subset.
    """
    _, facets = c.h_representation
    found = {c.rays}
    for n in facets:
        on = {r for r in c.rays if _dot(n, r) == 0}
        found |= {tuple(r for r in rs if r in on) for rs in found}
    return [Cone(c.ambient_rank, rs) for rs in sorted(found, key=_size_order)]


def _constraints(c: Cone) -> list[Vec]:
    """The facet normals and +- equations of c: functionals >= 0 on c that cut it out."""
    eqs, facets = c.h_representation
    return list(facets) + [s for e in eqs for s in (e, tuple(-x for x in e))]


def intersect_cones(a: Cone, b: Cone) -> list[Vec]:
    """Extreme rays of the intersection of two pointed cones, sorted.

    One double description over the facets and +- equations of a, then of b.
    """
    if a.ambient_rank != b.ambient_rank:
        raise ValueError("ambient mismatch")
    return halfspace_intersection(_constraints(a) + _constraints(b), a.ambient_rank)[1]


def minimal_face_containing(c: Cone, v: Sequence) -> tuple[Vec, ...]:
    """Rays of the smallest face of c containing the vector v (v must lie in c)."""
    _, facets = c.h_representation
    active = [n for n in facets if _dot(n, v) == 0]
    return tuple(r for r in c.rays if all(_dot(n, r) == 0 for n in active))


@dataclass(frozen=True)
class Fan:
    """Fan described by its maximal cones (faces are implied).

    Cones are stored sorted by (ray count, rays), so equal fans compare
    equal no matter the construction order.
    """

    ambient_rank: int
    maximal_cones: tuple[Cone, ...]

    def __post_init__(self) -> None:
        for c in self.maximal_cones:
            if c.ambient_rank != self.ambient_rank:
                raise ValueError("cone ambient rank does not match fan")
        object.__setattr__(
            self, "maximal_cones",
            tuple(sorted(self.maximal_cones, key=lambda c: _size_order(c.rays))))


def maximal_among(cones: Sequence[Cone]) -> list[Cone]:
    """The distinct cones whose ray set lies properly inside no other's, in input order."""
    unique = list(dict.fromkeys(cones))
    sets = [frozenset(c.rays) for c in unique]
    return [c for c, s in zip(unique, sets) if not any(s < t for t in sets)]


def fan_rays(fan: Fan) -> list[Vec]:
    """Primitive generators of the one-dimensional cones, sorted."""
    out = set()
    for c in fan.maximal_cones:
        out.update(c.rays)
    return sorted(out)


def validate_fan(fan: Fan) -> tuple[str, ...]:
    """Problems with the two fan axioms, empty exactly for a fan: values, not exceptions.

    When the fan rays are linearly independent, every cone is the face of
    the simplicial cone they span on its own rays, and two faces of a
    simplicial cone meet in the face on their shared rays.  So the cones
    always meet properly, and a cone lies in another exactly when its rays
    are among the other's.

    Otherwise each pair (a, b) of maximal cones first tries a separating
    functional (Cox-Little-Schenck, Toric Varieties, Lemma 1.2.13).  Every
    facet normal and +- equation of a cone is a constraint >= 0 on it; a
    constraint of a that is <= 0 on every ray of b qualifies, and so does a
    constraint of b that is <= 0 on every ray of a.  The sum m of the qualifying constraints of a minus
    those of b is >= 0 on a and <= 0 on b, so a and b meet inside m = 0, in
    faces of each.  On either cone all terms of m have one sign, so m
    vanishes on a ray of it exactly when every qualifying constraint does:
    those faces are spanned by the rays of a and of b in the set ``on``
    where all qualifying constraints vanish.  When the two ray sets agree,
    a and b meet in that common face, and a cone lies in the other exactly
    when all its rays are shared.  When either ray set is empty, a and b
    meet in the zero cone, a face of each, and a cone lies in the other
    only when it is the zero cone.  Each constraint carries two bitmasks
    over the fan rays (where it is zero, where it is <= 0), so a pair costs
    a few mask operations.  A pair the certificate cannot decide runs one
    intersection: a cone lies in another exactly when their intersection
    is the cone itself, and two cones meet properly when the intersection
    is a face of each.  Containment problems come first, over ordered
    pairs.
    """
    mc = fan.maximal_cones
    rays = fan_rays(fan)
    contained = []
    improper = []
    if len(mc) < 2 or row_rank(rays) == len(rays):
        sets = [set(c.rays) for c in mc]
        contained = [(i, j) for i, s in enumerate(sets) for j, t in enumerate(sets)
                     if i != j and s <= t]
    else:
        bits = [(r, 1 << k) for k, r in enumerate(rays)]
        own = [sum(b for r, b in bits if r in c.rays) for c in mc]
        masks = []  # per cone: (zero mask, nonpositive mask) of each constraint
        for c in mc:
            cm = []
            for n in _constraints(c):
                zero = nonpos = 0
                for r, b in bits:
                    t = _dot(n, r)
                    if t <= 0:
                        nonpos |= b
                        if t == 0:
                            zero |= b
                cm.append((zero, nonpos))
            masks.append(cm)
        for i in range(len(mc)):
            for j in range(i + 1, len(mc)):
                on = -1  # every fan ray
                for x, y in ((i, j), (j, i)):
                    for zero, nonpos in masks[x]:
                        if own[y] & ~nonpos == 0:
                            on &= zero
                on_a, on_b = own[i] & on, own[j] & on
                if on_a == on_b or not (on_a and on_b):
                    shared = on_a & on_b
                    contained += [(x, y) for x, y in ((i, j), (j, i)) if own[x] == shared]
                    continue
                a, b = mc[i], mc[j]
                want = tuple(intersect_cones(a, b))
                contained += [(x, y) for x, y in ((i, j), (j, i)) if mc[x].rays == want]
                if want:
                    probe = tuple(sum(col) for col in zip(*want))
                else:
                    probe = (0,) * fan.ambient_rank
                fa = minimal_face_containing(a, probe)
                fb = minimal_face_containing(b, probe)
                if fa != want or fb != want:
                    improper.append(
                        f"cones {i} and {j} do not meet along a common face "
                        f"(intersection rays {want})")
    problems = [f"cone {i} with rays {mc[i].rays} is contained in cone {j}"
                for i, j in sorted(contained)] + improper
    return tuple(problems)


def ray_images(m: IntMatrix, fan: Fan) -> dict[Vec, Vec]:
    """The image m·r of each fan ray r, in :func:`fan_rays` order.

    The readers below take this table instead of m: every question they ask
    of m on the fan is a question about the images of its rays.
    """
    return {r: m.apply(r) for r in fan_rays(fan)}


def preimage_fan(fan: Fan, images: dict[Vec, Vec], target: Cone) -> Optional[Cone]:
    """The unique maximal cone of the fan mapping into target, or None.

    ``images`` is the :func:`ray_images` table of the map on the fan.  Let S
    be the fan rays mapping into target.  Each is a cone mapping into
    target, so a unique maximal such cone has the rays S.  Conversely, if S
    spans a face M of a maximal cone, every cone mapping into target has its
    rays in S and so is a face of M: two cones of a fan meet in a common face.
    """
    inside = tuple(r for r, w in images.items() if cone_contains(target, w))
    probe = [sum(r[i] for r in inside) for i in range(fan.ambient_rank)]
    for sigma in fan.maximal_cones:
        if (set(inside) <= set(sigma.rays)
                and minimal_face_containing(sigma, probe) == inside):
            return Cone(fan.ambient_rank, inside)
    return None


def maps_onto(images: dict[Vec, Vec], sigma: Cone, target: Cone) -> bool:
    """Given that the map with these ray images sends sigma into the pointed
    cone target, is the image all of target?

    An extreme ray of target inside the image cone is extreme there too, so
    the image fills target exactly when it reaches every ray of target.
    """
    return set(target.rays) <= {primitive(images[r]) for r in sigma.rays}


def monoid_iso_on_cone(images: dict[Vec, Vec], sigma: Cone, sigma_prime: Cone) -> bool:
    """Does the map m with these ray images restrict to an isomorphism of
    cone monoids sigma -> sigma'?

    Precondition: m maps sigma into sigma'.  True exactly when the image
    cone fills sigma' and m is a bijection between the lattices
    L = span sigma ∩ Z^n and L' = span sigma' ∩ Z^n'; for saturated monoids
    of pointed cones that forces a monoid isomorphism.

    Let R hold the rays of sigma as columns, so that m·R holds their images.
    Once the image fills sigma', m·R spans span sigma' rationally, so L and
    L' are the saturations of the column lattices of R and m·R, of indices
    [L : ZR] and [L' : Z m·R], each the product of the invariant factors.
    m is injective on L exactly when m·R has the rank of R, that is as many
    invariant factors.  Then
    [L' : Z m·R] = [L' : m(L)] · [m(L) : m(ZR)] = [L' : m(L)] · [L : ZR],
    so m(L) = L' exactly when the two products agree.  Two Smith forms of
    the ray matrices, and no basis of L.
    """
    imgs = [images[r] for r in sigma.rays]
    if not all(cone_contains(sigma_prime, w) for w in imgs):
        raise PreconditionViolated("cone does not map into the target cone")
    if not maps_onto(images, sigma, sigma_prime):
        return False
    before = snf(IntMatrix.from_columns(sigma.rays, rows=sigma.ambient_rank)).invariant_factors
    after = snf(IntMatrix.from_columns(imgs, rows=sigma_prime.ambient_rank)).invariant_factors
    return len(before) == len(after) and prod(before) == prod(after)


def unstable_face(sigma: Cone, beta) -> Cone:
    """The largest face of sigma whose image under beta is a linear subspace.

    ``beta`` is an FgAbHom out of the free ambient lattice of sigma; only
    the free part of its target matters.  One double description finds the
    rays whose image lies on every facet of beta(sigma).  They span the
    preimage of the face lin beta(sigma), so a face of sigma, with image lin
    beta(sigma): a finitely generated cone's lineality space is spanned by
    the generators in it.  Every face with a subspace image maps into it.
    """
    fr = beta.target.free_rank
    imgs = {r: beta.apply(r)[:fr] for r in sigma.rays}
    _, facets = _h_representation(imgs.values(), fr)
    return Cone(sigma.ambient_rank,
                tuple(r for r, w in imgs.items() if all(_dot(n, w) == 0 for n in facets)))


def is_unstable(tau: Cone, beta) -> bool:
    """Is the image of tau under beta a linear subspace?"""
    return unstable_face(tau, beta) == tau


def maximal_unstable_cones(fan: Fan, beta) -> list[Cone]:
    """The maximal unstable cones: every unstable cone is a face of a maximal
    cone sigma with subspace image, so it lies in unstable_face(sigma)."""
    return maximal_among([unstable_face(c, beta) for c in fan.maximal_cones])
