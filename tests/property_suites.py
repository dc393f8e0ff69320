"""Seeded randomized contract suites.

Each suite runs a fixed number of generated cases and returns a list of
failure descriptions (empty means the contract held everywhere).  They are
exercised individually in test_properties.py and re-run as a block by the
acceptance gate, so keep them deterministic: every suite takes an explicit
seed and owns its Random instance.
"""

import math
import random
import sys
from fractions import Fraction
from functools import cache
from itertools import combinations, product
from typing import Optional, Sequence

from stackyfans.constructions import (
    FantastackPreconditionViolated,
    GerbeData,
    GmsResult,
    IsoResult,
    RootDatum,
    _finite_kernel_mod_tau,
    _moduli_preconditions,
    canonical_stack,
    fantastack,
    gerbe_decomposition,
    gms_check,
    gms_construct,
    is_isomorphism,
)
from stackyfans.fgab import (
    FgAbHom,
    MalformedHom,
    _strictification,
    _unit_for_row,
    free_group,
    has_finite_cokernel,
    identity_hom,
    is_surjective,
    mapping_cone_dual,
)
from stackyfans.polyhedral import (
    Cone,
    Fan,
    NotStronglyConvex,
    PreconditionViolated,
    _h_representation,
    canonicalize_cone,
    cone_contains,
    faces,
    fan_rays,
    halfspace_intersection,
    is_unstable,
    maximal_among,
    minimal_face_containing,
    monoid_iso_on_cone,
    preimage_fan,
    primitive,
    validate_fan,
)
from stackyfans.stacky import (
    StackyFan,
    StackyMorphism,
    _orthant_ray_indices,
    gbeta,
    reduce_nonstrict,
    validate_morphism,
)
from stackyfans.zlinalg import (
    FgAbGroup,
    IntMatrix,
    Vec,
    cokernel_presentation,
    hermite_row_form,
    rank,
    reduce_mod_row_lattice,
    row_rank,
    saturate,
    snf,
)



def kernel_basis(m: IntMatrix) -> IntMatrix:
    """Basis of the integer kernel {v : M v = 0}, as columns.

    The span is saturated automatically (kernels of integer maps are).
    """
    d = snf(m)
    r = len(d.invariant_factors)
    cols = [d.V.column(j) for j in range(r, m.cols)]
    return IntMatrix.from_columns(cols, rows=m.cols)


def solve_integer(m: IntMatrix, b: Sequence[int]) -> Optional[Vec]:
    """One integer solution of M x = b, or None."""
    if len(b) != m.rows:
        raise ValueError("rhs length mismatch")
    d = snf(m)
    c = d.U.apply(b)
    r = len(d.invariant_factors)
    y = []
    for i in range(m.cols):
        if i < r:
            f = d.invariant_factors[i]
            if c[i] % f != 0:
                return None
            y.append(c[i] // f)
        else:
            y.append(0)
    for i in range(r, m.rows):
        if c[i] != 0:
            return None
    return d.V.apply(y)


def _rand_matrix(rng, rows, cols, bound=10):
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)],
        cols=cols)


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def determinant(m):
    """Determinant by fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant of non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = [list(r) for r in m.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def row_hermite_problems(rows):
    """Why the rows are not in row Hermite form (empty when they are)."""
    problems = []
    last = -1
    for k, row in enumerate(rows):
        c = next((j for j, x in enumerate(row) if x != 0), None)
        if c is None:
            if any(any(r) for r in rows[k:]):
                problems.append(f"zero row {k} above a nonzero row")
            break
        if c <= last:
            problems.append(f"row {k} does not step right")
        if row[c] <= 0:
            problems.append(f"pivot of row {k} is not positive")
        if any(not 0 <= above[c] < row[c] for above in rows[:k]):
            problems.append(f"entries above the pivot of row {k} are not reduced")
        last = c
    return problems


def count_calls(monkeypatch, fn):
    """Patch a counting wrapper into every stackyfans namespace binding fn.

    Returns the list the wrapper appends one entry to per call.
    """
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "stackyfans" or name.startswith("stackyfans."):
            for attr, obj in list(vars(module).items()):
                if obj is fn:
                    monkeypatch.setattr(module, attr, counting)
    return calls


def normalized_group(free_rank, torsion_numbers):
    """Invariant-factor form of Z^free_rank + sum Z/n for arbitrary n >= 1."""
    ns = [int(n) for n in torsion_numbers]
    if any(n < 1 for n in ns):
        raise ValueError("torsion orders must be positive")
    ns = [n for n in ns if n > 1]
    if not ns:
        return FgAbGroup(free_rank, ())
    diag = IntMatrix.from_rows(
        [[ns[i] if i == j else 0 for j in range(len(ns))] for i in range(len(ns))])
    factors = snf(diag).invariant_factors
    return FgAbGroup(free_rank, tuple(f for f in factors if f > 1))


# ---------------------------------------------------------------------------
# 1. Smith form contracts against the minor-gcd definition

def _cofactor_det(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * _cofactor_det(minor)
        total += -term if j % 2 else term
    return total


def _minor_gcd_invariants(m):
    out = []
    prev = 1
    for k in range(1, min(m.rows, m.cols) + 1):
        g = 0
        for ri in combinations(range(m.rows), k):
            for ci in combinations(range(m.cols), k):
                sub = [[m.entries[i][j] for j in ci] for i in ri]
                g = math.gcd(g, abs(_cofactor_det(sub)))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def snf_contract_problems(m, dec):
    """What the Smith form dec of m gets wrong, against the minor-gcd definition."""
    problems = []
    if dec.U @ m @ dec.V != dec.S:
        problems.append("U m V != S")
    if abs(determinant(dec.U)) != 1 or abs(determinant(dec.V)) != 1:
        problems.append("transforms not unimodular")
    if dec.U @ dec.Uinv != IntMatrix.identity(m.rows):
        problems.append("Uinv is not the inverse of U")
    diag = [dec.S.entries[i][i] for i in range(min(m.rows, m.cols))]
    if any(dec.S.entries[i][j] for i in range(m.rows)
           for j in range(m.cols) if i != j):
        problems.append("S not diagonal")
    nonzero = [d for d in diag if d]
    if (any(d < 0 for d in diag) or diag[:len(nonzero)] != nonzero
            or any(b % a for a, b in zip(nonzero, nonzero[1:]))):
        problems.append("bad divisibility chain")
    if nonzero != _minor_gcd_invariants(m):
        problems.append("disagrees with minor gcds")
    return problems


def suite_snf_contracts(cases=500, seed=101):
    rng = random.Random(seed)
    failures = []
    for _ in range(cases):
        m = _rand_matrix(rng, rng.randint(0, 4), rng.randint(0, 4))
        problems = snf_contract_problems(m, snf(m))
        if problems:
            failures.append(f"{m.entries}: {'; '.join(problems)}")
    return failures


# ---------------------------------------------------------------------------
# 2. four characterizations of unstable cones

def _random_group(rng, max_free=3, max_torsion=2):
    torsion = [rng.choice([2, 3, 4, 6, 9])
               for _ in range(rng.randint(0, max_torsion))]
    return normalized_group(rng.randint(0, max_free), torsion)


def _random_cone(rng, ambient, max_gens=3, bound=10):
    for _ in range(30):
        gens = [[rng.randint(-bound, bound) for _ in range(ambient)]
                for _ in range(rng.randint(0, max_gens))]
        try:
            return canonicalize_cone(gens, ambient_rank=ambient)
        except NotStronglyConvex:
            continue
    return Cone(ambient, ())


def _in_generated_cone(gens, v, dim):
    """Is v in the (possibly non-pointed) cone the generators span in Z^dim?"""
    eqs, facets = _h_representation(gens, dim)
    return all(_dot(e, v) == 0 for e in eqs) and all(_dot(f, v) >= 0 for f in facets)


def _unstable_per_ray(tau, beta):
    """Reference: -w lies back in the image cone for the image w of every ray."""
    fr = beta.target.free_rank
    if fr == 0:
        return True
    imgs = [beta.apply(r)[:fr] for r in tau.rays]
    return all(_in_generated_cone(imgs, tuple(-x for x in w), fr) for w in imgs)


def suite_unstable_routes(cases=500, seed=202):
    rng = random.Random(seed)
    failures = []
    for _ in range(cases):
        n = rng.randint(1, 4)
        tau = _random_cone(rng, n)
        target = _random_group(rng)
        beta = FgAbHom(free_group(n), target, _rand_matrix(rng, target.ngens, n))
        via_facets = is_unstable(tau, beta)
        via_rays = _unstable_per_ray(tau, beta)
        fr = target.free_rank
        imgs = [beta.apply(r)[:fr] for r in tau.rays]
        _, dual_rays = halfspace_intersection(imgs, fr)
        via_dual = all(_dot(u, w) == 0 for u in dual_rays for w in imgs)
        # zero in the relative interior: strictly inside every facet
        _, facets = _h_representation(imgs, fr)
        via_relint = all(_dot(f, (0,) * fr) > 0 for f in facets)
        if not (via_facets == via_rays == via_dual == via_relint):
            failures.append(
                f"tau={tau.rays} beta={beta.matrix.entries}: facets={via_facets} "
                f"rays={via_rays} dual={via_dual} relint={via_relint}")
    return failures


# ---------------------------------------------------------------------------
# 3. exactness of the two character-level sequences of a composition

def _kernel_lattice(f):
    """Generators (columns in Z^source.ngens) of {v : f(v) = 0}."""
    big = f.matrix.hstack(f.target.relations())
    kb = kernel_basis(big)
    n = f.source.ngens
    cols = [c[:n] for c in kb.columns()]
    # source relations always die, and keeping them makes the span honest
    cols.extend(f.source.relations().columns())
    return IntMatrix.from_columns(cols, rows=n)


def verify_exact(seq):
    """Exactness at every interior junction of a composable sequence.

    Injectivity or surjectivity at the ends is expressed by placing
    explicit zero groups in the sequence.
    """
    homs = list(seq)
    for a, b in zip(homs, homs[1:]):
        if a.target != b.source:
            raise MalformedHom("sequence is not composable")
    for a, b in zip(homs, homs[1:]):
        g = a.target
        zero = (0,) * b.target.ngens
        for c in a.matrix.columns():
            if b.apply(c) != zero:
                return False
        rep = a.matrix.hstack(g.relations())
        for k in _kernel_lattice(b).columns():
            if solve_integer(rep, k) is None:
                return False
    return True


def _normalizing_aut(group, block):
    """Automorphism A of the group with A @ block canonical.

    The reference change of basis for the published weights: the row
    Hermite transform on the free rows, and the unit from ``_unit_for_row``
    on each torsion row, as an ngens x ngens block-diagonal matrix.
    """
    f = group.free_rank
    n = group.ngens
    free_block = IntMatrix.from_rows([block.row(i) for i in range(f)], cols=block.cols)
    _, t_free = hermite_row_form(free_block)
    a = [[0] * n for _ in range(n)]
    for i in range(f):
        a[i][:f] = t_free.entries[i]
    for j, d in enumerate(group.torsion):
        a[f + j][f + j] = _unit_for_row(block.row(f + j), d)
    return IntMatrix.from_rows(a, n)


def _reduce_rows(group, m):
    """Reduce the torsion rows of a generator-coordinate matrix."""
    f = group.free_rank
    rows = list(m.entries)
    for j, d in enumerate(group.torsion):
        rows[f + j] = tuple(x % d for x in rows[f + j])
    return IntMatrix.from_rows(rows, m.cols)


def _reference_weights(beta):
    """G^1 by the change of basis: A, then A·W, then reduce rows.

    Returns the character group, the weights and the whole projection
    Z^(l+s) -> X in the normalized generators (its first l columns are the
    weights).
    """
    group, proj = cokernel_presentation(_strictification(beta).transpose())
    weights_raw = proj.submatrix(range(group.ngens), range(beta.source.free_rank))
    aut = _normalizing_aut(group, weights_raw)
    return group, _reduce_rows(group, aut @ weights_raw), _reduce_rows(group, aut @ proj)


def _section(proj, group):
    """Right inverse of a surjection proj : Z^amb -> group, as columns."""
    amb = proj.cols
    aug = proj.hstack(group.relations())
    cols = []
    for k in range(group.ngens):
        e = [1 if i == k else 0 for i in range(group.ngens)]
        x = solve_integer(aug, e)
        if x is None:
            raise ValueError("projection is not surjective")
        cols.append(x[:amb])
    return IntMatrix.from_columns(cols, rows=amb)


def _lifted_square(f, g, alpha, b):
    """Strictify a commuting square (alpha, b) : f -> g.

    Returns (bmat, alpha_tilde) with
    strictification(g) @ alpha_tilde == bmat @ strictification(f) exactly.
    """
    if f.source.torsion or g.source.torsion:
        raise MalformedHom("mapping cone functoriality needs free sources")
    if b.source != f.target or b.target != g.target:
        raise MalformedHom("vertical map has wrong endpoints")
    lf, lg = f.source.free_rank, g.source.free_rank
    if alpha.rows != lg or alpha.cols != lf:
        raise MalformedHom("horizontal map has wrong shape")
    for i in range(lf):
        if g.apply(alpha.column(i)) != b.apply(f.matrix.column(i)):
            raise MalformedHom("square does not commute")
    sf, sg = len(f.target.torsion), len(g.target.torsion)
    ftf, ftg = f.target.free_rank, g.target.free_rank
    bmat = b.matrix
    diff_cols = (bmat @ f.matrix).columns()
    galpha_cols = (g.matrix @ alpha).columns()
    at = [[0] * (lf + sf) for _ in range(lg + sg)]
    for i in range(lg):
        for j in range(lf):
            at[i][j] = alpha.entries[i][j]
    for i in range(lf):
        diff = tuple(x - y for x, y in zip(diff_cols[i], galpha_cols[i]))
        for k in range(ftg):
            if diff[k] != 0:
                raise MalformedHom("square does not commute on free part")
        for k, d in enumerate(g.target.torsion):
            q, r = divmod(diff[ftg + k], d)
            if r != 0:
                raise MalformedHom("square does not commute modulo torsion")
            at[lg + k][i] = q
    for j, dj in enumerate(f.target.torsion):
        col = bmat.column(ftf + j)
        for k, dk in enumerate(g.target.torsion):
            q, r = divmod(dj * col[ftg + k], dk)
            if r != 0:
                raise MalformedHom("torsion image order mismatch")
            at[lg + k][lf + j] = q
    alpha_tilde = IntMatrix.from_rows(at, lf + sf)
    if (_strictification(g) @ alpha_tilde).entries != (bmat @ _strictification(f)).entries:
        raise MalformedHom("strictified square does not commute")
    return bmat, alpha_tilde


def _published_projection(beta):
    """The character group of G^1 and the projection Z^(l+s) -> X in the
    generators ``mapping_cone_dual`` publishes, checked against it."""
    group, weights, proj = _reference_weights(beta)
    published = mapping_cone_dual(beta).g1
    if (published.group, published.weights) != (group, weights):
        raise AssertionError(f"published G^1 of {beta.matrix.entries} is not A·W")
    return group, proj


def induced_g1_hom(f, g, alpha, b):
    """The map G^1-characters(g) -> G^1-characters(f) a square induces.

    (alpha, b) is a morphism of two-term complexes from f to g; dualizing
    gives a map on degree-one cohomology in the opposite direction, here in
    the generators that ``mapping_cone_dual`` publishes for each side.
    """
    _, alpha_tilde = _lifted_square(f, g, alpha, b)
    gg, pg = _published_projection(g)
    gf, pf = _published_projection(f)
    return FgAbHom(gg, gf, pf @ (alpha_tilde.transpose() @ _section(pg, gg)))


def induced_g0_hom(f, g, alpha, b):
    """The map on degree-zero cohomology of the dual complexes (free groups)."""
    bmat, _ = _lifted_square(f, g, alpha, b)
    kg = kernel_basis(_strictification(g).transpose())
    kf = kernel_basis(_strictification(f).transpose())
    moved = bmat.transpose() @ kg
    cols = []
    for c in moved.columns():
        x = solve_integer(kf, c)
        if x is None:
            raise ValueError("dual image left the kernel lattice")
        cols.append(x)
    mat = IntMatrix.from_columns(cols, rows=kf.cols)
    return FgAbHom(free_group(kg.cols), free_group(kf.cols), mat)


def _triangle_sequences(phi, beta_prime):
    """The two split pieces of the long exact sequence of a triangle."""
    lf = phi.cols
    comp = FgAbHom(free_group(lf), beta_prime.target, beta_prime.matrix @ phi)
    phi_hom = FgAbHom(free_group(lf), free_group(phi.rows), phi)
    ident = identity_hom(beta_prime.target)
    r1 = induced_g1_hom(comp, beta_prime, phi, ident)
    r2 = induced_g1_hom(phi_hom, comp, IntMatrix.identity(lf), beta_prime)
    s1 = induced_g0_hom(comp, beta_prime, phi, ident)
    return r1, r2, s1


def _caps(seq):
    """Put zero groups at both ends, so exactness covers injectivity and
    surjectivity too."""
    zero = FgAbGroup(0, ())
    first = FgAbHom(zero, seq[0].source, IntMatrix.from_columns([], rows=seq[0].source.ngens))
    last = FgAbHom(seq[-1].target, zero, IntMatrix(0, seq[-1].target.ngens, ()))
    return [first] + list(seq) + [last]


def suite_triangle_exactness(cases=500, seed=303):
    rng = random.Random(seed)
    failures = []
    for _ in range(cases):
        a = rng.randint(1, 3)
        phi = _rand_matrix(rng, a, a)
        while determinant(phi) == 0:
            phi = _rand_matrix(rng, a, a)
        target = _random_group(rng, max_free=2)
        beta_prime = FgAbHom(free_group(a), target,
                             _rand_matrix(rng, target.ngens, a))
        r1, r2, s1 = _triangle_sequences(phi, beta_prime)
        if not verify_exact(_caps([r1, r2])):
            failures.append(
                f"phi={phi.entries} beta'={beta_prime.matrix.entries} "
                f"into {target}: torsion sequence not exact")
        if not verify_exact(_caps([s1])):
            failures.append(
                f"phi={phi.entries} beta'={beta_prime.matrix.entries} "
                f"into {target}: free parts not isomorphic")
    return failures


# ---------------------------------------------------------------------------
# 4. strictification does not change the diagonalized group

def _random_fan(rng, ambient):
    if ambient == 1:
        cones = rng.choice(([], [[1]], [[-1]], [[1]], [[1], [-1]]))
        if not cones:
            return Fan(1, (Cone(1, ()),))
        return Fan(1, tuple(canonicalize_cone([c], ambient_rank=1) for c in cones))
    rays = []
    for _ in range(rng.randint(0, 4)):
        p = primitive((rng.randint(-10, 10), rng.randint(-10, 10)))
        if p is not None and p not in rays:
            rays.append(p)
    rays.sort(key=lambda r: math.atan2(r[1], r[0]))
    cones = []
    covered = set()
    k = len(rays)
    for i in range(k):
        a, b = rays[i], rays[(i + 1) % k]
        if (i + 1 == k and k < 3) or a == b:
            continue
        if a[0] * b[1] - a[1] * b[0] > 0 and rng.random() < 0.7:
            cones.append(canonicalize_cone([a, b], ambient_rank=2))
            covered.update((a, b))
    for r in rays:
        if r not in covered:
            cones.append(canonicalize_cone([r], ambient_rank=2))
    if not cones:
        cones = [Cone(2, ())]
    return Fan(2, tuple(cones))


def _random_stacky_fan(rng):
    fan = _random_fan(rng, rng.choice((1, 2, 2)))
    target = _random_group(rng, max_free=2)
    images = [tuple(rng.randint(-10, 10) for _ in range(target.ngens))
              for _ in range(fan.ambient_rank)]
    return StackyFan(fan, target, tuple(images))


@cache
def _cone_pool(n, kind, ts):
    """Cones of one fan in Z^n, by kind.

    0: the faces of the cone over the moment-curve points (1, t, t^2[, t^3])
    for t in ts, all of them extreme rays; 1: the cones over the facets of
    the cube [-1, 1]^n; 2: the sign-pattern orthants.
    """
    if kind == 0:
        return faces(canonicalize_cone([[t ** j for j in range(n)] for t in ts], ambient_rank=n))
    if kind == 1:
        return [canonicalize_cone([v for v in product((-1, 1), repeat=n) if v[i] == s],
                                  ambient_rank=n)
                for i in range(n) for s in (-1, 1)]
    return [canonicalize_cone([tuple(s if j == i else 0 for j in range(n))
                               for i, s in enumerate(signs)], ambient_rank=n)
            for signs in product((-1, 1), repeat=n)]


def _random_polyhedral_fan(rng):
    """Fan in Z^3 or Z^4 from one cone pool, often with non-simplicial cones.

    A picked cone is sometimes replaced by a random face; cones of one fan
    always form a fan.
    """
    n = rng.choice((3, 4))
    kind = rng.randrange(3)
    ts = tuple(sorted(rng.sample(range(-3, 4), rng.randint(n, n + 2)))) if kind == 0 else ()
    pool = _cone_pool(n, kind, ts)
    picked = rng.sample(pool, rng.randint(1, min(4, len(pool))))
    picked = [rng.choice(faces(c)) if rng.random() < 0.3 else c for c in picked]
    return Fan(n, tuple(maximal_among(picked)))


def _random_polyhedral_stacky_fan(rng):
    fan = _random_polyhedral_fan(rng)
    target = _random_group(rng, max_free=3, max_torsion=1)
    images = [tuple(rng.randint(-2, 2) for _ in range(target.ngens))
              for _ in range(fan.ambient_rank)]
    return StackyFan(fan, target, tuple(images))


def _all_cones(fan):
    """Every cone of the fan, deduplicated, ordered by (number of rays, rays)."""
    seen = {f.rays: f for c in fan.maximal_cones for f in faces(c)}
    return [seen[k] for k in sorted(seen, key=lambda rays: (len(rays), rays))]


def _preimage_all_cones(m, fan, target):
    """Reference preimage_fan: filter every cone by the rays mapping into target."""
    inside = {r for r in fan_rays(fan) if cone_contains(target, m.apply(r))}
    maximal = maximal_among([c for c in _all_cones(fan) if inside.issuperset(c.rays)])
    return maximal[0] if len(maximal) == 1 else None


def _onto_preimage_canonical(m, fan, target):
    """Reference onto-preimage: canonicalize the image of the preimage cone."""
    sigma = preimage_fan(m, fan, target)
    if sigma is None or canonicalize_cone(
            [m.apply(r) for r in sigma.rays], target.ambient_rank) != target:
        return None
    return sigma


def _monoid_iso_solving(m, sigma, sigma_prime):
    """Reference monoid_iso_on_cone: canonicalize the image, then write m on
    a basis of span sigma ∩ N in a basis of span sigma' ∩ N and ask for a
    square matrix of determinant +-1."""
    imgs = [m.apply(r) for r in sigma.rays]
    if not all(cone_contains(sigma_prime, w) for w in imgs):
        raise PreconditionViolated("cone does not map into the target cone")
    if canonicalize_cone(imgs, sigma_prime.ambient_rank) != sigma_prime:
        return False
    span = saturate(IntMatrix.from_columns(list(sigma.rays), rows=sigma.ambient_rank))
    span_p = saturate(IntMatrix.from_columns(list(sigma_prime.rays),
                                             rows=sigma_prime.ambient_rank))
    cols = []
    for c in (m @ span).columns():
        x = solve_integer(span_p, c)
        if x is None:
            return False
        cols.append(x)
    x = IntMatrix.from_columns(cols, rows=span_p.cols)
    return x.rows == x.cols and abs(determinant(x)) == 1


def _require_valid(m):
    diag = validate_morphism(m)
    if not diag.valid:
        raise PreconditionViolated("not a morphism of stacky fans: " + "; ".join(diag.problems))


def _is_isomorphism_all_cones(m):
    """Reference is_isomorphism: conditions 2 and 3 on every target cone,
    reporting the first failing cone in (number of rays, rays) order."""
    _require_valid(m)
    if not (has_finite_cokernel(m.source.beta) and has_finite_cokernel(m.target.beta)):
        raise PreconditionViolated("isomorphism test needs finite cokernels on both sides")
    if not (is_surjective(m.phi) and m.phi.source == m.phi.target):
        return IsoResult(False, 1, None)
    onto = []
    for sp in _all_cones(m.target.fan):
        sigma = _onto_preimage_canonical(m.Phi, m.source.fan, sp)
        if sigma is None:
            return IsoResult(False, 2, sp)
        onto.append((sigma, sp))
    for sigma, sp in onto:
        if not _monoid_iso_solving(m.Phi, sigma, sp):
            return IsoResult(False, 3, sp)
    return IsoResult(True, None, None)


def _gms_check_all_cones(m):
    """Reference gms_check: condition 1 on every target cone, in order."""
    _require_valid(m)
    if not has_finite_cokernel(m.source.beta):
        raise PreconditionViolated("good moduli space check needs finite cokernel")
    tau = None
    for sp in _all_cones(m.target.fan):
        sigma = _onto_preimage_canonical(m.Phi, m.source.fan, sp)
        if sigma is None:
            return GmsResult(False, "1", tau, m.target.fan)
        if not sp.rays:
            tau = sigma
    if tau is None:
        tau = Cone(m.source.lattice_rank, ())
    if not is_unstable(tau, m.source.beta):
        return GmsResult(False, "2", tau, m.target.fan)
    if not is_surjective(m.phi):
        return GmsResult(False, "3", tau, m.target.fan)
    if not _finite_kernel_mod_tau(m, tau):
        return GmsResult(False, "4", tau, m.target.fan)
    return GmsResult(True, None, tau, m.target.fan, m)


def _unstable_all_cones(sf):
    """Reference unstable listing: every unstable cone in (number of rays,
    rays) order, and the unique maximal one or None."""
    unstable = [c for c in _all_cones(sf.fan) if is_unstable(c, sf.beta)]
    maximal = maximal_among(unstable)
    return unstable, (maximal[0] if len(maximal) == 1 else None)


def _dd_rank_pruned(normals, dim):
    """Reference double description: restart from Z^dim, prune by rank.

    Adds one halfspace at a time, combines every (+, -) pair of rays, and
    keeps a ray when its active constraints have rank dim - dim(lineality) - 1.
    """
    lineality = [tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)]
    rays = []
    seen = []
    for raw in normals:
        a = tuple(int(x) for x in raw)
        if all(x == 0 for x in a):
            continue
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
            for r in rays:
                t = _dot(a, r)
                w = primitive(tuple(s0 * x - t * y for x, y in zip(r, l0)))
                if w is not None:
                    projected.append(w)
            rays = projected + [l0]
            lineality = new_lin
        else:
            plus, zero, minus = [], [], []
            for r in rays:
                t = _dot(a, r)
                (plus if t > 0 else zero if t == 0 else minus).append((t, r))
            kept = [r for _, r in plus] + [r for _, r in zero]
            for tp, p in plus:
                for tm, m in minus:
                    w = primitive(tuple(tp * x - tm * y for x, y in zip(m, p)))
                    if w is not None:
                        kept.append(w)
            rays = kept
        seen.append(a)
        target = dim - len(lineality) - 1
        rays = [r for r in dict.fromkeys(rays)
                if row_rank([c for c in seen if _dot(c, r) == 0]) == target]
    return lineality, sorted(rays)


def _dd_constraints(c):
    eqs, facets = c.h_representation
    return list(facets) + [s for e in eqs for s in (e, tuple(-x for x in e))]


def _intersect_from_zn(a, b):
    """Reference intersect_cones: one rank-pruned pass over both H-representations."""
    return _dd_rank_pruned(_dd_constraints(a) + _dd_constraints(b), a.ambient_rank)[1]


def _validate_fan_pairwise(fan):
    """Reference validate_fan: a membership loop over ordered pairs for
    containment, then the reference intersection of each unordered pair."""
    problems = []
    mc = fan.maximal_cones
    for i, c in enumerate(mc):
        for j, d in enumerate(mc):
            if i != j and all(cone_contains(d, v) for v in c.rays):
                problems.append(f"cone {i} with rays {c.rays} is contained in cone {j}")
    for i in range(len(mc)):
        for j in range(i + 1, len(mc)):
            a, b = mc[i], mc[j]
            rays = _intersect_from_zn(a, b)
            probe = tuple(sum(col) for col in zip(*rays)) if rays else (0,) * fan.ambient_rank
            want = tuple(rays)
            if any(minimal_face_containing(c, probe) != want for c in (a, b)):
                problems.append(f"cones {i} and {j} do not meet along a common face "
                                f"(intersection rays {want})")
    return tuple(problems)


def suite_reduce_invariance(cases=500, seed=404):
    rng = random.Random(seed)
    failures = []
    for _ in range(cases):
        sf = _random_stacky_fan(rng)
        if not validate_fan(sf.fan).valid:
            failures.append(f"generator made an invalid fan: {sf.fan}")
            continue
        reduced, _ = reduce_nonstrict(sf)
        before, after = gbeta(sf), gbeta(reduced)
        if before.g0_rank != after.g0_rank or before.g1.group != after.g1.group:
            failures.append(
                f"target={sf.target} images={sf.beta_images}: "
                f"({before.g0_rank}, {before.g1.group}) became "
                f"({after.g0_rank}, {after.g1.group})")
    return failures


# ---------------------------------------------------------------------------
# 5. verdicts on product morphisms are conjunctions

def _product_sf(a, b):
    na, nb = a.lattice_rank, b.lattice_rank
    cones = []
    for ca in a.fan.maximal_cones:
        for cb in b.fan.maximal_cones:
            rays = [r + (0,) * nb for r in ca.rays] + \
                   [(0,) * na + r for r in cb.rays]
            cones.append(Cone(na + nb, tuple(sorted(rays))))
    ra, rb = a.target.free_rank, b.target.free_rank
    images = [v + (0,) * rb for v in a.beta_images] + \
             [(0,) * ra + v for v in b.beta_images]
    return StackyFan(Fan(na + nb, tuple(cones)), free_group(ra + rb),
                     tuple(images))


def _block_diag(m1, m2):
    rows = [r + (0,) * m2.cols for r in m1.entries] + \
           [(0,) * m1.cols + r for r in m2.entries]
    return IntMatrix.from_rows(rows, cols=m1.cols + m2.cols)


def _product_morphism(m1, m2):
    for m in (m1, m2):
        assert not m.source.target.torsion and not m.target.target.torsion
    return StackyMorphism(
        _product_sf(m1.source, m2.source), _product_sf(m1.target, m2.target),
        _block_diag(m1.Phi, m2.Phi),
        FgAbHom(free_group(m1.phi.source.ngens + m2.phi.source.ngens),
                free_group(m1.phi.target.ngens + m2.phi.target.ngens),
                _block_diag(m1.phi.matrix, m2.phi.matrix)))


def _morphism_pool():
    def cone(*gens, rank):
        return canonicalize_cone(list(gens), ambient_rank=rank)

    punctured = Fan(2, (cone((1, 0), rank=2), cone((0, 1), rank=2)))
    p1 = Fan(1, (cone((1,), rank=1), cone((-1,), rank=1)))
    ray = Fan(1, (cone((1,), rank=1),))
    quad = Fan(2, (cone((1, 0), (0, 1), rank=2),))
    point_sf = StackyFan(Fan(0, (Cone(0, ()),)), free_group(0), ())
    z1, z2 = free_group(1), free_group(2)

    p1_cox = StackyMorphism(
        StackyFan(punctured, z1, ((1,), (-1,))),
        StackyFan(p1, z1, ((1,),)),
        IntMatrix.from_rows([[1, -1]]), identity_hom(z1))
    mu2_line = StackyFan(ray, z1, ((2,),))
    a1_line = StackyFan(ray, z1, ((1,),))
    mu2_to_a1 = StackyMorphism(mu2_line, a1_line, IntMatrix.from_rows([[2]]),
                               identity_hom(z1))
    a1_canonical = canonical_stack(
        StackyFan(Fan(2, (cone((1, 0), (1, 2), rank=2),)), z2,
                  ((1, 0), (0, 1)))).morphism
    a2_to_point = StackyMorphism(
        StackyFan(quad, z1, ((1,), (-1,))), point_sf, IntMatrix(0, 2, ()),
        FgAbHom(z1, free_group(0), IntMatrix(0, 1, ())))
    p1_to_point = StackyMorphism(
        StackyFan(p1, z1, ((1,),)), point_sf, IntMatrix(0, 1, ()),
        FgAbHom(z1, free_group(0), IntMatrix(0, 1, ())))
    a1_sf = StackyFan(quad, z2, ((1, 0), (1, 2)))
    id_a1 = StackyMorphism(a1_sf, a1_sf, IntMatrix.identity(2),
                           identity_hom(z2))
    doubled = StackyMorphism(a1_line, a1_line, IntMatrix.from_rows([[2]]),
                             FgAbHom(z1, z1, IntMatrix.from_rows([[2]])))
    return [p1_cox, mu2_to_a1, a1_canonical, a2_to_point, p1_to_point,
            id_a1, doubled]


def _random_unimodular(rng, n):
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(2, 5)):
        if n == 0:
            break
        i = rng.randrange(n)
        op = rng.random()
        if op < 0.2:
            rows[i] = [-x for x in rows[i]]
        elif n >= 2:
            j = rng.randrange(n)
            if i == j:
                j = (j + 1) % n
            if op < 0.6:
                c = rng.choice((-2, -1, 1, 2))
                rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
            else:
                rows[i], rows[j] = rows[j], rows[i]
    return IntMatrix.from_rows(rows, cols=n)


def _unimodular_inverse(m):
    """Inverse of a matrix with determinant +-1, as V @ U of its Smith form."""
    d = snf(m)
    if m.rows != m.cols or d.invariant_factors != (1,) * m.rows:
        raise ValueError("matrix is not unimodular")
    return d.V @ d.U


def _twist_morphism(m, rng):
    """Conjugate by a source-lattice and a target-group change of basis."""
    u = _random_unimodular(rng, m.source.lattice_rank)
    uinv = _unimodular_inverse(u)
    w = _random_unimodular(rng, m.target.target.free_rank)
    src_b = IntMatrix.from_columns(list(m.source.beta_images),
                                   rows=m.source.target.ngens)
    new_cones = tuple(
        Cone(c.ambient_rank, tuple(sorted(u.apply(r) for r in c.rays)))
        for c in m.source.fan.maximal_cones)
    src = StackyFan(Fan(m.source.lattice_rank, new_cones), m.source.target,
                    tuple((src_b @ uinv).columns()))
    tgt_b = IntMatrix.from_columns(list(m.target.beta_images),
                                   rows=m.target.target.ngens)
    tgt = StackyFan(m.target.fan, free_group(w.rows),
                    tuple((w @ tgt_b).columns()))
    return StackyMorphism(src, tgt, m.Phi @ uinv,
                          FgAbHom(m.source.target, tgt.target,
                                  w @ m.phi.matrix))


def _drop_source_cone(m, rng):
    """Replace one maximal source cone of m by some of its proper faces.

    The source stays a fan and the morphism stays valid, but the target
    cones it mapped onto can lose their preimage: a deliberate condition-2
    failure, whose smallest failing cone need not be maximal.
    """
    cones = list(m.source.fan.maximal_cones)
    gone = cones.pop(rng.randrange(len(cones)))
    kept = [f for f in faces(gone)[:-1] if rng.random() < 0.4]
    fan = Fan(m.source.lattice_rank, tuple(maximal_among(cones + kept)))
    return StackyMorphism(StackyFan(fan, m.source.target, m.source.beta_images),
                          m.target, m.Phi, m.phi)


def _verdict_morphisms(rng, cases):
    """(kind, morphism) pairs for checking iso and gms-check verdicts.

    Kinds: twisted members of the pool; products of two or three (twisted)
    members; canonical morphisms of random fans (often singular or not
    simplicial, so condition 3 fails) with beta random or the identity;
    those with a source cone dropped, some of them twisted; and one random
    cone with random beta over the point, for the later gms-check
    conditions.
    """
    pool = _morphism_pool()
    point_sf = StackyFan(Fan(0, (Cone(0, ()),)), free_group(0), ())
    out = []
    while len(out) < cases:
        kind = rng.choice(("twist", "product", "canonical", "dropped", "to_point"))
        if kind == "to_point":
            sf = _random_polyhedral_stacky_fan(rng)
            sf = StackyFan(Fan(sf.lattice_rank, sf.fan.maximal_cones[-1:]), sf.target,
                           sf.beta_images)
            if not has_finite_cokernel(sf.beta):
                continue
            m = StackyMorphism(sf, point_sf, IntMatrix(0, sf.lattice_rank, ()),
                               FgAbHom(sf.target, free_group(0), IntMatrix(0, sf.target.ngens, ())))
        elif kind == "twist":
            m = _twist_morphism(rng.choice(pool), rng)
        elif kind == "product":
            m = rng.choice(pool)
            for _ in range(rng.randint(1, 2)):
                m = _product_morphism(m, rng.choice(pool))
            if rng.random() < 0.6:
                m = _twist_morphism(m, rng)
        else:
            sf = (_random_stacky_fan if rng.random() < 0.5 else _random_polyhedral_stacky_fan)(rng)
            if rng.random() < 0.4:
                n = sf.lattice_rank
                sf = StackyFan(sf.fan, free_group(n), tuple(IntMatrix.identity(n).columns()))
            if not has_finite_cokernel(sf.beta):
                continue
            m = canonical_stack(sf).morphism
            if kind == "dropped" and m.source.fan.maximal_cones:
                m = _drop_source_cone(m, rng)
            if not m.target.target.torsion and rng.random() < 0.5:
                m = _twist_morphism(m, rng)
        out.append((kind, m))
    return out


def suite_product_verdicts(cases=500, seed=505):
    rng = random.Random(seed)
    pool = _morphism_pool()
    failures = []
    for _ in range(cases):
        m1, m2 = rng.choice(pool), rng.choice(pool)
        if rng.random() < 0.6:
            m1 = _twist_morphism(m1, rng)
        if rng.random() < 0.6:
            m2 = _twist_morphism(m2, rng)
        prod = _product_morphism(m1, m2)
        for name, check in (("iso", is_isomorphism), ("gms", gms_check)):
            v1, v2, vp = (check(m).verdict for m in (m1, m2, prod))
            if vp != (v1 and v2):
                failures.append(
                    f"{name}: factors {v1}/{v2} but product {vp}")
    return failures


# ---------------------------------------------------------------------------
# 6. the moduli construction inverts the fantastack construction

def suite_gms_fantastack_roundtrip(cases=500, seed=606):
    rng = random.Random(seed)
    failures = []
    for _ in range(cases):
        built = None
        for _ in range(50):
            fan = _random_fan(rng, rng.choice((1, 2, 2)))
            rays = sorted({r for c in fan.maximal_cones for r in c.rays})
            if not rays:
                continue
            mults = [rng.randint(1, 3) for _ in rays]
            images = [tuple(k * x for x in r) for k, r in zip(mults, rays)]
            two_cones = [c for c in fan.maximal_cones if len(c.rays) == 2]
            if two_cones and rng.random() < 0.5:
                a, b = rng.choice(two_cones).rays
                images.append(tuple(x + y for x, y in zip(a, b)))
            mat = IntMatrix.from_columns(images, rows=fan.ambient_rank)
            if rank(mat) < fan.ambient_rank:
                continue
            try:
                built = fan, fantastack(fan, images)[0]
            except FantastackPreconditionViolated as e:
                failures.append(f"viable datum refused: {e.condition}")
            break
        if built is None:
            failures.append("generator starved")
            continue
        fan, sf = built
        res = gms_construct(sf)
        if not res.verdict:
            failures.append(f"no moduli space for fantastack of {fan}")
        elif res.gms_fan != fan:
            failures.append(f"expected {fan}, constructed {res.gms_fan}")
        elif not gms_check(res.morphism).verdict:
            failures.append(f"constructed morphism fails its own check: {fan}")
    return failures


# ---------------------------------------------------------------------------
# 7. cone monoid isomorphism against a Hilbert basis brute force

def _hilbert_basis(c):
    """Irreducible monoid elements; exact for pointed cones of rank <= 2."""
    if not c.rays:
        return []
    if len(c.rays) == 1:
        return [c.rays[0]]
    u, v = c.rays
    det = u[0] * v[1] - u[1] * v[0]
    xs = [0, u[0], v[0], u[0] + v[0]]
    ys = [0, u[1], v[1], u[1] + v[1]]
    pts = []
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            if (x, y) == (0, 0):
                continue
            s = Fraction(x * v[1] - y * v[0], det)
            t = Fraction(u[0] * y - u[1] * x, det)
            if 0 <= s <= 1 and 0 <= t <= 1:
                pts.append((x, y))
    basis = []
    for p in pts:
        reducible = False
        for q in pts:
            d = (p[0] - q[0], p[1] - q[1])
            if q != p and d != (0, 0) and cone_contains(c, d):
                reducible = True
                break
        if not reducible:
            basis.append(p)
    return basis


def _brute_monoid_iso(m, sigma, sigma_prime):
    span = saturate(IntMatrix.from_columns(list(sigma.rays),
                                           rows=sigma.ambient_rank))
    moved = m @ span
    if rank(moved) < span.cols:
        return False
    for h in _hilbert_basis(sigma_prime):
        y = solve_integer(moved, h)
        if y is None or not cone_contains(sigma, span.apply(y)):
            return False
    return True


def suite_monoid_iso_bruteforce(cases=500, seed=707):
    rng = random.Random(seed)
    failures = []
    done = 0
    while done < cases:
        sigma = _random_cone(rng, 2, max_gens=3, bound=5)
        style = rng.random()
        if style < 0.25:
            m = _random_unimodular(rng, 2)
        else:
            m = _rand_matrix(rng, 2, 2, bound=2)
        imgs = [m.apply(r) for r in sigma.rays]
        try:
            if style < 0.5:
                sigma_prime = canonicalize_cone(imgs, ambient_rank=2)
            elif style < 0.8:
                extra = [rng.randint(-3, 3) for _ in range(2)]
                sigma_prime = canonicalize_cone(imgs + [extra], ambient_rank=2)
            else:
                sigma_prime = sigma
        except NotStronglyConvex:
            continue
        if not all(cone_contains(sigma_prime, w) for w in imgs):
            try:
                monoid_iso_on_cone(m, sigma, sigma_prime)
                failures.append(
                    f"m={m.entries} {sigma.rays}->{sigma_prime.rays}: "
                    "missing precondition error")
            except PreconditionViolated:
                pass
            done += 1
            continue
        got = monoid_iso_on_cone(m, sigma, sigma_prime)
        want = _brute_monoid_iso(m, sigma, sigma_prime)
        if got != want:
            failures.append(
                f"m={m.entries} {sigma.rays}->{sigma_prime.rays}: "
                f"reported {got}, brute force says {want}")
        done += 1
    return failures


# ---------------------------------------------------------------------------
# 8. gerbe decomposition against one kernel lattice per zero coordinate

def _gerbe_per_coordinate(sf, zero_coordinates):
    """Reference gerbe_decomposition: for each zero coordinate i, the
    relations vanishing on the other zero coordinates, whose entries at i
    generate R ∩ Z e_i; split check, base and witnesses all read off those
    kernel lattices."""
    idx = _moduli_preconditions(sf)
    n = sf.lattice_rank
    zset = sorted(set(int(i) for i in zero_coordinates))
    for i in zset:
        if not 1 <= i <= n:
            raise ValueError(f"zero coordinate {i} outside 1..{n}")
    if not any(set(zset) <= s for s in idx):
        raise PreconditionViolated(
            "zero coordinates do not index a face of any maximal cone")
    comp = [i for i in range(1, n + 1) if i not in zset]
    dual_rows = IntMatrix.from_columns(list(sf.beta_images), rows=sf.target.ngens).entries

    def vanishing_sub(zero_at):
        """Row basis of {v in N^ : v_j = 0 for j in zero_at}."""
        if not zero_at:
            return IntMatrix.from_rows(dual_rows, cols=n)
        constraint = IntMatrix.from_rows(
            [[row[j - 1] for row in dual_rows] for j in zero_at])
        y = kernel_basis(constraint)
        rows = [tuple(sum(y.entries[k][c] * dual_rows[k][j] for k in range(len(dual_rows)))
                      for j in range(n))
                for c in range(y.cols)]
        return IntMatrix.from_rows(rows, cols=n)

    parts = []
    for i in zset:
        sub = vanishing_sub([z for z in zset if z != i])
        parts.append((i, sub, math.gcd(*(row[i - 1] for row in sub.entries))))
    if any(row[i - 1] % g if g else row[i - 1] for row in dual_rows for i, _, g in parts):
        raise PreconditionViolated(
            "the relations on the zero coordinates do not split by coordinate, "
            "so the band is not a product of one group per coordinate")

    base_dual = vanishing_sub(zset)
    mrank = base_dual.rows
    base_cols = [tuple(base_dual.entries[k][j - 1] for k in range(mrank)) for j in comp]
    kept_cones = set()
    compset = set(comp)
    reindex = {j: k for k, j in enumerate(comp)}
    for c in sf.fan.maximal_cones:
        ray_idx = {next(j for j, x in enumerate(r) if x != 0) + 1 for r in c.rays}
        inner = sorted(ray_idx & compset)
        rays = tuple(sorted(
            tuple(1 if k == reindex[j] else 0 for k in range(len(comp))) for j in inner))
        kept_cones.add(Cone(len(comp), rays))
    base_fan = Fan(len(comp), tuple(maximal_among(list(kept_cones))))
    base = StackyFan(base_fan, free_group(mrank), tuple(base_cols))
    restricted = IntMatrix.from_rows(
        [tuple(r[j - 1] for j in comp) for r in base_dual.entries], cols=len(comp))
    bg_m = 0
    roots = []
    for i, sub, g in parts:
        if g == 0:
            bg_m += 1
            continue
        vals = [row[i - 1] for row in sub.entries]
        y = solve_integer(IntMatrix.from_rows([vals]), [g])
        witness = tuple(sum(y[k] * sub.entries[k][j] for k in range(sub.rows))
                        for j in range(n))
        a = reduce_mod_row_lattice(tuple(witness[j - 1] for j in comp), restricted)
        roots.append(RootDatum(coordinate=i, order=g, exponents=tuple(-x for x in a)))
    return GerbeData(bg_m_rank=bg_m, roots=tuple(roots), base=base)


def _random_orthant_stacky_fan(rng):
    """Smooth orthant fan on Z^n, n <= 6, with beta onto a free target of
    rank <= n with finite cokernel, entries in [-4, 4]."""
    n = rng.randint(1, 6)
    unit = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
    cones = [Cone(n, tuple(sorted(unit[i] for i in range(n) if rng.random() < 0.6)))
             for _ in range(rng.randint(1, 3))]
    fan = Fan(n, tuple(maximal_among(cones)))
    r = rng.randint(0, n)
    while True:
        beta = _rand_matrix(rng, r, n, bound=4)
        if rank(beta) == r:
            return StackyFan(fan, free_group(r), tuple(beta.columns()))


def _gerbe_outcome(f, sf, zeros):
    try:
        return f(sf, zeros)
    except PreconditionViolated as e:
        return f"refused: {e}"


def suite_gerbe_reference(cases=600, seed=808):
    rng = random.Random(seed)
    failures = []
    done = 0
    while done < cases:
        sf = _random_orthant_stacky_fan(rng)
        face = sorted(rng.choice(_orthant_ray_indices(sf.fan)))
        if not face:
            continue
        zeros = rng.sample(face, rng.randint(1, min(4, len(face))))
        got = _gerbe_outcome(gerbe_decomposition, sf, zeros)
        want = _gerbe_outcome(_gerbe_per_coordinate, sf, zeros)
        if got != want:
            failures.append(f"{sf.beta_images} {sf.fan.maximal_cones} zeros {zeros}: "
                            f"got {got}, reference {want}")
        done += 1
    return failures


# ---------------------------------------------------------------------------
# references for the routes that now read one Smith form

def _split_torus_factor_solving(sf):
    """Reference split_torus_factor: saturate [B | Q], then solve for the
    coordinates of each relation and each image in that basis."""
    n = sf.target.ngens
    rel = sf.target.relations()
    w = saturate(IntMatrix.from_columns(list(sf.beta_images), rows=n).hstack(rel))
    inner = IntMatrix.from_columns([solve_integer(w, c) for c in rel.columns()], rows=w.cols)
    grp, proj = cokernel_presentation(inner)
    images = tuple(grp.reduce(proj.apply(solve_integer(w, v))) for v in sf.beta_images)
    return StackyFan(sf.fan, grp, images), sf.target.free_rank - grp.free_rank


def _canonical_phi_inverting(sf):
    """Reference lattice map of canonical_stack: the rays, then a complement
    of their saturated span from the inverse of that span's U."""
    ell = sf.lattice_rank
    rays = fan_rays(sf.fan)
    span = saturate(IntMatrix.from_columns(rays, rows=ell))
    complement = _unimodular_inverse(snf(span).U).columns()[span.cols:]
    return IntMatrix.from_columns(list(rays) + complement, rows=ell)


def _finite_kernel_mod_tau_lattice(m, tau):
    """Reference _finite_kernel_mod_tau: the rank of the kernel lattice of
    phi against that of beta on the saturated tau span plus the relations."""
    n = m.source.target.ngens
    tspan = saturate(IntMatrix.from_columns(list(tau.rays), rows=m.source.lattice_rank))
    moved = IntMatrix.from_columns(list(m.source.beta_images), rows=n) @ tspan
    return rank(_kernel_lattice(m.phi)) == rank(moved.hstack(m.source.target.relations()))


ALL_SUITES = (
    ("snf contracts", suite_snf_contracts),
    ("unstable cone routes", suite_unstable_routes),
    ("triangle exactness", suite_triangle_exactness),
    ("reduce invariance", suite_reduce_invariance),
    ("product verdicts", suite_product_verdicts),
    ("moduli of fantastacks", suite_gms_fantastack_roundtrip),
    ("monoid iso brute force", suite_monoid_iso_bruteforce),
    ("gerbe against per-coordinate kernels", suite_gerbe_reference),
)
