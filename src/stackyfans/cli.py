"""JSON-driven command line front end.

Every subcommand reads one JSON input file (``--input``), writes a report
to stdout or ``--output``, and exits 0 when a verdict was computed or
2 when the input was malformed (bad JSON, schema violations, broken
invariants, unmet preconditions).  ``--json`` switches the report to a
compact machine format with a documented key order, byte for byte
deterministic for equal inputs.

Input schemas
-------------

Stacky fan file::

    {"lattice_rank": 2,
     "fan": {"maximal_cones": [[[1, 0], [0, 1]]]},
     "target": {"rank": 2, "torsion": []},
     "beta_images": [[1, 0], [1, 2]]}

Cone entries list generating rays; the trivial fan on a point is
``{"maximal_cones": [[]]}``.  ``beta_images[i]`` gives beta(e_i) in
generator coordinates of the target (free part first, then one entry per
torsion invariant).

Morphism file::

    {"source": <stacky fan>, "target": <stacky fan>,
     "Phi_images": [[1], [-1]], "phi_images": [[1]]}

``Phi_images`` are the images of the source fan-lattice basis vectors,
``phi_images`` the images of the source target-group generators.

Fan datum file (``fantastack`` and ``cox``)::

    {"lattice_rank": 2,
     "fan": {"maximal_cones": [[[1, 0], [1, 2]]]},
     "beta_images": [[1, 0], [1, 2]]}

Here the fan lives on N = Z^lattice_rank itself and ``beta_images`` lists
the prospective images (omitted for ``cox``).

Every rank field (``lattice_rank``, and ``rank`` of a target) lies in
0..``MAX_RANK``; any other is refused as malformed before anything is built,
since the commands build structures with one entry per coordinate.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from typing import Any, Sequence

from .constructions import (
    FantastackPreconditionViolated,
    canonical_stack,
    cox_presentation,
    fantastack,
    gerbe_decomposition,
    gms_check,
    gms_construct,
    is_isomorphism,
    moduli_description,
)
from .fgab import FgAbGroup, FgAbHom, MalformedHom, group_name
from .polyhedral import (
    Cone,
    Fan,
    NotStronglyConvex,
    PreconditionViolated,
    _size_order,
    canonicalize_cone,
    faces,
    is_unstable,
    maximal_unstable_cones,
    validate_fan,
)
from .stacky import (
    NotSubfanOfAffineSpace,
    QuotientPresentation,
    StackyFan,
    StackyMorphism,
    gbeta,
    present_quotient,
    reduce_nonstrict,
    split_torus_factor,
    validate_morphism,
    validate_stacky_fan,
)
from .zlinalg import IntMatrix


# The largest rank field accepted.  Even the cheapest commands grow
# cubically in the rank: cox on the zero cone takes about 0.08 s at rank 100
# and 0.9 s at rank 256 on a 2-vCPU x86_64 host, nearly all of it the
# product of beta with the lattice map Phi.
MAX_RANK = 256


class InputError(Exception):
    """Malformed input; message names file, field, and broken invariant."""


class UnsupportedRank(Exception):
    """Raised by the renderer for fans away from rank two."""


def _want(doc: Any, field: str, kind: type, where: str):
    if not isinstance(doc, dict):
        raise InputError(f"{where}: expected an object")
    if field not in doc:
        raise InputError(f"{where}: missing field '{field}'")
    val = doc[field]
    if kind is int:
        if not isinstance(val, int) or isinstance(val, bool):
            raise InputError(f"{where}: field '{field}' must be an integer")
    elif not isinstance(val, kind):
        raise InputError(f"{where}: field '{field}' must be a {kind.__name__}")
    return val


def _rank_field(doc: Any, field: str, where: str) -> int:
    val = _want(doc, field, int, where)
    if val < 0:
        raise InputError(f"{where}: field '{field}' must be nonnegative")
    if val > MAX_RANK:
        raise InputError(f"{where}: field '{field}' exceeds the limit {MAX_RANK}")
    return val


def _int_vector(val: Any, length: int, where: str) -> tuple[int, ...]:
    if not isinstance(val, list) or len(val) != length or any(
            not isinstance(x, int) or isinstance(x, bool) for x in val):
        raise InputError(f"{where}: expected a list of {length} integers")
    return tuple(val)


def _load_fan(doc: Any, rank: int, where: str) -> Fan:
    cones_doc = _want(doc, "maximal_cones", list, where)
    cones = []
    for i, rays in enumerate(cones_doc):
        spot = f"{where}.maximal_cones[{i}]"
        if not isinstance(rays, list):
            raise InputError(f"{spot}: expected a list of rays")
        gens = [_int_vector(r, rank, spot) for r in rays]
        try:
            cones.append(canonicalize_cone(gens, ambient_rank=rank))
        except NotStronglyConvex as e:
            raise InputError(f"{spot}: {e}")
    return Fan(rank, tuple(cones))


def _load_target(doc: Any, where: str) -> FgAbGroup:
    rank = _rank_field(doc, "rank", where)
    torsion = _want(doc, "torsion", list, where)
    if any(not isinstance(x, int) or isinstance(x, bool) for x in torsion):
        raise InputError(f"{where}: field 'torsion' must list integers")
    try:
        return FgAbGroup(rank, tuple(torsion))
    except ValueError as e:
        raise InputError(f"{where}: {e}")


def _load_stacky_fan(doc: Any, where: str, check_fan: bool = True) -> StackyFan:
    rank = _rank_field(doc, "lattice_rank", where)
    fan = _load_fan(_want(doc, "fan", dict, where), rank, f"{where}.fan")
    target = _load_target(_want(doc, "target", dict, where), f"{where}.target")
    images_doc = _want(doc, "beta_images", list, where)
    images = [_int_vector(v, target.ngens, f"{where}.beta_images[{i}]")
              for i, v in enumerate(images_doc)]
    try:
        sf = StackyFan(fan, target, tuple(images))
    except ValueError as e:
        raise InputError(f"{where}: {e}")
    if check_fan:
        diag = validate_fan(fan)
        if not diag.valid:
            raise InputError(f"{where}.fan: " + "; ".join(diag.problems))
    return sf


def _load_morphism(doc: Any, where: str) -> StackyMorphism:
    source = _load_stacky_fan(_want(doc, "source", dict, where), f"{where}.source")
    target = _load_stacky_fan(_want(doc, "target", dict, where), f"{where}.target")
    phi_imgs_doc = _want(doc, "Phi_images", list, where)
    if len(phi_imgs_doc) != source.lattice_rank:
        raise InputError(
            f"{where}: Phi_images needs {source.lattice_rank} vectors")
    phi_cols = [_int_vector(v, target.lattice_rank, f"{where}.Phi_images[{i}]")
                for i, v in enumerate(phi_imgs_doc)]
    small_doc = _want(doc, "phi_images", list, where)
    if len(small_doc) != source.target.ngens:
        raise InputError(
            f"{where}: phi_images needs {source.target.ngens} vectors")
    small_cols = [_int_vector(v, target.target.ngens, f"{where}.phi_images[{i}]")
                  for i, v in enumerate(small_doc)]
    try:
        phi = FgAbHom(source.target, target.target,
                      IntMatrix.from_columns(small_cols, rows=target.target.ngens))
    except MalformedHom as e:
        raise InputError(f"{where}.phi_images: {e}")
    mor = StackyMorphism(
        source, target,
        IntMatrix.from_columns(phi_cols, rows=target.lattice_rank), phi)
    diag = validate_morphism(mor)
    if not diag.valid:
        raise InputError(f"{where}: " + "; ".join(diag.problems))
    return mor


def _load_fan_datum(doc: Any, where: str, need_images: bool):
    rank = _rank_field(doc, "lattice_rank", where)
    fan = _load_fan(_want(doc, "fan", dict, where), rank, f"{where}.fan")
    diag = validate_fan(fan)
    if not diag.valid:
        raise InputError(f"{where}.fan: " + "; ".join(diag.problems))
    if not need_images:
        return fan, None
    images_doc = _want(doc, "beta_images", list, where)
    images = [_int_vector(v, rank, f"{where}.beta_images[{i}]")
              for i, v in enumerate(images_doc)]
    return fan, images


# ---------------------------------------------------------------------------
# report shaping

def _cone_json(c: Cone) -> list:
    return [list(r) for r in c.rays]


def _fan_json(fan: Fan) -> dict:
    return {"maximal_cones": [_cone_json(c) for c in fan.maximal_cones]}


def _group_json(g: FgAbGroup) -> dict:
    return {"free_rank": g.free_rank, "torsion": list(g.torsion)}


def _sf_json(sf: StackyFan) -> dict:
    return {
        "lattice_rank": sf.lattice_rank,
        "fan": _fan_json(sf.fan),
        "target": {"rank": sf.target.free_rank, "torsion": list(sf.target.torsion)},
        "beta_images": [list(v) for v in sf.beta_images],
    }


def _weights_json(w: IntMatrix) -> list:
    return [list(w.column(j)) for j in range(w.cols)]


def _pres_json(pres: QuotientPresentation) -> dict:
    return {
        "ambient_dim": pres.ambient_dim,
        "removed_locus": [list(s) for s in pres.removed_locus],
        "group": _group_json(pres.group),
        "weights": _weights_json(pres.weights),
        "fixed_coordinates": list(pres.fixed_coordinates),
        "g0_rank": pres.g0_rank,
        "text": pres.describe(),
    }


def _sf_text(sf: StackyFan) -> list[str]:
    lines = [f"lattice rank {sf.lattice_rank}, target Z^{sf.target.free_rank}"
             + "".join(f" + Z/{d}" for d in sf.target.torsion)]
    for c in sf.fan.maximal_cones:
        lines.append("  cone " + (" ".join(str(list(r)) for r in c.rays) or "{0}"))
    lines.append("  beta: " + (", ".join(str(list(v)) for v in sf.beta_images) or "(nothing)"))
    return lines


# ---------------------------------------------------------------------------
# rendering

_VIEW = 420
_HALF = _VIEW // 2
_SPAN = 180


def _fmt(x) -> str:
    """A fraction rounded to two decimals, halves up."""
    n = x.numerator * 100
    d = x.denominator
    q = n // d
    if 2 * (n - q * d) >= d:
        q += 1
    sign = "-" if q < 0 else ""
    q = abs(q)
    return f"{sign}{q // 100}.{q % 100:02d}"


def render_fan_svg(sf: StackyFan) -> str:
    """Deterministic SVG picture of a rank-two stacky fan.

    Two-dimensional cones are shaded as triangles toward the window edge,
    rays become arrows, and when the target is free of rank two the beta
    images are drawn as numbered dots at their lattice positions.
    """
    # imported here: fractions pulls in decimal, which no other command needs
    from fractions import Fraction

    if sf.lattice_rank != 2:
        raise UnsupportedRank(
            f"can only render fans on a rank 2 lattice, got rank {sf.lattice_rank}")
    show_dots = sf.target.free_rank == 2 and not sf.target.torsion
    dots = list(sf.beta_images) if show_dots else []
    reach = 1
    for c in sf.fan.maximal_cones:
        for r in c.rays:
            reach = max(reach, abs(r[0]), abs(r[1]))
    for v in dots:
        reach = max(reach, abs(v[0]), abs(v[1]))
    window = Fraction(reach)

    def clip(r):
        t = window / max(abs(r[0]), abs(r[1]))
        return (t * r[0], t * r[1])

    def px(p) -> str:
        x = _HALF + Fraction(_SPAN) * Fraction(p[0]) / window
        y = _HALF - Fraction(_SPAN) * Fraction(p[1]) / window
        return f"{_fmt(x)},{_fmt(y)}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_VIEW} {_VIEW}">',
        f'<rect width="{_VIEW}" height="{_VIEW}" fill="white"/>',
    ]
    for c in sf.fan.maximal_cones:
        if len(c.rays) == 2:
            a, b = c.rays
            pts = " ".join([px((0, 0)), px(clip(a)), px(clip(b))])
            parts.append(f'<polygon points="{pts}" fill="#ccd9ee" stroke="none"/>')
    rays = sorted({r for c in sf.fan.maximal_cones for r in c.rays})
    for r in rays:
        tip = clip(r)
        parts.append(
            f'<line x1="{_HALF}" y1="{_HALF}" '
            f'x2="{px(tip).split(",")[0]}" y2="{px(tip).split(",")[1]}" '
            f'stroke="#223" stroke-width="2"/>')
        back = (tip[0] * Fraction(9, 10), tip[1] * Fraction(9, 10))
        perp = (-tip[1] * Fraction(1, 25), tip[0] * Fraction(1, 25))
        head = " ".join([
            px(tip),
            px((back[0] + perp[0], back[1] + perp[1])),
            px((back[0] - perp[0], back[1] - perp[1])),
        ])
        parts.append(f'<polygon points="{head}" fill="#223"/>')
    for i, v in enumerate(dots):
        cx, cy = px(v).split(",")
        parts.append(f'<circle cx="{cx}" cy="{cy}" r="4" fill="#b3322d"/>')
        lx = _fmt(Fraction(cx) + 6)
        ly = _fmt(Fraction(cy) - 6)
        parts.append(
            f'<text x="{lx}" y="{ly}" font-size="13" '
            f'font-family="sans-serif" fill="#b3322d">{i + 1}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# commands

def _cmd_validate(doc, args):
    where = args.input
    if isinstance(doc, dict) and "Phi_images" in doc:
        try:
            _load_morphism(doc, where)
            report = {"valid": True, "problems": []}
        except InputError as e:
            report = {"valid": False, "problems": [str(e)]}
        text = ["morphism valid" if report["valid"] else "morphism invalid"]
        text += ["  " + p for p in report["problems"]]
        return report, text
    sf = _load_stacky_fan(doc, where, check_fan=False)
    diag = validate_stacky_fan(sf)
    report = {"valid": diag.valid, "strict": diag.strict,
              "problems": list(diag.problems)}
    text = [("valid" if diag.valid else "invalid")
            + (", strict" if diag.strict else ", not strict")]
    text += ["  " + p for p in diag.problems]
    return report, text


def _cmd_gbeta(doc, args):
    sf = _load_stacky_fan(doc, args.input)
    mc = gbeta(sf)
    report = {
        "g0_rank": mc.g0_rank,
        "group": _group_json(mc.g1.group),
        "weights": _weights_json(mc.g1.weights),
    }
    cols = ", ".join(str(list(c)) for c in _weights_json(mc.g1.weights))
    text = [f"G_beta = {group_name(mc.g0_rank, mc.g1.group)}",
            f"weights by coordinate: {cols or '(none)'}"]
    return report, text


def _cmd_present(doc, args):
    sf = _load_stacky_fan(doc, args.input)
    pres = present_quotient(sf, fixed_coordinates=args.zeros or ())
    return _pres_json(pres), [pres.describe()]


def _cmd_fantastack(doc, args):
    fan, images = _load_fan_datum(doc, args.input, need_images=True)
    sf, pres = fantastack(fan, images)
    report = {"stacky_fan": _sf_json(sf), "presentation": _pres_json(pres)}
    return report, _sf_text(sf) + [pres.describe()]


def _cmd_canonical(doc, args):
    sf = _load_stacky_fan(doc, args.input)
    res = canonical_stack(sf)
    report = {
        "stacky_fan": _sf_json(res.canonical_sf),
        "Phi_images": [list(c) for c in res.morphism.Phi.columns()],
        "phi_images": [list(c) for c in res.morphism.phi.matrix.columns()],
    }
    return report, _sf_text(res.canonical_sf)


def _cmd_cox(doc, args):
    fan, _ = _load_fan_datum(doc, args.input, need_images=False)
    sf = cox_presentation(fan)
    return {"stacky_fan": _sf_json(sf)}, _sf_text(sf)


def _cmd_unstable(doc, args):
    sf = _load_stacky_fan(doc, args.input)
    beta = sf.beta
    maximal = maximal_unstable_cones(sf.fan, beta)
    # every unstable cone is a face of a maximal one
    unstable = sorted({f for c in maximal for f in faces(c) if is_unstable(f, beta)},
                      key=lambda c: _size_order(c.rays))
    tau = maximal[0] if len(maximal) == 1 else None
    report = {
        "unstable_cones": [_cone_json(c) for c in unstable],
        "unique_maximal": tau is not None,
        "tau": _cone_json(tau) if tau is not None else None,
    }
    text = [f"{len(unstable)} unstable cones"]
    text.append("tau = " + (str(_cone_json(tau)) if tau else "(no unique maximal)"))
    return report, text


def _cmd_iso(doc, args):
    mor = _load_morphism(doc, args.input)
    res = is_isomorphism(mor)
    report = {
        "verdict": res.verdict,
        "failing_condition": res.failing_condition,
        "witness_cone": _cone_json(res.witness_cone) if res.witness_cone else None,
    }
    text = ["isomorphism" if res.verdict else
            f"not an isomorphism (condition {res.failing_condition})"]
    if res.witness_cone is not None:
        text.append(f"witness cone {_cone_json(res.witness_cone)}")
    return report, text


def _cmd_gms_check(doc, args):
    mor = _load_morphism(doc, args.input)
    res = gms_check(mor)
    report = {
        "verdict": res.verdict,
        "failing_condition": res.failing_condition,
        "tau": _cone_json(res.tau) if res.tau is not None else None,
    }
    text = ["verdict yes" if res.verdict else
            f"verdict no, failing condition {res.failing_condition}"]
    return report, text


def _cmd_gms(doc, args):
    sf = _load_stacky_fan(doc, args.input)
    res = gms_construct(sf)
    report = {
        "verdict": res.verdict,
        "failing_condition": res.failing_condition,
        "tau": _cone_json(res.tau) if res.tau is not None else None,
        "gms": ({"lattice_rank": res.gms_fan.ambient_rank,
                 "maximal_cones": [_cone_json(c) for c in res.gms_fan.maximal_cones]}
                if res.gms_fan is not None else None),
        "Phi_images": ([list(c) for c in res.morphism.Phi.columns()]
                       if res.morphism is not None else None),
        "phi_images": ([list(c) for c in res.morphism.phi.matrix.columns()]
                       if res.morphism is not None else None),
    }
    if res.verdict:
        text = ["verdict yes",
                f"good moduli space fan on Z^{res.gms_fan.ambient_rank}: "
                + "; ".join(str(_cone_json(c)) for c in res.gms_fan.maximal_cones)]
    else:
        text = [f"verdict no, failing condition {res.failing_condition}"]
    return report, text


def _cmd_moduli(doc, args):
    sf = _load_stacky_fan(doc, args.input)
    md = moduli_description(sf, forced_zero=args.zeros or ())
    report = {
        "ambient_dim": md.ambient_dim,
        "linear_relations": [list(r) for r in md.linear_relations],
        "intersection_relations": [list(s) for s in md.intersection_relations],
        "forced_zero_sections": list(md.forced_zero_sections),
    }
    text = [f"{md.ambient_dim} sections"]
    for r in md.linear_relations:
        text.append("degree relation " + str(list(r)))
    for s in md.intersection_relations:
        text.append("never all zero: "
                    + (", ".join(f"x{i}" for i in s) or "(empty set, so no point exists)"))
    for i in md.forced_zero_sections:
        text.append(f"x{i} = 0")
    return report, text


def _cmd_reduce(doc, args):
    sf = _load_stacky_fan(doc, args.input)
    out, coords = reduce_nonstrict(sf)
    report = {"stacky_fan": _sf_json(out), "substack_coordinates": list(coords)}
    return report, _sf_text(out) + [
        "substack coordinates: " + (", ".join(map(str, coords)) or "(none)")]


def _cmd_split(doc, args):
    sf = _load_stacky_fan(doc, args.input)
    out, k = split_torus_factor(sf)
    report = {"stacky_fan": _sf_json(out), "bg_m_rank": k}
    return report, _sf_text(out) + [f"split off B G_m rank {k}"]


def _cmd_gerbe(doc, args):
    sf = _load_stacky_fan(doc, args.input)
    if not args.zeros:
        raise InputError(f"{args.input}: gerbe needs --zeros with 1-based coordinates")
    gd = gerbe_decomposition(sf, args.zeros)
    report = {
        "bg_m_rank": gd.bg_m_rank,
        "roots": [{"coordinate": r.coordinate, "order": r.order,
                   "exponents": list(r.exponents)} for r in gd.roots],
        "base": _sf_json(gd.base),
    }
    text = [f"B G_m factors: {gd.bg_m_rank}"]
    for r in gd.roots:
        text.append(
            f"coordinate {r.coordinate}: {r.order}-th root of bundle with "
            f"exponents {list(r.exponents)}")
    text += ["base:"] + _sf_text(gd.base)
    return report, text


def _cmd_render(doc, args):
    sf = _load_stacky_fan(doc, args.input)
    svg = render_fan_svg(sf)
    return None, [svg.rstrip("\n")]


_COMMANDS = {
    "validate": (_cmd_validate, "check a stacky fan or morphism file"),
    "gbeta": (_cmd_gbeta, "diagonalized group of the quotient presentation"),
    "present": (_cmd_present, "quotient presentation of an orthant-supported fan"),
    "fantastack": (_cmd_fantastack, "stacky fan over a marked fan on N"),
    "canonical": (_cmd_canonical, "canonical stack over a stacky fan"),
    "cox": (_cmd_cox, "Cox quotient datum of a fan"),
    "unstable": (_cmd_unstable, "unstable cones and their maximal element"),
    "iso": (_cmd_iso, "decide isomorphism of stacks"),
    "gms-check": (_cmd_gms_check, "check a morphism for the good moduli space property"),
    "gms": (_cmd_gms, "construct the candidate good moduli space"),
    "moduli": (_cmd_moduli, "functor-of-points reading"),
    "reduce": (_cmd_reduce, "replace a torsion target by its free cover"),
    "split": (_cmd_split, "split off the torus factor of the target"),
    "gerbe": (_cmd_gerbe, "root-gerbe decomposition along zero coordinates"),
    "render": (_cmd_render, "SVG picture of a rank 2 fan"),
}


@cache
def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="stackyfans")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--input", required=True)
        sp.add_argument("--json", action="store_true")
        sp.add_argument("--output")
        if name in ("present", "moduli", "gerbe"):
            sp.add_argument("--zeros", type=_zeros_arg, default=None)
    return p


def _zeros_arg(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in raw.split(",") if x.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma separated integers")


def run_command(argv: Sequence[str]) -> int:
    try:
        args = _parser().parse_args(list(argv))
    except SystemExit as e:
        return int(e.code or 0)
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError) as e:
        print(f"{args.input}: cannot read input: {e}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, RecursionError) as e:
        print(f"{args.input}: invalid JSON: {e}", file=sys.stderr)
        return 2
    if not hasattr(args, "zeros"):
        args.zeros = None
    handler = _COMMANDS[args.command][0]
    try:
        report, text = handler(doc, args)
    except InputError as e:
        print(str(e), file=sys.stderr)
        return 2
    except (MalformedHom, NotStronglyConvex, NotSubfanOfAffineSpace,
            PreconditionViolated, UnsupportedRank,
            FantastackPreconditionViolated, ValueError) as e:
        print(f"{args.input}: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    if args.json:
        if report is None:
            print(f"{args.input}: this command has no JSON report", file=sys.stderr)
            return 2
        out = json.dumps(report, separators=(",", ":")) + "\n"
    else:
        out = "\n".join(text) + "\n"
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(out)
        except OSError as e:
            print(f"{args.output}: cannot write output: {e}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(out)
    return 0


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
