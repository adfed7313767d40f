"""Command-line front end.

Every command prints canonical text by default or a deterministic JSON
run report with --json.  Exit codes: 0 when all checks pass, 1 when a
check fails, 2 for malformed input of any kind (bad expression, bad
file, bad flag combination).

Every command ends in _emit, which builds the report: "command" is the
subcommand, "inputs" every parsed argument that is set (product-star
adds the copies it used as n, and rank, genus and delta), "outputs" the
command's results, "checks" and "passed" its Report, if it has one (for
transport, the map gate), and "corpus_version" that of the seeded case
generator.  The text prints the command's lines, then, when there is a
Report and no outputs, the Report's summary and pass or fail.

The argument parser is built on the first main() call and kept for the
rest of the process, so a program that calls main() many times builds
it once; importing the module builds nothing, nor imports argparse.
"""

from __future__ import annotations

import functools
import json
import sys
from math import factorial

from . import atlas, corpus, multi, transport
from .errors import InputError, StarkitError, load_json
from .moyal import StarProduct, verify_star_axioms
from .parsing import parse_expr, parse_poly, parse_scalar, poly_to_str, series_to_str
from .poisson import SymplecticForm, bivector_from_form
from .reports import Report

_BUILTIN_FORMS = {"omega0": 1, "omega0x2": 2, "omega0x3": 3}

# size limits, refused with exit 2 before anything is built: a series
# holds order + 1 coefficients, --count cases are all generated up front,
# a product space is a 2n x 2n exact set-up, and a dense form file of
# dimension d costs d^3 to invert and d^3 polynomial products in the
# verify-transport Jacobian congruence.  symmetrize writes each
# monomial's orbit, up to n! images when its n blocks all differ; past
# the copy limit, and for an input whose orbits together hold more than
# MAX_SYMMETRIZE_COPIES! images, it is refused before any orbit is built
MAX_ORDER = 1000
MAX_COUNT = 1000
MAX_COPIES = 64
MAX_SYMMETRIZE_COPIES = 9
MAX_FORM_DIM = 16


def _load_form(name: str) -> SymplecticForm:
    if name in _BUILTIN_FORMS:
        return SymplecticForm.standard(_BUILTIN_FORMS[name])
    rows = load_json(name)
    if not (isinstance(rows, list)
            and all(isinstance(row, list) for row in rows)
            and all(isinstance(entry, str) for row in rows for entry in row)):
        raise InputError("form file must be a JSON list of lists of "
                         "rational strings")
    if len(rows) > MAX_FORM_DIM:
        raise InputError(f"form dimension {len(rows)} is over the limit of "
                         f"{MAX_FORM_DIM}")
    return SymplecticForm([[parse_scalar(entry) for entry in row]
                           for row in rows])


def _product_names(copies: int):
    return tuple(f"{c}{i}" for i in range(1, copies + 1) for c in "qp")


def _emit(args, lines: list, outputs: dict | None = None,
          report: Report | None = None, **inputs) -> int:
    """Print the run report, as text or as JSON with --json, and return
    the exit code: 1 when the report failed, else 0.  The module
    docstring says where each field comes from."""
    payload = {"command": args.command,
               "inputs": {k: v for k, v in vars(args).items()
                          if k not in ("command", "func", "json")
                          and v is not None} | inputs}
    if outputs is not None:
        payload["outputs"] = outputs
    if report is not None:
        payload["checks"] = report.to_dict()
        payload["passed"] = report.passed
        if outputs is None:
            lines = [*lines, *report.summary_lines(),
                     "pass" if report.passed else "fail"]
    if args.json:
        payload["corpus_version"] = corpus.CORPUS_VERSION
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)
    return 0 if report is None or report.passed else 1


def cmd_star(args) -> int:
    form = _load_form(args.form)
    sp = StarProduct.from_form(form, args.order)
    F = parse_expr(args.f, form.dim, args.order)
    G = parse_expr(args.g, form.dim, args.order)
    text = series_to_str(sp.star_series(F, G))
    return _emit(args, [text], {"series": text})


def cmd_bracket(args) -> int:
    form = _load_form(args.form)
    f = parse_poly(args.f, form.dim)
    g = parse_poly(args.g, form.dim)
    text = poly_to_str(bivector_from_form(form).bracket(f, g))
    return _emit(args, [text], {"poly": text})


def cmd_verify_dq(args) -> int:
    form = _load_form(args.form)
    sp = StarProduct.from_form(form, args.order)
    triples = corpus.random_poly_triples(form.dim, args.count, 3, args.seed)
    return _emit(args, [], report=verify_star_axioms(sp, triples, args.order))


def cmd_surface_ingest(args) -> int:
    surface = atlas.ingest_polygon(atlas.PolygonGluing.from_file(args.surface))
    text = surface.summary()
    return _emit(args, [text], {
        "summary": text,
        "genus": surface.genus,
        "zero_orders": surface.zero_orders(),
        "vertex_classes": [list(c) for c in surface.vertex_classes],
        "charts": [c.name for c in surface.charts],
        "overlaps": [
            {"src": ov.src, "dst": ov.dst, "component": ov.component,
             "constant": str(ov.constant)}
            for ov in surface.overlaps
        ],
    })


def cmd_patch_check(args) -> int:
    surface = atlas.ingest_polygon(atlas.PolygonGluing.from_file(args.surface))
    report = Report("patching")
    report.extend(atlas.liouville_pullback_check(surface), prefix="form: ")
    report.extend(atlas.cocycle_check(surface), prefix="cocycle: ")
    for idx, ov in enumerate(surface.overlaps):
        pairs = corpus.random_poly_pairs(2, args.count, 3, args.seed + idx)
        for k, (f, g) in enumerate(pairs):
            sub = atlas.overlap_agreement_check(surface, ov, f, g, args.order)
            report.extend(sub, prefix=f"pair {k} ")
    return _emit(args, [], report=report)


def cmd_product_star(args) -> int:
    lines = []
    extra = {}
    copies = args.n
    if args.rank is not None or args.genus is not None:
        if args.rank is None or args.genus is None:
            raise StarkitError("--rank and --genus must be given together")
        delta = multi.moduli_copies(args.rank, args.genus)
        extra = {"rank": args.rank, "genus": args.genus, "delta": delta}
        lines.append(f"delta = {delta} (2*delta = {2 * delta} coordinates)")
        if copies is None:
            copies = delta
        elif copies != delta:
            raise StarkitError(
                f"--n {copies} conflicts with delta = {delta}")
    if copies is None:
        raise StarkitError("need --n or --rank/--genus")
    if copies > MAX_COPIES:
        raise InputError(f"{copies} copies is over the limit of {MAX_COPIES}")
    space = multi.ProductSpace(copies, args.order)
    F = parse_expr(args.f, space.dim, args.order)
    G = parse_expr(args.g, space.dim, args.order)
    text = series_to_str(space.star.star_series(F, G), _product_names(copies))
    lines.append(text)
    return _emit(args, lines, {"series": text, **extra}, n=copies, **extra)


def cmd_symmetrize(args) -> int:
    if args.n < 1:
        raise InputError("need at least one copy")
    if args.n > MAX_SYMMETRIZE_COPIES:
        raise InputError(f"symmetrize --n {args.n} is over the limit of "
                         f"{MAX_SYMMETRIZE_COPIES}")
    f = parse_poly(args.f, 2 * args.n)
    images, limit = multi.orbit_images(f), factorial(MAX_SYMMETRIZE_COPIES)
    if images > limit:
        raise InputError(f"symmetrize would write {images} orbit images, "
                         f"over the limit of {limit}")
    text = poly_to_str(multi.symmetrize(f), _product_names(args.n))
    return _emit(args, [text], {"poly": text})


def cmd_transport(args) -> int:
    form = _load_form(args.form)
    m = transport.SymplectoMap.from_file(args.map)
    sp = StarProduct.from_form(form, args.order)
    gate = transport.check_symplecto(m, form)
    if not gate.passed:
        return _emit(args, [], report=gate)
    f = parse_poly(args.f, form.dim)
    g = parse_poly(args.g, form.dim)
    text = series_to_str(transport.transported_star(m, sp, f, g, args.order,
                                                    verify=False))
    return _emit(args, [text], {"series": text}, gate)


def cmd_verify_transport(args) -> int:
    form = _load_form(args.form)
    m = transport.SymplectoMap.from_file(args.map)
    sp = StarProduct.from_form(form, args.order)
    report = Report("transport")
    report.extend(transport.check_symplecto(m, form), prefix="map: ")
    if report.passed:
        triples = corpus.random_poly_triples(form.dim, args.count, 3,
                                             args.seed)
        report.extend(transport.verify_transported_dq(m, sp, triples,
                                                      args.order))
    return _emit(args, [], report=report)


def build_parser() -> argparse.ArgumentParser:
    import argparse
    parser = argparse.ArgumentParser(
        prog="starkit",
        description="Exact star products: Moyal expansion, surface "
                    "patching, product spaces, transport.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, form=False, order=False, seed=False):
        if form:
            p.add_argument("--form", default="omega0",
                           help="built-in form name (omega0, omega0x2, "
                                "omega0x3) or a JSON matrix file")
        if order:
            p.add_argument("--order", type=int, default=8,
                           help="truncation order in h (default 8)")
        if seed:
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--count", type=int, default=5,
                           help="number of generated cases")
        p.add_argument("--json", action="store_true",
                       help="emit a JSON run report")

    p = sub.add_parser("star", help="star product of two expressions")
    common(p, form=True, order=True)
    p.add_argument("f")
    p.add_argument("g")
    p.set_defaults(func=cmd_star)

    p = sub.add_parser("bracket", help="Poisson bracket of two polynomials")
    common(p, form=True)
    p.add_argument("f")
    p.add_argument("g")
    p.set_defaults(func=cmd_bracket)

    p = sub.add_parser("verify-dq",
                       help="check the quantization axioms on seeded inputs")
    common(p, form=True, order=True, seed=True)
    p.set_defaults(func=cmd_verify_dq)

    p = sub.add_parser("surface-ingest",
                       help="read a polygon gluing and report its stratum")
    p.add_argument("surface", help="surface JSON file")
    common(p)
    p.set_defaults(func=cmd_surface_ingest)

    p = sub.add_parser("patch-check",
                       help="verify chart products agree on all overlaps")
    p.add_argument("--surface", required=True)
    common(p, order=True, seed=True)
    p.set_defaults(func=cmd_patch_check)

    p = sub.add_parser("product-star",
                       help="star product on n interleaved (q,p) pairs")
    p.add_argument("--n", type=int, default=None, help="number of copies")
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--genus", type=int, default=None)
    common(p, order=True)
    p.add_argument("f")
    p.add_argument("g")
    p.set_defaults(func=cmd_product_star)

    p = sub.add_parser("symmetrize",
                       help="average a polynomial over copy relabellings")
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.add_argument("f")
    p.set_defaults(func=cmd_symmetrize)

    p = sub.add_parser("transport",
                       help="star product transported along a map")
    p.add_argument("--map", required=True, help="map JSON file")
    common(p, form=True, order=True)
    p.add_argument("f")
    p.add_argument("g")
    p.set_defaults(func=cmd_transport)

    p = sub.add_parser("verify-transport",
                       help="axiom suite for a transported product")
    p.add_argument("--map", required=True, help="map JSON file")
    common(p, form=True, order=True, seed=True)
    p.set_defaults(func=cmd_verify_transport)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), once per process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if [] in vars(args).values():  # "star -- f --": argparse drops g
            raise InputError("an expression argument is missing")
        # commands taking --count run that many generated cases; none
        # would be a vacuous pass
        if getattr(args, "count", 1) < 1:
            raise InputError(f"--count must be at least 1, got {args.count}")
        if getattr(args, "count", 1) > MAX_COUNT:
            raise InputError(
                f"--count {args.count} is over the limit of {MAX_COUNT}")
        if getattr(args, "order", 0) > MAX_ORDER:
            raise InputError(
                f"--order {args.order} is over the limit of {MAX_ORDER}")
        return args.func(args)
    except (StarkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
