"""Command-line interface.

Exit codes: 0 success, 2 parse/usage error, 3 well-formed input that the
geometry rejects (empty or unpointed region, a cut that misses the interior,
a blow-up point that is not a vertex, a chop that reaches another vertex or
cuts off an unbounded end, or a polyhedron without interior to cut, chop or
take the normal fan of), or a failed report check.  Every error is one
stderr line, ``error: <command>: <message>``, usage errors included; a usage
error before the command reads ``error: quasitoric: <message>``, and an
empty or unpointed stdin region, or one of more than 32 half-planes or
vertices plus rays (exit 2), ``error: <command>: stdin polyhedron:
<message>``, one of more than 32 vectors ``error: gale-dual: stdin vector
configuration: <message>`` (exit 2), and stdin that is not JSON ``error:
<command>: stdin JSON: <message>``.  A ``--`` before the command ends the
options, as usual.  All output is deterministic: JSON uses sorted keys and
fixed separators.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys

from .cut import AmountTooLargeError, NoOpCutError, blowup_corner, cut_polyhedron
from .foliation import classify_leaves
from .gale import augment_ghosts, gale_points, is_balanced, relation_basis, relations_odd
from .jsonio import (
    fan_to_json,
    group_to_json,
    leaf_report_to_json,
    matrix_to_json,
    point_config_to_json,
    polyhedron_from_json,
    polyhedron_to_json,
    cut_result_to_json,
    TooLargeError,
    vec_to_json,
    vector_config_from_json,
    vector_config_to_json,
)
from .pipeline import PipelineInconsistency, build_report, gale_side, trapezoid
from .fan import NonSimpleError, normal_fan
from .polyhedron import InfeasibleRegionError, NotPointedError
from .quasilattice import hirzebruch_quasilattice, z2
from .scalar import ParamSpec, parse_scalar


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _read_stdin():
    """The JSON on stdin; a syntax error, or nesting deeper than
    ``json.load`` can recurse, names this stage with the parser's message."""
    try:
        return json.load(sys.stdin)
    except (json.JSONDecodeError, RecursionError) as e:
        raise ValueError(f"stdin JSON: {e}") from None


def _from_stdin(parse, stage: str):
    """``parse`` of the JSON on stdin; an empty, unpointed or too large input names ``stage``."""
    try:
        return parse(_read_stdin())
    except (InfeasibleRegionError, NotPointedError, TooLargeError) as e:
        raise type(e)(f"{stage}: {e}") from None


def _param(text: str) -> ParamSpec:
    return ParamSpec(parse_scalar(text))


def _write_svg(directory: str, name: str, figure):
    """Write ``figure(svg)``: only drawing imports the ``svg`` module."""
    from . import svg
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, name), "w") as f:
        f.write(figure(svg))


def cmd_report(args) -> int:
    a = _param(args.a)
    doc = build_report(a)
    sys.stdout.write(_dump(doc.to_json()))
    if args.svg_dir:
        _write_svg(args.svg_dir, "polytope.svg", lambda svg: svg.polytope_figure(doc.polytope, doc.fan))
        g = doc.gale
        _write_svg(args.svg_dir, "chamber.svg",
                   lambda svg: svg.chamber_figure(g.gale_points, g.chamber, g.witness))
    return 0


def cmd_normal_fan(args) -> int:
    if args.a is not None:
        p = trapezoid(_param(args.a))
    else:
        p = _from_stdin(polyhedron_from_json, "stdin polyhedron")
    fan = normal_fan(p)
    sys.stdout.write(_dump(fan_to_json(fan)))
    if args.svg_dir:
        _write_svg(args.svg_dir, "fan.svg", lambda svg: svg.polytope_figure(p, fan))
    return 0


def cmd_gale_dual(args) -> int:
    if args.a is not None:
        a = _param(args.a)
        g = gale_side(normal_fan(trapezoid(a)))
        vc, rows, lam = g.vector_config, g.relation_matrix, g.gale_points
    else:
        vc = augment_ghosts(_from_stdin(vector_config_from_json, "stdin vector configuration"))
        rows = relation_basis(vc)
        lam = gale_points(rows)
    out = {
        "vector_config": vector_config_to_json(vc),
        "balanced": is_balanced(vc),
        "odd": relations_odd(rows),
        "relation_matrix": matrix_to_json(rows),
        "gale_points": point_config_to_json(lam),
    }
    if args.a is not None:
        out["polytopal"] = g.polytopal
        out["witness"] = vec_to_json(g.witness) if g.witness else None
        if args.svg_dir:
            _write_svg(args.svg_dir, "chamber.svg", lambda svg: svg.chamber_figure(lam, g.chamber, g.witness))
    sys.stdout.write(_dump(out))
    return 0


def cmd_cut(args) -> int:
    p = _from_stdin(polyhedron_from_json, "stdin polyhedron")
    nu = (parse_scalar(args.nu_x), parse_scalar(args.nu_y))
    c = parse_scalar(args.level)
    q = hirzebruch_quasilattice(_param(args.a)) if args.a is not None else z2()
    result = cut_polyhedron(p, q, nu, c)
    out = cut_result_to_json(result)
    out["kept_piece"], out["gamma"] = polyhedron_to_json(result.kept_piece), group_to_json(result.gamma)
    sys.stdout.write(_dump(out))
    if args.svg_dir:
        _write_svg(args.svg_dir, "cut.svg", lambda svg: svg.polytope_figure(p, cut_line=result.reduced_face))
    return 0


def cmd_blowup(args) -> int:
    p = _from_stdin(polyhedron_from_json, "stdin polyhedron")
    vertex = (parse_scalar(args.vx), parse_scalar(args.vy))
    nu = (parse_scalar(args.nu_x), parse_scalar(args.nu_y))
    out = blowup_corner(p, vertex, nu, parse_scalar(args.amount))
    sys.stdout.write(_dump(polyhedron_to_json(out)))
    if args.svg_dir:
        _write_svg(args.svg_dir, "blowup.svg", lambda svg: svg.polytope_figure(out))
    return 0


def cmd_classify_leaves(args) -> int:
    report = classify_leaves(hirzebruch_quasilattice(_param(args.a)).quotient(z2()))
    sys.stdout.write(_dump(leaf_report_to_json(report)))
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors end in one 'error:' line and exit 2, like every other
    bad input; subparsers inherit the class.  The line names the command as
    a run error does (a subparser's prog is 'quasitoric <command>'), or
    'quasitoric' when there is none."""

    def error(self, message):
        self.exit(2, f"error: {self.prog.split()[-1]}: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built once per process: ``parse_args`` leaves
    it unchanged, and ``prog`` is fixed, so every call reads the same."""
    parser = _Parser(
        prog="quasitoric",
        description="Generalized Hirzebruch surfaces: polytopes, Gale duals, "
        "cuts, and foliations with exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("report", help="full pipeline report for a parameter a")
    p.add_argument("a", help="parameter, e.g. '2', '3/2', 'sqrt(2)', '1+sqrt(2)'")
    p.add_argument("--svg-dir", default=None)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("normal-fan", help="normal fan of the trapezoid P_a or of a JSON polyhedron on stdin")
    p.add_argument("--a", default=None)
    p.add_argument("--svg-dir", default=None)
    p.set_defaults(func=cmd_normal_fan)

    p = sub.add_parser("gale-dual", help="relation matrix and dual points for V_a or a JSON config on stdin")
    p.add_argument("--a", default=None)
    p.add_argument("--svg-dir", default=None)
    p.set_defaults(func=cmd_gale_dual)

    p = sub.add_parser("cut", help="cut a JSON polyhedron (stdin) along <mu,nu> = level")
    p.add_argument("nu_x")
    p.add_argument("nu_y")
    p.add_argument("level")
    p.add_argument("--a", default=None, help="tag the quasilattice Q_a instead of Z^2")
    p.add_argument("--svg-dir", default=None)
    p.set_defaults(func=cmd_cut)

    p = sub.add_parser("blowup", help="chop the corner of a JSON polyhedron (stdin)")
    p.add_argument("vx")
    p.add_argument("vy")
    p.add_argument("nu_x")
    p.add_argument("nu_y")
    p.add_argument("amount")
    p.add_argument("--svg-dir", default=None)
    p.set_defaults(func=cmd_blowup)

    p = sub.add_parser("classify-leaves", help="leaf classification of the foliation for a")
    p.add_argument("a")
    p.set_defaults(func=cmd_classify_leaves)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    # help is the only option before the command; argparse would set any
    # other aside and read the word after it as the command
    flags = list(itertools.takewhile(lambda t: t.startswith("-") and t != "--", argv))
    unknown = [t for t in flags if not (t == "-h" or len(t) > 2 and "--help".startswith(t))]
    rest = argv[len(flags):]
    try:
        if unknown:
            parser.error(f"unrecognized arguments: {' '.join(unknown)}")
        # '--' only ends the options, but argparse would take it for the command
        if rest[:1] == ["--"]:
            if rest[1:2] and rest[1].startswith("-"):
                parser.error(f"argument command: invalid choice: {rest[1]!r}")
            argv = flags + rest[1:]
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except (PipelineInconsistency, InfeasibleRegionError, NotPointedError, NoOpCutError,
            AmountTooLargeError, NonSimpleError) as e:
        print(f"error: {args.command}: {e}", file=sys.stderr)
        return 3
    except (ValueError, KeyError) as e:
        print(f"error: {args.command}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
