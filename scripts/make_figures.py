#!/usr/bin/env python3
"""Render SVG figures for a list of parameters: the trapezoid with its normal
fan, the Gale-dual chamber with the polytopality witness, and the cut strip.

Usage: python scripts/make_figures.py [out_dir] [a1 a2 ...]
"""

import pathlib
import sys

from quasitoric.pipeline import build_report, strip
from quasitoric.scalar import ParamSpec, parse_scalar
from quasitoric.svg import chamber_figure, polytope_figure

DEFAULT_PARAMS = ["2", "3/2", "sqrt(2)"]


def main(argv):
    out_dir = pathlib.Path(argv[1]) if len(argv) > 1 else pathlib.Path("figures")
    texts = argv[2:] or DEFAULT_PARAMS
    out_dir.mkdir(parents=True, exist_ok=True)
    for text in texts:
        a = ParamSpec(parse_scalar(text))
        doc = build_report(a)
        safe = text.replace("/", "_").replace("(", "").replace(")", "").replace("*", "")
        (out_dir / f"polytope_{safe}.svg").write_text(
            polytope_figure(doc.polytope, doc.fan)
        )
        (out_dir / f"chamber_{safe}.svg").write_text(
            chamber_figure(doc.gale.gale_points, doc.gale.chamber, doc.gale.witness)
        )
        face = doc.cut.reduced_face
        seg = (face.vertices[0], face.vertices[-1])
        (out_dir / f"cut_{safe}.svg").write_text(
            polytope_figure(strip(), cut_line=seg)
        )
        print(f"{text:>12}: wrote polytope/chamber/cut SVGs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
