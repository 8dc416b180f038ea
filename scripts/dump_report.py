#!/usr/bin/env python3
"""Dump full pipeline reports for a list of parameters as pretty JSON.

Usage: python scripts/dump_report.py [out_dir] [a1 a2 ...]
Defaults: out_dir=reports, parameters 2, 3/2, sqrt(2), 1+sqrt(2).
"""

import json
import pathlib
import sys

from quasitoric.pipeline import build_report
from quasitoric.scalar import ParamSpec, parse_scalar

DEFAULT_PARAMS = ["2", "3/2", "sqrt(2)", "1+sqrt(2)"]


def main(argv):
    out_dir = pathlib.Path(argv[1]) if len(argv) > 1 else pathlib.Path("reports")
    texts = argv[2:] or DEFAULT_PARAMS
    out_dir.mkdir(parents=True, exist_ok=True)
    for text in texts:
        a = ParamSpec(parse_scalar(text))
        doc = build_report(a)
        safe = text.replace("/", "_").replace("(", "").replace(")", "").replace("*", "")
        path = out_dir / f"report_{safe}.json"
        path.write_text(json.dumps(doc.to_json(), indent=2, sort_keys=True) + "\n")
        print(f"{text:>12}  gamma={doc.presentation.gamma.kind:<14} "
              f"smooth_in_Z2={doc.fan_smooth_in_z2}  -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
