"""The top-level package: every name it exports resolves."""

import quasitoric

# read from the top-level package by perfbench/kernels.py
BENCHMARK_NAMES = (
    "HalfPlane",
    "parse_scalar",
    "ParamSpec",
    "hirzebruch_quasilattice",
    "Q",
    "vrep_from_hrep",
)


def test_all_names_resolve():
    names = quasitoric.__all__
    assert len(names) == len(set(names))
    # a stale entry would break `from quasitoric import *`
    assert [n for n in names if not hasattr(quasitoric, n)] == []
    assert set(BENCHMARK_NAMES) <= set(names)
