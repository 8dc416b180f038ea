"""The top-level package: every name it exports resolves; and three source
scans, for floats outside output code, for unused imports, and for
definitions that nothing in src/ uses."""

import ast
from pathlib import Path

import quasitoric

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "quasitoric"

# read from the top-level package by perfbench/kernels.py
BENCHMARK_NAMES = (
    "HalfPlane",
    "parse_scalar",
    "ParamSpec",
    "hirzebruch_quasilattice",
    "Q",
    "vrep_from_hrep",
)

# defined in src/ for callers outside it: the console script of
# pyproject.toml, and the hook that argparse calls on a usage error
ENTRY_POINTS = ("main", "_Parser.error")

# scalar.py: the advisory "float" field of the JSON scalar form;
# svg.py: figure layout
FLOAT_MODULES = {"scalar.py", "svg.py"}


def test_all_names_resolve():
    """The top level exports exactly what the benchmark reads."""
    names = quasitoric.__all__
    assert len(names) == len(set(names))
    # a stale entry would break `from quasitoric import *`
    assert [n for n in names if not hasattr(quasitoric, n)] == []
    assert set(names) == set(BENCHMARK_NAMES)


def _uses_floats(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and f.id == "float":
                return True
            if isinstance(f, ast.Attribute) and f.attr == "to_float":
                return True
        if isinstance(node, ast.Import) and any(a.name == "cmath" for a in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and node.module == "cmath":
            return True
    return False


def test_floats_only_in_output():
    """No float decides a predicate: only the JSON advisory field and the SVG
    layout convert to float."""
    users = {p.name for p in SRC.glob("*.py") if _uses_floats(ast.parse(p.read_text()))}
    assert users <= FLOAT_MODULES


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {e.value for e in node.value.elts}
    return set()


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                if a.name != "*":
                    imported[a.asname or a.name] = node.lineno
    used = _exported(tree) | {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    """No linter is a dependency, so this scan keeps imports honest. Names
    listed in a module's __all__ count as used (the package re-exports);
    a name used only inside a quoted annotation does not."""
    files = sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert [u for p in files for u in unused_imports(p)] == []


def _definitions(tree: ast.Module):
    """Top-level functions and classes, and the methods of those classes,
    as dotted names."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            yield from (f"{node.name}.{m.name}"
                        for m in node.body if isinstance(m, ast.FunctionDef))


def test_every_definition_is_used_in_src():
    """Test-only helpers live in tests/conftest.py: every top-level function,
    class and method in src/ is referenced from src/, is a dunder, or is on
    the allow-list (ENTRY_POINTS and BENCHMARK_NAMES).  A reference is a
    name or an attribute equal to the definition's last dotted part."""
    trees = [ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))]
    refs = {n.id if isinstance(n, ast.Name) else n.attr
            for t in trees for n in ast.walk(t) if isinstance(n, (ast.Name, ast.Attribute))}
    allowed = set(ENTRY_POINTS) | set(BENCHMARK_NAMES)
    unused = []
    for d in (d for t in trees for d in _definitions(t)):
        last = d.rsplit(".", 1)[-1]
        if not (last in refs or d in allowed or last.startswith("__") and last.endswith("__")):
            unused.append(d)
    assert unused == []


def test_second_owners_are_gone():
    """Each report fact has one owner, so these copies are gone: a's
    rationality (Gamma_a owns it), the triple's normals and offsets (its
    half-planes), the presentation's copies of V_a's relation rows, as
    N's rows and level components (V_a's relation matrix owns them), of
    P_a's facet count (its hrep) and of Gamma_a and Q_a (the strip cut owns
    them: a quasilattice carries no parameter tag), and the report's constant
    warnings (its JSON writer owns them)."""
    from quasitoric.delzant import PolytopeTriple, QuasifoldPresentation
    from quasitoric.pipeline import ReportDocument
    from quasitoric.quasilattice import Quasilattice
    from quasitoric.scalar import ParamSpec, QuadScalar

    gone = [(ParamSpec, "rational"), (ParamSpec, "p"), (ParamSpec, "q"),
            (QuadScalar, "is_rational"), (PolytopeTriple, "normals"),
            (PolytopeTriple, "offsets"), (QuasifoldPresentation, "group_weight_rows"),
            (QuasifoldPresentation, "gamma"), (QuasifoldPresentation, "relation_rows"),
            (QuasifoldPresentation, "level_components"), (QuasifoldPresentation, "facet_count"),
            (QuasifoldPresentation, "group_phases"), (Quasilattice, "param"),
            (ReportDocument, "quasilattice"), (ReportDocument, "warnings")]
    # a dataclass field without a default is not a class attribute
    assert [f"{cls.__name__}.{name}" for cls, name in gone
            if hasattr(cls, name) or name in getattr(cls, "__dataclass_fields__", {})] == []
