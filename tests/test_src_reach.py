"""``src/metricvote`` holds only what the library, the CLI or perfbench runs.

Every top-level function and class of the package, and every method other
than a dunder, must be referenced from somewhere outside its own
definition: by a name or an attribute in the package's code, or by a name,
an attribute or a string constant in ``perfbench/*.py``, whose tracer names
its targets in strings such as ``"Election.from_ktop"``.  Imports do not
count, so a re-export in ``__init__.py`` alone is no reference.  A helper
that only the tests call belongs in ``tests/``.

The scan works by name: a local variable or an unrelated attribute of the
same name counts as a reference, so it can miss a dead name.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "metricvote"
PERFBENCH = ROOT / "perfbench"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _names(tree: ast.AST, strings: bool = False) -> Counter:
    """Names and attribute names read in ``tree``; with ``strings``, also the
    dot-separated parts of its string constants."""
    seen = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            seen[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            seen[node.attr] += 1
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            seen.update(node.value.split("."))
    return seen


def _definitions(tree: ast.Module):
    """The top-level functions and classes of a module, and the non-dunder methods of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item


def test_every_src_definition_is_referenced():
    modules = {path.name: _parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert "lp.py" in modules and "cli.py" in modules
    used = sum((_names(tree) for tree in modules.values()), Counter())
    bench_files = sorted(PERFBENCH.glob("*.py"))
    assert bench_files, "perfbench/*.py not found"
    bench = sum((_names(_parse(path), strings=True) for path in bench_files), Counter())
    unused = []
    for module, tree in modules.items():
        for label, node in _definitions(tree):
            name = node.name
            if used[name] - _names(node)[name] <= 0 and not bench[name]:
                unused.append(f"{module}: {label}")
    assert unused == [], "defined in src/metricvote but referenced only by its own definition: " + ", ".join(unused)
