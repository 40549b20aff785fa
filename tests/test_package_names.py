"""The runtime package holds only code that the runtime package uses.

A top-level name in `src/dualcut/*.py` is used when code under `src/` other
than `__init__.py` refers to it, as a bare name or as an attribute, outside
the name's own definition and outside annotations. An import alone is not a
use. References that tests compare against live in `tests/reference.py`.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dualcut"

# No code under src/ uses these, and each is kept on purpose.
UNUSED_BY_DESIGN = {
    # Bench-pinned: bench/test_smoke.py imports it and bench/layers.py traces
    # its constructor, until ROADMAP item 1 lands.
    "graphs.Digraph",
    # Bench-pinned: imported by bench/test_smoke.py, traced by bench/layers.py.
    "graphs.VertexPartition",
    # Bench-pinned: traced by bench/layers.py.
    "graphs.contract_multigraph",
    # Bench-pinned: traced by bench/layers.py.
    "graphs.is_strongly_connected",
    # Bench-pinned: traced by bench/layers.py.
    "perfect.contract_perfect",
    # Bench-pinned: traced by bench/layers.py. Since no solve checks its
    # rounds, only tests (through tests/reference.py) call it.
    "perfect.is_internal_cut",
}


class _Uses(ast.NodeVisitor):
    """Names loaded or read as attributes, skipping annotations."""

    def __init__(self):
        self.names = set()

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self.names.add(node.id)

    def visit_Attribute(self, node):
        self.names.add(node.attr)
        self.visit(node.value)

    def visit_arg(self, node):
        pass  # a parameter's only expression is its annotation

    def visit_FunctionDef(self, node):
        args = node.args
        defaults = (*args.defaults, *filter(None, args.kw_defaults))
        for child in (*node.decorator_list, *defaults, *node.body):
            self.visit(child)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_AnnAssign(self, node):
        if node.value is not None:
            self.visit(node.value)


def _defined_by(statement):
    """The names a top-level statement defines: a function, a class or variables."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        return [t.id for t in statement.targets if isinstance(t, ast.Name)]
    if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
        return [statement.target.id]
    return []


def _modules():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def unused_names() -> set[str]:
    """`module.name` for every top-level name that nothing under src/ uses."""
    statements = []  # (`module.name`s a statement defines, names it uses)
    for module, tree in _modules().items():
        if module == "__init__":
            continue
        for statement in tree.body:
            visitor = _Uses()
            visitor.visit(statement)
            defines = {f"{module}.{name}" for name in _defined_by(statement)}
            statements.append((defines, visitor.names))
    return {
        qualified
        for defines, _ in statements
        for qualified in defines
        if not any(
            qualified.split(".", 1)[1] in names and qualified not in own
            for own, names in statements
        )
    }


def test_every_top_level_name_is_used_or_pinned():
    assert unused_names() == UNUSED_BY_DESIGN


def test_runtime_imports_only_the_package_and_the_standard_library():
    # Nothing under src/ may need tests/ (reference.py, test helpers) or a
    # third-party package: the installed package ships without either.
    for module, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            for root in roots:
                assert root == "dualcut" or root in sys.stdlib_module_names, (
                    f"{module}.py imports {root}"
                )
