"""The package's modules import one way: each only from modules below it in
errors < qcore < models < dynamics < embedding < optics < tomography < cli.
``__init__`` imports every module by design and is not ranked.  Every public
function has a reader outside the unit tests, and ``__init__`` re-exports
nothing."""

import ast
from pathlib import Path

import pytest

LAYERS = ["errors", "qcore", "models", "dynamics", "embedding", "optics", "tomography", "cli"]
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ptsim"


def relative_imports(path: Path):
    """(line, module) of every ``from .x import`` and ``from . import x`` in
    the file, at module level or inside a function."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = [node.module] if node.module else [alias.name for alias in node.names]
            for name in names:
                yield node.lineno, name.split(".")[0]


def test_every_module_has_a_layer():
    assert sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__") == sorted(LAYERS)


@pytest.mark.parametrize("module", LAYERS)
def test_imports_only_from_lower_layers(module):
    below = LAYERS[:LAYERS.index(module)]
    upward = [f"{module}.py line {line} imports {name}"
              for line, name in relative_imports(PACKAGE / f"{module}.py") if name not in below]
    assert upward == []


REPO = PACKAGE.parents[1]
# read by ROADMAP item 3's warm start of the MLE once it lands; until then
# only tests call it
UNREAD_ALLOWED = {"linear_inversion"}


def names_read(tree, skip=None):
    """Every name the tree reads: ``Name`` ids, ``Attribute`` attrs and the
    names of ``from ... import``; the subtree ``skip`` is left out."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))


def test_every_public_function_has_a_reader():
    """A public top-level function of the package is read by another module,
    by its own module outside its body, by the benchmark or by the acceptance
    tests; unit tests and ``__init__`` do not count as readers."""
    trees = {m: ast.parse((PACKAGE / f"{m}.py").read_text()) for m in LAYERS}
    outside = set()
    for path in [*sorted((REPO / "bench").glob("*.py")), REPO / "tests" / "test_acceptance.py"]:
        outside.update(names_read(ast.parse(path.read_text())))
    unread, stale = [], []
    for module, tree in trees.items():
        others = outside.union(*(names_read(t) for m, t in trees.items() if m != module))
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            read = node.name in others or node.name in names_read(tree, skip=node)
            if not read and node.name not in UNREAD_ALLOWED:
                unread.append(f"{module}.{node.name}")
            elif read and node.name in UNREAD_ALLOWED:
                stale.append(f"{module}.{node.name}")
    assert not unread, f"public functions that only unit tests read: {unread}"
    assert not stale, f"allow-listed functions that now have a reader: {stale}"


def test_init_only_imports_the_modules():
    """``__init__`` is its docstring and one ``from . import`` of every
    module but the command line."""
    docstring, *rest = ast.parse((PACKAGE / "__init__.py").read_text()).body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value, ast.Constant)
    assert len(rest) == 1
    (node,) = rest
    assert isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
    assert sorted(alias.name for alias in node.names) == sorted(set(LAYERS) - {"cli"})
