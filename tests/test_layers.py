"""The package's modules import one way: each only from modules below it in
errors < qcore < models < dynamics < embedding < optics < tomography < cli.
``__init__`` imports every module by design and is not ranked.  Every public
function has a reader outside the unit tests, a read that resolves to that
function and not to another of its name, and ``__init__`` re-exports
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
    """Every name the tree reads: ``Name`` ids and ``Attribute`` attrs; the
    subtree ``skip`` is left out."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        stack.extend(ast.iter_child_nodes(node))


def ptsim_reads(tree):
    """(module, name) of every object of ptsim that the tree reads.

    A local name bound by ``import ptsim[.x] [as y]``, ``from ptsim[.x]
    import n``, their relative forms inside the package, or an assignment
    such as ``optics = ptsim.optics`` stands for a path: () for the package,
    (module,) for a module, (module, name) for an object.  The package's
    attributes are its modules, since ``__init__`` re-exports nothing.  An
    object is read where such a name, or an attribute of a module, is
    loaded; an import the tree never loads reads nothing.  Names are not
    scoped: a binding anywhere in the file holds everywhere in it.
    """
    nodes = list(ast.walk(tree))
    bound = {}

    def resolve(node):
        if isinstance(node, ast.Name):
            return bound.get(node.id)
        if isinstance(node, ast.Attribute):
            owner = resolve(node.value)
            if owner is not None and len(owner) < 2:
                return (*owner, node.attr)
        return None

    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                top, *rest = alias.name.split(".")
                if top == "ptsim":
                    bound[alias.asname or "ptsim"] = tuple(rest) if alias.asname else ()
        elif isinstance(node, ast.ImportFrom):
            # inside the package, ``from .x import`` is ``from ptsim.x import``
            module = (f"ptsim.{node.module or ''}".rstrip(".") if node.level == 1
                      else node.module or "")
            top, *rest = module.split(".")
            if top == "ptsim":
                for alias in node.names:
                    bound[alias.asname or alias.name] = (*rest, alias.name)
    for node in nodes:   # optics, models = ptsim.optics, ptsim.models
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
            pairs = (zip(target.elts, value.elts)
                     if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple)
                     else [(target, value)])
            for name, expr in pairs:
                if isinstance(name, ast.Name) and resolve(expr) is not None:
                    bound[name.id] = resolve(expr)
    for node in nodes:
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            path = resolve(node)
            if path is not None and len(path) == 2:
                yield path


@pytest.mark.parametrize("source, reads", [
    ("import ptsim.cli\nptsim.cli.main()", {("cli", "main")}),
    ("import ptsim\noptics = ptsim.optics\noptics.f()", {("optics", "f")}),
    ("from ptsim.x import f\nf()", {("x", "f")}),
    ("from . import optics\nfrom .x import g\noptics.f(g)", {("optics", "f"), ("x", "g")}),
    ("import reference\nreference.f()", set()),
    ("from ptsim.x import g", set()),
], ids=["attribute", "module-alias", "from-import", "relative", "foreign-module",
        "unloaded-import"])
def test_ptsim_reads_resolves_to_ptsim_objects(source, reads):
    assert set(ptsim_reads(ast.parse(source))) == reads


def test_every_public_function_has_a_reader():
    """A public top-level function of the package is read by its own module
    outside its body, or resolves as ptsim's object in a read of another
    module, the benchmark or the acceptance tests; unit tests and
    ``__init__`` do not count as readers."""
    trees = {m: ast.parse((PACKAGE / f"{m}.py").read_text()) for m in LAYERS}
    outside = [ast.parse(path.read_text()) for path in
               [*sorted((REPO / "bench").glob("*.py")), REPO / "tests" / "test_acceptance.py"]]
    # a module-level ``from .x import n`` makes the module's n x's object
    reexported = {(m, alias.asname or alias.name): (node.module, alias.name)
                  for m, tree in trees.items() for node in tree.body
                  if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
                  for alias in node.names}

    def owner(path):
        while path in reexported:
            path = reexported[path]
        return path

    read_objects = {owner(path) for tree in [*trees.values(), *outside]
                    for path in ptsim_reads(tree)}
    unread, stale = [], []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            read = (module, node.name) in read_objects or node.name in names_read(tree, skip=node)
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
