"""The package's modules import one way: each only from modules below it in
errors < qcore < models < dynamics < embedding < optics < tomography < cli.
``__init__`` imports every module by design and is not ranked."""

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
