"""The package's imports run one way. No module of ``fedmoe`` imports the
benchmark (``bench``) or the tools (``tools``), and each module imports only
its own layer and the layers below it. Imports under ``if TYPE_CHECKING:``
are for annotations only and are exempt."""

import ast
from pathlib import Path

import pytest

import fedmoe

PACKAGE = Path(fedmoe.__file__).parent
# Lowest first. ``__init__`` stands for names read from the package itself.
LAYERS = (
    ("__init__", "errors", "fileio", "numerics"),
    ("data", "models"),
    ("checkpoint", "evaluation"),
    ("federation",),
    ("personalization",),
    ("config",),
    ("cli",),
)
RANK = {name: rank for rank, layer in enumerate(LAYERS) for name in layer}
SOURCES = sorted(PACKAGE.rglob("*.py"))


def _runtime_imports(nodes):
    """Every import node in ``nodes`` or below them, outside the body of an
    ``if TYPE_CHECKING:``."""
    for node in nodes:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING":
            yield from _runtime_imports(node.orelse)
        else:
            yield from _runtime_imports(ast.iter_child_nodes(node))


def _top_module(dotted: list[str]) -> str:
    """The package-level module of ``fedmoe.<dotted>``; a name that is no
    module, such as ``__version__``, is read from ``__init__``."""
    name = dotted[0] if dotted else "__init__"
    return name if (PACKAGE / f"{name}.py").exists() or (PACKAGE / name).is_dir() else "__init__"


def imports(source: str, package: tuple[str, ...]) -> tuple[set[str], set[str]]:
    """(absolute top-level names, fedmoe modules) that ``source``, a module
    of ``package``, imports at run time."""
    absolute, internal = set(), set()
    for node in _runtime_imports([ast.parse(source)]):
        if isinstance(node, ast.Import):
            targets = [alias.name.split(".") for alias in node.names]
        elif node.level == 0:
            targets = [node.module.split(".")]
        else:
            base = list(package[: len(package) - node.level + 1])
            module = base + (node.module.split(".") if node.module else [])
            targets = [module] if node.module else [module + [alias.name] for alias in node.names]
        for target in targets:
            if target[0] == "fedmoe":
                internal.add(_top_module(target[1:]))
            else:
                absolute.add(target[0])
    return absolute, internal


def _module_of(path: Path) -> tuple[str, tuple[str, ...]]:
    """(its layer name, its package) for a source file of fedmoe."""
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return (parts[1] if len(parts) > 2 else parts[-1]), parts[:-1]


def test_the_walk_sees_runtime_imports_and_skips_type_checking():
    source = (
        "from typing import TYPE_CHECKING\nimport numpy as np\nfrom . import __version__, data\n"
        "if TYPE_CHECKING:\n    from .config import ExperimentConfig\nelse:\n    import bench.tracing\n"
        "def f():\n    from .numerics.graph import const\n    from fedmoe.cli import main\n"
    )
    assert imports(source, ("fedmoe",)) == ({"typing", "numpy", "bench"}, {"__init__", "data", "numerics", "cli"})
    assert imports("from ..errors import E\nfrom . import kernels\n", ("fedmoe", "numerics")) == (
        set(), {"errors", "numerics"})


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_module_imports_bench_or_tools(path):
    absolute, _ = imports(path.read_text(), _module_of(path)[1])
    assert not absolute & {"bench", "tools"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_imports_run_down_the_layers(path):
    name, package = _module_of(path)
    assert name in RANK, f"{name} is in no layer of LAYERS"
    upward = {m for m in imports(path.read_text(), package)[1] if RANK[m] > RANK[name]}
    assert not upward, f"{name} (layer {RANK[name]}) imports the higher layer(s) {sorted(upward)}"
