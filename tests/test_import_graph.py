"""The package's modules import one another without a cycle."""

import ast
from pathlib import Path

import ssag

PACKAGE = Path(ssag.__file__).parent


def _relative_imports(source: str) -> set[str]:
    """The package modules that ``source`` imports relatively, at module
    level or inside a function."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.add(node.module.split(".")[0])
            else:  # from . import core
                found.update(alias.name for alias in node.names)
    return found


def _import_graph() -> dict[str, set[str]]:
    modules = {path.stem: path for path in PACKAGE.glob("*.py")}
    return {name: _relative_imports(path.read_text(encoding="utf-8")) & set(modules)
            for name, path in modules.items()}


def _cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One cycle of the graph as a path that ends where it starts, or None."""
    done, path = set(), []

    def visit(name):
        path.append(name)
        for target in sorted(graph[name]):
            if target in path:
                return path[path.index(target):] + [target]
            if target not in done:
                cycle = visit(target)
                if cycle:
                    return cycle
        done.add(path.pop())
        return None

    for name in sorted(graph):
        cycle = None if name in done else visit(name)
        if cycle:
            return cycle
    return None


def test_package_imports_form_no_cycle():
    graph = _import_graph()
    assert {"core", "objectives", "optimizers"} <= set(graph)
    cycle = _cycle(graph)
    assert cycle is None, "import cycle: " + " -> ".join(cycle)


def test_an_import_inside_a_function_closes_a_cycle():
    # the interpreter meets such an import only when the function runs, so
    # only a reading of the source sees the cycle it makes
    assert _relative_imports("def f():\n    from .objectives import g\n") == {"objectives"}
    assert _relative_imports("from . import core, errors\nimport numpy\n") == {"core", "errors"}
    assert _cycle({"core": {"objectives"}, "objectives": {"core"}}) == [
        "core", "objectives", "core"]
    assert _cycle({"core": set(), "objectives": {"core"}, "optimizers": {"core"}}) is None
