"""Every exception class in `ssag.errors` is raised somewhere in the package,
or is the base of one that is: a type that nothing raises is dead code that
callers may still catch."""

import ast
from pathlib import Path

import ssag

PACKAGE = Path(ssag.__file__).parent


def _classes(source: str) -> dict[str, list[str]]:
    """The classes that ``source`` defines, each with the names of its bases."""
    return {node.name: [base.id for base in node.bases if isinstance(base, ast.Name)]
            for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef)}


def _raised(source: str) -> set[str]:
    """The names that ``source`` raises: ``raise X``, ``raise X(...)`` and
    ``raise errors.X(...)`` each give X."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                found.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                found.add(exc.attr)
    return found


def _live(classes: dict[str, list[str]], raised: set[str]) -> set[str]:
    """The classes that are raised, with every base they have among ``classes``."""
    live, todo = set(), [name for name in classes if name in raised]
    while todo:
        name = todo.pop()
        if name not in live:
            live.add(name)
            todo.extend(base for base in classes[name] if base in classes)
    return live


def test_every_error_type_is_raised_or_a_base_of_one_that_is():
    classes = _classes((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    raised = set().union(*(_raised(path.read_text(encoding="utf-8"))
                           for path in PACKAGE.glob("*.py")))
    assert {"SsagError", "ConfigError"} <= set(classes)
    dead = sorted(set(classes) - _live(classes, raised))
    assert not dead, f"error types that nothing in ssag raises: {dead}"


def test_a_type_that_is_only_caught_is_dead():
    classes = _classes("class Base(Exception): pass\n"
                       "class Raised(Base): pass\n"
                       "class Caught(Base): pass\n"
                       "class Other(Exception): pass\n")
    raised = _raised("try:\n    f()\nexcept Caught:\n    raise errors.Raised('x') from None\n"
                     "raise Other\n")
    assert raised == {"Raised", "Other"}
    assert _live(classes, raised) == {"Raised", "Base", "Other"}
    assert _live(classes, {"Caught"}) == {"Caught", "Base"}
