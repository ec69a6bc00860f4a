"""The package metadata states each fact once."""

import importlib
from pathlib import Path

import pytest

import ssag

tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_version_is_read_from_the_package():
    # setuptools' own reader warns that its configuration support is in beta,
    # which filterwarnings turns into an error, so the table is read directly
    config = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))
    assert "version" not in config["project"]
    assert "version" in config["project"]["dynamic"]
    module, _, name = config["tool"]["setuptools"]["dynamic"]["version"]["attr"].rpartition(".")
    assert getattr(importlib.import_module(module), name) == ssag.__version__
