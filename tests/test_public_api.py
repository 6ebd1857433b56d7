"""The package's top level binds the README quickstart's names and the
error classes, and nothing else; every other name lives in its module."""

import re
import types
from pathlib import Path

import connectoml

README = Path(__file__).resolve().parents[1] / "README.md"

ERROR_CLASSES = {"ConnectomlError", "ValidationError", "NumericalError"}


def quickstart_names() -> set:
    """The names of the README's ``from connectoml import (...)`` block."""
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^from connectoml import \(([^)]*)\)", text, re.M)
    assert len(blocks) == 1, "README needs one `from connectoml import (...)`"
    return {name.strip() for name in blocks[0].split(",") if name.strip()}


def test_top_level_is_the_quickstart_plus_the_error_classes():
    public = {
        name
        for name, value in vars(connectoml).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == quickstart_names() | ERROR_CLASSES


def test_error_classes_share_one_base():
    for name in ERROR_CLASSES:
        assert issubclass(getattr(connectoml, name), connectoml.ConnectomlError)
