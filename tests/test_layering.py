"""One module decides how each object is stored.

``groups`` alone reads how a representation is held (``perms`` and
``phases`` of a monomial rep), and ``systems`` alone how a channel is
held (``factors`` of a chain).  Every other module goes through their
public functions, and ``frames`` imports no private name of ``groups``.
"""

import ast
import pathlib

import pytest

SOURCES = sorted((pathlib.Path(__file__).resolve().parent.parent / "src" / "framerel").glob("*.py"))
OWNERS = {"perms": "groups.py", "phases": "groups.py", "factors": "systems.py"}


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_the_sources_are_found():
    assert {p.name for p in SOURCES} >= {"groups.py", "systems.py", "frames.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_storage_attributes_are_read_by_their_owner_alone(path):
    reads = [
        (node.lineno, node.attr)
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Attribute) and OWNERS.get(node.attr, path.name) != path.name
    ]
    assert reads == [], f"{path.name} reads storage attributes owned elsewhere: {reads}"


def test_frames_imports_no_private_name_of_groups():
    private = [
        alias.name
        for node in ast.walk(_tree(next(p for p in SOURCES if p.name == "frames.py")))
        if isinstance(node, ast.ImportFrom) and node.module in ("groups", "framerel.groups")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
