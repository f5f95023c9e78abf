"""One module decides how each object is stored.

``groups`` alone reads how a representation is held (``perms`` and
``phases`` of a monomial rep), and ``systems`` alone how a channel is
held (``factors`` of a chain).  Every other module goes through their
public functions, and ``frames`` imports no private name of ``groups``.
A frame is read through its seed: no module reads the (|G|, d, d)
``effects`` stack, which only the package's users ask for.  Memos,
values computed once and kept on a frozen object, live in ``groups``
alone (a monomial rep's dense matrices and its word constants): every
other module builds a derived form where it is read.  ``frames``,
``relativize`` and ``systems`` loop over no group's ``elements()``: what
they ask of every element, ``groups`` answers in one call.  A public function or method
reads every parameter it declares, so no option is accepted and ignored.
``relativize`` validates nothing it derives: its relative subspaces and
induced maps are systems and channels by construction, so it calls
neither ``build_channel`` nor ``system_from_subspace``.
"""

import ast
import pathlib

import pytest

SOURCES = sorted((pathlib.Path(__file__).resolve().parent.parent / "src" / "framerel").glob("*.py"))
OWNERS = {"perms": "groups.py", "phases": "groups.py", "factors": "systems.py"}
MEMO_OWNERS = ("groups.py",)


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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_reads_the_effect_stack(path):
    reads = [
        node.lineno
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Attribute) and node.attr == "effects"
    ]
    assert reads == [], f"{path.name} reads a frame's effect stack at lines {reads}"


def _memos(tree):
    """Lines that write through ``object.__setattr__`` or name ``cached_property``."""
    names = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}
    lines = []
    for node in ast.walk(tree):
        name = getattr(node, names.get(type(node), ""), None)
        through_object = isinstance(node, ast.Attribute) and ast.unparse(node.value) == "object"
        if name == "cached_property" or (name == "__setattr__" and through_object):
            lines.append(node.lineno)
    return sorted(lines)


def test_the_memo_rule_sees_both_forms():
    source = "from functools import cached_property\nobject.__setattr__(self, 'x', 1)\n"
    assert _memos(ast.parse(source)) == [1, 2]


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name not in MEMO_OWNERS], ids=lambda p: p.name
)
def test_memos_live_in_groups_and_frames_alone(path):
    memos = _memos(_tree(path))
    assert memos == [], f"{path.name} keeps a memo on a frozen object at lines {memos}"


def _element_loops(tree):
    """Lines of ``for`` statements and comprehensions that iterate over ``<x>.elements()``."""
    loops = (ast.For, ast.AsyncFor, ast.comprehension)
    return sorted(
        node.iter.lineno
        for node in ast.walk(tree)
        if isinstance(node, loops)
        and isinstance(node.iter, ast.Call)
        and isinstance(node.iter.func, ast.Attribute)
        and node.iter.func.attr == "elements"
    )


def test_the_element_loop_rule_sees_statements_and_comprehensions():
    source = "for g in group.elements():\n    pass\nx = [g for g in rep.group.elements()]\ny = list(group.elements())\n"
    assert _element_loops(ast.parse(source)) == [1, 3]


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name in ("frames.py", "relativize.py", "systems.py")], ids=lambda p: p.name
)
def test_relativize_and_systems_loop_over_no_group_elements(path):
    loops = _element_loops(_tree(path))
    assert loops == [], f"{path.name} loops over group elements at lines {loops}"


def _unread_parameters(tree):
    """``(line, function, parameter)`` for each parameter a public function or
    method declares and its body never reads, sorted.  A leading underscore
    marks a private function, which is exempt: the runner's ``_run_*``
    executors share one dispatch signature, whatever each of them reads."""
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or node.name.startswith("_"):
            continue
        args = node.args
        declared = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg) if a]
        read = {n.id for stmt in node.body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        unread += [(node.lineno, node.name, name) for name in declared if name not in read]
    return sorted(unread)


def test_the_unread_parameter_rule_sees_functions_methods_and_closures():
    source = (
        "def f(a, b=1, *args, c, **kw):\n    return a + c\n"
        "def _private(x):\n    pass\n"
        "class K:\n    def m(self, y):\n        return self\n"
        "def g(t, u: int = 0):\n    def inner():\n        return t\n    return inner\n"
    )
    assert _unread_parameters(ast.parse(source)) == [
        (1, "f", "args"), (1, "f", "b"), (1, "f", "kw"), (6, "m", "y"), (8, "g", "u")
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_public_functions_read_every_parameter(path):
    unread = _unread_parameters(_tree(path))
    assert unread == [], f"{path.name} declares parameters it never reads: {unread}"


VALIDATING_BUILDERS = {"build_channel", "system_from_subspace"}


def _calls(tree, names):
    """Lines that call one of ``names``, by its bare name or as an attribute."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) in names
    )


def test_the_call_rule_sees_names_and_attributes():
    source = "build_channel(a, b, c)\nx = systems.system_from_subspace(r, s)\ny = build_channel\nf(build_channel)\n"
    assert _calls(ast.parse(source), VALIDATING_BUILDERS) == [1, 2]


def test_relativize_validates_nothing_it_derives():
    calls = _calls(_tree(next(p for p in SOURCES if p.name == "relativize.py")), VALIDATING_BUILDERS)
    assert calls == [], f"relativize.py validates derived objects again at lines {calls}"
