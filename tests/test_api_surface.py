"""The library surface: every public name in `fuzzyreg` has a caller inside the
package or is declared in the package docstring, and every declared name exists.

A reference is an `ast.Name` or `ast.Attribute` in code outside the name's own
definition, and for a method or property an `ast.Attribute` only: a local
variable that shares a method's name does not call it.  A mention in a
docstring or an import alone does not count.  Methods are matched by name, not
by class, so one that shares its name with another class's method (such as
`FourierFunction.from_dict`) still passes on the other's calls.
"""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import fuzzyreg

PACKAGE = Path(fuzzyreg.__file__).resolve().parent
TREES = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(PACKAGE.glob("*.py"))}
DECLARED = set(re.findall(r"\b((?:%s)(?:\.[A-Za-z]\w*)+)" % "|".join(TREES), fuzzyreg.__doc__))


def public_definitions():
    """(module.name, node) for each public top-level function or class and
    each public method."""
    for module, tree in TREES.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                yield f"{module}.{node.name}", node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield f"{module}.{node.name}.{sub.name}", sub


def names_used(node, kinds):
    """How often each name appears under node as a Name id or an Attribute attr,
    counting the node types in `kinds` only."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, kinds))


CALLS = (ast.Name, ast.Attribute)  # how a function or class is reached
METHOD_CALLS = (ast.Attribute,)  # how a method or property is reached


def test_every_public_name_has_a_caller_or_is_declared():
    used = {kinds: sum((names_used(tree, kinds) for tree in TREES.values()), Counter())
            for kinds in (CALLS, METHOD_CALLS)}
    orphans = []
    for name, node in public_definitions():
        kinds = METHOD_CALLS if name.count(".") == 2 else CALLS
        if name not in DECLARED and used[kinds][node.name] == names_used(node, kinds)[node.name]:
            orphans.append(name)
    assert not orphans, "public names with no caller in the package and not declared " \
        "in fuzzyreg.__doc__: " + ", ".join(orphans)


def test_every_declared_name_resolves():
    assert len(DECLARED) > 40
    for dotted in sorted(DECLARED):
        module, *attrs = dotted.split(".")
        obj = importlib.import_module(f"fuzzyreg.{module}")
        for attr in attrs:
            assert hasattr(obj, attr), f"fuzzyreg.__doc__ declares {dotted}, which does not exist"
            obj = getattr(obj, attr)
