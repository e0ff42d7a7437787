"""The package imports only the standard library and its one declared
dependency, numpy: scipy, networkx and the like may be installed where
the tests run, but an import of them would break a clean install."""

import ast
import os
import sys

import lampharm

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "lampharm"}


def test_package_imports_only_stdlib_and_numpy():
    pkg = os.path.dirname(lampharm.__file__)
    bad = []
    for name in sorted(os.listdir(pkg)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(pkg, name)) as fh:
            tree = ast.parse(fh.read(), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                mods = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                mods = [node.module]
            else:
                continue
            bad += [f"{name}:{node.lineno} {m}" for m in mods
                    if m.split(".")[0] not in ALLOWED]
    assert not bad, bad
