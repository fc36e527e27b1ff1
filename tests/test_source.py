"""Checks on the package source itself."""

import ast
import glob
import os

PACKAGE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src", "gitstab")


def test_package_has_no_runtime_assert():
    # `python -O` strips assert statements, so runtime validation in the
    # package must be an explicit `if ...: raise`.
    paths = sorted(glob.glob(os.path.join(PACKAGE, "*.py")))
    assert paths, "package sources not found"
    found = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        found += [
            f"{os.path.basename(path)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []
