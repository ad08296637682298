import ast
import inspect

import bellseries


def test_every_export_resolves():
    missing = [name for name in bellseries.__all__ if not hasattr(bellseries, name)]
    assert missing == []
    assert len(set(bellseries.__all__)) == len(bellseries.__all__)


def test_exports_are_exactly_the_public_imports():
    tree = ast.parse(inspect.getsource(bellseries))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert set(bellseries.__all__) == {n for n in imported if not n.startswith("_")}
