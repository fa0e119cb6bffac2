import ast
from pathlib import Path

import indmatch


def test_all_lists_exactly_the_imported_names():
    # __all__ and the imports of __init__.py are kept by hand in two places
    tree = ast.parse(Path(indmatch.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert sorted(indmatch.__all__) == sorted(imported)
    namespace = {}
    exec("from indmatch import *", namespace)
    assert set(namespace) - {"__builtins__"} == imported
