import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "conicbundles"


def _unused_imports(tree):
    """Names an import binds that no expression in the module reads."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0]
                         for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - used)


def test_unused_import_detector():
    tree = ast.parse("import os.path\nfrom typing import Dict, List\n"
                     "x: List = os.sep\n")
    assert _unused_imports(tree) == ["Dict"]


def test_no_unused_imports():
    # __init__ imports to re-export, so it is the one module left out
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: _unused_imports(ast.parse(p.read_text()))
              for p in modules}
    assert {name: names for name, names in unused.items() if names} == {}
