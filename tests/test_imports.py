import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "conicbundles"


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


def _module_names(tree):
    """Names a module binds at top level by def, class or assignment,
    dunder names left out."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def _references(tree):
    """Every name a module reads: loaded names, attributes, imported
    names, and identifiers in string constants (getattr and monkeypatch
    targets such as "brauermanin.obstruction_scan")."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs.update(part for part in node.value.split(".")
                        if part.isidentifier())
    return refs


def _counted_references(tree, path):
    """The references of a module that keep a package name alive: a file
    under tests/ or bench/ that binds a name at module level reads its own
    homonym, so its references to that name do not count."""
    refs = _references(tree)
    if path.relative_to(ROOT).parts[0] in ("tests", "bench"):
        refs -= set(_module_names(tree))
    return refs


def test_unused_import_detector():
    tree = ast.parse("import os.path\nfrom typing import Dict, List\n"
                     "x: List = os.sep\n")
    assert _unused_imports(tree) == ["Dict"]


def test_dead_name_detector():
    tree = ast.parse("A = 1\nB: int = A\n__all__ = ['f']\n"
                     "def f(): return g\ndef g(): pass\nclass C: pass\n"
                     "getattr(m, 'mod.D')\n")
    assert _module_names(tree) == ["A", "B", "f", "g", "C"]
    assert {"A", "g", "f", "mod", "D"} <= _references(tree)
    assert not {"B", "C"} & _references(tree)
    # a test helper shadowing a package name does not keep it alive, while
    # the same name read from the package does
    helper = ast.parse("def _shadow(a): pass\nassert _shadow(1)\n"
                       "from conicbundles import quadform\n"
                       "assert quadform.rho(1)\n")
    refs = _counted_references(helper, ROOT / "tests" / "test_x.py")
    assert "rho" in refs and "_shadow" not in refs
    assert "_shadow" in _counted_references(helper, PACKAGE / "x.py")


def test_no_unused_imports():
    # __init__ imports to re-export, so it is the one module left out
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: _unused_imports(ast.parse(p.read_text()))
              for p in modules}
    assert {name: names for name, names in unused.items() if names} == {}


def test_no_dead_names():
    # a module-level name of the package must be read somewhere in src/,
    # tests/ or bench/; a definition alone, or a homonym in a test, does
    # not count
    files = [p for part in ("src", "tests", "bench")
             for p in sorted((ROOT / part).rglob("*.py"))]
    refs = set()
    for p in files:
        refs |= _counted_references(ast.parse(p.read_text()), p)
    dead = {p.name: sorted(set(_module_names(ast.parse(p.read_text())))
                           - refs)
            for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: names for name, names in dead.items() if names} == {}
