import ast
import os
import subprocess
import sys
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


def _imported_modules(tree):
    """The modules a module imports, at any depth of its tree."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            out.append(node.module)
    return out


def _name(node):
    """The last name of a decorator or base: `dataclass` for
    `@dataclasses.dataclass(frozen=True)`, `NamedTuple` for
    `typing.NamedTuple`."""
    if isinstance(node, ast.Call):
        node = node.func
    return node.attr if isinstance(node, ast.Attribute) else \
        getattr(node, "id", None)


def _record_rule_breaches(tree):
    """Classes that break the record rule: a dataclass validates its
    fields, so it defines __post_init__, and a NamedTuple names no field
    `count` or `index`, which would shadow the tuple methods."""
    breaches = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        defined = {item.name for item in node.body
                   if isinstance(item, ast.FunctionDef)}
        fields = {item.target.id for item in node.body
                  if isinstance(item, ast.AnnAssign)
                  and isinstance(item.target, ast.Name)}
        if "dataclass" in map(_name, node.decorator_list) \
                and "__post_init__" not in defined:
            breaches.append(node.name)
        if "NamedTuple" in map(_name, node.bases) \
                and fields & {"count", "index"}:
            breaches.append(node.name)
    return breaches


def test_record_rule_detector():
    tree = ast.parse(
        "@dataclass(frozen=True)\nclass Checked:\n    a: int\n"
        "    def __post_init__(self): pass\n"
        "@dataclasses.dataclass\nclass Plain:\n    a: int\n"
        "class Fine(NamedTuple):\n    a: int\n"
        "class Shadows(typing.NamedTuple):\n    count: int\n"
        "class Indexed(NamedTuple):\n    index: int = 0\n"
        "class Other:\n    count: int\n")
    assert _record_rule_breaches(tree) == ["Plain", "Shadows", "Indexed"]


def test_records_keep_the_record_rule():
    # inputs are frozen dataclasses whose constructors check or coerce
    # their fields; every other record, an engine result, is a NamedTuple
    breaches = {p.name: _record_rule_breaches(ast.parse(p.read_text()))
                for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: found for name, found in breaches.items() if found} == {}


def test_tests_share_helpers_through_reference_only():
    # a helper that two test modules need lives in tests/reference.py,
    # and an oracle there must not read the library it judges
    tests = ROOT / "tests"
    crossed = {p.name: [m for m in _imported_modules(ast.parse(p.read_text()))
                        if m.split(".")[0].startswith("test_")]
               for p in sorted(tests.glob("test_*.py"))}
    assert {name: mods for name, mods in crossed.items() if mods} == {}
    reference = _imported_modules(
        ast.parse((tests / "reference.py").read_text()))
    assert [m for m in reference if m.split(".")[0] == "conicbundles"] == []


# every unbounded cache in the package, with why what it keeps stays small
UNBOUNDED_CACHES = {
    "exactnum.is_prime": "one bool per integer tested",
    "exactnum._factor": "a few (p, e) pairs, or one message, per integer "
                        "factored",
    "quadform.pell_fundamental": "one (t, u) per form coefficient a",
}


def _unbounded(node):
    """Whether a decorator or call makes an unbounded cache:
    `functools.cache`, or `lru_cache` with maxsize None."""
    name = _name(node)
    if name == "cache":
        return True
    if name != "lru_cache" or not isinstance(node, ast.Call):
        return False  # a bare lru_cache keeps 128 entries
    sizes = node.args[:1] + [kw.value for kw in node.keywords
                             if kw.arg == "maxsize"]
    return any(isinstance(x, ast.Constant) and x.value is None for x in sizes)


def _unbounded_caches(tree):
    """The functions an unbounded cache decorates; such a cache made by a
    plain call is listed by its line."""
    found, decorators = [], set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            decorators.update(map(id, node.decorator_list))
            found += [node.name for d in node.decorator_list if _unbounded(d)]
    return found + ["line %d" % node.lineno for node in ast.walk(tree)
                    if isinstance(node, ast.Call)
                    and id(node) not in decorators and _unbounded(node)]


def test_unbounded_cache_detector():
    tree = ast.parse(
        "@lru_cache(maxsize=None)\ndef a(): pass\n"
        "@functools.lru_cache(None, typed=True)\ndef b(): pass\n"
        "@lru_cache(maxsize=1024)\ndef c(): pass\n"
        "@lru_cache\ndef d(): pass\n"
        "@functools.cache\ndef e(): pass\n"
        "f = lru_cache(maxsize=None)(len)\n")
    assert _unbounded_caches(tree) == ["a", "b", "e", "line 11"]


def test_every_unbounded_cache_has_a_reason():
    # a cache with no size bound keeps all it is given for the life of the
    # process, so each one names why its values stay small
    found = ["%s.%s" % (p.stem, name) for p in sorted(PACKAGE.glob("*.py"))
             for name in _unbounded_caches(ast.parse(p.read_text()))]
    assert sorted(found) == sorted(UNBOUNDED_CACHES)
    assert all(UNBOUNDED_CACHES.values())


# modules that start threads or processes, with their submodules
PARALLEL_MODULES = ("concurrent", "threading", "multiprocessing")


def _parallel_imports(tree):
    """The modules a module imports, at any depth of its tree, that start
    threads or processes."""
    return sorted(m for m in _imported_modules(tree)
                  if m.split(".")[0] in PARALLEL_MODULES)


def test_parallel_import_detector():
    tree = ast.parse(
        "import os, threading\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "def f():\n    import multiprocessing.pool as mp\n"
        "from concurrent import futures\n"
        "import concurrency, threadpoolctl\n"
        "from . import threads\n")
    assert _parallel_imports(tree) == [
        "concurrent", "concurrent.futures", "multiprocessing.pool",
        "threading"]


def test_the_package_starts_no_thread_or_process():
    # every count, scan and search runs on the calling thread; a parallel
    # path comes back only together with a benchmark workload that runs it
    found = {p.name: _parallel_imports(ast.parse(p.read_text()))
             for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: mods for name, mods in found.items() if mods} == {}


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


# every package name, or public method or property of a package class,
# that only tests read, with why it stays public; a name the library or
# the bench starts to read leaves the list
TEST_ONLY_NAMES = {
    "brauermanin.AdelicFiberPoint.from_pairs": "builds a point from a "
                                               "{place: t} dict, as the "
                                               "pairing tests write them",
    "brauermanin.ScanTable.allowed_combinations": "the allowed cell tuples "
                                                  "themselves, which README "
                                                  "documents beside "
                                                  "allowed_count",
    "brauermanin.ScanTable.cells_at": "one place's cells, which the scan's "
                                      "partition tests read place by place",
    "brauermanin.local_invariant": "the bare symbol sum at one point, with "
                                   "no canonical class: the scan's oracle",
    "localsolve.diagonal_quadric_soluble": "the rank-4 anisotropy test, "
                                           "ROADMAP item 7's cell oracle",
    "pencil.brauer_element": "the checked constructor of one element of "
                             "Ker(delta)",
    "quadform.representation_count": "R(n) at one n, read off the row table "
                                     "that enumerate_N sums",
    "quadform.scaling_valid": "the rho scaling identity's hypotheses, which "
                              "the density tests state",
}


def _members(tree):
    """The public methods and properties of a module's classes, as
    (class, name) pairs."""
    return [(node.name, item.name) for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not item.name.startswith("_")]


def _test_only_names(package, readers):
    """The module-level names of the package modules (path -> tree) that no
    reader (path -> tree) reads, as `module.name`, and the public members
    of their classes that no reader reads by attribute name, as
    `module.Class.name`."""
    refs, attributes = set(), set()
    for path, tree in readers.items():
        refs |= _counted_references(tree, path)
        attributes.update(node.attr for node in ast.walk(tree)
                          if isinstance(node, ast.Attribute))
    names = ["%s.%s" % (path.stem, name) for path, tree in package.items()
             for name in _module_names(tree) if name not in refs]
    members = ["%s.%s.%s" % (path.stem, cls, name)
               for path, tree in package.items()
               for cls, name in _members(tree) if name not in attributes]
    return sorted(names + members)


def test_test_only_name_detector():
    # a name read only by its homonym in bench/ is test-only; __init__ is
    # no reader, since its re-export reads every name it lists
    lib = {PACKAGE / "lib.py": ast.parse(
               "def used(): pass\ndef tested(): pass\n"
               "def benched(): pass\nused()\n"),
           PACKAGE / "other.py": ast.parse("from .lib import used\n")}
    bench = {ROOT / "bench" / "b.py": ast.parse(
        "from conicbundles.lib import benched\ndef tested(): pass\n")}
    assert _test_only_names(lib, {**lib, **bench}) == ["lib.tested"]
    init = ast.parse("from .lib import tested\n__all__ = ['tested']\n")
    assert "tested" in _counted_references(init, PACKAGE / "__init__.py")


def test_test_only_member_detector():
    # a public method or property counts as read only where some reader
    # takes it as an attribute: a bare name or a string of that spelling
    # does not keep it, and private members are left out
    lib = {PACKAGE / "lib.py": ast.parse(
        "class C:\n"
        "    def used(self): return self.prop\n"
        "    @property\n    def prop(self): pass\n"
        "    def tested(self): pass\n"
        "    def named(self): pass\n"
        "    def _private(self): pass\n"
        "    @classmethod\n    def make(cls): pass\n"
        "C().used()\nnamed = 'named'\n")}
    assert _test_only_names(lib, lib) == [
        "lib.C.make", "lib.C.named", "lib.C.tested"]


def test_every_test_only_name_has_a_reason():
    # public API that only tests use is listed, so that it cannot grow
    # unseen: its readers are src/ less __init__'s re-export, and bench/
    package = {p: ast.parse(p.read_text())
               for p in sorted(PACKAGE.glob("*.py"))}
    readers = {p: tree for p, tree in package.items()
               if p.name != "__init__.py"}
    readers.update((p, ast.parse(p.read_text()))
                   for p in sorted((ROOT / "bench").rglob("*.py")))
    assert _test_only_names(package, readers) == sorted(TEST_ONLY_NAMES)
    assert all(TEST_ONLY_NAMES.values())


def _cap_reads(tree):
    """The function around each read of DEFAULT_ENUMERATION_CAP, as a name
    or an attribute, in source order; "<module>" for one outside any
    function.  Binding the name is not a read."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(getattr(node, "ctx", None), ast.Load) and \
                "DEFAULT_ENUMERATION_CAP" in (getattr(node, "id", None),
                                              getattr(node, "attr", None)):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return found


def test_cap_comparison_detector():
    # `reads` compares nothing, yet hands the cap to a caller that may
    # compare it: a read, not a comparison, is what the rule counts
    tree = ast.parse(
        "DEFAULT_ENUMERATION_CAP = 10\n"
        "LIMIT = DEFAULT_ENUMERATION_CAP\n"
        "def check(n):\n    return n > DEFAULT_ENUMERATION_CAP\n"
        "def stray(n):\n    return exactnum.DEFAULT_ENUMERATION_CAP <= n\n"
        "def reads():\n    return exactnum.DEFAULT_ENUMERATION_CAP\n"
        "def outer():\n    def inner(m):\n"
        "        return m in (1, DEFAULT_ENUMERATION_CAP)\n"
        "assert DEFAULT_CAP < 2\nassert 1 < DEFAULT_ENUMERATION_CAP\n")
    assert _cap_reads(tree) == ["<module>", "check", "stray", "reads",
                                "inner", "<module>"]


def test_only_exactnum_compares_against_the_cap():
    # one function reads the cap: it decides whether a count passes and
    # writes the refusal
    found = sorted({"%s.%s" % (p.stem, where)
                    for p in sorted(PACKAGE.glob("*.py"))
                    for where in _cap_reads(ast.parse(p.read_text()))})
    assert found == ["exactnum._check_cap"]


def test_all_lists_exactly_the_reexported_names():
    # `from conicbundles import *` gives every name __init__ imports at top
    # level and nothing it does not, except the front end that __getattr__
    # serves lazily
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom)
                and node.module != "__future__" for alias in node.names}
    listed = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets] == ["__all__"])
    assert len(set(listed)) == len(listed)
    assert sorted(imported - set(listed)) == []
    assert sorted(set(listed) - imported) == ["main", "run_selftest"]


_LOCAL_AND_BRAUER = """
import sys
import conicbundles as cb
system = cb.NormFormSystem(r=1, s=2, a=(-1,), forms=((1, 0),))
assert cb.everywhere_locally_soluble(system).soluble
data = cb.ConicBundleData(e=(0, 1, 2, 3), a=(5, 5, 5, 5))
cb.brauer_group(data)
cb.obstruction_scan(data, [cb.Place(5), cb.REAL_PLACE])
print(sorted(set(sys.argv[1:]) & set(sys.modules)))
"""

_STAR = """
from conicbundles import *
import conicbundles
assert main is conicbundles.cli.main
assert run_selftest is conicbundles.cli.run_selftest
from conicbundles import main as again
assert again is main
"""


def _python(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_local_and_brauer_load_only_what_they_run():
    # beta_inf runs on the decimal module, no module starts a thread and
    # the CLI loads on first use, so the local and Brauer-Manin side
    # never imports them
    lazy = ["mpmath", "argparse", "concurrent.futures", "conicbundles.cli"]
    proc = _python("-c", _LOCAL_AND_BRAUER, *lazy)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[-2] == "[]"
    # the front end is still served from the package, and runs as a module
    proc = _python("-c", _STAR)
    assert proc.returncode == 0, proc.stderr
    proc = _python("-m", "conicbundles", "--help")
    assert proc.returncode == 0 and "selftest" in proc.stdout, proc.stderr
