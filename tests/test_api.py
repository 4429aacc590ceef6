"""The public API: each module's __all__ declares it once, the package
root re-exports those lists, and every declared name, public method and
defaulted parameter has a reader outside the unit tests: the CLI, the
check harness, the benchmark, the tools or the acceptance criteria."""

import ast
from functools import cache
from pathlib import Path

import cayburge
from cayburge import burge, identities, kernel, lomat, words

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cayburge"
MODULES = (kernel, words, burge, lomat, identities)


@cache
def _readers() -> dict[Path, ast.Module]:
    sources = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    sources += [*(ROOT / "perfbench").glob("*.py"), *(ROOT / "tools").glob("*.py")]
    sources.append(ROOT / "tests" / "test_acceptance.py")
    return {p: ast.parse(p.read_text(), str(p)) for p in sources}


def _outside(skip: set):
    """Each node of the readers that is not inside a node of skip."""
    stack = list(_readers().values())
    while stack:
        node = stack.pop()
        if node not in skip:
            yield node
            stack.extend(ast.iter_child_nodes(node))


def _names_read(skip: set) -> set[str]:
    read = set()
    for node in _outside(skip):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def _declared(kind):
    """(qualified name, node) of each declared top-level def of this kind."""
    for mod in MODULES:
        for node in _readers()[SRC / f"{mod.__name__.rpartition('.')[2]}.py"].body:
            if isinstance(node, kind) and node.name in mod.__all__:
                yield f"{mod.__name__}.{node.name}", node


def _methods() -> dict[str, ast.stmt]:
    """Qualified name -> def or property assignment, for each public
    method or property of a declared class."""
    found = {}
    for qual, cls in _declared(ast.ClassDef):
        for node in cls.body:
            prop = isinstance(node, ast.Assign) and ast.unparse(node.value).startswith("property(")
            name = node.targets[0].id if prop else getattr(node, "name", "_")
            if not name.startswith("_"):
                found[f"{qual}.{name}"] = node
    return found


@cache
def _unread_methods() -> dict[str, ast.stmt]:
    """The public methods nothing reads outside the unread ones' bodies:
    grown from none, so methods that only read each other stay unread."""
    methods, read = _methods(), set()
    while True:
        names = _names_read({node for qual, node in methods.items() if qual not in read})
        grown = {qual for qual in methods if qual.rpartition(".")[2] in names}
        if grown == read:
            return {qual: node for qual, node in methods.items() if qual not in read}
        read = grown


def test_package_root_re_exports_each_modules_all():
    declared = [name for mod in MODULES for name in mod.__all__]
    assert cayburge.__all__ == declared
    assert len(set(declared)) == len(declared)
    assert all(getattr(cayburge, name) is getattr(mod, name) for mod in MODULES for name in mod.__all__)


def test_every_declared_name_is_read_outside_the_unit_tests():
    read = _names_read(set()) | {check for suite in identities.SUITES.values() for check, _, _ in suite}
    unread = {mod.__name__: [name for name in mod.__all__ if name not in read] for mod in MODULES}
    assert unread == {mod.__name__: [] for mod in MODULES}


def test_every_public_method_is_read_outside_the_unit_tests():
    assert list(_unread_methods()) == []


def test_every_defaulted_parameter_is_set_by_a_reader():
    """A default that every call keeps is a knob with one value.  Calls in
    unread methods do not count; a method's calls pass self unseen."""
    dead = _unread_methods()
    units = [(qual, fn, 1) for qual, fn in _methods().items() if qual not in dead and isinstance(fn, ast.FunctionDef)]
    units += [(qual, fn, 0) for qual, fn in _declared(ast.FunctionDef)]
    keywords, given = {}, {}
    for node in _outside(set(dead.values())):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            keywords.setdefault(name, set()).update(kw.arg for kw in node.keywords)
            given[name] = max(given.get(name, 0), len(node.args))
    unset = []
    for qual, fn, self_args in units:
        positional = fn.args.posonlyargs + fn.args.args
        first = max(len(positional) - len(fn.args.defaults), self_args + given.get(fn.name, 0))
        names = [a.arg for a in positional[first:]]
        names += [a.arg for a, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if default]
        unset += [f"{qual}({name})" for name in names if name not in keywords.get(fn.name, ())]
    assert unset == []
