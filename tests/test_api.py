"""The public API: each module's __all__ declares it once, the package
root re-exports those lists, and every declared name has a reader
outside the unit tests."""

import ast
from pathlib import Path

import cayburge
from cayburge import burge, identities, kernel, lomat, words

ROOT = Path(__file__).resolve().parent.parent
MODULES = (kernel, words, burge, lomat, identities)


def _names_read(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_declared_name_resolves_on_its_module():
    for mod in MODULES:
        assert [name for name in mod.__all__ if not hasattr(mod, name)] == [], mod.__name__


def test_package_root_re_exports_each_modules_all():
    declared = [name for mod in MODULES for name in mod.__all__]
    assert cayburge.__all__ == declared
    assert len(set(declared)) == len(declared)
    assert all(getattr(cayburge, name) is getattr(mod, name) for mod in MODULES for name in mod.__all__)


def test_every_declared_name_is_read_outside_the_unit_tests():
    """A name in some __all__ that only its own unit tests read is dead
    weight: the CLI, the check harness, the benchmark, the tools and the
    acceptance criteria are the readers that count."""
    sources = [p for p in (ROOT / "src" / "cayburge").glob("*.py") if p.name != "__init__.py"]
    sources += [*(ROOT / "perfbench").glob("*.py"), *(ROOT / "tools").glob("*.py")]
    sources.append(ROOT / "tests" / "test_acceptance.py")
    read = {name for path in sources for name in _names_read(path)}
    read |= {check for suite in identities.SUITES.values() for check, _, _ in suite}
    unread = {mod.__name__: [name for name in mod.__all__ if name not in read] for mod in MODULES}
    assert unread == {mod.__name__: [] for mod in MODULES}
