"""Every module-level import of a gevlab module is used in that module, no
module imports mpmath, every module-level private name is read somewhere in
the package, every module-level public function or class is read outside its
own definition, save a listed few, and every public method or property of a
package class is read somewhere in the sources, the tests or the benchmark.

Parses the sources with `ast`, so it needs no lint tool.  `__init__.py`
re-exports its imports and is left out of the import check.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_SRC = _ROOT / "src" / "gevlab"
_MODULES = sorted(p for p in _SRC.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [n for n in _imported_names(tree) if n not in used]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def _read_counts(tree: ast.AST) -> Counter:
    """How often each name is read, as a name or an attribute, in tree."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) or (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
    )


def _name_loads(tree: ast.AST) -> Counter:
    """How often each name is read as a bare name in tree."""
    return Counter(
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    )


def _private_definitions(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def test_no_unreferenced_private_names():
    """Every module-level private function, class or assignment in
    `src/gevlab` is read somewhere in `src/gevlab`, as a name or an
    attribute."""
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(_SRC.glob("*.py"))}
    read = set().union(*map(_read_counts, trees.values()))
    unread = [
        f"{name}:{n}" for name, tree in trees.items() for n in _private_definitions(tree) if n not in read
    ]
    assert not unread, f"private names defined but never read: {unread}"


def test_no_module_imports_mpmath():
    """mpmath is a test oracle only: no module in `src/gevlab` imports it,
    at module level or inside a function."""
    found = []
    for path in sorted(_SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            found += [f"{path.name}: {m}" for m in modules if m.split(".")[0] == "mpmath"]
    assert not found, f"runtime imports of mpmath: {found}"


_POWER_LAW_FIELDS = {"a_re", "p_re", "a_im", "p_im"}


@pytest.mark.parametrize("name", ["counterexamples.py", "gevrey_classifier.py"])
def test_plans_and_region_read_envelopes_not_power_law_fields(name):
    """Selections, plans and the region test read a family's lam_bounds
    only, so no attribute of a PowerLawSpectrum is read there, and the
    classifier does not name the class at all."""
    tree = ast.parse((_SRC / name).read_text(), filename=name)
    attrs = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert not attrs & _POWER_LAW_FIELDS, f"{name} reads power-law fields: {attrs & _POWER_LAW_FIELDS}"
    if name == "gevrey_classifier.py":
        named = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        named |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
        assert "PowerLawSpectrum" not in named, f"{name} names PowerLawSpectrum"


_ENVELOPE_METHODS = {"re_bounds", "im_bounds", "abs_pow_bounds", "log_abs_bounds"}
_ENVELOPE_DUPLICATES = {"EnvelopeTerms"}  # classes that copied LamBounds' terms
_ENVELOPE_READS = {"envelope_terms", "unbounded"}  # attributes beside lam_bounds


def test_eigenvalue_envelopes_are_one_object():
    """Families and index spaces hand on one LamBounds (lam_bounds), whose
    abs_pow and log_abs are the only derivation of the |lam|^q and log|lam|
    envelopes; no module defines the old per-class envelope methods or a
    second envelope class, nor reads a second envelope attribute."""
    found = []
    for path in sorted(_SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in _ENVELOPE_METHODS:
                found.append(f"{path.name}: defines {node.name}()")
            elif isinstance(node, ast.ClassDef) and node.name in _ENVELOPE_DUPLICATES:
                found.append(f"{path.name}: defines class {node.name}")
            elif isinstance(node, ast.Attribute) and node.attr in _ENVELOPE_READS:
                found.append(f"{path.name}: reads .{node.attr}")
    assert not found, f"eigenvalue envelopes outside LamBounds: {found}"


def test_plan_subsequence_is_a_spectrum_not_an_index_space():
    """A plan's selected subsequence is a spectrum family: SeriesSpace
    defines no selection, and no module but counterexamples.py reads an
    attribute named selection."""
    found = []
    for path in sorted(_SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "selection" and path.name != "counterexamples.py":
                found.append(f"{path.name}: reads .selection")
            elif isinstance(node, ast.ClassDef) and node.name == "SeriesSpace":
                defined = {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
                defined |= {
                    n.id
                    for item in node.body
                    if isinstance(item, (ast.Assign, ast.AnnAssign))
                    for t in (item.targets if isinstance(item, ast.Assign) else [item.target])
                    for n in ast.walk(t)
                    if isinstance(n, ast.Name)
                }
                if "selection" in defined:
                    found.append(f"{path.name}: SeriesSpace defines selection")
    assert not found, f"the plan's subsequence as an index space: {found}"


# Public names that no package module reads, each with the reason it stays.
_UNREAD_PUBLIC = {
    "PowerSymbol": "reference of the power_bounds tests: term_bounds(PowerSymbol(n))",
    "serialize_jobspec": "round-trip partner of parse_jobspec in the tests",
    "domain_member_prop31": "perfbench wraps it by name to trace the dual-probe layer",
    "builtin_spectra": "public entry point: the catalog of the harness and the acceptance suite",
    "CustomSpectrum": "public entry point: a user-declared spectrum family",
}


def test_every_public_definition_is_read_by_the_package():
    """Every module-level public function or class in `src/gevlab` is read
    as a bare name by package code outside its own definition; an attribute
    that shares its name (a method or property) does not count, nor does
    the re-export in `__init__.py`.  _UNREAD_PUBLIC lists the exceptions,
    and each of them must still be unread."""
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in _MODULES}
    total = sum(map(_name_loads, trees.values()), Counter())
    unread = {
        node.name
        for tree in trees.values()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and total[node.name] == _name_loads(node)[node.name]
    }
    assert not unread - set(_UNREAD_PUBLIC), f"public names no package module reads: {sorted(unread - set(_UNREAD_PUBLIC))}"
    assert not set(_UNREAD_PUBLIC) - unread, f"allow-listed names that are now read: {sorted(set(_UNREAD_PUBLIC) - unread)}"


def test_every_public_method_is_read_somewhere():
    """Every public method or property of a class in `src/gevlab` is read,
    as a name or an attribute, outside its own definition by some code under
    `src/`, `tests/` or `perfbench/`."""
    paths = [p for d in ("src", "tests", "perfbench") for p in sorted((_ROOT / d).rglob("*.py"))]
    total = sum((_read_counts(ast.parse(p.read_text(), filename=str(p))) for p in paths), Counter())
    unread = [
        f"{path.name}:{cls.name}.{node.name}"
        for path in _MODULES
        for cls in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        and total[node.name] == _read_counts(node)[node.name]
    ]
    assert not unread, f"public methods and properties nothing reads: {unread}"
