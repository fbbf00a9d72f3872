"""Source hygiene of the package: every import is used, every private
function has a caller, every public name has a reader, every exported
name exists, the command line imports no private name of the library,
one routine makes every Smith form, one path reads a
group's Smith data, every module compiles without a warning, importing
it loads only the standard library, and every dotted name the README
quotes still exists."""

from __future__ import annotations

import ast
import importlib
import json
import re
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = sorted((SRC / "snckit").glob("*.py"))


def _imported_names(tree: ast.Module) -> list[tuple[str, int]]:
    """(bound name, line) of every import, ``__future__`` ones aside."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [((a.asname or a.name).split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [(a.asname or a.name, node.lineno) for a in node.names]
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.Module) -> set[str]:
    """Names the module reads, including those inside string
    annotations such as ``"SnfDecomposition | None"``."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation) if annotation is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used_names(ast.parse(node.value, mode="eval"))
    return used


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    used = _used_names(tree) | _exported(tree)
    unused = [f"{name} (line {line})" for name, line in _imported_names(tree)
              if name not in used]
    assert unused == [], f"{path.name} imports but never uses {unused}"


def _referenced(nodes) -> Counter:
    """How often each name is read, as a name or an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in nodes
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_private_function_has_a_caller():
    """A private function or method is read somewhere in the package
    outside its own body, so no helper outlives its last caller.  Names
    are matched, not bindings: a name defined twice, such as ``_of``,
    passes while any reference to it is left."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in MODULES}
    refs = _referenced(node for tree in trees.values() for node in ast.walk(tree))
    unused = [
        f"{name}.{node.name} (line {node.lineno})"
        for name, tree in trees.items() for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and refs[node.name] == _referenced(ast.walk(node))[node.name]
    ]
    assert unused == [], f"private functions without a caller: {unused}"


def _loaded(nodes) -> Counter:
    """How often each name is loaded, as a name or an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in nodes
                   if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load))


def _is_dataclass(cls: ast.ClassDef) -> bool:
    """Whether ``cls`` is decorated ``@dataclass`` or ``@dataclass(...)``."""
    decorators = (getattr(d, "func", d) for d in cls.decorator_list)
    return any(getattr(d, "id", None) == "dataclass" for d in decorators)


def _public_definitions(tree: ast.Module):
    """(qualified name, name, node) of every public module-level
    function, every public method or property of a top-level class, and
    every public field of a top-level dataclass; dunders are private
    here."""
    for top in tree.body:
        if isinstance(top, ast.FunctionDef) and not top.name.startswith("_"):
            yield top.name, top.name, top
        elif isinstance(top, ast.ClassDef):
            for item in top.body:
                if isinstance(item, ast.FunctionDef):
                    name = item.name
                elif isinstance(item, ast.AnnAssign) and _is_dataclass(top):
                    name = item.target.id
                else:
                    continue
                if not name.startswith("_"):
                    yield f"{top.name}.{name}", name, item


def _traced() -> set[str]:
    """``module.function`` and ``module.Class.method`` of every name
    the benchmark tracer wraps (``bench/spans.py``'s ``FUNCTIONS`` and
    ``METHODS`` tables), and ``matrices.SnfDecomposition.<field>`` of
    every field its ``_snf_hook`` reads off the result of ``snf``."""
    tree = ast.parse((ROOT / "bench" / "spans.py").read_text(encoding="utf-8"))
    tables = {target.id: ast.literal_eval(node.value)
              for node in tree.body if isinstance(node, ast.Assign)
              for target in node.targets if isinstance(target, ast.Name)}
    hook = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "_snf_hook")
    return ({f"{layer}.{name}" for layer, names in tables["FUNCTIONS"].items() for name in names}
            | {f"{layer}.{cls}.{name}" for layer, methods in tables["METHODS"].items()
               for cls, name in methods}
            | {f"matrices.SnfDecomposition.{node.attr}" for node in ast.walk(hook)
               if isinstance(node, ast.Attribute)
               and getattr(node.value, "id", None) == "result"})


def _readme_quotes() -> set[tuple[str, ...]]:
    """The last two parts of every dotted name that README.md quotes,
    alone or called, as in ``FgAbelianGroup.smith()``: ``("smith",)``
    for a bare name, ``("FgAbelianGroup", "smith")`` for a dotted one."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return {tuple(name.split(".")[-2:])
            for name in re.findall(r"`([A-Za-z_][\w.]*)(?:\([^`]*\))?`", text)}


def test_every_public_name_has_a_reader():
    """A public function, method, property or dataclass field of the
    package has a reader: a package module loads it outside its own
    definition, ``tests/test_acceptance.py`` loads it, the benchmark
    tracer wraps or reads it, it is a module-level name in
    ``snckit.__all__``, or README.md quotes it (a method or field only
    as ``Class.name``, a function also bare or as ``module.name``).  So
    no API lives on for the unit tests alone.  Package and acceptance
    reads match names, not bindings, as for private functions."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in MODULES}
    package = _loaded(node for tree in trees.values() for node in ast.walk(tree))
    acceptance = set(_loaded(ast.walk(ast.parse(
        (ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")))))
    traced = _traced()
    quotes = _readme_quotes()
    exported = _exported(trees["__init__"])
    unread = []
    for stem, tree in trees.items():
        for qualified, name, node in _public_definitions(tree):
            function = qualified == name
            owner = stem if function else qualified.split(".")[0]
            if (package[name] > _loaded(ast.walk(node))[name] or name in acceptance
                    or f"{stem}.{qualified}" in traced or (owner, name) in quotes
                    or function and (name in exported or (name,) in quotes)):
                continue
            unread.append(f"{stem}.{qualified} (line {node.lineno})")
    assert unread == [], f"public names without a reader: {unread}"


def test_every_export_resolves():
    """Every name in a module's ``__all__``, and in ``snckit.__all__``,
    exists, so no export outlives what it names."""
    missing = []
    for path in MODULES:
        name = "snckit" if path.stem == "__init__" else f"snckit.{path.stem}"
        module = importlib.import_module(name)
        missing += [f"{name}.{export}" for export in getattr(module, "__all__", ())
                    if not hasattr(module, export)]
    assert missing == [], f"exported names that do not exist: {missing}"


def test_the_cli_imports_no_private_name():
    """The command line is a client of the public library: ``cli.py``
    imports no underscore-prefixed name from another package module, so
    no unchecked twin of a public entry point grows back beside it."""
    path = SRC / "snckit" / "cli.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    private = [f"{node.module}.{alias.name} (line {node.lineno})"
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").split(".")[0] == "snckit")
               for alias in node.names if alias.name.startswith("_")]
    assert private == [], f"cli.py imports private names: {private}"


def _call_sites(name: str) -> list[tuple[str, str]]:
    """(module, enclosing top-level function or class) of every call of
    ``name`` in the package, read as a name or an attribute; a call in a
    method of a top-level class is reported as ``Class.method``."""
    sites = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for top in tree.body:
            owner = getattr(top, "name", "<module>")
            methods = top.body if isinstance(top, ast.ClassDef) else []
            inner = {id(node): f"{owner}.{item.name}" for item in methods
                     if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                     for node in ast.walk(item)}
            sites += [(path.stem, inner.get(id(node), owner)) for node in ast.walk(top)
                      if isinstance(node, ast.Call)
                      and getattr(node.func, "id", getattr(node.func, "attr", None)) == name]
    return sites


def test_one_routine_makes_every_smith_form():
    """Elimination runs only inside ``matrices._smith_form``, and only
    ``matrices`` builds an ``SnfDecomposition``: every Smith form, of a
    matrix, a boundary or a continuation, comes from that one routine."""
    assert _call_sites("_eliminate") == [("matrices", "_smith_form")]
    assert {module for module, _ in _call_sites("SnfDecomposition")} == {"matrices"}


def test_one_path_reads_a_groups_smith_data():
    """In ``groups`` only ``FgAbelianGroup._walked`` walks a row log, the
    package reads Smith data from the cached rows and columns and never
    from the public ``smith()`` view, and only ``smith()`` builds that
    view."""
    assert [site for site in _call_sites("_smith_vector") if site[0] == "groups"] == [
        ("groups", "FgAbelianGroup._walked")]
    assert _call_sites("smith") == []
    assert _call_sites("_build") == [("groups", "FgAbelianGroup.smith")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_compiles_without_warnings(path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(encoding="utf-8"), str(path), "exec")


def test_imports_only_the_standard_library():
    """``python -S`` leaves site-packages off the path, so the package
    and its CLI import without them, and every top-level module loaded
    is the standard library's or the package's own."""
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import snckit, snckit.cli\n"
        "allowed = set(sys.stdlib_module_names) | {'snckit', '__main__'}\n"
        "print(sorted({m.split('.')[0] for m in sys.modules} - allowed))\n"
    )
    done = subprocess.run([sys.executable, "-S", "-c", script],
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def _defines(path: Path, names: list[str]) -> bool:
    """Whether ``path`` defines ``names[0]`` at top level (a function,
    class or assignment) and each later name inside the one before."""
    body = ast.parse(path.read_text(encoding="utf-8"), str(path)).body
    for name in names:
        found = None
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
                found = node
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == name for t in node.targets):
                found = node
        if found is None:
            return False
        body = getattr(found, "body", [])
    return True


def _has(obj, attr: str) -> bool:
    return (hasattr(obj, attr) or attr in getattr(obj, "__dataclass_fields__", {})
            or attr in getattr(obj, "__slots__", ()))


def _python_name(dotted: str) -> bool:
    """Whether ``dotted`` names a module of the package or of the
    standard library, or an attribute reached from one, with the
    package's modules and their top-level names as starting points."""
    first, *rest = dotted.split(".")
    if first == "snckit":
        first, *rest = rest
    modules = {path.stem: importlib.import_module(f"snckit.{path.stem}")
               for path in MODULES if path.stem != "__init__"}
    starts = ([modules[first]] if first in modules
              else [getattr(m, first) for m in modules.values() if _has(m, first)])
    if not starts and first in sys.stdlib_module_names:
        starts = [importlib.import_module(first)]
    for obj in starts:
        for attr in rest:
            if not _has(obj, attr):
                break
            obj = getattr(obj, attr, None)
        else:
            return True
    return False


def _resolves(name: str) -> bool:
    """A quoted dotted name is a test or module-level name in a file
    (``path::name``), a file, a benchmark metric, a key path of a golden
    document, or a Python name."""
    if "::" in name:
        path, *names = name.split("::")
        return (ROOT / path).is_file() and _defines(ROOT / path, names)
    if "/" in name or name.endswith((".py", ".json", ".md", ".yml", ".toml")):
        return any((base / name).is_file()
                   for base in (ROOT, SRC / "snckit", ROOT / "tests" / "golden"))
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if name in {m["name"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}:
        return True
    document = json.loads((ROOT / "tests" / "golden" / "fermat5.json").read_text())
    for key in name.split("."):
        if not isinstance(document, dict) or key not in document:
            break
        document = document[key]
    else:
        return True
    return _python_name(name)


def test_every_dotted_name_in_the_readme_resolves():
    """Every backquoted name with a dot or a ``::`` in README.md, such
    as ``matrices._smith_form``, ``tests/test_cli.py::SNF_WORK`` or
    ``BENCH_36.json``, still names something, so the README cannot keep
    describing code, tests or files that are gone."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    names = sorted({name for name in re.findall(r"`([^`\s]+)`", text)
                    if re.fullmatch(r"[\w/.:-]*[\w](\.|::)[\w.:/-]+", name)})
    assert names
    missing = [name for name in names if not _resolves(name)]
    assert missing == [], f"README names what does not exist: {missing}"
