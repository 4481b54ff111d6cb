"""Every public name of the package has a caller beyond its own unit tests.

The callers searched are the package itself, the benchmark in perfbench/ and
the acceptance suite. A name counts as used where it is loaded as a name, an
attribute or an import outside its own top-level definition.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ncrl_lab"

# bce and bce_shifted are built, as five names the acceptance suite calls
# are, by losses._per_instance; they stay as members of that one mechanism
KEPT = {"bce", "bce_shifted"}


def _callers() -> dict:
    """{path: [(top-level node, names it loads)]} over every caller file."""
    files = [p for p in sorted(PACKAGE.rglob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "perfbench").glob("*.py"))
    files.append(ROOT / "tests" / "test_acceptance.py")
    return {path: [(node, _loads(node)) for node in
                   ast.parse(path.read_text(encoding="utf-8")).body]
            for path in files}


def _defined(nodes: list) -> dict:
    """{name: the top-level def, class or assignment that binds it}."""
    found = {}
    for node, _ in nodes:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        found[name.id] = node
    return found


def _loads(tree: ast.AST) -> set:
    """Names loaded, read as attributes or imported anywhere in `tree`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def _unused(callers: dict, module: Path, names) -> list:
    definitions = _defined(callers[module])
    return [f"{module.relative_to(ROOT)}: {name}" for name in names
            if not any(name in loads and node is not definitions[name]
                       for nodes in callers.values() for node, loads in nodes)]


def test_every_exported_name_has_a_caller():
    callers = _callers()
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    unused = []
    for node in init.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = PACKAGE / (node.module.replace(".", "/") + ".py")
            names = [a.name for a in node.names if a.name not in KEPT]
            unused += _unused(callers, module, names)
    assert not unused, f"exported, but called only by unit tests: {unused}"


def test_every_top_level_name_has_a_caller():
    callers = _callers()
    unused = []
    for module, nodes in callers.items():
        if PACKAGE in module.parents:
            unused += _unused(callers, module,
                              sorted(set(_defined(nodes)) - KEPT))
    assert not unused, f"defined, but called only by unit tests: {unused}"
