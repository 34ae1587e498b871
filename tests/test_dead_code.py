"""No dead code in the package: every import is read, every private name used.

Each module of src/backlog_lab except __init__ is parsed with ast.  An
imported name must be read in the module that imports it, unless the
import carries `# noqa: F401` (a binding kept for callers that look the
name up there).  A module-level private (`_name`) function, class or
constant must be read somewhere under src/: one that only its own unit
tests call is dead code.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "backlog_lab"
NOQA = "# noqa: F401"


def _parse(path):
    text = path.read_text(encoding="utf-8")
    return text.splitlines(), ast.parse(text, filename=str(path))


def _reads(tree):
    """Names a module reads: loaded names, attribute names, names imported from it."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def _modules():
    return [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]


def test_every_imported_name_is_read():
    modules = _modules()
    assert len(modules) >= 5  # the glob still finds the package
    unused = []
    for path in modules:
        lines, tree = _parse(path)
        loaded = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                noqa = NOQA in lines[node.lineno - 1] or NOQA in lines[alias.lineno - 1]
                if bound not in loaded and not noqa:
                    unused.append(f"{path.name}:{alias.lineno} {bound}")
    assert unused == []


def test_every_private_definition_is_read_under_src():
    trees = {path: _parse(path)[1] for path in sorted(SRC.glob("*.py"))}
    read = set().union(*(_reads(tree) for tree in trees.values()))
    dead = []
    for path in _modules():
        for node in trees[path].body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [
                    name.id
                    for target in targets
                    for name in ast.walk(target)
                    if isinstance(name, ast.Name)
                ]
            else:
                continue
            dead.extend(
                f"{path.name}:{node.lineno} {name}"
                for name in defined
                if _is_private(name) and name not in read
            )
    assert dead == []
