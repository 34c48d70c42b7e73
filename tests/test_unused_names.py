"""Every top-level name in the package is used by the package or the benchmark."""

import ast
from collections import Counter
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]


def _uses(node) -> Counter:
    """Names a subtree refers to: loaded identifiers, attributes, imported
    names and whole string constants (the tracer wraps functions by name)."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            found[sub.name.rpartition(".")[2]] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found[sub.value] += 1
    return found


def _definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def test_no_top_level_name_is_used_only_by_its_definition():
    package = sorted((_ROOT / "src" / "fraclap").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in package + sorted((_ROOT / "perfbench").glob("*.py"))}
    total = sum((_uses(tree) for tree in trees.values()), Counter())
    unused = [
        f"{path.stem}.{name}"
        for path in package
        for name, node in _definitions(trees[path])
        if total[name] == _uses(node)[name]
    ]
    assert unused == []
