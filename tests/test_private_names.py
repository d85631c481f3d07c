"""Every private module-level name under `src/corps` is used there, so a
helper left behind by deleted code fails tier-1."""

import ast
from collections import Counter

from test_stdlib_only import SOURCES


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _module_names(tree: ast.Module):
    """The names a module binds at its top level by def, class or
    assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def test_every_private_module_name_is_referenced():
    # A reference is a read of the name, an attribute of that name or an
    # import of it, anywhere under src/corps.
    defined, referenced = [], Counter()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        defined += [(path.name, name) for name in _module_names(tree) if _is_private(name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                referenced[node.id] += 1
            elif isinstance(node, ast.Attribute):
                referenced[node.attr] += 1
            elif isinstance(node, ast.alias):
                referenced[node.name] += 1
    assert len(defined) > 20
    assert [f"{file}: {name}" for file, name in defined if not referenced[name]] == []
