"""No top-level function or class in the package exists that nothing reads.

References are counted in the syntax tree, so a name that appears only
in a string or a comment does not count as read.
"""

import ast
from pathlib import Path

import feedbacklab
from feedbacklab import cli

SRC = Path(feedbacklab.__file__).parent
CONTRACT = Path(__file__).with_name("test_acceptance.py")


def referenced_names(node: ast.AST) -> set[str]:
    """Names that node reads: ast.Name ids, ast.Attribute attrs and the
    names imported by `from ... import`."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def test_every_top_level_definition_is_read():
    modules = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    # A definition's own body does not count as a reader of it.
    readers = [
        (stmt, referenced_names(stmt))
        for tree in modules.values()
        for stmt in tree.body
    ]
    entry_points = (
        set(feedbacklab._SUBMODULE_OF)
        | {command.handler.__name__ for command in cli.COMMANDS.values()}
        | referenced_names(ast.parse(CONTRACT.read_text()))
    )
    unread = []
    for module, tree in sorted(modules.items()):
        for stmt in tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = stmt.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if name in entry_points:
                continue
            if any(name in names for other, names in readers if other is not stmt):
                continue
            unread.append(f"{module}.{name}")
    assert unread == []
