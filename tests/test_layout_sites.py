"""Only `segments` knows the judge cache's bytes: no other module imports
`zlib` or builds a `struct.Struct`, so a layout change has one place to
go.

Both are found in the syntax tree: `import zlib`, `from zlib import ...`,
and calls of `struct.Struct` or of a `Struct` imported from `struct`.
"""

import ast
from pathlib import Path

import feedbacklab

SRC = Path(feedbacklab.__file__).parent


def layout_use(node: ast.AST) -> str | None:
    """What part of a byte layout node uses, or None."""
    if isinstance(node, ast.Import) and any(a.name == "zlib" for a in node.names):
        return "import zlib"
    if isinstance(node, ast.ImportFrom) and node.module == "zlib":
        return "import zlib"
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id == "Struct":
            return "struct.Struct"
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "Struct"
            and isinstance(func.value, ast.Name)
            and func.value.id == "struct"
        ):
            return "struct.Struct"
    return None


def test_only_segments_holds_a_byte_layout():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "segments":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if kind := layout_use(node):
                found.append(f"{path.stem}.py:{node.lineno}: {kind}")
    assert found == []


def test_the_guard_sees_each_form():
    uses = [
        layout_use(node)
        for node in ast.walk(
            ast.parse(
                "import os, zlib\nfrom zlib import crc32\n"
                "struct.Struct('<I')\nStruct('<I')\nstruct.pack('<I', 1)\n"
            )
        )
    ]
    assert sorted(filter(None, uses)) == ["import zlib"] * 2 + ["struct.Struct"] * 2
