"""Only `core` writes files: every other module writes through
`core.atomic_write`, so a killed command leaves no torn file.

Calls are found in the syntax tree: builtin `open` or `<path>.open`
with a write mode (a mode that is not a string literal counts as one),
`.write_text`, `.write_bytes` and `os.write`.
"""

import ast
from pathlib import Path

import feedbacklab

SRC = Path(feedbacklab.__file__).parent


def opened_for_writing(call: ast.Call, mode_index: int) -> bool:
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"]
    if len(call.args) > mode_index:
        modes.append(call.args[mode_index])
    return any(
        not (isinstance(mode, ast.Constant) and isinstance(mode.value, str))
        or set(mode.value) & set("wax+")
        for mode in modes
    )


def write_call(call: ast.Call) -> str | None:
    """The kind of file write `call` makes, or None."""
    func = call.func
    if isinstance(func, ast.Name):
        return "open" if func.id == "open" and opened_for_writing(call, 1) else None
    if not isinstance(func, ast.Attribute):
        return None
    on_os = isinstance(func.value, ast.Name) and func.value.id == "os"
    if func.attr in ("write_text", "write_bytes") or (on_os and func.attr == "write"):
        return func.attr
    if func.attr == "open" and not on_os and opened_for_writing(call, 0):
        return "open"
    return None


def test_only_core_writes_files():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "core":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and (kind := write_call(node)):
                found.append(f"{path.stem}.py:{node.lineno}: {kind}")
    assert found == []
