"""No command handler loads its own inputs or builds its own judge:
`cli.run` loads what `cli.COMMANDS` declares, then builds the client, so
a bad input fails before any judge call.

Calls are found in the syntax tree of every `cmd_*` function in cli.py,
nested functions included, by the called name: `f(...)` and
`<anything>.f(...)` both count.
"""

import ast
from pathlib import Path

import feedbacklab

CLI = Path(feedbacklab.__file__).with_name("cli.py")
LOADING_CALLS = {
    "path",  # config.path
    "resolved_paths",
    "client",  # ctx.client
    "load_corpus",
    "load_model_units",
    "load_annotations",
    "read_jsonl",
}


def called_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def test_handlers_load_no_inputs_and_build_no_judge():
    tree = ast.parse(CLI.read_text(encoding="utf-8"))
    handlers = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")
    ]
    assert handlers
    found = [
        f"{handler.name}:{node.lineno}: {called_name(node)}"
        for handler in handlers
        for node in ast.walk(handler)
        if isinstance(node, ast.Call) and called_name(node) in LOADING_CALLS
    ]
    assert found == []
