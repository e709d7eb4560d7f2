"""Only `core` knows the record format: a record class inherits
`core.Record`, whose to_dict and from_dict are derived from its fields.

Classes are found in the syntax tree; one that defines its own to_dict or
from_dict fails unless it is an output shape listed in ALLOWED.
"""

import ast
from pathlib import Path

import feedbacklab

SRC = Path(feedbacklab.__file__).parent
CODEC_METHODS = {"to_dict", "from_dict"}
ALLOWED = {
    "core.Record.to_dict",
    "core.Record.from_dict",
    # A DPO line is built from the pair and its prompt.
    "forge.PreferencePair.to_dict",
}


def codec_methods(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ClassDef):
            found.extend(
                f"{path.stem}.{node.name}.{item.name}"
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and item.name in CODEC_METHODS
            )
    return found


def test_no_hand_written_record_codecs():
    found = [m for path in sorted(SRC.glob("*.py")) for m in codec_methods(path)]
    assert sorted(set(found) - ALLOWED) == []
