"""Structural guards over the source tree itself."""

import ast
import re
from collections import Counter
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "c4run"
PERFBENCH = REPO_ROOT / "perfbench"


def _definitions(path: Path):
    """Functions, classes, methods and UPPER_CASE assignments at module and
    class level, dunders excepted."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bodies = [tree.body] + [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
    for body in bodies:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name) and t.id.isupper()]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id] if node.target.id.isupper() else []
            else:
                names = []
            yield from (n for n in names if not (n.startswith("__") and n.endswith("__")))


def test_every_definition_in_src_is_used_outside_the_tests():
    # A name that occurs only at its definition in src/ and perfbench/ is
    # dead code, or an API that only the tests call: both belong elsewhere.
    words = Counter()
    for tree in (SRC, PERFBENCH):
        for path in sorted(tree.rglob("*.py")):
            words.update(re.findall(r"\w+", path.read_text()))
    unused = sorted(
        f"{path.relative_to(SRC)}:{name}"
        for path in sorted(SRC.rglob("*.py"))
        for name in set(_definitions(path))
        if words[name] < 2
    )
    assert unused == []
