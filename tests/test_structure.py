"""Structural guards over the source tree itself."""

import ast
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

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


BACKEND_ADAPTERS = ("c4run.backends.sim", "c4run.backends.localexec")
RECORD_CODEGEN = ("dataclasses", "inspect")
MAC_MODULES = ("hashlib", "hmac", "secrets", "base64")
STDLIB_LOGGING = ("logging", "traceback")


@pytest.mark.parametrize(
    "module, banned",
    [
        (
            "c4run.cli",
            ("c4run.serve", *BACKEND_ADAPTERS, "cryptography", "concurrent.futures", "uuid",
             *RECORD_CODEGEN, *MAC_MODULES, *STDLIB_LOGGING),
        ),
        ("c4run.anchor", (*BACKEND_ADAPTERS, "cryptography", *RECORD_CODEGEN, *STDLIB_LOGGING)),
        (
            "c4run.serve, c4run.backends.sim",
            (*RECORD_CODEGEN, "cryptography", "concurrent.futures", *STDLIB_LOGGING),
        ),
    ],
)
def test_short_lived_processes_import_only_what_they_run(module, banned):
    # The lifecycle verbs and the reference anchor start a fresh interpreter
    # each time; serve alone needs the pipeline and a backend. No verb
    # computes a MAC, no process loads logging (errors.warn prints JSON
    # lines), serve's workers are plain threads, and a sim serve loads the
    # cipher only when an aesgcm stage runs.
    env = dict(os.environ, PYTHONPATH=str(SRC.parent) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = f"import sys, json, {module}; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert sorted(set(json.loads(proc.stdout)) & set(banned)) == []


def test_no_runtime_module_imports_dataclasses():
    # Records are NamedTuples or __slots__ classes (c4run.record): building
    # dataclasses costs every fresh c4run process milliseconds at import.
    # The long-lived bench tooling, which no verb imports, may use them.
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path.relative_to(SRC).parts[0] == "bench":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            if "dataclasses" in names:
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert offenders == []
