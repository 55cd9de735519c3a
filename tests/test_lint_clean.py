"""The library itself must pass its own determinism lint."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

from repro.analysis.lint import lint_paths

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC_REPRO = REPO_ROOT / "src" / "repro"
LINT_SCRIPT = REPO_ROOT / "scripts" / "lint_repro.py"


def test_src_repro_is_lint_clean():
    findings = lint_paths([SRC_REPRO])
    assert findings == [], "\n".join(f.format() for f in findings)


def test_cli_default_target_is_clean():
    proc = subprocess.run(
        [sys.executable, str(LINT_SCRIPT)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


#: The environment variables the library may read, by module: the
#: profile selector and the runtime-checker switch.  Anything else is
#: a hidden mode (a timeline switch, a debug path) that no deployment
#: sets and that forks the code under test away from what ships.
ALLOWED_ENV_READS = {
    ("config.py", "'REPRO_PROFILE'"),
    ("analysis/runtime.py", "ENV_FLAG"),
}


def _is_environ(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr == "environ" and (
            isinstance(node.value, ast.Name) and node.value.id == "os"
        )
    return isinstance(node, ast.Name) and node.id == "environ"


def _is_getenv(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr == "getenv" and (
            isinstance(node.value, ast.Name) and node.value.id == "os"
        )
    return isinstance(node, ast.Name) and node.id == "getenv"


def env_reads(tree: ast.AST):
    """``(line, key source)`` of every environment read in a module.

    Stores, deletes and ``pop`` are writes and pass; a read whose key
    cannot be attributed (``dict(os.environ)``) reports key ``*``.
    """
    parents = {
        child: node
        for node in ast.walk(tree)
        for child in ast.iter_child_nodes(node)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _is_getenv(node.func):
            yield node.lineno, ast.unparse(node.args[0])
            continue
        if not _is_environ(node):
            continue
        parent = parents.get(node)
        if isinstance(parent, ast.Subscript):
            if isinstance(parent.ctx, ast.Load):
                yield node.lineno, ast.unparse(parent.slice)
        elif isinstance(parent, ast.Attribute) and parent.attr == "pop":
            pass
        elif isinstance(parent, ast.Attribute) and parent.attr in (
            "get",
            "setdefault",
        ):
            yield node.lineno, ast.unparse(parents[parent].args[0])
        elif isinstance(parent, ast.Compare):
            yield node.lineno, ast.unparse(parent.left)
        else:
            yield node.lineno, "*"


def test_env_reads_detected():
    source = (
        "import os\n"
        "a = os.environ.get('A', '')\n"
        "b = os.environ['B']\n"
        "c = os.getenv('C')\n"
        "d = 'D' in os.environ\n"
        "e = dict(os.environ)\n"
        "os.environ['F'] = '1'\n"
        "os.environ.pop('G', None)\n"
    )
    assert sorted(env_reads(ast.parse(source))) == [
        (2, "'A'"), (3, "'B'"), (4, "'C'"), (5, "'D'"), (6, "*"),
    ]


def test_src_reads_only_allowed_env_vars():
    found = []
    for path in sorted(SRC_REPRO.rglob("*.py")):
        module = path.relative_to(SRC_REPRO).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))
        for line, key in env_reads(tree):
            if (module, key) not in ALLOWED_ENV_READS:
                found.append(f"{module}:{line}: reads {key}")
    assert found == [], "\n".join(found)
