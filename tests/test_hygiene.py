"""Source hygiene: no stackyfans module imports a name it never uses."""

import ast
from pathlib import Path

import stackyfans

PACKAGE = Path(stackyfans.__file__).parent


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def _referenced(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # quoted annotations such as "IntMatrix"
            try:
                names |= {n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                          if isinstance(n, ast.Name)}
            except SyntaxError:
                pass
    return names


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _referenced(tree) | _exported(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(f"{path.name}:{node.lineno}: {alias.name}")
    return unused


def test_modules_use_every_import():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 7
    problems = [p for m in modules for p in _unused_imports(m)]
    assert problems == []


def test_hygiene_check_flags_an_unused_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text('import os\nfrom typing import Optional, Sequence\n'
                     '__all__ = ["Sequence"]\n\n\ndef f(x: "Optional[int]"):\n    return x\n')
    assert _unused_imports(probe) == ["probe.py:1: os"]
