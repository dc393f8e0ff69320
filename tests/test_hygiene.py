"""Source hygiene: no stackyfans module imports a name it never uses, and
every public function, class or method is used by the package itself."""

import ast
import importlib
from collections import defaultdict
from pathlib import Path

import stackyfans

PACKAGE = Path(stackyfans.__file__).parent


def _is_all(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets))


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if _is_all(node):
            return set(ast.literal_eval(node.value))
    return set()


def _referenced(tree: ast.AST) -> set[str]:
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


# Public names the package keeps although no package code uses them.
UNREFERENCED_ALLOWED: dict[str, str] = {}


def _unreferenced_public(paths: list[Path]) -> list[str]:
    """Public top-level functions and classes no other statement refers to.

    A definition's own body and the ``__all__`` lists do not count.
    """
    defs = []
    uses = defaultdict(set)
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for k, node in enumerate(tree.body):
            if _is_all(node):
                continue
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defs.append((node.name, path.name, k))
            for name in _referenced(node):
                uses[name].add((path.name, k))
    return sorted(f"{module}: {name}" for name, module, k in defs
                  if not uses[name] - {(module, k)})


def test_package_uses_every_public_definition():
    found = _unreferenced_public(sorted(PACKAGE.glob("*.py")))
    assert [f for f in found if f.split(": ")[1] not in UNREFERENCED_ALLOWED] == []
    # a name that became used no longer needs its entry
    assert {f.split(": ")[1] for f in found} == set(UNREFERENCED_ALLOWED)


def test_hygiene_check_flags_an_unused_definition(tmp_path):
    (tmp_path / "a.py").write_text(
        '__all__ = ["helper", "lonely"]\n\n\ndef helper():\n    return 1\n\n\n'
        'def lonely():\n    return lonely()\n\n\nclass _Private:\n    pass\n')
    (tmp_path / "b.py").write_text('from a import helper\n\nX = helper()\n')
    assert _unreferenced_public([tmp_path / "a.py", tmp_path / "b.py"]) == ["a.py: lonely"]


def test_every_exported_name_exists():
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"stackyfans.{path.stem}")
        exported = _exported(ast.parse(path.read_text(encoding="utf-8")))
        assert [n for n in sorted(exported) if not hasattr(module, n)] == [], path.name


def _unreferenced_methods(paths: list[Path]) -> list[str]:
    """Public methods of top-level classes whose name no attribute access uses.

    Accesses inside the method's own body do not count.
    """
    methods = []
    uses = defaultdict(set)
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                methods += [(path.name, node.name, item) for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                uses[node.attr].add((path.name, node.lineno))
    return sorted(f"{module}: {cls}.{m.name}" for module, cls, m in methods
                  if all(p == module and m.lineno <= line <= m.end_lineno
                         for p, line in uses[m.name]))


def test_package_uses_every_public_method():
    assert _unreferenced_methods(sorted(PACKAGE.glob("*.py"))) == []


def test_hygiene_check_flags_an_unused_method(tmp_path):
    (tmp_path / "a.py").write_text(
        'class A:\n    def used(self):\n        return self.size\n\n'
        '    def lonely(self):\n        return self.lonely()\n\n'
        '    @property\n    def size(self):\n        return 1\n\n'
        '    def _private(self):\n        pass\n')
    (tmp_path / "b.py").write_text('from a import A\n\nX = A().used() + A().size\n')
    assert _unreferenced_methods([tmp_path / "a.py", tmp_path / "b.py"]) == ["a.py: A.lonely"]
