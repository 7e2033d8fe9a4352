"""Static checks over the package's modules: every name a module imports
is used in it, and no module keeps a hand-rolled cache."""

import ast
from pathlib import Path

import pytest

import mgonal

MODULES = sorted(Path(mgonal.__file__).parent.glob("*.py"))


def _unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:  # re-exports listed in __all__
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_unused_import_is_reported():
    source = "from dataclasses import dataclass, field\n\n@dataclass\nclass A:\n    x: int\n"
    assert _unused_imports(source) == [(1, "field")]


def _dict_caches(source: str):
    """Module-level names ending in `_cache` bound to a dict or set
    (caches are functools.lru_cache, which bounds, counts and clears)."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        container = (isinstance(value, (ast.Dict, ast.Set, ast.DictComp, ast.SetComp))
                     or (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                         and value.func.id in ("dict", "set")))
        found += [t.id for t in targets if container and isinstance(t, ast.Name)
                  and t.id.endswith("_cache")]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_level_dict_caches(path):
    assert _dict_caches(path.read_text()) == []


def test_dict_cache_is_reported():
    source = ("_verdict_cache: Dict[Tuple, bool] = {}\n"
              "_shifted_cache = dict()\n_primes = {2, 3}\n")
    assert _dict_caches(source) == ["_verdict_cache", "_shifted_cache"]
