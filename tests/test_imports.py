"""Static checks over the package's modules: every name a module imports
is used in it, no module keeps a hand-rolled cache, the package keeps
exactly one lru_cache, only the reference oracles raise ModulusTooLarge,
every public function has a caller in the package or is named as an
oracle, a certificate or awaiting a caller, and one check tests primality
for the package."""

import argparse
import ast
from pathlib import Path

import pytest

import mgonal
from mgonal.cli import _prime

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


def _lru_cached(source: str, module: str):
    """`module.name` of every function decorated with functools.lru_cache
    or functools.cache, called or bare, however the decorator is imported."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for deco in node.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            name = (target.attr if isinstance(target, ast.Attribute)
                    else getattr(target, "id", None))
            if name in ("lru_cache", "cache"):
                found.append(f"{module}.{node.name}")
    return found


def test_one_cache_in_the_package():
    found = [name for path in MODULES
             for name in _lru_cached(path.read_text(), path.stem)]
    assert found == ["localrep._value_set"]


def test_second_lru_cache_is_reported():
    source = ("import functools\nfrom functools import lru_cache, cache\n\n"
              "@functools.lru_cache(maxsize=None)\ndef _value_set(p): pass\n\n"
              "@lru_cache\ndef _shifted_residues(g, p): pass\n\n"
              "class A:\n    @cache\n    def method(self): pass\n\n"
              "@staticmethod\ndef plain(): pass\n")
    assert _lru_cached(source, "localrep") == [
        "localrep._value_set", "localrep._shifted_residues", "localrep.method"]


def _names(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _modulus_raisers(source: str):
    """Names of the functions with a raise of ModulusTooLarge: a raise
    whose expression names the class, or a name bound from a caught
    ModulusTooLarge (directly or through assignments), or a bare raise in
    a handler that catches it."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        handlers = [h for h in ast.walk(fn) if isinstance(h, ast.ExceptHandler)
                    and h.type is not None and "ModulusTooLarge" in _names(h.type)]
        caught = {"ModulusTooLarge"} | {h.name for h in handlers if h.name}
        assigns = [node for node in ast.walk(fn) if isinstance(node, ast.Assign)]
        for _ in assigns:  # no chain of assignments is longer than this
            for node in assigns:
                if _names(node.value) & caught:
                    caught |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        bare = {id(r) for h in handlers for r in ast.walk(h)
                if isinstance(r, ast.Raise) and r.exc is None}
        if any(isinstance(r, ast.Raise)
               and (id(r) in bare or r.exc is not None and _names(r.exc) & caught)
               for r in ast.walk(fn)):
            found.append(fn.name)
    return found


def test_only_the_oracles_raise_modulus_too_large():
    found = {name for path in MODULES for name in _modulus_raisers(path.read_text())}
    assert found <= {"represents_mod_search", "represents_reference_fft",
                     "_coord_indicator"}, found


def test_modulus_raiser_is_reported():
    source = ("def table(p):\n    raise ModulusTooLarge('big')\n\n"
              "def many(ns):\n    refusal = None\n    try:\n        table(2)\n"
              "    except ModulusTooLarge as exc:\n        refusal = refusal or exc\n"
              "    if refusal is not None:\n        raise refusal\n\n"
              "def again():\n    try:\n        table(2)\n"
              "    except (ValueError, ModulusTooLarge):\n        raise\n\n"
              "def quiet():\n    try:\n        table(2)\n"
              "    except ModulusTooLarge:\n        return None\n"
              "    raise ValueError('other')\n")
    assert _modulus_raisers(source) == ["table", "many", "again"]


def _uncalled(module: str, sources: dict):
    """Public top-level functions of sources[module] that no code in the
    sources calls by name, a call inside the function itself aside."""
    public = [node.name for node in ast.parse(sources[module]).body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    called = set()
    for name, source in sources.items():
        for top in ast.parse(source).body:
            own = getattr(top, "name", None) if name == module else None
            called |= {getattr(node.func, "attr", getattr(node.func, "id", None))
                       for node in ast.walk(top)
                       if isinstance(node, ast.Call)} - {own}
    return [fn for fn in public if fn not in called]


# The public functions that no code in the package calls, by reason.
# Independent references the tests hold the engines to:
ORACLES = ["localrep.represents_reference_fft", "localrep.stable_value_set_check",
           "polygonal.form_to_shifted", "regcheck.represents_globally"]
# Checks of the paper's claims that the acceptance tests run as such:
CERTIFICATES = ["density.exception_count_check", "density.psi_prime_power",
                "pipeline.find_coprime_shift", "prodineq.check_implications",
                "prodineq.min_slack"]
# Lemma code and the census entry point, until the replay and the census
# command call them (ROADMAP items 1 and 4):
AWAITING_A_CALLER = ["pipeline.find_nu", "pipeline.find_v",
                     "regcheck.candidate_scan"]


def test_no_dead_public_api():
    """Every public function of every module has a caller in the package,
    or is named above."""
    sources = {path.stem: path.read_text() for path in MODULES}
    found = [f"{module}.{fn}" for module in sources
             for fn in _uncalled(module, sources)]
    assert sorted(found) == sorted(ORACLES + CERTIFICATES + AWAITING_A_CALLER)


def test_uncalled_function_is_reported():
    sources = {"lib": "def used(): pass\n\ndef dead(n):\n    return dead(n - 1)\n\n"
                      "def _private(): pass\n",
               "app": "import lib\n\ndef main():\n    return lib.used()\n"}
    assert _uncalled("lib", sources) == ["dead"]


def _referrers(source: str, module: str, name: str):
    """`module.top` for each top-level statement of the source (a function,
    a class or other module code) that names `name`, bare or as an
    attribute, other than a definition of `name` itself."""
    found = []
    for top in ast.parse(source).body:
        if getattr(top, "name", None) == name:
            continue
        if any(isinstance(node, ast.Name) and node.id == name
               or isinstance(node, ast.Attribute) and node.attr == name
               for node in ast.walk(top)):
            found.append(f"{module}.{getattr(top, 'name', '<module>')}")
    return found


def test_one_prime_check_in_the_package():
    """Library code checks a prime argument through `numth._check_prime`
    only; the command line's `--p` parser keeps its own test, which must
    answer with an argparse error."""
    found = [name for path in MODULES
             for name in _referrers(path.read_text(), path.stem, "is_prime")]
    assert found == ["cli._prime", "numth._check_prime"]
    for text in ("9", "1", "x"):
        with pytest.raises(argparse.ArgumentTypeError):
            _prime(text)


def test_prime_referrer_is_reported():
    source = ("from .numth import is_prime\nimport numth\n\n"
              "def is_prime(n): pass\n\ndef check(p):\n    return is_prime(p)\n\n"
              "class Seq:\n    def ok(self, p):\n        return numth.is_prime(p)\n\n"
              "ODD = list(filter(is_prime, range(3, 9, 2)))\n")
    assert _referrers(source, "lib", "is_prime") == [
        "lib.check", "lib.Seq", "lib.<module>"]
