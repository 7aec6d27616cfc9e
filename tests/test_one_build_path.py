"""One MFA build path: only ``compile_shards`` touches the artifact cache.

``compile_mfa`` (plain, cached or sharded), the resilient compiler and
the scan daemon all build through
:func:`repro.fastcompile.compile_shards`.  A second place that keys,
loads or stores cache entries could key the same engine differently and
build it twice, so this suite holds the source to the one build path.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
SHARDS_MODULE = SRC / "fastcompile" / "shards.py"


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def _cache_uses(tree):
    """Every import or call of ``cache_key`` and every ``.load``/``.store``
    call on a receiver named like a cache."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if any(alias.name == "cache_key" for alias in node.names):
                yield node
        elif isinstance(node, ast.Call):
            func = node.func
            if _name(func) == "cache_key":
                yield node
            elif (
                isinstance(func, ast.Attribute)
                and func.attr in ("load", "store")
                and "cache" in _name(func.value).lower()
            ):
                yield node


def _function(tree, name):
    (node,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name]
    return node


def test_only_compile_shards_keys_loads_and_stores():
    outside = []
    for path in sorted(SRC.rglob("*.py")):
        if path != SHARDS_MODULE:
            tree = ast.parse(path.read_text())
            outside += [f"{path.relative_to(SRC)}:{n.lineno}" for n in _cache_uses(tree)]
    assert outside == []


def test_inside_its_module_only_compile_shards_touches_the_cache():
    tree = ast.parse(SHARDS_MODULE.read_text())
    function = _function(tree, "compile_shards")
    inside = {id(node) for node in _cache_uses(function)}
    stray = [node.lineno for node in _cache_uses(tree) if id(node) not in inside]
    assert stray == []
    calls = {_name(node.func) for node in _cache_uses(function) if isinstance(node, ast.Call)}
    assert calls == {"cache_key", "load", "store"}
