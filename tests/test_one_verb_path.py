"""One analyzer-verb path: only ``_run_verb`` catches around a runner.

``mfa-bench lint``, ``rules``, ``audit`` and ``prove`` run every target
through :func:`repro.bench.cli._run_verb`, whose one ``try`` files a
crashed runner as one ERROR finding under the verb's ``ESCORTS`` code.
A verb that caught its own crashes could file them under another code,
or let one escape as a traceback, so this suite holds the verbs' code to
one other ``try``: lint's compile step, whose failure is the EX130
finding beside the triage and cross-rule findings filed before it.
"""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parent.parent / "src" / "repro" / "bench" / "cli.py"
TREE = ast.parse(CLI.read_text())
RUNNERS = {"run_set", "run_bundle"}


def _top(kind):
    return {node.name: node for node in TREE.body if isinstance(node, kind)}


def _catches(node):
    return isinstance(node, ast.Try) and bool(node.handlers)


def _verb_functions():
    """The methods of every verb class in ``_VERBS`` (its base class's
    included) and the module functions they call, transitively."""
    functions, classes = _top(ast.FunctionDef), _top(ast.ClassDef)
    (table,) = [
        node
        for node in TREE.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "_VERBS"
    ]
    verbs = [classes[node.func.id] for node in ast.walk(table) if isinstance(node, ast.Call)]
    todo = [
        method
        for verb in verbs
        for cls in [verb, *(classes[base.id] for base in verb.bases)]
        for method in cls.body
        if isinstance(method, ast.FunctionDef)
    ]
    found = {}
    while todo:
        function = todo.pop()
        if id(function) not in found:
            found[id(function)] = function
            todo += [
                functions[node.func.id]
                for node in ast.walk(function)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in functions
            ]
    return list(found.values())


def _runs_a_verb(nodes, names):
    """Whether ``nodes`` call a verb's runner or one of the ``names``."""
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Attribute) and node.attr in RUNNERS:
                return True
            if isinstance(node, ast.Call) and getattr(node.func, "id", "") in names:
                return True
    return False


def test_the_verbs_catch_only_lints_compile_step():
    sites = [
        (function.name, node)
        for function in _verb_functions()
        for node in ast.walk(function)
        if _catches(node)
    ]
    assert [name for name, _ in sites] == ["_lint_one_set"]
    ((_, node),) = sites
    calls = {
        getattr(call.func, "id", "")
        for root in node.body
        for call in ast.walk(root)
        if isinstance(call, ast.Call)
    }
    assert "compile_mfa" in calls


def test_only_run_verb_catches_around_a_verb():
    names = {function.name for function in _verb_functions()} | {"_run_verb"}
    sites = {
        function.name
        for function in ast.walk(TREE)
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if _catches(node) and _runs_a_verb(node.body, names)
    }
    assert sites == {"_run_verb"}
    (run_verb,) = [f for f in TREE.body if getattr(f, "name", "") == "_run_verb"]
    assert sum(1 for node in ast.walk(run_verb) if _catches(node)) == 1
