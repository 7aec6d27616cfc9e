"""One scan path: one ingest walk and one isolated batch scan.

Every capture scan (``resilient_scan``, ``serve_scan``, ``mfa-bench scan``
and ``rscan``) decodes and reassembles through
:func:`repro.traffic.pcap.ingest_flows`, and every scan that isolates
flows from a failing batch (those two paths and the serve worker) goes
through :func:`repro.core.sharded.scan_isolated`.  A second copy of
either could drift in how it groups evicted flows or which flow a failure
poisons, so this suite holds the source to the one path.  ``replay``'s
``feed_batch`` step is not a batch scan in this sense: it advances live
contexts jointly, so a failing batch cannot be retried and poisons its
flows instead.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

BATCH_SCANS = {"run_batch", "scan_batch"}


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def _calls(nodes, names):
    return [
        node
        for root in nodes
        for node in ast.walk(root)
        if isinstance(node, ast.Call) and _name(node.func) in names
    ]


def _sites(predicate):
    """``(module, function)`` of every node in ``src/`` that ``predicate``
    accepts, named by its innermost enclosing function."""
    found = set()

    def visit(node, module, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if predicate(node):
            found.add((module, function))
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for path in sorted(SRC.rglob("*.py")):
        visit(ast.parse(path.read_text()), path.relative_to(SRC).as_posix(), None)
    return found


def _assembler_with_on_evict(node):
    return (
        isinstance(node, ast.Call)
        and _name(node.func) == "FlowAssembler"
        and any(keyword.arg == "on_evict" for keyword in node.keywords)
    )


def _catch_around_batch_scan(node):
    return isinstance(node, ast.Try) and bool(node.handlers) and bool(
        _calls(node.body, BATCH_SCANS)
    )


def test_only_the_ingest_function_hands_evicted_flows_on():
    assert _sites(_assembler_with_on_evict) == {("traffic/pcap.py", "ingest_flows")}


def test_only_scan_isolated_catches_around_a_batch_scan():
    assert _sites(_catch_around_batch_scan) == {("core/sharded.py", "scan_isolated")}
