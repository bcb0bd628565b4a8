"""The runtime imports nothing outside the standard library."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "idsets").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_imports_are_relative_or_stdlib(path):
    outside = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        outside += [n for n in names if n.split(".")[0] not in sys.stdlib_module_names]
    assert not outside, f"{path.name} imports {outside}"


def _is_arcs(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "arcs"


def test_no_loop_reads_the_arc_pairs():
    # A Digraph is two int columns; `arcs` is a view of the pairs for output
    # and tests. No module indexes it or iterates it, plain or enumerated.
    reads = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Subscript) and _is_arcs(node.value):
                reads.append(f"{path.name}: {ast.unparse(node)}")
            elif isinstance(node, (ast.For, ast.comprehension)):
                seq = node.iter
                if isinstance(seq, ast.Call) and getattr(seq.func, "id", None) == "enumerate":
                    seq = seq.args[0]
                if _is_arcs(seq):
                    reads.append(f"{path.name}: {ast.unparse(node.iter)}")
    assert not reads, reads


def test_generators_import_only_errors_and_graphs():
    # The instance generators build Digraphs and raise InvalidInstance; no
    # solver, and none of the code that only tests run, is reached from them.
    path = next(p for p in SOURCES if p.name == "instances.py")
    modules = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            modules |= {node.module} if node.module else {a.name for a in node.names}
    assert modules <= {"errors", "graphs"}, modules


def test_cli_reads_files_only_through_its_reader():
    # `main` hands each subcommand one reader, which loads every input file
    # and feeds its bytes to the run summary's digest. A second way in, such
    # as an open() that re-reads a file, would leave bytes out of the digest.
    path = next(p for p in SOURCES if p.name == "cli.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    calls = [ast.unparse(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)]
    assert not [c for c in calls if c.split(".")[-1] in ("open", "read_bytes", "read_text")]
    assert calls.count("io.load_json") == 1


def test_graph_walks_do_not_recurse():
    # A recursive walk would raise RecursionError on a deep graph, and the CLI
    # would print a traceback that exits 1, which reads as "not identifying".
    calls = []
    for path in SOURCES:
        if path.name not in ("graphs.py", "flows.py", "paths.py"):
            continue
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                calls += [f"{path.name}: {fn.name}" for node in ast.walk(fn)
                          if isinstance(node, ast.Call)
                          and getattr(node.func, "id", getattr(node.func, "attr", None)) == fn.name]
    assert not calls, calls
