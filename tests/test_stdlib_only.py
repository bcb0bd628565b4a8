"""The runtime imports nothing outside the standard library, and a run
imports only the idsets modules it needs."""

from __future__ import annotations

import ast
import importlib
import json
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import idsets

SRC = Path(__file__).resolve().parents[1] / "src"
SOURCES = sorted((SRC / "idsets").glob("*.py"))


def absolute_imports(path: Path) -> list[str]:
    """The modules a source file imports by absolute name."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_imports_are_relative_or_stdlib(path):
    outside = [n for n in absolute_imports(path) if n.split(".")[0] not in sys.stdlib_module_names]
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


def test_only_the_generators_draw_random_numbers():
    # The seeded instance generators are the one use of `random` in src, so
    # no verdict depends on a random draw.
    users = [path.name for path in SOURCES
             if any(n.split(".")[0] == "random" for n in absolute_imports(path))]
    assert users == ["instances.py"]


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


# The paper's verifiers for systems given by an oracle or a list of costs:
# no subcommand runs them, so nothing in src calls them (DECISIONS, "The
# public API"). `TollVector.as_vector` is how the README prices a toll, and
# `AffineBasis.contains` is the hull test a library caller runs before asking
# for convex tolls, which test the hull on the rows of their own elimination.
LIBRARY_ONLY = {"verify_matroid_identifying", "verify_polymatroid_identifying",
                "controlling_counterexample_check", "TollVector.as_vector",
                "AffineBasis.contains"}


def test_public_definitions_have_a_caller_in_src():
    # Code that only tests call belongs in tests/helpers.py. A public function
    # or class is used when a name or attribute in src refers to it outside its
    # own definition, a method only when an attribute does: a function of the
    # same name does not use it. Strings such as the _EXPORTS table do not count.
    definitions, references = [], []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_":
                definitions.append((path.name, node.name, node))
                if isinstance(node, ast.ClassDef):
                    definitions += [(path.name, f"{node.name}.{m.name}", m) for m in node.body
                                    if isinstance(m, ast.FunctionDef) and m.name[0] != "_"]
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                references.append((name, isinstance(node, ast.Attribute), path.name, node.lineno))

    def used(file: str, qualname: str, node: ast.AST) -> bool:
        return any(name == node.name and (attribute or "." not in qualname)
                   and not (where == file and node.lineno <= line <= node.end_lineno)
                   for name, attribute, where, line in references)

    unused = {qualname for file, qualname, node in definitions if not used(file, qualname, node)}
    assert unused == LIBRARY_ONLY


# The exported names; each stays importable from the package.
PUBLIC = [
    "AffineBasis", "Caps", "CostOracle", "DEFAULT_CAPS", "Digraph", "FlowIdentifyResult",
    "MatroidOracle", "PathIdentifyResult", "PolymatroidOracle", "SolutionList", "StPair",
    "TollVector", "WeightedGroundSet", "approx_min_path_identifying_dag", "caps",
    "controlling_counterexample_check", "convex_tolls", "discrete_tolls",
    "enumerate_st_paths", "errors", "exact_identifying", "exact_min_path_identifying",
    "explicit", "flows", "graphs", "greedy_identifying", "linalg", "linear", "linear_cost",
    "matroid_components", "matroids", "min_weight_flow_identifying",
    "min_weight_identifying_from_basis", "min_weight_matroid_identifying",
    "min_weight_polymatroid_identifying", "paths", "polymatroid_components", "polymatroids",
    "quadratic_cost", "relevant_arcs", "search", "tolls", "topological_order",
    "verify_explicit_identifying", "verify_flow_identifying", "verify_identifying_from_basis",
    "verify_matroid_identifying", "verify_path_identifying_dag",
    "verify_path_identifying_general", "verify_polymatroid_identifying",
]


def fresh(code: str) -> list:
    """Run `code` in a fresh interpreter importing idsets from src; the JSON
    value its last line of stdout holds."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def loaded_after(code: str) -> set[str]:
    """The idsets modules a fresh interpreter holds after running `code`."""
    return set(fresh(f"{code}\nimport json, sys; print(json.dumps(sorted(m for m in sys.modules "
                     "if m.split('.')[0] == 'idsets')))"))


def executed_by(code: str) -> set[str]:
    """The idsets modules whose bodies a fresh interpreter executes while it
    runs `code`, read from the `exec` audit event each module body raises.
    `sys.modules` cannot tell: it holds the lazily loaded modules before they
    run. Nor can `-X importtime`, which lists no module that a LazyLoader
    executes."""
    ran = map(Path, fresh(
        "import json, sys\nran = []\n"
        "sys.addaudithook(lambda event, args: event == 'exec'"
        " and ran.append(getattr(args[0], 'co_filename', '')))\n"
        f"{code}\nprint(json.dumps(ran))"))
    return {"idsets" if path.stem == "__init__" else f"idsets.{path.stem}"
            for path in ran if path.parent == SRC / "idsets"}


def test_bare_import_loads_only_the_package():
    assert loaded_after("import idsets") == {"idsets"}


def test_cli_import_loads_what_every_run_needs():
    assert loaded_after("import idsets.cli") == {
        "idsets", "idsets.caps", "idsets.cli", "idsets.errors", "idsets.graphs",
        "idsets.io", "idsets.linalg", "idsets.linear", "idsets.matroids",
        "idsets.polymatroids"}


def test_perfbench_tracer_installs_after_the_cli_import():
    """The tracer patches AffineBasis.__init__ and PolymatroidOracle.__init__,
    and fails when their modules are not loaded; a workload that calls no
    linear or polymatroid solver has only what the cli import loads."""
    perfbench = SRC.parent / "perfbench"
    loaded_after(f"import sys; sys.path.insert(0, {str(perfbench)!r})\n"
                 "import idsets.cli\nfrom tracing import Tracer\n"
                 "tracer = Tracer(); tracer.install(); tracer.uninstall()")


def test_io_import_loads_no_solver():
    # The parsers import the linear and polymatroid modules in their bodies.
    assert loaded_after("import idsets.io") == {
        "idsets", "idsets.errors", "idsets.graphs", "idsets.io", "idsets.linalg"}


def identifiers(path: Path) -> set[str]:
    """Every name a source file defines, imports or reads, attributes included."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
    return names


def test_only_cli_registers_lazy_modules():
    # The tracer's lazy registration lives in one module, so replacing the
    # tracer (ROADMAP item 16) touches cli alone.
    users = [path.name for path in SOURCES if identifiers(path) & {"_lazy", "LazyLoader"}]
    assert users == ["cli.py"]


def test_each_input_rule_has_one_owner():
    # errors.as_sequence reads every positional sequence (as_vector keeps
    # its own kind text), and StPair.validate checks every s-t setting.
    kind_users = [path.name for path in SOURCES if "non_vector_kind" in identifiers(path)]
    assert kind_users == ["errors.py", "linalg.py"]
    loop_users = [path.name for path in SOURCES if "has_self_loop" in identifiers(path)]
    assert loop_users == ["graphs.py"]
    texts = sum(path.read_text(encoding="utf-8").count("self-loops are not allowed")
                for path in SOURCES)
    assert texts == 1


@pytest.mark.parametrize("workload", ["search", "polytime"])
def test_traced_benchmark_run_is_correct(tmp_path, workload):
    # The registration exists for this run: its requests call no linear or
    # polymatroid solver, and the tracer patches their classes after the
    # first pass. A copy keeps the benchmark's output out of the checkout.
    ignore = shutil.ignore_patterns("__pycache__")
    for part in ("src", "perfbench"):
        shutil.copytree(SRC.parent / part, tmp_path / part, ignore=ignore)
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0


def test_flow_identify_loads_no_other_solver(tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps({"nodes": 3, "arcs": [[0, 1], [1, 2], [0, 2]], "s": 0, "t": 2}))
    loaded = loaded_after(
        "import contextlib, io, idsets.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert idsets.cli.main(['flow-identify', {str(path)!r}, '--verify', '0,1']) == 0")
    assert "idsets.flows" in loaded
    assert not loaded & {f"idsets.{m}" for m in (
        "paths", "search", "explicit", "tolls", "instances")}


LAZY = {"idsets.linear", "idsets.matroids", "idsets.polymatroids"}


def test_cli_import_executes_the_modules_every_run_uses():
    # The linear and (poly)matroid modules are registered but not executed.
    assert executed_by("import idsets.cli") == {
        "idsets", "idsets.caps", "idsets.cli", "idsets.errors", "idsets.graphs",
        "idsets.io", "idsets.linalg"}


@pytest.mark.parametrize("command, uses", [
    ("flow-identify", set()),
    ("path-exact", set()),
    ("linear-identify", {"idsets.linear"}),
    ("polymatroid-identify", {"idsets.matroids", "idsets.polymatroids"}),
])
def test_a_run_executes_the_lazy_modules_it_uses(tmp_path, command, uses):
    triangle, basis = tmp_path / "triangle.json", tmp_path / "basis.json"
    triangle.write_text(json.dumps({"nodes": 3, "arcs": [[0, 1], [1, 2], [0, 2]],
                                    "s": 0, "t": 2}))
    basis.write_text(json.dumps({"points": [[0, 0, 0], [1, 0, 1], [0, 1, 1]]}))
    argv = {
        "flow-identify": ["flow-identify", str(triangle), "--verify", "0,1"],
        "path-exact": ["path-exact", str(triangle)],
        "linear-identify": ["linear-identify", "--basis", str(basis)],
        "polymatroid-identify": ["polymatroid-identify", "--family", "coverage",
                                 "--sets", "0,1;1;2"],
    }[command]
    executed = executed_by(
        "import contextlib, io, idsets.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert idsets.cli.main({argv!r}) == 0")
    assert executed & LAZY == uses


def test_exported_names_are_pinned():
    assert idsets.__all__ == PUBLIC
    assert set(PUBLIC) <= set(dir(idsets))


def test_each_name_is_its_modules_object():
    for name in PUBLIC:
        value = getattr(idsets, name)
        if isinstance(value, types.ModuleType):
            assert value is importlib.import_module(f"idsets.{name}")
        else:  # a class, function or constant: the one where it is defined
            assert getattr(sys.modules[value.__module__], name) is value, name


def test_star_import_and_unknown_names():
    namespace: dict = {}
    exec("from idsets import *", namespace)
    assert set(PUBLIC) <= set(namespace)
    with pytest.raises(AttributeError, match="no attribute 'cli_main'"):
        idsets.cli_main
