"""Every function, class and public method of ``dbc`` has a caller outside
the tests, and every public data attribute a reader outside them.

The package's API is what the CLI, the study and the benchmark use.  This
test parses each module of ``src/dbc`` (not ``__init__.py``, whose
re-exports are no use) and each ``perfbench/*.py`` script, and collects the
names that their code reads: plain names, attribute names, and the dotted
name strings by which ``perfbench/spans.py`` wraps ``dbc`` callables.
Docstrings and comments are not code, so they do not count.

A top-level function or class, or a public method of a top-level class,
fails the test when no use of its name is left outside its own definition.
Uses inside a definition that fails do not count either, so code that only
dead code calls fails with it.

A public data attribute, set by ``self.<name> = ...`` in a method of a
top-level class or annotated in its body (a ``NamedTuple``'s or a
dataclass's field), fails the test when no code in ``src/dbc`` or
``perfbench`` reads an attribute of that name.  Reads through ``self``
count, so an attribute that only its own class reads stays.

Matching is by name.  An attribute of a NumPy array, a SciPy sparse matrix,
a builtin container or scipy's BLAS and LAPACK modules has a name that
array code reads all the time (``x.copy()``, ``blas.dtbsv(...)``), so a
method or data attribute with such a name counts as used only through
``self`` or ``cls``; the ones that the package reads on other receivers
are in ``ALLOWED``, each with its reader.  So are the payloads of
exceptions, which only a caller that catches one reads, and the dataclass
fields that only ``asdict`` reads, into ``report.json`` and
``diagnostics.json``.

A defaulted parameter of a top-level function, a public method or an
``__init__`` fails the test unless calls in ``src/dbc`` or ``perfbench``
both omit it and set it: a default that no caller outside the tests
overrides is a constant, and one that every caller sets is a required
parameter.  Calls match by the name of the function, the method or the
class.  A position or a keyword sets a parameter, a ``**`` expansion sets
every keyword, and a keyword in a call through a dict, such as
``CHECKS[name](seed=seed)``, sets the parameter of that name wherever it
is defined.

The same parse keeps ctypes, threads and scipy's Cython capsules in
``dbc.kernels`` alone, keeps every module from importing another's
``_``-prefixed names, and keeps the time steps and the seminorm's time
blocks with ``dbc.assembly``, the owner of the time discretization.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import blas, lapack

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(
    p for p in (ROOT / "src" / "dbc").glob("*.py") if p.name != "__init__.py"
)
SCRIPTS = sorted((ROOT / "perfbench").glob("*.py"))
SPANS = ROOT / "perfbench" / "spans.py"

AMBIGUOUS = set(dir(np.ndarray)) | set(dir(sp.csr_matrix))
AMBIGUOUS |= set(dir(blas)) | set(dir(lapack))
for _container in (dict, list, set, str, tuple):
    AMBIGUOUS |= set(dir(_container))

ALLOWED = {
    "assembly.KroneckerSum.diagonal": (
        "pdas_solve preconditions CG with seminorm.diagonal()"
    ),
    "assembly.KroneckerSum.tocsr": "export_matrix_market writes seminorm.tocsr()",
    "spaces.ControlField.ravel": (
        "ReducedProblem flattens q_d with interpolate_control(mesh, q_d).ravel()"
    ),
    "spaces.BoundSet.lower": "pdas_solve reads bounds.lower (str.lower)",
    "spaces.BoundSet.upper": "pdas_solve reads bounds.upper (str.upper)",
    "forward.SolverError.slab": (
        "exception payload: the number of the slab whose solve failed"
    ),
    "forward.SolverError.residual": (
        "exception payload: the relative residual of the failed slab solve"
    ),
    "optimizer.CGBreakdownError.iterations": (
        "exception payload: the CG iterations run before the breakdown"
    ),
    "optimizer.KKTDiagnostics.infeasibility": (
        "KKTDiagnostics.as_dict writes it to report.json and diagnostics.json"
    ),
    "optimizer.KKTDiagnostics.cg_iterations": (
        "KKTDiagnostics.as_dict writes it to report.json and diagnostics.json"
    ),
    "optimizer.KKTDiagnostics.max_extension_residual": (
        "KKTDiagnostics.as_dict writes it to report.json and diagnostics.json"
    ),
    "optimizer.KKTDiagnostics.objective_history": (
        "KKTDiagnostics.as_dict writes it to report.json and diagnostics.json"
    ),
    "manufactured.LevelRecord.kkt": (
        "StudyReport.as_dict writes each record's asdict to report.json"
    ),
}


def _definitions(path, tree):
    """(label, name, node) of each top-level function or class and each
    public method of a top-level class."""
    module = path.stem
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((f"{module}.{node.name}", node.name, node))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(
                    item, (ast.FunctionDef, ast.AsyncFunctionDef)
                ) and not item.name.startswith("_"):
                    out.append((f"{module}.{node.name}.{item.name}", item.name, item))
    return out


def _read(node):
    """Whether an attribute node's name counts as a use (see AMBIGUOUS)."""
    receiver = getattr(node.value, "id", None)
    return receiver in ("self", "cls") or node.attr not in AMBIGUOUS


def _uses(tree, defined, dotted_strings):
    """(name, enclosing definition nodes) of every name the code reads."""
    out = []

    def visit(node, enclosing):
        if node in defined:
            enclosing = enclosing + (node,)
        if isinstance(node, ast.Name):
            out.append((node.id, enclosing))
        elif isinstance(node, ast.Attribute):
            if _read(node):
                out.append((node.attr, enclosing))
        elif (
            dotted_strings
            and isinstance(node, ast.Constant)
            and isinstance(node.value, str)
        ):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                out.extend((part, enclosing) for part in parts)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, ())
    return out


def unused_definitions():
    """Labels of the definitions with no use left, by line order."""
    definitions = []
    trees = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        definitions += _definitions(path, tree)
        trees.append((tree, False))
    for path in SCRIPTS:
        trees.append((ast.parse(path.read_text(), str(path)), path == SPANS))
    nodes = {node for _, _, node in definitions}
    uses = []
    for tree, dotted in trees:
        uses += _uses(tree, nodes, dotted)

    dead = set()
    while True:
        live = {}
        for name, enclosing in uses:
            if dead.isdisjoint(enclosing):
                live.setdefault(name, []).append(enclosing)
        newly = {
            node
            for _, name, node in definitions
            if node not in dead
            and all(node in enclosing for enclosing in live.get(name, ()))
        }
        if not newly:
            break
        dead |= newly
    return [label for label, _, node in definitions if node in dead]


def unread_attributes():
    """Labels of the public data attributes that no code reads, by line
    order."""
    assigned = {}
    reads = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            # Fields annotated in the class body: a NamedTuple's or a
            # dataclass's.
            for item in node.body:
                if (
                    isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)
                    and not item.target.id.startswith("_")
                ):
                    label = f"{path.stem}.{node.name}.{item.target.id}"
                    assigned.setdefault(label, item.target.id)
            for item in ast.walk(node):
                if (
                    isinstance(item, ast.Attribute)
                    and isinstance(item.ctx, ast.Store)
                    and getattr(item.value, "id", None) == "self"
                    and not item.attr.startswith("_")
                ):
                    label = f"{path.stem}.{node.name}.{item.attr}"
                    assigned.setdefault(label, item.attr)
    for path in SOURCES + SCRIPTS:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and _read(node)
            ):
                reads.add(node.attr)
    return [label for label, name in assigned.items() if name not in reads]


@pytest.fixture(scope="module")
def flagged():
    return unused_definitions()


@pytest.fixture(scope="module")
def unread():
    return unread_attributes()


def test_every_definition_has_a_caller_outside_the_tests(flagged):
    unused = [label for label in flagged if label not in ALLOWED]
    assert not unused, (
        "only tests reach these, or nothing does; delete them or move the "
        f"oracles among them to tests/_oracles.py: {', '.join(unused)}"
    )


def test_every_data_attribute_is_read_outside_the_tests(unread):
    unused = [label for label in unread if label not in ALLOWED]
    assert not unused, (
        "only tests read these data attributes, or nothing does; delete them "
        f"or compute what the tests need in the tests: {', '.join(unused)}"
    )


def test_every_allowed_name_is_defined_and_needs_its_entry(flagged, unread):
    for label, reason in ALLOWED.items():
        assert reason
        assert label in flagged or label in unread, (
            f"{label} no longer needs its ALLOWED entry"
        )


def _defaulted(function, bound):
    """(name, position) of each defaulted parameter of ``function``, with
    the position that a call's positional argument fills, counted after
    ``self`` when ``bound``; None for a keyword-only parameter."""
    args = function.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [
        (arg.arg, i - bound) for i, arg in enumerate(positional[first:], first)
    ]
    out += [
        (arg.arg, None)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]
    return out


def _callables(path, tree):
    """(label, called name, defaulted parameters) of each top-level
    function, public method and ``__init__`` of a top-level class; an
    ``__init__`` is called by its class's name."""
    module = path.stem
    out = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            out.append((f"{module}.{node.name}", node.name, _defaulted(node, 0)))
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if not isinstance(item, ast.FunctionDef):
                continue
            if item.name == "__init__":
                out.append((f"{module}.{node.name}", node.name, _defaulted(item, 1)))
            elif not item.name.startswith("_"):
                label = f"{module}.{node.name}.{item.name}"
                out.append((label, item.name, _defaulted(item, 1)))
    return out


def _call_sites(tree):
    """(called name, positional arguments before any ``*``, whether a ``*``
    follows, keywords set, whether a ``**`` expands) of each call; the name
    is None for a call through a subscript."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        elif isinstance(func, ast.Subscript):
            name = None
        else:
            continue
        starred = [isinstance(arg, ast.Starred) for arg in node.args]
        positional = starred.index(True) if any(starred) else len(starred)
        keywords = {kw.arg for kw in node.keywords if kw.arg is not None}
        expands = any(kw.arg is None for kw in node.keywords)
        out.append((name, positional, any(starred), keywords, expands))
    return out


def defaults_not_omitted_and_set():
    """Labels ``module.callable(parameter)`` of the defaulted parameters
    that calls in ``src/dbc`` and ``perfbench`` do not both omit and set."""
    callables = []
    sites = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        callables += _callables(path, tree)
        sites += _call_sites(tree)
    for path in SCRIPTS:
        sites += _call_sites(ast.parse(path.read_text(), str(path)))
    out = []
    for label, called, params in callables:
        for param, position in params:
            ways = set()
            for name, positional, starred, keywords, expands in sites:
                if name is None:
                    if param in keywords:
                        ways.add("set")
                    continue
                if name != called:
                    continue
                by_position = position is not None and (
                    position < positional or starred
                )
                ways.add(
                    "set" if by_position or expands or param in keywords
                    else "omitted"
                )
            if ways != {"set", "omitted"}:
                out.append(f"{label}({param})")
    return out


def test_every_default_is_both_omitted_and_set_outside_the_tests():
    fixed = defaults_not_omitted_and_set()
    assert not fixed, (
        "no call outside the tests both omits and sets these defaulted "
        "parameters; make each required, or a constant at its default: "
        f"{', '.join(fixed)}"
    )



# Modules that only ``dbc.kernels`` may import.
LOW_LEVEL = {
    "ctypes", "threading", "concurrent", "queue", "cython_blas", "cython_lapack"
}


def _import_faults(path):
    """The low-level modules that ``path`` imports, unless it is
    ``kernels.py``, and the ``_``-prefixed names it imports from another
    ``dbc`` module."""
    faults = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [p for alias in node.names for p in alias.name.split(".")]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            imported = [alias.name for alias in node.names]
            if node.level or module.split(".")[0] == "dbc":
                faults += [name for name in imported if name.startswith("_")]
            names = module.split(".") + imported
        else:
            continue
        if path.name != "kernels.py":
            faults += [name for name in names if name in LOW_LEVEL]
    return faults


def test_only_kernels_import_ctypes_or_threads_and_no_private_name_leaks():
    faults = {path.name: _import_faults(path) for path in SOURCES}
    faults = {name: found for name, found in faults.items() if found}
    assert not faults, (
        f"move these into dbc.kernels or give them a public name: {faults}"
    )


# The modules that may read each attribute of the time discretization's
# parts: a time partition's ``steps``, which ``manufactured`` also reads for
# the control norm's slope, and a ``KroneckerSum``'s ``terms``.
TIME_OWNERS = {
    "steps": {"assembly", "mesh", "manufactured"},
    "terms": {"assembly"},
}


def _time_reads(path):
    """The attributes of ``TIME_OWNERS`` that ``path`` reads but may not."""
    return sorted(
        node.attr
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute)
        and node.attr in TIME_OWNERS
        and path.stem not in TIME_OWNERS[node.attr]
    )


def test_only_the_discretization_reads_the_time_steps_and_time_blocks():
    faults = {path.name: _time_reads(path) for path in SOURCES}
    faults = {name: found for name, found in faults.items() if found}
    assert not faults, (
        "take the time steps and the time blocks from dbc.assembly's "
        f"Discretization and its coupling rules: {faults}"
    )
