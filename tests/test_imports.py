"""Runtime invariants: read from the source with `ast`, the toolkit imports
only the standard library, only gauche.py knows the GF(P) image of the
sweep, and only its _reader_rref and _consistent sweep that image and
read rationals back from it, the one `global` statement is the lazy
`fractions` import's, only scalars.py reads a value class's __slots__,
only FieldSpec.quotient takes a modular inverse, and the bench's verifier
does not import the toolkit
it checks; the crafted-input table's primes are gauche's, and
compare_outputs.py writes its edge-case files without loading echelon; at
run time, importing the CLI leaves `typing`, `dataclasses`, `inspect`,
`ast`, `json`, `collections`, `functools`, `array`, `struct`, `argparse`,
`fractions`, `decimal` and `re` unloaded, and a plain-argv job over GF(p),
or over Q with integer literals and answer, loads none of `collections`,
`functools`, `array`, argparse or `fractions`: a value it reads or prints
that is not whole loads `fractions`, and `fractions` loads `collections`
and `functools` itself; the package's `__all__` names exactly its public
attributes, each declared once, in its own module's `__all__`, and the
README's library quick start prints what its comments say."""
import ast
import contextlib
import importlib
import io
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import crafted
import echelon
from echelon import gauche

ROOT = Path(__file__).resolve().parents[1]


def absolute_imports(path: Path) -> set[str]:
    """The top-level names of every absolute import in a source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize(
    "path", sorted((ROOT / "src" / "echelon").glob("*.py")), ids=lambda p: p.name
)
def test_toolkit_imports_only_the_standard_library(path):
    """Pure standard library (`__main__` imports the package by name); this
    also keeps `perfbench` out of the toolkit."""
    imports = absolute_imports(path)
    assert "perfbench" not in imports
    assert sorted(imports - sys.stdlib_module_names - {"echelon"}) == []


def _names(node) -> tuple:
    """The names a node of the syntax tree spells: a variable, an attribute
    or an imported name with its alias."""
    if isinstance(node, ast.Name):
        return (node.id,)
    if isinstance(node, ast.Attribute):
        return (node.attr,)
    if isinstance(node, ast.alias):
        return (node.name, node.asname)
    return ()


def test_only_gauche_knows_the_image():
    """The GF(P) image of the sweep is one module's decision: no module of
    the toolkit but gauche.py constructs a KeeperState or names P, _IMAGE
    or _rational. The others ask gauche: its sweep, _keepers (whose rank
    shortcut is the certificate's loop mod a second prime), and the two
    questions the image proposes answers to, _consistent and
    _reader_rref."""
    found = []
    for path in sorted((ROOT / "src" / "echelon").glob("*.py")):
        if path.name == "gauche.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Call) and "KeeperState" in _names(node.func):
                found.append((path.name, node.lineno, "KeeperState("))
            found += [
                (path.name, getattr(node, "lineno", None), name)
                for name in _names(node)
                if name in ("P", "_IMAGE", "_rational")
            ]
    assert found == []


def test_only_frozen_reads_the_fields():
    """A value's field list is one module's decision: no module of the
    toolkit but scalars.py reads __slots__, as an attribute, a name or a
    key such as `vars(cls)["__slots__"]`. The others read Frozen's _names;
    declaring `__slots__ = (...)` is allowed."""
    found = []
    for path in sorted((ROOT / "src" / "echelon").glob("*.py")):
        if path.name == "scalars.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            declared = isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
            read = "__slots__" in _names(node) and not declared
            if read or isinstance(node, ast.Constant) and node.value == "__slots__":
                found.append((path.name, node.lineno))
    assert found == []


def _scoped(node, scope=()):
    """(scope, node) for each node below node, scope naming the classes and
    functions that enclose it, outermost first."""
    for child in ast.iter_child_nodes(node):
        yield scope, child
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _scoped(child, (*scope, child.name))
        else:
            yield from _scoped(child, scope)


def test_only_two_questions_sweep_the_image():
    """The GF(P) sweep only proposes coefficients: beside its definition,
    gauche.py names _IMAGE only in _reader_rref (an RREF) and _consistent
    (a combination), and both ask one gate, _imaged, whether to try it.
    Rank, _keepers' question included, is proved by the certificate's loop
    mod its own prime, _independent."""
    path = ROOT / "src" / "echelon" / "gauche.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    scopes = {
        ".".join(scope)
        for scope, node in _scoped(tree)
        if "_IMAGE" in _names(node) and not isinstance(getattr(node, "ctx", None), ast.Store)
    }
    assert scopes == {"_reader_rref", "_consistent"}
    gated = {
        ".".join(scope)
        for scope, node in _scoped(tree)
        if isinstance(node, ast.Call) and "_imaged" in _names(node.func)
    }
    assert gated == scopes


def test_reconstructions_are_checked_by_their_callers():
    """_rational only proposes a candidate a/b: it is called only inside
    _reader_rref, whose R is taken only through the certificate, and
    _consistent, whose x is taken only when aug x = 0 exactly. So neither
    needs _rational to refuse a candidate that its check refuses."""
    calls = []
    for path in sorted((ROOT / "src" / "echelon").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        calls += [
            (path.name, ".".join(scope))
            for scope, node in _scoped(tree)
            if isinstance(node, ast.Call) and "_rational" in _names(node.func)
        ]
    assert sorted(set(calls)) == [("gauche.py", "_consistent"), ("gauche.py", "_reader_rref")]


def test_no_function_rebinds_a_module_name():
    """The one `global` statement of the toolkit is scalars.Fraction's, the
    lazy `fractions` import that rebinds the name to the class. No other
    function rebinds a module name, so a call leaves no value behind for
    the next, beyond the memos of pure functions (`_Memo`); the CLI builds
    a parser for each argv that needs one."""
    found = []
    for path in sorted((ROOT / "src" / "echelon").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            (path.name, ".".join(scope), tuple(node.names))
            for scope, node in _scoped(tree)
            if isinstance(node, ast.Global)
        ]
    assert found == [("scalars.py", "Fraction", ("Fraction",))]


def _builds_state(node) -> bool:
    return isinstance(node, ast.Call) and "KeeperState" in _names(node.func)


def test_every_sweep_starts_in_answers():
    """A KeeperState is constructed in one place of the toolkit, gauche's
    _answers, which maps its raw entry, eliminate, over the columns: every
    sweep of every question starts there, and the tests' routes fixture,
    which logs the calls of _answers and counts the answers, sees each
    one."""
    built, read = [], []
    for path in sorted((ROOT / "src" / "echelon").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for scope, node in _scoped(tree):
            if _builds_state(node):
                built.append((path.name, ".".join(scope)))
            if isinstance(node, ast.Attribute) and _builds_state(node.value):
                read.append(node.attr)
    assert (built, read) == ([("gauche.py", "_answers")], ["eliminate"])


def test_the_field_divides_in_one_place():
    """Division of raw values is one function's rule, FieldSpec.quotient:
    no other code of the toolkit takes a modular inverse, pow(_, -1, _), and
    the text of the GF(p) diagnostic "denominator d vanishes in GF(p)" is
    written once, outside docstrings."""
    inverses, vanishes = [], []
    for path in sorted((ROOT / "src" / "echelon").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        docstrings = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
        for scope, node in _scoped(tree):
            where = (path.name, ".".join(scope))
            if (
                isinstance(node, ast.Call)
                and _names(node.func) == ("pow",)
                and len(node.args) == 3
                and ast.unparse(node.args[1]) == "-1"
            ):
                inverses.append(where)
            if (
                isinstance(node, ast.Constant)
                and id(node) not in docstrings
                and "vanishes in" in str(node.value)
            ):
                vanishes.append(where)
    assert inverses == [("scalars.py", "FieldSpec.quotient")]
    assert vanishes == [("scalars.py", "FieldSpec.quotient")]


def test_bench_verifier_does_not_import_the_toolkit():
    """The verifier checks the toolkit's answers, so it must not share its code."""
    assert "echelon" not in absolute_imports(ROOT / "perfbench" / "verify.py")


def test_crafted_primes_are_gauches():
    """crafted.py holds the primes as literals, as it imports no echelon."""
    assert (crafted.P, crafted.Q) == (gauche.P, gauche._CHECK.modulus)


def test_compare_outputs_writes_its_edge_files_without_echelon(tmp_path):
    """Neither compared tree is on the path of compare_outputs.py's parent
    process: writing its edge-case files, the crafted ones among them,
    loads no echelon module."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import compare_outputs; "
        "compare_outputs._edge_cases(sys.argv[2]); "
        "print([name for name in sys.modules if name.split('.')[0] == 'echelon'])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "tests"), str(tmp_path)],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout == "[]\n"
    assert (tmp_path / "diag_p16.sys").read_text() == crafted.rows_text(
        crafted.SYSTEMS["diag-P-ones"], bar=True
    )


UNNEEDED_AT_IMPORT = (
    "typing", "dataclasses", "inspect", "ast", "json", "collections", "functools", "array",
    "struct", "argparse", "fractions", "decimal", "re",
)


def test_cli_import_leaves_unneeded_modules_unloaded(tmp_path):
    """A fresh isolated interpreter without `site`, as the bench's worker
    runs: `import echelon.cli` must not pull in `typing`, `dataclasses`,
    `inspect`, `ast`, `json`, `collections`, `functools`, `array` (no code
    needs them), `struct` (only packed GF(p) rows need it), `argparse`
    (only an argv not in the plain form needs it), `fractions`
    (only a non-integer needs it), or the `decimal` and `re` that
    `fractions` imports, and a `--format json` job in that interpreter still
    prints its JSON."""
    path = tmp_path / "m.mat"
    path.write_text("2 4\n1 3\n")
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import echelon.cli; "
        f"print([name for name in {UNNEEDED_AT_IMPORT!r} if name in sys.modules]); "
        "sys.exit(echelon.cli.main(['rref', sys.argv[2], '--format', 'json']))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, str(ROOT / "src"), str(path)],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout == '[]\n{"rref": [["1", "0"], ["0", "1"]]}\n'
    assert out.stderr == ""


# argparse loads gettext and shutil to build a parser; fractions loads
# decimal, re, enum, collections and functools
AFTER_ONE_JOB = (
    "argparse", "fractions", "re", "decimal", "enum", "gettext", "shutil", "collections",
    "functools", "array",
)


@pytest.mark.parametrize(
    ("argv", "text", "loaded", "unloaded"),
    [
        (["rref", "m.mat", "--field", "gf:7"], "2 4\n1 3\n", [], AFTER_ONE_JOB),
        (["rref", "--format=plain", "m.mat"], "2 4\n1 3\n", [], AFTER_ONE_JOB),
        (["rref", "m.mat"], "2 1\n", ["fractions"], ["argparse", "gettext", "shutil"]),
        (["rref", "m.mat"], "4/2 6/3\n-8/4 1\n", [], AFTER_ONE_JOB),
        (["pivots", "m.mat"], "2 1\n", [], AFTER_ONE_JOB),
        (["--help"], "", ["argparse"], ["fractions"]),
    ],
    ids=["gf", "q-integers", "q-fraction", "q-whole-fractions", "q-pivots", "help"],
)
def test_one_job_loads_only_what_it_needs(argv, text, loaded, unloaded, tmp_path):
    """In a fresh `python -I -S`, a plain-argv job over GF(p), or over Q
    with an integer answer, loads none of AFTER_ONE_JOB, nor does one whose
    a/b literals are all whole; a Q answer holding 1/2 loads `fractions`
    but not argparse; Q `pivots` on the same input,
    whose sweep would make that 1/2, reads the GF(P) image and loads none;
    `--help` loads argparse."""
    (tmp_path / "m.mat").write_text(text)
    code = (
        "import io, sys; sys.path.insert(0, sys.argv[1]); import echelon.cli; "
        "sys.stdout = io.StringIO(); code = echelon.cli.main(sys.argv[2:]); "
        "sys.stdout = sys.__stdout__; "
        f"print(code, [name for name in {AFTER_ONE_JOB!r} if name in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, str(ROOT / "src"), *argv],
        capture_output=True, text=True, check=True, cwd=tmp_path,
    )
    assert out.stderr == ""
    code, names = out.stdout.split(" ", 1)
    found = set(ast.literal_eval(names))
    assert code == "0"
    assert found >= set(loaded)
    assert not found & set(unloaded)


def test_export_list_matches_the_public_names():
    """Every name in `__all__` resolves, and every public attribute of the
    package that is not a submodule is listed."""
    assert len(set(echelon.__all__)) == len(echelon.__all__)
    for name in echelon.__all__:
        assert hasattr(echelon, name), name
    public = {
        name
        for name, value in vars(echelon).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(public - set(echelon.__all__)) == []


SUBMODULES = ("errors", "gauche", "matrices", "nullspace", "rowops", "scalars", "systems")


def test_each_public_name_is_declared_once():
    """Each submodule's `__all__` names attributes that module defines, no
    name is in two of them, and the package's `__all__` is their
    concatenation."""
    declared = []
    for name in SUBMODULES:
        module = importlib.import_module(f"echelon.{name}")
        for attr in module.__all__:
            value = getattr(module, attr)
            if isinstance(value, (type, types.FunctionType)):
                assert value.__module__ == module.__name__, (name, attr)
        declared += module.__all__
    assert len(set(declared)) == len(declared)
    assert echelon.__all__ == declared


def test_readme_quick_start_prints_what_its_comments_say():
    """The first `python` block under "Library quick start" runs as printed:
    the RREF, the pivot set (1, 2, 5), journal 3 as 3 1 0 and the
    particular solution 0 0 0 0 1."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue() == (
        "1 0 3 -2 0\n0 1 1 -3 0\n0 0 0 0 1\n(1, 2, 5)\n3 1 0\n0 0 0 0 1\n"
    )
