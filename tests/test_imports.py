"""Runtime invariants: read from the source with `ast`, the toolkit imports
only the standard library and the bench's verifier does not import the
toolkit it checks; at run time, importing the CLI leaves `typing`,
`dataclasses`, `inspect`, `ast`, `json` and `array` unloaded, and the package's
`__all__` names exactly its public attributes."""
import ast
import subprocess
import sys
import types
from pathlib import Path

import pytest

import echelon

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


def test_bench_verifier_does_not_import_the_toolkit():
    """The verifier checks the toolkit's answers, so it must not share its code."""
    assert "echelon" not in absolute_imports(ROOT / "perfbench" / "verify.py")


UNNEEDED_AT_IMPORT = ("typing", "dataclasses", "inspect", "ast", "json", "array")


def test_cli_import_leaves_unneeded_modules_unloaded(tmp_path):
    """A fresh isolated interpreter without `site`, as the bench's worker
    runs: `import echelon.cli` must not pull in `typing`, `dataclasses`,
    `inspect`, `ast`, `json` or `array` (only packed GF(p) rows need it),
    and a `--format json` job in that interpreter still prints its JSON."""
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
