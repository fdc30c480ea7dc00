"""Source checks that read the package with ``ast`` rather than run it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fptmix"
ENV_READERS = {"environ", "environb", "getenv", "getenvb"}


def _env_reads(path: Path) -> list[str]:
    """``os.environ``/``os.getenv`` uses and ``from os import`` of either, by line."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Attribute) and node.attr in ENV_READERS
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            found.append(f"{path.name}:{node.lineno}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os" and \
                any(alias.name in ENV_READERS for alias in node.names):
            found.append(f"{path.name}:{node.lineno}")
    return found


def test_only_cli_reads_the_environment():
    """A library module that reads the environment changes what a solver
    does behind its arguments' back, as ``FPTMIX_BUDGET`` once changed the
    separators every DP built."""
    modules = sorted(SRC.glob("*.py"))
    assert _env_reads(SRC / "cli.py"), "the scan no longer sees cli's FPTMIX_BUDGET read"
    assert [read for path in modules if path.name != "cli.py" for read in _env_reads(path)] == []


def _package_imports(path: Path) -> set[str]:
    """The ``fptmix`` modules ``path`` imports, relatively or by name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 1:  # from . import x / from .x import y
                found.update([module] if module else [alias.name for alias in node.names])
            elif module == "fptmix":
                found.update(alias.name for alias in node.names)
            elif module.startswith("fptmix."):
                found.add(module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("fptmix."))
    return found


def test_oracles_import_only_core():
    """The oracles are the independent check on every solver, so they may
    share the instance types in ``core`` and nothing else."""
    imports = _package_imports(SRC / "oracles.py")
    assert "core" in imports, "the scan no longer sees the oracles' core import"
    assert imports == {"core"}
