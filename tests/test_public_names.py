"""Every name `corps` exports has a caller outside the module that
defines it, or a listed reason to be exported, so an export left behind
by deleted code fails tier-1."""

import ast
import types
from pathlib import Path

import corps
from test_stdlib_only import SOURCES

BENCH = sorted((Path(__file__).resolve().parent.parent / "bench").glob("*.py"))

# Exported for the library's users and its tests, with no caller in the
# pipeline or the benchmark.
API_ONLY = {
    "MergeConflict": "the ProjectionError of a case whose third-party branches differ",
    "Verdict": "the type `ni_check` returns; callers read its kind, runs and witness",
    "is_value": "the value test, next to `is_positive_value`; the normalizer uses it within",
    "normalize_context": "the canonical form of a context (empty locks dropped, locks fused)",
    "parse_type": "parses a type on its own, as `parse_expr` an expression",
    "pretty_print": "prints a whole program back to source text",
    "step": "the reference one-step semantics `normalize` is tested against",
}


def _reads(paths, modules) -> set[str]:
    """The names read as `<module>.<name>` in `paths`, for a module named
    in `modules`."""
    return {node.attr for path in paths for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}


def _imports(paths) -> set[str]:
    return {alias.name for path in paths for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_every_exported_name_has_a_caller():
    exported = {name for name in corps.__all__
                if not isinstance(getattr(corps, name), types.ModuleType)}
    submodules = set(corps.__all__) - exported
    library = [path for path in SOURCES if path.name != "__init__.py"]
    used = (_imports(library) | _reads(library, submodules)
            | _reads(BENCH, {"corps"}))
    assert len(exported) > 30 and "netsim" in submodules
    assert {name: API_ONLY.get(name) for name in exported - used} == API_ONLY
