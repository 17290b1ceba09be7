"""Every public name of the package has a caller outside the tests.

A function, class or export that only tests call is surface the package
keeps working for no user. So each public module-level function and
class of `src/spanbandit/`, and each name `__init__.py` exports, must be
used by the package's other code, a demo or the benchmark (its tests
aside). A use is a name, an attribute, or a string equal to the name, as
the benchmark's tracer names the functions it wraps; a definition is
not a use. The test parses the files and imports neither scipy nor
hypothesis.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "spanbandit"

# save_spec writes the spec format that `--spec` reads; the tests make their spec files with it.
NEED_NO_CALLER = {"save_spec"}


def _uses(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_public_name_has_a_caller_outside_the_tests():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    public = {
        node.name: path.name
        for path in modules
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    for node in ast.parse((PACKAGE / "__init__.py").read_text()).body:
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                public.setdefault(alias.asname or alias.name, "__init__.py")
    callers = [
        *modules,
        *(ROOT / "demos").glob("*.py"),
        *(p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")),
    ]
    used = set().union(*map(_uses, callers))
    unused = sorted(
        f"{module}: {name}" for name, module in public.items() if name not in used | NEED_NO_CALLER
    )
    assert not unused, "public names with no caller outside the tests: " + ", ".join(unused)
