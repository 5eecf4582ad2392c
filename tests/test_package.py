"""The package exports no name that only code outside it uses."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "aphynity"

# Exported names that no code in the package reads, each with why it stays
USED_OUTSIDE_THE_PACKAGE = {
    "reacdiff_rhs_np": "the reference the tests compare the padded reaction-diffusion "
                       "stepper against",
    "sqrt": "perfbench/tracer.py wraps it",
    "reshape": "perfbench/tracer.py wraps it",
    "pad2d": "perfbench/tracer.py wraps it",
    "batchnorm2d": "perfbench/tracer.py wraps it",
}


def literal_exports(tree: ast.Module) -> list[str]:
    """The module's ``__all__`` when it is a literal, else nothing."""
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in stmt.targets):
            try:
                return list(ast.literal_eval(stmt.value))
            except ValueError:  # built from other lists
                return []
    return []


def module_aliases(path: Path, tree: ast.Module) -> set[str]:
    """The names the module binds to modules of the package."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            base = path.parents[node.level - 1].joinpath(*(node.module or "").split("."))
            out |= {alias.asname or alias.name for alias in node.names
                    if (base / f"{alias.name}.py").exists() or (base / alias.name).is_dir()}
    return out


def reads(path: Path, tree: ast.Module) -> set[tuple[str, str | None]]:
    """``(name, definition)`` for each bare name the module reads and each
    attribute it reads off one of the package's modules, with the top-level
    function or class it is read in, or None."""
    modules = module_aliases(path, tree)
    out = set()
    for stmt in tree.body:
        definition = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.add((node.id, definition))
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                out.add((node.attr, definition))
    return out


def test_every_exported_name_is_read_in_the_package_outside_its_own_definition():
    modules = {path: ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))}
    read = {module: reads(module, tree) for module, tree in modules.items()}
    unused = [name for module, tree in modules.items() for name in literal_exports(tree)
              if not any(n == name and (other, definition) != (module, name)
                         for other, names in read.items() for n, definition in names)]
    assert sorted(unused) == sorted(USED_OUTSIDE_THE_PACKAGE)
