"""Checks on how the modules of ``mbsed`` depend on each other."""

import ast
import importlib
import inspect
from pathlib import Path

import mbsed

PACKAGE = Path(mbsed.__file__).parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def sibling_private_uses(path: Path) -> list[str]:
    """Underscore-prefixed names that ``path`` takes from a sibling module:
    by ``from .x import _y`` (or ``from mbsed.x import _y``), or as
    ``alias._y`` of a module bound by ``from . import x as alias``."""
    tree = ast.parse(path.read_text(), str(path))
    found, aliases = [], set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if not (node.level or module == "mbsed" or module.startswith("mbsed.")):
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append(f"{path.name}:{node.lineno} imports {alias.name}")
            elif not module or module == "mbsed":
                aliases.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name) and node.value.id in aliases):
            found.append(f"{path.name}:{node.lineno} uses {node.value.id}.{node.attr}")
    return found


def test_no_module_takes_a_private_name_from_a_sibling():
    found = [use for path in sorted(PACKAGE.glob("*.py")) for use in sibling_private_uses(path)]
    assert not found, "\n".join(found)


def unused_imports(path: Path) -> list[str]:
    """Names that ``path`` binds by an import and never reads."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"{path.name}:{line} imports {name} and never uses it"
        for name, line in imported.items()
        if name not in read
    ]


def test_no_module_imports_a_name_it_never_uses():
    found = [use for path in sorted(PACKAGE.glob("*.py")) for use in unused_imports(path)]
    assert not found, "\n".join(found)


def names_read(path: Path) -> set[str]:
    """Every name ``path`` reads, imports or takes as an attribute."""
    tree = ast.parse(path.read_text(), str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_public_autodiff_function_has_a_caller_in_mbsed():
    # an op that loses its last caller in the package goes with it; the
    # tensor coercion and the gradient checker serve the tests
    from mbsed import autodiff

    used = set().union(*(
        names_read(path) for path in PACKAGE.glob("*.py") if path.name != "autodiff.py"
    ))
    public = {
        name for name, value in vars(autodiff).items()
        if inspect.isfunction(value) and value.__module__ == autodiff.__name__
        and not name.startswith("_")
    }
    assert public - used - {"as_tensor", "grad_check"} == set()


def test_every_public_function_and_class_is_read_in_mbsed_or_perfbench():
    # a public name that nothing in the package or the benchmark reads goes;
    # the gradient checker serves the tests
    used = set().union(*(
        names_read(path) for path in [*PACKAGE.glob("*.py"), *PERFBENCH.glob("*.py")]
    ))
    unread = set()
    for path in PACKAGE.glob("[!_]*.py"):
        module = importlib.import_module(f"mbsed.{path.stem}")
        unread.update(
            f"{path.stem}.{name}" for name, value in vars(module).items()
            if (inspect.isfunction(value) or inspect.isclass(value))
            and value.__module__ == module.__name__
            and not name.startswith("_") and name not in used
        )
    assert unread - {"autodiff.grad_check"} == set()
