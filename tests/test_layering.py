"""The package's modules import one another in one direction only."""
import ast
from pathlib import Path

import d2dsim

PACKAGE = Path(d2dsim.__file__).parent

# each module may import only the modules listed before it
LAYERS = ("errors", "spatial", "analytic", "radio", "access", "simkit", "planner", "cli")


def _intra_package_imports(tree: ast.Module):
    """(node, imported module) for every import of a d2dsim module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                yield node, node.module.split(".")[0]
            else:
                for alias in node.names:
                    yield node, alias.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("d2dsim"):
            yield node, (node.module.split(".") + [""])[1]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("d2dsim."):
                    yield node, alias.name.split(".")[1]


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_module_has_a_layer():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


def test_imports_sit_at_module_level():
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        top = set(map(id, tree.body))
        nested = [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top]
        assert nested == [], f"imports inside a function or block: {nested}"


def test_modules_import_only_lower_layers():
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        rank = LAYERS.index(path.stem)
        for node, target in _intra_package_imports(_parse(path)):
            assert target in LAYERS[:rank], (
                f"{path.name}:{node.lineno} imports {target}, which is not below "
                f"{path.stem} in {LAYERS}")


def test_the_monte_carlo_knows_nothing_of_plans():
    for name in ("spatial", "radio", "access", "simkit", "analytic"):
        imported = {target for _, target in _intra_package_imports(_parse(PACKAGE / f"{name}.py"))}
        assert not imported & {"planner", "cli"}, f"{name} imports {imported & {'planner', 'cli'}}"


def test_scipy_is_named_only_through_analytic_lazy_bindings():
    # analytic binds scipy.integrate and scipy.special lazily, so a Monte Carlo
    # run never executes SciPy; an import statement would load it eagerly
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            eager = [name for name in names if name.split(".")[0] == "scipy"]
            assert eager == [], f"{path.name}:{node.lineno} imports {eager}"
