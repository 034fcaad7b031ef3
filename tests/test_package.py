import ast
from pathlib import Path

import spring_platform

PACKAGE = Path(spring_platform.__file__).parent
ENTRY_MODULES = {"__init__", "__main__"}


def imported_modules(tree: ast.Module) -> set[str]:
    """The package's modules that one parsed module imports. The package
    imports its own modules relatively, so an absolute import of one
    leaves it unlisted and the test below fails rather than passes."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                names.add(node.module.split(".")[0])
            else:
                names.update(alias.name for alias in node.names)
    return names


def test_every_module_has_a_library_importer():
    # a module that only __init__ re-exports is reached only by tests; the
    # entry points (__init__, __main__) need no importer of their own
    modules = {path.stem: ast.parse(path.read_text())
               for path in PACKAGE.glob("*.py")}
    imported = set()
    for name, tree in modules.items():
        if name != "__init__":
            imported |= imported_modules(tree)
    orphans = sorted(set(modules) - ENTRY_MODULES - imported)
    assert orphans == [], f"modules no library module imports: {orphans}"
