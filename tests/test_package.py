import ast
from pathlib import Path

import tessperc

SRC = Path(tessperc.__file__).resolve().parent


def test_no_module_imports_another_modules_private_names():
    private = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("tessperc"):
                continue
            private += [f"{path.name}: {alias.name}" for alias in node.names
                        if alias.name.startswith("_") and not alias.name.startswith("__")]
    assert private == []
