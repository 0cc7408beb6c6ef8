"""tests/oracle.py, the reference the suite checks sqnn against, must not
import sqnn."""

import ast
from pathlib import Path


def sqnn_imports(source: str) -> list[str]:
    """The modules under sqnn that an import statement of `source` names."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.append(node.module)
    return [name for name in names if name.split(".")[0] == "sqnn"]


def test_oracle_imports_nothing_from_sqnn():
    # the check sees both statement forms, also inside a function body
    probe = "import numpy, sqnn.linalg\ndef f():\n    from sqnn import circuit\n"
    assert sorted(sqnn_imports(probe)) == ["sqnn", "sqnn.linalg"]
    assert sqnn_imports((Path(__file__).parent / "oracle.py").read_text()) == []
