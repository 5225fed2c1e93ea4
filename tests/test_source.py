import ast
from pathlib import Path

import pareto_kit


def test_no_module_uses_assert():
    """Invariants raise InternalInconsistency: ``python -O`` strips an
    ``assert`` statement, and the check with it."""
    package = Path(pareto_kit.__file__).resolve().parent
    modules = sorted(package.rglob("*.py"))
    assert len(modules) > 10
    found = [
        f"{path.relative_to(package)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
