import ast
from pathlib import Path

import hubofs

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    missing = [name for name in hubofs.__all__ if not hasattr(hubofs, name)]
    assert missing == []
    assert len(set(hubofs.__all__)) == len(hubofs.__all__)


def test_every_exported_name_is_used_outside_the_tests():
    # A name counts as used where code of the package (outside __init__.py) or of
    # the benchmark scripts reads it: a name, an attribute, or a string that is
    # exactly the name, as the span tracer looks functions up. Its own definition
    # and prose do not count, so an export that only tests call is caught.
    used = set()
    sources = [p for p in (ROOT / "src" / "hubofs").glob("*.py") if p.name != "__init__.py"]
    for path in sorted(sources) + sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    assert [name for name in hubofs.__all__ if name not in used] == []
