"""Every module-level function and class of the package has a caller.

A definition in ``src/qgscatter`` must be exported from ``qgscatter`` or be
named somewhere in ``src/`` or ``bench/`` outside its own definition;
helpers that only tests use belong in ``tests/``.
"""

import ast
import pathlib
import re

import qgscatter

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qgscatter"


def test_every_definition_in_src_has_a_caller():
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    texts = {p: p.read_text(encoding="utf-8") for p in paths}
    uncalled = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(texts[path]).body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name in qgscatter.__all__):
                continue
            lines = texts[path].splitlines()
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            elsewhere = {**texts, path: "\n".join(lines[:first - 1] + lines[node.end_lineno:])}
            if not any(re.search(rf"\b{node.name}\b", t) for t in elsewhere.values()):
                uncalled.append(f"{path.stem}.{node.name}")
    assert uncalled == []
