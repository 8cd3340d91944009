"""Every ``np.linalg`` call in the package either sits in the body of a
``try`` that catches ``LinAlgError`` (and raises a package error) or
carries a ``# cannot raise: <why>`` comment on its line or the line
above, so that no linear-algebra failure reaches the command line as a
traceback."""

import ast
from pathlib import Path

import cablearm

MARK = "# cannot raise:"


def _catches_linalg_error(node: ast.Try) -> bool:
    return any(h.type is not None and "LinAlgError" in ast.unparse(h.type) for h in node.handlers)


def _linalg_calls(tree: ast.AST, guarded: bool = False):
    """(call, guarded) for every ``np.linalg.*`` call under ``tree``."""
    if isinstance(tree, ast.Try) and _catches_linalg_error(tree):
        for stmt in tree.body:
            yield from _linalg_calls(stmt, True)
        for part in (tree.handlers, tree.orelse, tree.finalbody):
            for stmt in part:
                yield from _linalg_calls(stmt, guarded)
        return
    if isinstance(tree, ast.Call) and ast.unparse(tree.func).startswith("np.linalg."):
        yield tree, guarded
    for child in ast.iter_child_nodes(tree):
        yield from _linalg_calls(child, guarded)


def test_every_linalg_call_is_guarded_or_explained():
    unexplained, seen = [], 0
    for path in sorted(Path(cablearm.__file__).parent.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        for call, guarded in _linalg_calls(ast.parse(source)):
            seen += 1
            span = lines[max(call.lineno - 2, 0):call.end_lineno]
            if not guarded and not any(MARK in line for line in span):
                unexplained.append(f"{path.name}:{call.lineno} {ast.unparse(call.func)}")
    assert seen
    assert unexplained == []

