"""Architecture guards, by an ast scan of src/losstomo/*.py.

The network's link dicts (child_links, parent_links, brother_sets,
source_links) are read only inside topology.py, which derives the positional
form from them; every numeric layer reads the positional form.  And one
function, topology.token_lines, cuts '#' comments off input lines for all
four line parsers.
"""

import ast
from pathlib import Path

import losstomo

LINK_DICTS = {"child_links", "parent_links", "brother_sets", "source_links"}


def _modules() -> dict[str, ast.Module]:
    src = Path(losstomo.__file__).resolve().parent
    return {p.name: ast.parse(p.read_text(), p.name) for p in sorted(src.glob("*.py"))}


def _attribute_reads(tree: ast.Module) -> set[str]:
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in LINK_DICTS}


def _comment_splitters(name: str, tree: ast.Module) -> list[tuple[str, str]]:
    """(module, innermost enclosing function) of each .split('#', ...) call."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "split" and node.args
                and isinstance(node.args[0], ast.Constant) and node.args[0].value == "#"):
            found.append((name, where))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return found


def test_only_topology_reads_the_link_dicts():
    modules = _modules()
    assert _attribute_reads(modules["topology.py"]) == LINK_DICTS   # the scan sees them
    readers = {name: sorted(_attribute_reads(tree))
               for name, tree in modules.items() if name != "topology.py"}
    assert {name: attrs for name, attrs in readers.items() if attrs} == {}


def test_one_function_strips_comments():
    found = [hit for name, tree in _modules().items() for hit in _comment_splitters(name, tree)]
    assert found == [("topology.py", "token_lines")]
