"""Architecture guards, by an ast scan of src/losstomo/*.py.

The network's link dicts (child_links, parent_links, brother_sets,
source_links) are read only inside topology.py, which derives the positional
form from them; every numeric layer reads the positional form.  And one
function, topology.token_lines, cuts '#' comments off input lines for all
four line parsers.  The per-tree view dicts are indexed only inside
statistics.py; every other module reads counts through InternalView.counts.
"""

import ast
from pathlib import Path

import losstomo

LINK_DICTS = {"child_links", "parent_links", "brother_sets", "source_links"}
VIEW_DICTS = {"per_tree_n1", "per_tree_n0"}


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


def _view_dict_reads(tree: ast.Module) -> set[str]:
    """The per-tree view dicts indexed (x.per_tree_n1[k]) or read through a
    method (x.per_tree_n1.get) in a module."""
    return {node.value.attr for node in ast.walk(tree)
            if isinstance(node, (ast.Subscript, ast.Attribute))
            and isinstance(node.value, ast.Attribute) and node.value.attr in VIEW_DICTS}


def test_only_statistics_indexes_the_per_tree_views():
    # every other module reads a tree's counts through InternalView.counts
    modules = _modules()
    assert _view_dict_reads(modules["statistics.py"]) == VIEW_DICTS   # the scan sees them
    readers = {name: sorted(_view_dict_reads(tree))
               for name, tree in modules.items() if name != "statistics.py"}
    assert {name: attrs for name, attrs in readers.items() if attrs} == {}
