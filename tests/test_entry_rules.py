"""One depot rule and one radius rule at every entry point: the CLI parses
text into numbers and leaves their values to the package, so a depot is
judged only by geometry.check_coordinates and a radius only by
bounds._check_radius, whichever entry point reads it."""

import ast
from pathlib import Path

import sweepcvrp.cli as cli

SRC = Path(cli.__file__).resolve().parent


def _tree(name: str) -> ast.Module:
    return ast.parse((SRC / name).read_text(encoding="utf-8"))


def _enclosing_functions(tree: ast.Module):
    """(function name, node) for every node inside a top-level function."""
    for func in tree.body:
        if isinstance(func, ast.FunctionDef):
            for node in ast.walk(func):
                yield func.name, node


def test_cli_imports_no_math():
    imported = set()
    for node in ast.walk(_tree("cli.py")):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    assert "math" not in imported


def test_cli_rejects_only_unparsable_text():
    """argparse.ArgumentTypeError is raised only for text that is no seed
    list, and in _parse_r only where the text is not a number at all."""
    tree = _tree("cli.py")
    raised = [name for name, node in _enclosing_functions(tree)
              if isinstance(node, ast.Raise) and "ArgumentTypeError" in ast.unparse(node)]
    assert ast.unparse(tree).count("ArgumentTypeError") == len(raised)
    assert sorted(raised) == ["_parse_r", "_parse_seeds", "_parse_seeds"]
    parse_r = next(node for name, node in _enclosing_functions(tree)
                   if isinstance(node, ast.FunctionDef) and name == "_parse_r")
    (handler,) = [n for n in ast.walk(parse_r) if isinstance(n, ast.ExceptHandler)]
    assert ast.unparse(handler.type) == "ValueError"
    (raise_,) = [n for n in ast.walk(parse_r) if isinstance(n, ast.Raise)]
    assert raise_ in list(ast.walk(handler))


def test_every_one_point_coordinate_check_names_the_depot():
    sites = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call)
                    and ast.unparse(node.func).endswith("check_coordinates")
                    and node.args and isinstance(node.args[0], ast.List)
                    and len(node.args[0].elts) == 1):
                continue
            what = [*node.args[1:], *(kw.value for kw in node.keywords)]
            sites.append((path.name, ast.unparse(what[0]) if what else None))
    assert sites and all(what == "'depot'" for _, what in sites), sites
    assert {"cli.py", "netverify.py", "geometry.py"} <= {name for name, _ in sites}
