import ast
import re
import runpy
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
DEMOS = sorted((README.parent / "demos").glob("*.py"))


def test_readme_python_blocks_run_in_order_in_one_namespace(capsys):
    # the second block reuses the first one's imports, as a reader running them in turn would
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.DOTALL | re.MULTILINE)
    assert len(blocks) == 2
    namespace = {"__name__": "readme"}
    for k, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {k + 1}", "exec"), namespace)
    # the values the first block's comments give, up to rounding
    v, b_max, negativity, _, b_stack = capsys.readouterr().out.splitlines()
    assert abs(float(v) - 0.36) < 1e-12 and abs(float(b_max) - 2.0) < 1e-12 and float(negativity) > 0.0
    assert namespace["stack"].shape == (5, 4, 4) and len(b_stack.strip("[]").split()) == 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_demo_runs_as_a_script(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def _module_level_nodes(tree):
    """The nodes that run when the module is imported: everything but the bodies of functions and lambdas."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(node.decorator_list + node.args.defaults + [d for d in node.args.kw_defaults if d])
        elif isinstance(node, ast.Lambda):
            stack.extend(node.args.defaults + [d for d in node.args.kw_defaults if d])
        else:
            stack.extend(ast.iter_child_nodes(node))


def test_no_test_module_skips_whole_when_a_package_is_missing():
    # as README says: a test that needs an optional package calls pytest.importorskip inside the test or a fixture
    found = []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        for node in _module_level_nodes(ast.parse(path.read_text(encoding="utf-8"))):
            func = node.func if isinstance(node, ast.Call) else None
            if getattr(func, "attr", getattr(func, "id", None)) == "importorskip":
                found.append((path.name, node.lineno))
    assert not found, sorted(found)
