"""The benchmark tracer's targets must all exist in the package.

`perfbench/spans.py` rebinds each (module, attribute path) in its
`TARGETS` list and looks the last step up in the owner's `__dict__`, so a
renamed or deleted function breaks `perfbench/run.py --trace 1`.  The list
is read as a literal, without importing the benchmark.
"""

import ast
import importlib
import pathlib

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _targets():
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TARGETS"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS list in {SPANS}")


def test_every_trace_target_resolves():
    targets = _targets()
    assert targets
    for name, module_name, path in targets:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = owner.__dict__[part]
        assert attr in owner.__dict__, (name, module_name, path)
