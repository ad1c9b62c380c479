"""Every entry point that perfbench/spans.py traces still resolves in taniapn.

The tracer wraps these names from outside the package, so a rename or a
removal in src/ would otherwise show only when a traced benchmark run
fails.  Module functions are looked up with getattr; methods and cached
properties in the class __dict__, which is where the tracer replaces them.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
_spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS_PATH)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


@pytest.mark.parametrize("name", list(spans.LAYERS))
def test_traced_name_resolves(name):
    module_name, _, attr = name.partition(".")
    module = importlib.import_module(f"taniapn.{module_name}")
    if "." in attr:
        cls_name, attr = attr.split(".")
        assert attr in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attr))
