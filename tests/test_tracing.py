"""The names the benchmark's trace mode patches must exist in fermatlines.

``perfbench/run.py --trace 1`` wraps the functions and methods listed in
``perfbench/tracing.py``; a rename or a move in the package would make it
fail.  The lists are read from that file here without installing them.
The tracer's certify note is the one runtime reader of the certificate's
decoded ``coverage`` view, so its count is checked against the JSON rows.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("mod_name, fn_name, span", tracing.FUNCTIONS)
def test_traced_function_is_a_module_attribute(mod_name, fn_name, span):
    module = importlib.import_module(f"fermatlines.{mod_name}")
    assert hasattr(module, fn_name), span


@pytest.mark.parametrize("mod_name, cls_name, meth, span", tracing.METHODS)
def test_traced_method_is_defined_in_its_class(mod_name, cls_name, meth, span):
    cls = getattr(importlib.import_module(f"fermatlines.{mod_name}"), cls_name)
    assert meth in cls.__dict__, span


@pytest.mark.parametrize("meth", tracing.SCALAR_METHODS)
def test_counted_scalar_method_is_defined_on_field_ctx(meth):
    from fermatlines.gf import FieldCtx

    assert meth in FieldCtx.__dict__


@pytest.mark.parametrize("q", [11, 13])
def test_certify_note_counts_the_covered_nontrivial_rows(q):
    from fermatlines.certify import certify
    from fermatlines.gf import make_field

    ctx = make_field(q)
    cert = certify(ctx)
    tracer = tracing.Tracer()
    tracer._note_certify((ctx,), cert)
    rows = cert.to_json_dict()["coverage"]
    assert rows[0]["tuple"] == [0, 0, 0, 0]
    assert tracer.witnesses == sum(1 for e in rows[1:] if e["nonzero"])
