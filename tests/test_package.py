import importlib
from pathlib import Path

import unimodal_lab
from unimodal_lab import certmax, envelope, exactpoly, thresholds


def test_all_is_the_union_of_the_layer_modules():
    want = ["__version__"]
    for mod in (exactpoly, thresholds, envelope, certmax):
        want += mod.__all__
    assert unimodal_lab.__all__ == want
    assert len(set(want)) == len(want)


def test_every_exported_name_resolves():
    for name in unimodal_lab.__all__:
        assert getattr(unimodal_lab, name) is not None
    assert unimodal_lab.__version__ == "0.1.0"
    assert unimodal_lab.defect_general is envelope.defect_general
    assert unimodal_lab.poly_eval_circle is envelope.poly_eval_circle


def test_benchmark_tracer_finds_every_name(monkeypatch):
    # perfbench's tracer wraps package functions by (module, name); a rename
    # here would break it without failing any other tier-1 test
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer")
    names = [(mod, name) for mod, name, *_ in tracer.SPANNED + tracer.COUNTED]
    names += [("cli", "ThreadPoolExecutor"), ("cli", "_threads"), ("kernels", "backend")]
    for mod, name in names:
        assert callable(getattr(importlib.import_module(f"unimodal_lab.{mod}"), name)), (mod, name)
