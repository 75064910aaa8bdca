import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import unimodal_lab
from unimodal_lab import certmax, envelope, exactpoly, kernels, thresholds

SRC = Path(__file__).resolve().parents[1] / "src"


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


# runs cli.main(argv) in the child, or only imports the package when argv
# is None, and prints whether NumPy was imported
_CHILD = """
import contextlib, io, json, sys
argv = json.loads(sys.argv[1])
if argv is None:
    import unimodal_lab
else:
    from unimodal_lab import cli
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
    assert code == 0, code
print("numpy" in sys.modules)
"""


@pytest.mark.parametrize(
    "argv, loads",
    [
        (None, False),
        (["--version"], False),
        (["check", "--m", "7741", "--k", "88"], False),
        (["scan-theorem1", "--k-min", "2", "--k-max", "12"], False),
        (["probe-inequality", "--k", "20"], False),
        (["general", "{coeffs}"], False),
        (["certmax"], False),
        # the control: a grid scan does load NumPy
        (["eclass", "--k", "9"], True),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else repr(v),
)
def test_only_grid_scans_import_numpy(tmp_path, argv, loads):
    coeffs = tmp_path / "coeffs.txt"
    coeffs.write_text("1 0 0 5 1\n")
    if argv is not None:
        argv = [a.format(coeffs=coeffs) for a in argv]
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(argv)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(loads)]


def test_array_ops_is_one_public_object():
    # served by the module's __getattr__, built once
    ops = kernels.ARRAY_OPS
    assert ops is kernels.ARRAY_OPS
    assert ops.select is kernels._array_select
    with pytest.raises(AttributeError, match="no_such_name"):
        kernels.no_such_name
