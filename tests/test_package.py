import ast
import atexit
import gc
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import unimodal_lab
from unimodal_lab import certmax, cli, envelope, exactpoly, kernels, thresholds

SRC = Path(__file__).resolve().parents[1] / "src"


def test_version():
    assert unimodal_lab.__version__ == "0.1.0"


_REFUSALS = [(unimodal_lab.OutOfRange, 3), (thresholds.NotFoundError, 4)]


@pytest.mark.parametrize("refusal, code", _REFUSALS, ids=lambda v: getattr(v, "__name__", None))
def test_every_refusal_is_a_package_refusal(refusal, code):
    # cli.main catches only unimodal_lab.Refusal and exits with its code
    assert issubclass(refusal, unimodal_lab.Refusal)
    assert refusal.exit_code == code


def test_the_package_has_two_refusals():
    # each remaining refusal has a cause some CLI input reaches
    for layer in (certmax, envelope, exactpoly, kernels, thresholds):
        layer.__name__  # the first attribute read executes a layer
    assert set(unimodal_lab.Refusal.__subclasses__()) == {refusal for refusal, _ in _REFUSALS}


def _tracer_names(monkeypatch) -> list[tuple[str, str]]:
    # the (module, name) pairs perfbench's tracer wraps or reads
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer")
    names = [(mod, name) for mod, name, *_ in tracer.SPANNED + tracer.COUNTED]
    return names + [("cli", "ThreadPoolExecutor"), ("cli", "_threads"), ("kernels", "backend")]


def test_benchmark_tracer_finds_every_name(monkeypatch):
    # perfbench's tracer wraps package functions by (module, name); a rename
    # here would break it without failing any other tier-1 test
    for mod, name in _tracer_names(monkeypatch):
        assert callable(getattr(importlib.import_module(f"unimodal_lab.{mod}"), name)), (mod, name)


def _python(*args: str, **kw) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports the package from SRC."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=120, **kw)


# the start of a child script: executed() names the package modules whose
# bodies have run (the import system executes a module body through exec,
# which raises an audit event)
_EXEC_HOOK = """
import contextlib, io, json, os, sys
bodies = []
sys.addaudithook(lambda event, args: bodies.append(args[0].co_filename)
                 if event == "exec" and getattr(args[0], "co_name", "") == "<module>" else None)

def executed():
    pkg = os.path.dirname(sys.modules["unimodal_lab"].__file__)
    return sorted(os.path.splitext(os.path.basename(f))[0] for f in bodies if os.path.dirname(f) == pkg)
"""

# imports unimodal_lab.cli in a fresh interpreter and runs cli.main(argv)
# unless argv is None, then prints a JSON report: the exit code, whether
# NumPy, fractions and decimal were imported, the package modules
# registered in sys.modules, and the package modules executed
_CHILD = _EXEC_HOOK + """
argv = json.loads(sys.argv[1])
import unimodal_lab.cli
code = 0
if argv is not None:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = unimodal_lab.cli.main(argv)
        except SystemExit as e:
            code = e.code
print(json.dumps({
    "code": code,
    **{name: name in sys.modules for name in ("numpy", "fractions", "decimal")},
    "registered": sorted(name for name in sys.modules if name.startswith("unimodal_lab.")),
    "executed": executed(),
}))
"""


def _child_report(tmp_path, argv) -> dict:
    coeffs = tmp_path / "coeffs.txt"
    coeffs.write_text("1 0 0 5 1\n")
    if argv is not None:
        argv = [a.format(coeffs=coeffs) for a in argv]
    proc = _python("-c", _CHILD, json.dumps(argv), text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


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
        # the lobe zoom evaluates its samples with libm
        (["scan-eclass", "--k-min", "17", "--k-max", "40"], False),
        # the control: sandwich_check's grid does load NumPy
        (["eclass", "--k", "9"], True),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else repr(v),
)
def test_only_grid_scans_import_numpy(tmp_path, argv, loads):
    report = _child_report(tmp_path, argv)
    assert report["code"] == 0
    assert report["numpy"] is loads


_LAYERS = ["certmax", "envelope", "exactpoly", "kernels", "thresholds"]
_EXACT = ["exactpoly", "thresholds"]
_GRID = ["certmax", "envelope", "kernels"]


# (argv, exit code, the layers the command executes, whether it loads
# fractions and decimal); only the exact lane computes a Fraction, and
# NumPy imports neither, so the grid commands load neither. A failing
# command executes only the layers it reached.
_LAYER_TABLE = [
    (None, 0, [], False),  # import unimodal_lab.cli, as the benchmark's tracer does
    (["--version"], 0, [], False),
    (["check", "--m", "7741", "--k", "88"], 0, _EXACT, True),
    (["scan-theorem1", "--k-min", "2", "--k-max", "12"], 0, _EXACT, True),
    (["probe-inequality", "--k", "20"], 0, _EXACT, True),
    (["general", "{coeffs}"], 0, _EXACT, True),
    (["certmax", "--format", "text"], 0, ["certmax", "kernels"], False),
    (["certmax"], 0, ["certmax", "kernels"], False),
    (["eclass", "--k", "9"], 0, _GRID, False),
    (["scan-eclass", "--k-min", "9", "--k-max", "10", "--grid", "20000"], 0, _GRID, False),
    (["check", "--m", "0", "--k", "3"], 1, ["exactpoly"], False),
    (["scan-theorem1", "--k-min", "2", "--k-max", "3", "--cap", "5"], 4, _EXACT, True),
    (["eclass", "--k", "0"], 1, ["envelope"], False),
    (["eclass", "--k", "1001"], 3, ["envelope"], False),
]


@pytest.mark.parametrize(
    "argv, code, layers, loads_fractions",
    [pytest.param(*row, id=" ".join(row[0]) if row[0] else "import cli") for row in _LAYER_TABLE],
)
def test_commands_execute_only_their_layers(tmp_path, argv, code, layers, loads_fractions):
    report = _child_report(tmp_path, argv)
    assert report["code"] == code
    # every layer stays registered, so the tracer finds each by name
    assert report["registered"] == sorted(["unimodal_lab.cli", *(f"unimodal_lab.{m}" for m in _LAYERS)])
    assert report["executed"] == sorted(["__init__", "cli", *layers])
    assert report["fractions"] is report["decimal"] is loads_fractions


def test_from_import_cli_executes_no_layer():
    # the pitfall: the from-import probes the package for a cli attribute
    # before importing the submodule, and the probe must execute no layer
    proc = _python("-c", _EXEC_HOOK + "from unimodal_lab import cli\nprint(json.dumps(executed()))", text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["__init__", "cli"]


# (argv, whether the run loads json): json output needs it, nothing else
# does, and no command loads concurrent.futures or logging
_START_UP = [
    (["--version"], False),
    (["check", "--m", "7741", "--k", "88"], False),
    (["check", "--m", "141", "--k", "12", "--format", "json"], True),
    (["scan-theorem1", "--k-min", "2", "--k-max", "12"], False),
    (["probe-inequality", "--k", "20"], False),
    (["general", "{coeffs}"], False),
    (["certmax", "--format", "text"], False),
    (["eclass", "--k", "9"], True),
    (["eclass", "--k", "9", "--format", "csv"], False),
    (["scan-eclass", "--k-min", "9", "--k-max", "10", "--grid", "20000"], False),
]


@pytest.mark.parametrize("argv, loads_json", _START_UP, ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_commands_import_no_pool_logging_or_unused_json(tmp_path, argv, loads_json):
    coeffs = tmp_path / "coeffs.txt"
    coeffs.write_text("1 0 0 5 1\n")
    argv = [a.format(coeffs=coeffs) for a in argv]
    proc = _python("-X", "importtime", "-m", "unimodal_lab", *argv, text=True)
    assert proc.returncode == 0, proc.stderr
    # -X importtime writes one stderr line per module imported, ending in its name
    imported = {line.split("|")[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert "unimodal_lab.cli" in imported
    assert not imported & {"concurrent.futures", "logging"}
    assert ("json" in imported) == loads_json


# (argv, exit code); no cheap input gives 2, a verdict mismatch
_EXITS = [
    pytest.param(["check", "--m", "7741", "--k", "88"], 0, id="check"),
    pytest.param(["--version"], 0, id="version"),
    pytest.param(["check", "--m", "0", "--k", "3"], 1, id="bad-m"),
    pytest.param(["check", "--m", "5"], 1, id="usage"),  # argparse's SystemExit
    # a non-member, k just above sqrt(m + 3): a member is decided at k^2 - 3
    pytest.param(["check", "--m", str(2**49), "--k", str(2**25)], 3, id="out-of-range"),
    pytest.param(["scan-theorem1", "--k-min", "2", "--k-max", "3", "--cap", "5"], 4, id="not-found"),
    pytest.param(["eclass", "--k", "0"], 1, id="bad-k"),
    pytest.param(["eclass", "--k", "1001"], 3, id="k-beyond-verified-range"),
    pytest.param(["eclass", "--k", str(10**80)], 3, id="k-beyond-float-range"),
]


@pytest.mark.parametrize("argv, code", _EXITS)
def test_process_entry_keeps_exit_code_and_output(capsys, argv, code):
    try:
        want = cli.main(argv)
    except SystemExit as e:
        want = e.code
    out, err = capsys.readouterr()
    assert want == code
    proc = _python("-m", "unimodal_lab", *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), err.encode())


def test_only_the_process_entry_freezes_the_heap_at_exit(capsys, monkeypatch):
    # main runs in-process (tests, the benchmark's tracer), so it must
    # leave the interpreter as it found it
    registered = []
    monkeypatch.setattr(atexit, "register", registered.append)
    monkeypatch.setattr(sys, "argv", ["unimodal-lab", "check", "--m", "6", "--k", "3"])
    assert cli.main(sys.argv[1:]) == 0
    assert registered == []
    assert cli.entry() == 0
    assert registered == [gc.freeze]
    assert capsys.readouterr().out.count("agree=true") == 2


def test_process_entry_writes_a_large_out_file_whole(tmp_path):
    argv = ["-m", "unimodal_lab", "probe-inequality", "--k", "70", "--format", "json"]
    out = tmp_path / "probe.json"
    printed = _python(*argv)
    written = _python(*argv, "--out", str(out))
    assert printed.returncode == written.returncode == 0
    assert written.stdout == b""
    assert len(printed.stdout) > 10**6
    assert out.read_bytes() == printed.stdout


def test_script_and_module_share_the_process_entry():
    # read as text: Python 3.10 has no tomllib
    pyproject = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
    scripts = re.findall(r'^unimodal-lab = "unimodal_lab\.(\w+):(\w+)"$', pyproject, re.M)
    assert len(scripts) == 1
    module, func = scripts[0]
    main_py = ast.parse((SRC / "unimodal_lab" / "__main__.py").read_text(encoding="utf-8"))
    imports = [(node.module, alias.name) for node in ast.walk(main_py) if isinstance(node, ast.ImportFrom)
               for alias in node.names]
    calls = [node.func.id for node in ast.walk(main_py)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
    assert (module, func) in imports
    assert calls == [func]


def test_array_ops_is_one_public_object():
    # built once, on the first call
    ops = kernels._array_ops()
    assert ops is kernels._array_ops()
    assert ops.select is kernels._array_select


# the inputs of tests/test_cli.py::TestCheck, members, non-members and
# refusals, beside _LAYER_TABLE's and _EXITS'
_CHECK_ARGV = [
    ["check", "--m", m, "--k", k]
    for m, k in [("6", "3"), ("5", "3"), ("46", "7"), ("7741", "88"), ("7740", "88"), ("40000", "5"),
                 ("1", "5"), ("2", "5"), ("0", "3"), (str(10**12), "5"), (str(2**60), "5"),
                 (str(2**49), str(2**25)), (str(10**400), str(10**200 + 1))]
]


def test_every_layer_function_runs_in_some_command(tmp_path, monkeypatch, capsys):
    # src/ holds only what a command runs: every function a layer defines,
    # at module level or in a class body, is called by some command in
    # some format, refusals included; the paper's other identities are
    # tests/oracles.py's
    coeffs = tmp_path / "coeffs.txt"
    coeffs.write_text("1 0 0 5 1\n")
    argvs = [row[0] for row in _LAYER_TABLE if row[0]] + [p.values[0] for p in _EXITS] + _CHECK_ARGV
    # k = 2, whose lobe grid ends at pi, where L is the -inf sentinel
    argvs.append(["eclass", "--k", "2"])
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    for argv in argvs:
        argv = [a.format(coeffs=coeffs) for a in argv if a not in ("--format", "text", "csv", "json")]
        for fmt in ("text", "csv", "json") if argv[0] in cli._DISPATCH else (None,):
            sys.setprofile(profile)
            try:
                cli.main([*argv, "--format", fmt] if fmt else argv)
            except SystemExit:
                pass
            finally:
                sys.setprofile(None)
    capsys.readouterr()
    # ROADMAP item 23 frees the names perfbench's tracer wraps, and
    # kernels._walk, the walk of two of them; until then they stay uncalled
    exempt = {*_tracer_names(monkeypatch), ("kernels", "_walk")}
    uncalled = []
    for layer in _LAYERS:
        module = importlib.import_module(f"unimodal_lab.{layer}")
        for name, obj in vars(module).items():
            members = [(name, obj)]
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                members = [(f"{name}.{attr}", getattr(v, "fget", getattr(v, "__func__", v)))
                           for attr, v in vars(obj).items()]
            for qualname, fn in members:
                code = getattr(fn, "__code__", None)
                if code is not None and code.co_filename == module.__file__ and code not in called:
                    uncalled.append((layer, qualname))
    assert [pair for pair in uncalled if pair not in exempt] == []
