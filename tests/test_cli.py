import csv
import io
import json
import math
import threading
import tracemalloc
import warnings

import pytest

from proven_peak import proven_peak
from unimodal_lab import cli, envelope, kernels
from unimodal_lab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_no_subcommand_exits_one(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main([])
        assert ei.value.code == 1

    def test_unknown_subcommand_exits_one(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["frobnicate"])
        assert ei.value.code == 1

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["--version"])
        assert ei.value.code == 0
        assert "unimodal-lab" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--m", "6", "--k", "3"],
            ["scan-eclass", "--k-min", "9", "--k-max", "10", "--grid", "20000"],
        ],
        ids=["check", "scan-eclass"],
    )
    def test_thread_env_is_ignored(self, capsys, monkeypatch, argv):
        # every subcommand runs on one thread and reads no thread count
        monkeypatch.delenv("UNIMODAL_LAB_THREADS", raising=False)
        code, want, _ = run(capsys, *argv)
        assert code == 0
        monkeypatch.setenv("UNIMODAL_LAB_THREADS", "lots")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == want


class TestCheck:
    def test_member_text(self, capsys):
        code, out, err = run(capsys, "check", "--m", "6", "--k", "3")
        assert code == 0
        assert "unimodal=true" in out
        assert "strongly_unimodal=true" in out
        assert "central_ratio=1/1" in out
        assert "agree=true" in out

    def test_nonmember_text_has_witnesses(self, capsys):
        code, out, err = run(capsys, "check", "--m", "5", "--k", "3")
        assert code == 0  # all three verdicts agree on non-membership
        assert "unimodal=false" in out
        assert "unimodal_witness=4,5" in out
        assert "strong_witness=4 (log-concavity)" in out
        assert "central_ratio=11/10" in out

    def test_csv(self, capsys):
        code, out, err = run(capsys, "check", "--m", "6", "--k", "3", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "m,k,unimodal,strongly_unimodal,predicted_member,agree,central_ratio"
        assert lines[1] == "6,3,true,true,true,true,1/1"

    def test_json(self, capsys):
        code, out, err = run(capsys, "check", "--m", "46", "--k", "7", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "unimodal-lab/1"
        assert doc["m"] == 46 and doc["k"] == 7
        assert doc["unimodal"] and doc["strongly_unimodal"] and doc["agree"]
        assert doc["central_ratio"] == "1/1"
        assert doc["unimodal_witness"] is None

    def test_stress_pair_k88(self, capsys):
        code, out, err = run(capsys, "check", "--m", str(88 * 88 - 3), "--k", "88", "--format", "json")
        doc = json.loads(out)
        assert code == 0
        assert doc["unimodal"] and doc["strongly_unimodal"] and doc["agree"]
        code, out, err = run(capsys, "check", "--m", str(88 * 88 - 4), "--k", "88", "--format", "json")
        doc = json.loads(out)
        assert code == 0
        assert not doc["unimodal"] and not doc["strongly_unimodal"] and doc["agree"]
        # the witness the pure-integer loop reports (see test_exactpoly)
        assert doc["strong_witness"] == 3914
        assert doc["strong_reason"] == "log-concavity"
        assert doc["unimodal_witness"] == [3914, 3915]

    def test_memory_does_not_grow_with_the_row(self, capsys):
        # the row of m = 40000 would hold about 250 MB of integers
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "check", "--m", "40000", "--k", "5", "--format", "json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and json.loads(out)["agree"]
        assert peak < 5 * 2**20

    def test_json_stable_roundtrip(self, capsys):
        code, out, err = run(capsys, "check", "--m", "5", "--k", "3", "--format", "json")
        doc = json.loads(out)
        assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == out

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_undefined_central_ratio(self, capsys, fmt):
        # the closed form is degenerate: (m + 2)^2 - k^2 < 0 for m + k
        # even (m = 1), (m + 3)^2 - k^2 <= 0 for m + k odd (m = 2)
        for m in (1, 2):
            code, out, err = run(capsys, "check", "--m", str(m), "--k", "5", "--format", fmt)
            assert code == 0
            if fmt == "text":
                assert "central_ratio=undefined\n" in out
                assert "central_ratio_matches=undefined\n" in out
            elif fmt == "csv":
                header, row = out.splitlines()
                assert header.endswith(",central_ratio")
                assert row == f"{m},5,false,false,false,true,"
            else:
                doc = json.loads(out)
                assert doc["central_ratio"] is None
                assert doc["central_ratio_matches"] is None

    def test_bad_m_exits_one(self, capsys):
        code, out, err = run(capsys, "check", "--m", "0", "--k", "3")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("m", [2**49, 2**100, 10**400], ids=["2^49", "2^100", "10^400"])
    def test_refuses_beyond_the_proven_range(self, capsys, m):
        # family_report's exact window can take (m + k) / 2 steps, so it
        # runs only for m + k < 2^49; beyond that bound on its work the
        # scan would not end in practice (2^49, 2^100, 10^400)
        code, out, err = run(capsys, "check", "--m", str(m), "--k", "5")
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("unimodal-lab: certification failure: ")


class TestScanTheorem1:
    def test_frozen_csv(self, capsys):
        code, out, err = run(capsys, "scan-theorem1", "--k-min", "2", "--k-max", "7")
        assert code == 0
        assert out == (
            "k,min_m_strong,min_m_unimodal,predicted,match\n"
            "2,1,1,1,true\n"
            "3,6,6,6,true\n"
            "4,13,13,13,true\n"
            "5,22,22,22,true\n"
            "6,33,33,33,true\n"
            "7,46,46,46,true\n"
        )

    def test_json_all_match(self, capsys):
        code, out, err = run(
            capsys, "scan-theorem1", "--k-min", "2", "--k-max", "5", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["all_match"]
        assert [r["k"] for r in doc["rows"]] == [2, 3, 4, 5]

    def test_cap_too_small_exits_four(self, capsys):
        code, out, err = run(
            capsys, "scan-theorem1", "--k-min", "2", "--k-max", "3", "--cap", "5"
        )
        assert code == 4
        assert "not found" in err

    def test_bad_range_exits_one(self, capsys):
        code, out, err = run(capsys, "scan-theorem1", "--k-min", "5", "--k-max", "3")
        assert code == 1

    def test_zero_cap_exits_one(self, capsys):
        code, out, err = run(
            capsys, "scan-theorem1", "--k-min", "5", "--k-max", "5", "--cap", "0"
        )
        assert code == 1
        assert "cap must be >= 1" in err


class TestProbeInequality:
    def test_k3_csv(self, capsys):
        code, out, err = run(capsys, "probe-inequality", "--k", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "u,lhs,rhs,holds,case_bound_holds"
        assert lines[1] == "3,0.77777777777777779,0.26984126984126983,true,false"
        assert len(lines) == 2  # u_range(3) is the single point u = 3

    def test_k10_json(self, capsys):
        code, out, err = run(capsys, "probe-inequality", "--k", "10", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["all_hold"]
        rows = doc["rows"]
        assert rows[0]["u"] == 10
        assert rows[-1]["u"] == 52
        by_u = {r["u"]: r for r in rows}
        assert by_u[40]["case_bound_first"] == 8432
        assert by_u[40]["case_bound_second"] == 9530
        assert all(not r["case_bound_holds"] for r in rows)
        assert by_u[40]["lhs_exact"] == "49/1140"

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_k2_has_no_rows(self, capsys, fmt):
        # u_range(2) is empty: the header alone, and exit 0
        code, out, err = run(capsys, "probe-inequality", "--k", "2", "--format", fmt)
        assert code == 0
        if fmt == "json":
            doc = json.loads(out)
            assert doc["rows"] == [] and doc["all_hold"] is True
        else:
            assert out == {"text": "\n", "csv": "u,lhs,rhs,holds,case_bound_holds\n"}[fmt]

    def test_k1_exits_one(self, capsys):
        code, out, err = run(capsys, "probe-inequality", "--k", "1")
        assert code == 1
        assert out == ""


class TestEclass:
    def test_k9_json(self, capsys):
        code, out, err = run(capsys, "eclass", "--k", "9")
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "eclass"
        assert doc["m_of_k"] == 2065
        assert doc["near_integer"] is False
        assert doc["backend"] == "pure"
        assert doc["max_threshold"] == pytest.approx(2064.9344518644716, rel=1e-9)
        cert = doc["certificate_at_m_of_k"]
        assert cert["member"] is True and cert["m"] == 2065
        below = doc["certificate_below"]
        assert below["member"] is False and below["m"] == 2064
        sw = doc["sandwich"]
        assert sw["max_in_enclosure"] is True
        assert sw["upper_ok"] is True
        assert sw["max_ratio"] == doc["ratio_k4"]

    def test_maximum_outside_the_sandwich_exits_three(self, capsys, monkeypatch):
        # the one exit 3 of eclass and scan-eclass that is not a refusal:
        # the record is still written
        monkeypatch.setattr(envelope, "sandwich_bounds", lambda k, lo, hi: (1.0, 2.0))
        code, out, err = run(capsys, "eclass", "--k", "9", "--format", "json")
        assert code == 3
        doc = json.loads(out)
        assert doc["sandwich"]["max_in_enclosure"] is False
        assert (doc["sandwich"]["enclosure_lo"], doc["sandwich"]["enclosure_hi"]) == (1.0, 2.0)
        assert doc["certificate_at_m_of_k"]["member"] is True
        assert err == ""
        code, out, err = run(capsys, "scan-eclass", "--k-min", "9", "--k-max", "10", "--format", "json")
        assert code == 3
        assert json.loads(out)["all_in_sandwich"] is False
        assert err == ""

    def test_text_format(self, capsys):
        code, out, err = run(capsys, "eclass", "--k", "9", "--format", "text", "--grid", "20000")
        assert code == 0
        assert "m_of_k=2065" in out
        assert "member_at_m_of_k=true" in out
        assert "member_below=false" in out

    def test_small_grid_exits_one(self, capsys):
        code, out, err = run(capsys, "eclass", "--k", "9", "--grid", "500")
        assert code == 1

    def test_one_lobe_scan_and_margins_from_its_peak(self, capsys, monkeypatch):
        # the certificates decide m - max_threshold against the one lobe
        # peak, so L is scanned once, on (pi/k, 2 pi/k], and both margins
        # are that subtraction bit for bit
        scans = []
        for name in ("grid_max_threshold", "grid_min_margin"):
            def spy(*args, _fn=getattr(kernels, name)):
                scans.append(args[-3:])
                return _fn(*args)
            monkeypatch.setattr(kernels, name, spy)
        code, out, err = run(capsys, "eclass", "--k", "30", "--grid", "300000")
        assert code == 0
        assert scans == [(math.pi / 30, 2 * math.pi / 30, 300_000)]
        doc = json.loads(out)
        for key in ("certificate_at_m_of_k", "certificate_below"):
            cert = doc[key]
            assert cert["min_margin"] == cert["m"] - doc["max_threshold"]
            assert cert["witness_theta"] == doc["argmax_theta"]
            assert cert["grid_points"] == 300_000

    @pytest.mark.parametrize("k", [1001, 3116, 3397, 3545, 12000])
    def test_large_k_is_refused(self, capsys, k):
        # no float verdict above k = 1000 is checked against a proven
        # enclosure (L sits 0.01-0.03 above an integer at 3116, 3397 and
        # 3545, and one ulp of L is 1 at 12000): exit 3, nothing on stdout,
        # one line on stderr
        code, out, err = run(capsys, "eclass", "--k", str(k))
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and "certification failure" in err

    # the float peak lands on the wrong side of an integer at these k: one
    # too high from 2480, one too low at 5443, where it certified a false
    # member (ROADMAP Found 1), so eclass refuses them; strict, so printing
    # the proven ceiling has to drop the mark
    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="refused above k = 1000 until m(k) comes from a proven enclosure",
    )
    @pytest.mark.parametrize("k", [2480, 5443, 6500, 7868, 8006, 10029])
    def test_prints_the_true_ceiling(self, capsys, k):
        code, out, err = run(capsys, "eclass", "--k", str(k))
        assert code == 0
        assert json.loads(out)["m_of_k"] == proven_peak(k)[2]

    def test_tol_is_gone(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["eclass", "--k", "9", "--tol", "1e-10"])
        assert ei.value.code == 1

    def test_verdict_ignores_smooth_part(self, capsys, monkeypatch):
        # the lobe reduction is exact, so a broken smooth_part changes nothing
        want = run(capsys, "eclass", "--k", "30")
        monkeypatch.setattr(envelope, "smooth_part", lambda k, theta: float("inf"))
        assert run(capsys, "eclass", "--k", "30") == want
        assert want[0] == 0

    def test_small_k_is_silent(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "eclass", "--k", "5", "--grid", "20000")
        assert code == 0
        assert json.loads(out)["m_of_k"] == 186
        assert err == ""


class TestOut:
    def test_unwritable_out_exits_one(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.csv"
        code, out, err = run(capsys, "check", "--m", "6", "--k", "3", "--out", str(target))
        assert code == 1
        assert "cannot write" in err
        assert out == ""
        assert not target.exists()


class TestScanEclass:
    def test_small_scan_csv(self, capsys):
        code, out, err = run(
            capsys, "scan-eclass", "--k-min", "9", "--k-max", "12", "--grid", "20000"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == (
            "k,max_threshold,argmax_theta,m_of_k,ratio_k4,sandwich_lo,sandwich_hi,in_sandwich"
        )
        assert len(lines) == 5
        for line in lines[1:]:
            assert line.endswith(",true")
        k9 = lines[1].split(",")
        assert k9[0] == "9" and k9[3] == "2065"

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "scan.csv"
        code, out, err = run(
            capsys,
            "scan-eclass", "--k-min", "9", "--k-max", "10",
            "--grid", "20000", "--out", str(target),
        )
        assert code == 0
        assert out == ""
        body = target.read_text()
        assert body.startswith("k,max_threshold")
        assert len(body.splitlines()) == 3

    @pytest.mark.parametrize("k_min, k_max", [(3397, 3397), (12000, 12000), (1000, 1001)])
    def test_k_above_1000_is_refused(self, capsys, k_min, k_max):
        # one k above 1000 refuses the whole scan, with no partial table
        code, out, err = run(capsys, "scan-eclass", "--k-min", str(k_min), "--k-max", str(k_max))
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and "certification failure" in err

    def test_tol_is_gone(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["scan-eclass", "--k-min", "9", "--k-max", "9", "--tol", "1e-20"])
        assert ei.value.code == 1

    def test_rows_run_on_the_calling_thread(self, capsys, monkeypatch):
        seen = set()

        def spy(scan, _fn=envelope.max_threshold):
            seen.add(threading.get_ident())
            return _fn(scan)

        monkeypatch.delenv("UNIMODAL_LAB_THREADS", raising=False)
        monkeypatch.setattr(envelope, "max_threshold", spy)
        code, out, err = run(capsys, "scan-eclass", "--k-min", "17", "--k-max", "24")
        assert code == 0
        assert seen == {threading.get_ident()}

    def test_verdicts_ignore_smooth_part(self, capsys, monkeypatch):
        want = run(capsys, "scan-eclass", "--k-min", "9", "--k-max", "10")
        monkeypatch.setattr(envelope, "smooth_part", lambda k, theta: float("inf"))
        assert run(capsys, "scan-eclass", "--k-min", "9", "--k-max", "10") == want
        assert want[0] == 0

    @pytest.mark.parametrize("exp", [77, 80, 155, 400])
    @pytest.mark.parametrize("cmd", ["eclass", "scan-eclass"])
    def test_k_beyond_the_float_range_exits_three(self, capsys, cmd, exp):
        # near 10^155 k^2 overflows a float and near 10^309 so does pi/k;
        # the k > 1000 refusal compares integers, before any float is made
        k = str(10**exp)
        argv = ["eclass", "--k", k] if cmd == "eclass" else ["scan-eclass", "--k-min", k, "--k-max", k]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and "certification failure" in err


class TestCertmax:
    def test_json(self, capsys):
        code, out, err = run(capsys, "certmax")
        assert code == 0
        doc = json.loads(out)
        enc = doc["value_enclosure"]
        assert enc["lo"] <= 0.32295 and enc["hi"] >= 0.32285
        assert round(0.5 * (enc["lo"] + enc["hi"]), 4) == 0.3229
        assert enc["width"] <= 5e-4
        assert doc["crit_bracket"]["width"] <= 1e-10
        assert doc["evaluations"] > 0

    def test_tol_is_gone(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["certmax", "--tol", "0.1"])
        assert ei.value.code == 1


class TestGeneral:
    def test_happy_path(self, capsys, tmp_path):
        f = tmp_path / "coeffs.txt"
        f.write_text("1, 0, 0, 1\n")
        code, out, err = run(capsys, "general", str(f))
        assert code == 0
        assert "min_n=6" in out

    def test_csv_format(self, capsys, tmp_path):
        f = tmp_path / "coeffs.txt"
        f.write_text("1 0 1")
        code, out, err = run(capsys, "general", str(f), "--format", "csv")
        assert code == 0
        assert out == "min_n\n1\n"

    def test_cap_exhausted_exits_four(self, capsys, tmp_path):
        f = tmp_path / "coeffs.txt"
        f.write_text("1 0 1")
        code, out, err = run(capsys, "general", str(f), "--cap", "0")
        assert code == 4

    def test_negative_cap_exits_one(self, capsys, tmp_path):
        f = tmp_path / "coeffs.txt"
        f.write_text("1 0 1")
        code, out, err = run(capsys, "general", str(f), "--cap", "-1")
        assert code == 1
        assert "cap must be >= 0" in err

    def test_missing_file_exits_one(self, capsys, tmp_path):
        code, out, err = run(capsys, "general", str(tmp_path / "nope.txt"))
        assert code == 1
        assert "cannot read" in err

    @pytest.mark.parametrize(
        "text",
        ["1 two 3", "1 -2 3", "0 0 0", ""],
        ids=["non-integer", "negative", "all-zero", "empty"],
    )
    def test_non_integer_exits_one(self, capsys, tmp_path, text):
        f = tmp_path / "coeffs.txt"
        f.write_text(text)
        code, out, err = run(capsys, "general", str(f))
        assert code == 1
        assert "error:" in err


# Text and csv names that differ from the JSON record's, as dotted JSON paths.
_ECLASS_KEYS = {
    "member_at_m_of_k": "certificate_at_m_of_k.member",
    "margin_at_m_of_k": "certificate_at_m_of_k.min_margin",
    "member_below": "certificate_below.member",
    "margin_below": "certificate_below.min_margin",
    "max_in_enclosure": "sandwich.max_in_enclosure",
}
_CERTMAX_KEYS = {
    "crit_lo": "crit_bracket.lo",
    "crit_hi": "crit_bracket.hi",
    "value_lo": "value_enclosure.lo",
    "value_hi": "value_enclosure.hi",
    "width": "value_enclosure.width",
}


def _same(shown, value):
    if isinstance(value, bool):
        return shown == ("true" if value else "false")
    if isinstance(value, (int, float)):
        return float(shown) == value
    return shown == value


_AGREE_CASES = [
    (["check", "--m", "6", "--k", "3"], {}),
    (["scan-theorem1", "--k-min", "2", "--k-max", "5"], {}),
    (["probe-inequality", "--k", "4"], {}),
    (["eclass", "--k", "9", "--grid", "20000"], _ECLASS_KEYS),
    (["scan-eclass", "--k-min", "9", "--k-max", "10", "--grid", "20000"], {}),
    (["certmax"], _CERTMAX_KEYS),
    (["general", "COEFFS"], {}),
]


@pytest.mark.parametrize("argv, keys", _AGREE_CASES, ids=[argv[0] for argv, _ in _AGREE_CASES])
def test_formats_agree_with_json(capsys, tmp_path, argv, keys):
    coeffs = tmp_path / "coeffs.txt"
    coeffs.write_text("1 0 0 1\n")
    argv = [str(coeffs) if a == "COEFFS" else a for a in argv]
    outs = {}
    for fmt in ("json", "csv", "text"):
        code, outs[fmt], err = run(capsys, *argv, "--format", fmt)
        assert code == 0
    doc = json.loads(outs["json"])
    csv_rows = list(csv.DictReader(io.StringIO(outs["csv"])))
    text_rows = [dict(tok.split("=", 1) for tok in line.split()) for line in outs["text"].splitlines()]
    if "rows" in doc:
        records = doc["rows"]
    else:
        records = [doc]
        text_rows = [{k: v for row in text_rows for k, v in row.items()}]
    assert len(csv_rows) == len(text_rows) == len(records) > 0

    def json_value(record, key):
        for part in keys.get(key, key).split("."):
            record = record[part]
        return record

    for record, csv_row, text_row in zip(records, csv_rows, text_rows):
        for shown_row in (csv_row, text_row):
            for key, shown in shown_row.items():
                assert _same(shown, json_value(record, key)), (key, shown)


def test_json_rejects_a_value_that_is_not_a_fraction():
    # json.dumps hands _json_default only what it cannot encode; anything
    # but a Fraction is an error, not a string
    result = cli.Result(0, {"command": "x", "value": object()}, ["value"], [])
    with pytest.raises(TypeError, match="object is not JSON serializable"):
        cli.render(result, "json")
