import json
import random
from pathlib import Path

import mpmath
import pytest

from proven_peak import proven_peak
from rounding import mp_peak
from unimodal_lab.cli import main

_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"

# a fixed sample of the table's k, with the closest peak to an integer
# (393), the largest float error against that distance (756) and the cap
_SAMPLE = sorted({9, 393, 756, 1000, *random.Random(22).sample(range(9, 1001), 46)})


@pytest.fixture(scope="module")
def reference():
    return {int(k): m for k, m in json.loads(_REFERENCE.read_text())["m_of_k"].items()}


def test_equals_the_reference_table(reference):
    assert len(_SAMPLE) >= 48
    assert {k: proven_peak(k)[2] for k in _SAMPLE} == {k: reference[k] for k in _SAMPLE}


def test_equals_the_cli_below_the_table(capsys):
    assert main(["scan-eclass", "--k-min", "2", "--k-max", "8", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [row["m_of_k"] for row in rows] == [proven_peak(k)[2] for k in range(2, 9)]


@pytest.mark.parametrize("k", [9, 393, 756, 1000, 2480, 5443])
def test_enclosure_holds_the_sixty_digit_peak(k):
    # mp_peak searches within 1e-3 pi/k of its start, and the peak's
    # z = k theta/2 lies within 1e-4 of the limit shape's argmax from k = 9
    lo, hi, m = proven_peak(k)
    assert lo <= mp_peak(k, 2 * 2.2206754817 / k, 60) <= hi
    assert m - 1 < lo <= hi <= m


def test_k2480_and_k5443():
    # where the float peak rounds to the wrong side of an integer: max L is
    # 0.0124 above 283442162670510 at 5443 and just below 12215682139167
    # at 2480
    assert proven_peak(2480)[2] == 12215682139167
    lo, hi, m = proven_peak(5443)
    assert m == 283442162670511
    assert lo > mpmath.mpf("283442162670510.01")


def test_gives_up_past_the_step_cap():
    assert proven_peak(9, max_steps=1) is None
    assert proven_peak(9)[2] == 2065
