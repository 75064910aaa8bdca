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
