import numpy as np
import pytest

from gexlab.errors import ValidationError
from gexlab.phis import CATALOG, make_phi, parse_phi

XS = np.array([-2.5, -1.0, 0.0, 0.5, 3.0])


@pytest.mark.parametrize(
    "name,args,expected_fn",
    [
        ("abs", (), np.abs),
        ("square", (), np.square),
        ("cube", (), lambda x: x**3),
        ("quartic", (), lambda x: x**4),
        ("negsquare", (), lambda x: -np.square(x)),
        ("negabs", (), lambda x: -np.abs(x)),
        ("abspow", (2.5,), lambda x: np.abs(x) ** 2.5),
        ("ramp", (0.5,), lambda x: np.maximum(x - 0.5, 0.0)),
        ("clamp", (-1.0, 1.0), lambda x: np.clip(x, -1.0, 1.0)),
        ("indicator", (-1.0, 0.5), lambda x: ((x >= -1.0) & (x <= 0.5)).astype(float)),
    ],
)
def test_catalog_values(name, args, expected_fn):
    phi = make_phi(name, *args)
    np.testing.assert_allclose(phi(XS), expected_fn(XS), rtol=0, atol=0)


@pytest.mark.parametrize(
    "name,args,p,conv,margin",
    [
        ("abs", (), 1.0, "convex", 0.0),
        ("square", (), 2.0, "convex", 0.0),
        ("cube", (), 3.0, "neither", 0.0),
        ("quartic", (), 4.0, "convex", 0.0),
        ("negsquare", (), 2.0, "concave", 0.0),
        ("negabs", (), 1.0, "concave", 0.0),
        ("abspow", (2.5,), 2.5, "convex", 0.0),
        ("abspow", (0.5,), 0.5, "neither", 0.0),
        ("ramp", (-1.5,), 1.0, "convex", 1.5),
        ("clamp", (-2.0, 1.0), 1.0, "neither", 2.0),
        ("indicator", (0.0, 3.0), 0.0, "neither", 3.0),
    ],
)
def test_metadata(name, args, p, conv, margin):
    phi = make_phi(name, *args)
    assert phi.growth_exponent == p
    assert phi.convexity == conv
    assert phi.margin == margin


@pytest.mark.parametrize(
    "name,args",
    [
        ("nosuch", ()),
        ("abs", (1.0,)),
        ("abspow", ()),
        ("abspow", (0.0,)),
        ("abspow", (-2.0,)),
        ("ramp", ()),
        ("ramp", (np.inf,)),
        ("clamp", (1.0,)),
        ("clamp", (2.0, -2.0)),
        ("indicator", (1.0, 0.0)),
    ],
)
def test_rejects_bad_specs(name, args):
    with pytest.raises(ValidationError):
        make_phi(name, *args)


def test_parse_phi_forms():
    assert parse_phi("abs").name == "abs"
    assert parse_phi(" square ").name == "square"
    phi = parse_phi("abspow:2.5")
    assert phi.args == (2.5,)
    assert parse_phi("clamp:-1,1").args == (-1.0, 1.0)
    # semicolon separator matches the CSV-safe label form
    assert parse_phi("clamp:-1;1").args == (-1.0, 1.0)


def test_label_round_trip():
    for text in (
        "abs", "abspow:2.5", "ramp:-0.5", "clamp:-1;1", "indicator:0;2",
        "abspow:2.123456789", "ramp:1234567", "clamp:1e-7;0.3333333333333333",
    ):
        phi = parse_phi(text)
        again = parse_phi(phi.label)
        assert again.name == phi.name
        assert again.args == phi.args
        assert "," not in phi.label


def test_label_keeps_short_text():
    assert parse_phi("clamp:-1,1").label == "clamp:-1;1"
    assert parse_phi("abspow:2.5").label == "abspow:2.5"
    assert parse_phi("clamp:1e-7;0.3333333333333333").label == "clamp:1e-07;0.3333333333333333"
    assert parse_phi("ramp:1234567").label == "ramp:1234567.0"


def test_catalog_draw_order():
    # the fuzz suites draw names in this order, so it fixes their report bytes
    assert list(CATALOG) == [
        "abs", "square", "cube", "quartic", "negsquare", "negabs",
        "abspow", "ramp", "clamp", "indicator",
    ]


@pytest.mark.parametrize("text", ["", ":", "abspow:", "abspow:x", "clamp:1,2,3"])
def test_parse_phi_rejects(text):
    with pytest.raises(ValidationError):
        parse_phi(text)


def test_phispec_is_callable():
    phi = make_phi("square")
    assert phi(3.0) == 9.0
    assert phi.label == "square"
