import pytest

from pslet2d import tables
from pslet2d.engine import solve
from pslet2d.expressions import bind_params, parse_potential


def test_presets_present():
    assert set(tables.PRESETS) == {
        "hybrid-1s-gamma",
        "hybrid-1s-gprime",
        "hybrid-2p-minus",
        "hybrid-3d-minus",
    }


def test_gamma_mapping():
    plain = tables.PRESETS["hybrid-1s-gamma"]
    compact = tables.PRESETS["hybrid-1s-gprime"]
    assert plain.gamma(5.0) == 5.0
    assert compact.gamma(0.5) == pytest.approx(1.0)
    assert compact.gamma(0.8) == pytest.approx(4.0)


def test_load_published_values_shapes():
    for name, preset in tables.PRESETS.items():
        cells = tables.load_published_values(name)
        assert [c.x for c in cells] == list(preset.rows)
        for c in cells:
            assert len(c.sums) == 4


def test_published_values_are_read_once(monkeypatch):
    first = {name: tables.load_published_values(name) for name in tables.PRESETS}
    monkeypatch.setattr(tables.resources, "files", None)  # a second read would fail
    for name, cells in first.items():
        assert tables.load_published_values(name) is cells
        assert isinstance(cells, tuple) and cells


def test_unknown_preset():
    with pytest.raises(KeyError):
        tables.load_published_values("nope")


def test_erratum_tags():
    cells = {c.x: c for c in tables.load_published_values("hybrid-1s-gprime")}
    assert cells[0.1].erratum == "EN3"
    assert cells[0.6].erratum == "EN3"
    assert cells[0.7].erratum == "EN1"
    assert all(
        c.erratum == "" for c in tables.load_published_values("hybrid-2p-minus")
    )


def test_gamma_zero_row_is_field_free_limit():
    bound = bind_params(parse_potential(tables.HYBRID_EXPRESSION), {"m": 0.0, "g": 0.0})
    _, _, breakdown = solve(bound, 0)
    assert all(s == pytest.approx(-4.0, abs=1e-12) for s in breakdown.partial_sums)


def test_run_preset_row_order():
    preset = tables.PRESETS["hybrid-3d-minus"]
    results = tables.run_preset(preset)
    assert [r.x for r in results] == list(preset.rows)
    # each row holds the solve at its own field, g = 0 first and g = 4 last
    for r, g in [(results[0], 0.0), (results[-1], 4.0)]:
        bound = bind_params(parse_potential(tables.HYBRID_EXPRESSION), {"m": -2.0, "g": g})
        assert r.breakdown.partial_sums == pytest.approx(solve(bound, -2)[2].partial_sums,
                                                         rel=1e-12)
