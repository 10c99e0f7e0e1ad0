import sys
import types

import numpy as np
import pytest

import tracer
from tracer import Tracer, layer_metrics, merge_records, self_times


def test_self_time_of_nested_spans():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 5.0, 9.0, 0],
        ["c", 6.0, 8.0, 2],
        ["d", 6.5, 8.5, 2],  # overlaps c: b's children cover 6.0 .. 8.5
    ]
    assert self_times(spans) == pytest.approx([3.0, 3.0, 1.5, 2.0, 2.0])


def test_layer_metrics_sum_self_time_and_calls_per_layer():
    spans = [
        ["pinsker.estimate", 0.0, 1.0, -1],
        ["spectral.gft", 0.1, 0.4, 0],
        ["spectral.gft", 0.5, 0.9, 0],
        ["spectral.gft", 2.0, 2.5, -1],
    ]
    record = {"spans": spans, "untraced": [], "sums": {}, "peaks": {}, "computed": {"100": 100},
              "used": {"100": 7}}
    values = layer_metrics(record)
    assert values["pinsker.estimate_s"] == pytest.approx(0.3)
    assert values["spectral.gft_s"] == pytest.approx(1.2)
    assert values["spectral.gft_calls"] == 3
    assert values["pinsker.estimate_calls"] == 1
    assert values["spectral.used_frac"] == pytest.approx(0.07)
    assert set(values) == {name for name, _ in tracer.PER_LAYER}


def test_merge_records_offsets_parents():
    one = {"spans": [["x", 0, 2, -1], ["y", 0.5, 1, 0]], "untraced": [], "sums": {"k": 1.0},
           "peaks": {"p": 3.0}, "computed": {"8": 8}, "used": {"8": 2}}
    merged = merge_records([one, one])
    assert [s[3] for s in merged["spans"]] == [-1, 0, -1, 2]
    assert merged["sums"]["k"] == 2.0 and merged["peaks"]["p"] == 3.0
    assert merged["computed"]["8"] == 16 and merged["used"]["8"] == 2


@pytest.fixture
def fake_package():
    """fakepkg.core defines work(); fakepkg.user imports it by name."""
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    def inner(x):
        return x + 1

    def work(x):
        return user.inner(x) * 2

    core.work, core.inner = work, inner
    user.work, user.inner = work, inner
    mods = {"fakepkg": pkg, "fakepkg.core": core, "fakepkg.user": user}
    sys.modules.update(mods)
    yield core, user
    for name in mods:
        del sys.modules[name]


def test_wraps_every_binding_and_reports_missing_names(fake_package):
    core, user = fake_package
    original = core.work
    t = Tracer()
    targets = (
        ("core", "work", "outer", None),
        ("core", "inner", "inner", None),
        ("core", "renamed_away", "gone", None),
        ("missing_module", "f", "gone", None),
    )
    t.install(targets, package="fakepkg")
    assert user.work(1) == 4
    assert [(s[0], s[3]) for s in t.spans] == [("outer", -1), ("inner", 0)]
    assert t.untraced == ["fakepkg.core.renamed_away", "fakepkg.missing_module.f"]
    t.uninstall()
    assert core.work is original and user.work is original


def test_broken_observer_is_reported_not_raised(fake_package):
    core, user = fake_package
    t = Tracer()
    t.install((("core", "work", "outer", tracer._obs_plan),), package="fakepkg")
    assert user.work(1) == 4
    assert t.untraced == ["_obs_plan: IndexError"]
    t.uninstall()


def test_traces_the_package_through_its_callers():
    import graphminimax as gm

    s = gm.eigendecompose(gm.build_path(32))
    plan = gm.pinsker_plan(gm.ellipsoid_weights(s, gm.SobolevSpec(1.0, 1.0, 1.0)), 1.0, 32)
    t = Tracer()
    t.install()
    try:
        gm.estimate_regression(s, plan, np.ones(32))
    finally:
        t.uninstall()
    assert t.untraced == []
    assert [(name, parent) for name, _, _, parent in t.spans] == [
        ("pinsker.estimate", -1), ("spectral.gft", 0), ("spectral.gft", 0)]
    assert gm.estimate_regression.__module__ == "graphminimax.pinsker"
    assert not hasattr(gm.estimate_regression, "__wrapped__")
