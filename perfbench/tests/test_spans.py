"""Self time, outermost-only counting and the reversible patch."""

import sys
import types

import pytest

from spans import Patch, Recorder, find_global_sites


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_a_nested_tree():
    clock = FakeClock()
    rec = Recorder(clock)
    # A [0, 10] holds B [1, 4] and C [5, 9]; C holds D [6, 7].
    rec.enter("A", "a")
    clock.now = 1
    rec.enter("B", "b")
    clock.now = 4
    rec.exit()
    clock.now = 5
    rec.enter("C", "c")
    clock.now = 6
    rec.enter("D", "d")
    clock.now = 7
    rec.exit()
    clock.now = 9
    rec.exit()
    clock.now = 10
    rec.exit()
    agg = rec.take()
    assert dict(agg.self_seconds) == {"A": 3, "B": 3, "C": 3, "D": 1}
    assert agg.total_seconds["C"] == 4
    assert agg.attributed == 10
    assert sum(agg.self_seconds.values()) == agg.attributed


class Estimator:
    """The shape of ``estimate_batch`` falling back to ``estimate``."""

    name = "Goodman"

    def __init__(self, clock):
        self.clock = clock

    def estimate(self, profile):
        self.clock.now += 1
        return profile

    def estimate_batch(self, profiles):
        self.clock.now += 0.5  # batch validation
        return [self.estimate(p) for p in profiles]


def test_scalar_fallback_is_not_counted_twice():
    clock = FakeClock()
    rec = Recorder(clock)
    key = lambda args, kwargs: f"estimate.{args[0].name}"  # noqa: E731
    counter = lambda r, args, kwargs, result: r.count(  # noqa: E731
        f"estimate.{args[0].name}.profiles", len(result) if isinstance(result, list) else 1
    )
    patch = Patch()
    for name in ("estimate", "estimate_batch"):
        wrapped = rec.wrap(vars(Estimator)[name], key, "estimate", outermost=True, counter=counter)
        patch.set_attr(Estimator, name, wrapped)
    patch.apply()
    try:
        Estimator(clock).estimate_batch(["p1", "p2", "p3"])
        Estimator(clock).estimate("p4")
    finally:
        patch.restore()
    agg = rec.take()
    assert agg.counts["estimate.Goodman.profiles"] == 4
    assert agg.self_seconds["estimate.Goodman"] == 4.5
    assert agg.attributed == 4.5


def test_patch_reaches_importers_and_restores():
    source = types.ModuleType("perfbench_fake_source")
    importer = types.ModuleType("perfbench_fake_importer")

    def entry():
        return "original"

    source.entry = entry
    importer.entry = entry  # as ``from perfbench_fake_source import entry`` does
    sys.modules.update({source.__name__: source, importer.__name__: importer})
    try:
        sites = find_global_sites(entry, ["perfbench_fake_"])
        assert sorted((m.__name__, n) for m, n in sites) == [
            ("perfbench_fake_importer", "entry"),
            ("perfbench_fake_source", "entry"),
        ]
        rec = Recorder()
        patch = Patch()
        wrapped = rec.wrap(entry, "fake", "fake")
        for module, name in sites:
            patch.set_attr(module, name, wrapped)
        registry = {"entry": entry}
        patch.set_item(registry, "entry", wrapped)
        patch.apply()
        assert importer.entry() == "original" and registry["entry"] is wrapped
        patch.restore()
        assert importer.entry is entry and source.entry is entry and registry["entry"] is entry
        assert rec.take().counts == {} and rec.agg.attributed == 0
    finally:
        for name in (source.__name__, importer.__name__):
            del sys.modules[name]


def test_materialized_generator_is_timed_while_consumed():
    clock = FakeClock()
    rec = Recorder(clock)

    def findings():
        for item in ("a", "b"):
            clock.now += 1
            yield item

    assert rec.wrap(findings, "rules", "rules", materialize=True)() == ["a", "b"]
    assert rec.take().self_seconds["rules"] == 2


def test_take_refuses_open_spans():
    rec = Recorder()
    rec.enter("A", "a")
    with pytest.raises(RuntimeError):
        rec.take()
