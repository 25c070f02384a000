"""The sampling span is split into draw and reduce, and names its path.

Every ``sample.<scheme>`` span carries ``path`` (``rows`` or
``classes``) and holds a ``sample.draw`` and a ``sample.reduce`` child
that together account for (nearly) all of it, so a trace attributes
sampling time to the draw or the reduction rather than to the parent's
self time.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import GEE
from repro.data import column_with_distinct
from repro.experiments import evaluate_column

#: Share of a sampling span its two children must cover.
COVERAGE = 0.95


@pytest.mark.parametrize(
    "distinct,path", [(2_000, "classes"), (60_000, "rows")]
)
def test_evaluate_column_records_its_path_and_split(obs, distinct, path):
    # n = 200k at 5%: r = 10,000 rows, so D = 2,000 is on the class side
    # of SRSWOR's crossover (3 D <= r) and D = 60,000 on the row side.
    column = column_with_distinct(
        200_000, distinct, rng=np.random.default_rng(distinct)
    )
    evaluate_column(column, [GEE()], np.random.default_rng(1), fraction=0.05)

    records = obs.span_records()
    parents = [r for r in records if r["name"] == "sample.srswor"]
    assert len(parents) == 1
    parent = parents[0]
    assert parent["attrs"]["path"] == path
    children = [r for r in records if r.get("parent") == parent["id"]]
    assert sorted(c["name"] for c in children) == ["sample.draw", "sample.reduce"]
    covered = sum(c["dur"] for c in children)
    assert covered >= COVERAGE * parent["dur"], (covered, parent["dur"])

    counters = obs.counters()
    assert counters[f"sample.path.{path}"] == 1
    other = "rows" if path == "classes" else "classes"
    assert f"sample.path.{other}" not in counters
    assert counters["sample.trials"] == 10
    assert counters["sample.rows_sampled"] == 10 * 10_000


def test_raw_arrays_always_take_the_row_path(obs):
    from repro.sampling import UniformWithoutReplacement

    values = np.repeat(np.arange(5), 1_000)  # D = 5: a Column would use classes
    UniformWithoutReplacement().profile(values, np.random.default_rng(0), size=500)
    (parent,) = [r for r in obs.span_records() if r["name"] == "sample.srswor"]
    assert parent["attrs"]["path"] == "rows"
    assert obs.counters()["sample.path.rows"] == 1
