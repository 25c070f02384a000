"""Table 2: GEE's error guarantee [LOWER, UPPER] on Z=2, dup=100, n=1M.

Paper findings: the interval always brackets the actual count and
converges to it as the rate grows; high-skew intervals converge far
faster than the low-skew ones of Table 1 (the sample sees every heavy
class quickly).
"""

from __future__ import annotations

from conftest import paper_scale


def test_table2_gee_interval_highskew(exhibit):
    table = exhibit("table2")
    rows = range(len(table.x_values))
    # LOWER is the mean of the samples' d, never above D.  UPPER holding
    # D is a high-probability fact per sample (its rate is
    # tests/test_paper_claims.py::test_interval_coverage_rate); the mean
    # of a few trials' UPPER over a scaled-down column's couple of dozen
    # classes misses D often enough (at REPRO_SCALE=20 and 3 trials, 11
    # of 300 seeds) that the bracket is only asserted at full scale.
    for i in rows:
        assert table.series["LOWER"][i] <= table.series["ACTUAL"][i]
        if paper_scale():
            assert table.series["ACTUAL"][i] <= table.series["UPPER"][i]
    widths = [table.series["UPPER"][i] - table.series["LOWER"][i] for i in rows]
    assert widths == sorted(widths, reverse=True)
    # By the top rate the interval has essentially collapsed onto D.
    actual = table.series["ACTUAL"][-1]
    assert widths[-1] <= 0.5 * actual
