"""Figure 2: error vs sampling rate on high-skew data (Z=2, dup=100, n=1M).

Paper findings this bench checks:
* HYBGEE (which takes the GEE branch here) significantly outperforms
  HYBSKEW (which takes Shlosser);
* errors of the paper's estimators fall monotonically with the rate.
"""

from __future__ import annotations

from conftest import paper_scale, series_is_nonincreasing


def test_fig2_error_vs_rate_highskew(exhibit):
    table = exhibit("fig2")
    rates = table.x_values
    # GEE branch chosen: HYBGEE == GEE on every point.
    for rate in rates:
        assert table.value("HYBGEE", rate) == table.value("GEE", rate)
    # HYBGEE beats HYBSKEW overall and clearly at the low rates.
    total_hybgee = sum(table.series["HYBGEE"])
    total_hybskew = sum(table.series["HYBSKEW"])
    assert total_hybgee < total_hybskew
    assert table.value("HYBGEE", rates[0]) < table.value("HYBSKEW", rates[0])
    for name in ("GEE", "AE", "HYBGEE", "HYBSKEW"):
        assert table.series[name][-1] <= table.series[name][0], name
    # Step-by-step monotonicity is a claim about the paper's column
    # (D = 110); scaled-down runs leave a couple of dozen classes, where
    # a few trials' means wobble by more than the slack (at
    # REPRO_SCALE=20 and 3 trials, 119 of 300 seeds break it although
    # the 300-trial means fall at every step), so it only applies at
    # full scale.
    if paper_scale():
        for name in ("GEE", "AE", "HYBGEE", "HYBSKEW"):
            assert series_is_nonincreasing(table.series[name], slack=0.5), name
