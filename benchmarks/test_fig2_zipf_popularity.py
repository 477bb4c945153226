"""Figure 2: popularity rank vs Zipfian distribution on a Presto node.

The paper plots file-access frequency against popularity rank on log-log
axes and reports a Zipfian factor of up to 1.39.  We sample accesses from
Zipf(1.39) over a file catalog, re-fit the exponent from the observed
rank-frequency curve, and check the fit recovers the factor with a strong
log-log linear fit.
"""

import numpy as np
import pytest

from harness import emit_report
from repro.analysis import Table
from repro.ports.rng import RngStream
from repro.workload.zipf import ZipfSampler, fit_zipf_exponent

PAPER_FACTOR = 1.39
N_FILES = 20_000
N_ACCESSES = 500_000


def run_experiment():
    sampler = ZipfSampler(N_FILES, PAPER_FACTOR, RngStream(2024, "fig2"))
    samples = sampler.sample(N_ACCESSES)
    counts = np.bincount(samples, minlength=N_FILES)
    fit = fit_zipf_exponent(counts, min_count=3)
    ranked = np.sort(counts)[::-1]
    return fit, ranked


@pytest.mark.benchmark(group="fig2")
def test_fig2_zipf_popularity(benchmark):
    fit, ranked = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    table = Table(
        ["popularity rank", "access count"],
        title=(
            f"Figure 2 -- rank-frequency of file accesses "
            f"(fitted s={fit.s:.3f}, paper s=1.39, R^2={fit.r_squared:.4f})"
        ),
    )
    for rank in (1, 3, 10, 30, 100, 300, 1000, 3000, 10000):
        if rank <= ranked.size:
            table.add_row([rank, int(ranked[rank - 1])])
    emit_report("fig2_zipf_popularity", table.render())

    # the fitted exponent recovers the paper's Zipfian factor
    assert fit.s == pytest.approx(PAPER_FACTOR, abs=0.15)
    # and the distribution is genuinely Zipf-like (log-log linear)
    assert fit.r_squared > 0.95
    # heavy skew: the top 1% of files carry the majority of accesses
    top_1pct = int(ranked[: N_FILES // 100].sum())
    assert top_1pct / N_ACCESSES > 0.5
