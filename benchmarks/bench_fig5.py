"""Figure 5: raw synchronization latency.

Regenerates the five latency probes (LockAcquire, LockHandoff,
BarrierHandoff, CondSignal, CondBroadcast) across the paper's five
configurations and asserts the figure's shape claims.
"""

import pytest

from repro.harness.experiments import FIG5_CONFIGS, fig5


@pytest.fixture(scope="module")
def fig5_results(bench_cores):
    return fig5(cores=bench_cores, print_out=True)


def test_fig5_regenerate(benchmark, bench_cores):
    # One probe timed (full grid printed by the module fixture run).
    result = benchmark.pedantic(
        lambda: fig5(cores=(bench_cores[0],), print_out=False),
        rounds=1,
        iterations=1,
    )
    assert set(result) == {
        "LockAcquire",
        "LockHandoff",
        "BarrierHandoff",
        "CondSignal",
        "CondBroadcast",
    }


class TestFig5Shapes:
    def test_msa_lowest_in_every_probe(self, fig5_results, bench_cores):
        for probe, grid in fig5_results.items():
            for n in bench_cores:
                msa = grid[("msa-omu-2", n)]
                for config in FIG5_CONFIGS:
                    if config != "msa-omu-2":
                        assert msa < grid[(config, n)], (probe, config, n)

    def test_no_contention_acquire_all_similar_except_msa(
        self, fig5_results, bench_cores
    ):
        """Paper: all approaches perform similarly for no-contention
        acquire except MSA/OMU-2 (HWSync silent fast path)."""
        grid = fig5_results["LockAcquire"]
        for n in bench_cores:
            values = [
                grid[(c, n)] for c in FIG5_CONFIGS if c != "msa-omu-2"
            ]
            assert max(values) / min(values) < 5
            assert grid[("msa-omu-2", n)] < min(values)

    def test_msa0_overhead_small_vs_pthread(self, fig5_results, bench_cores):
        """Paper: MSA-0 incurs minimal overhead over the baseline --
        the ISA can be adopted without accelerator hardware."""
        for probe in ("LockAcquire", "LockHandoff", "BarrierHandoff"):
            grid = fig5_results[probe]
            for n in bench_cores:
                overhead = grid[("msa0", n)] / grid[("pthread", n)]
                assert overhead < 1.25, (probe, n, overhead)

    def test_mcs_scales_better_than_pthread_handoff(
        self, fig5_results, bench_cores
    ):
        grid = fig5_results["LockHandoff"]
        n = bench_cores[-1]
        assert grid[("mcs-tour", n)] < grid[("pthread", n)]
        assert grid[("mcs-tour", n)] < grid[("spinlock", n)]

    def test_barrier_msa_order_of_magnitude_over_tournament(
        self, fig5_results, bench_cores
    ):
        grid = fig5_results["BarrierHandoff"]
        for n in bench_cores:
            assert grid[("mcs-tour", n)] / grid[("msa-omu-2", n)] > 8

    @pytest.mark.skipif(
        True, reason="enable with REPRO_BENCH_FULL to check 16->64 scaling"
    )
    def test_placeholder_scaling(self):
        pass


def test_fig5_scaling_when_two_core_counts(fig5_results, bench_cores):
    if len(bench_cores) < 2:
        pytest.skip("single core count grid")
    lo, hi = bench_cores[0], bench_cores[-1]
    handoff = fig5_results["LockHandoff"]
    barrier = fig5_results["BarrierHandoff"]
    # Poor software scaling vs much flatter MSA scaling.
    assert handoff[("spinlock", hi)] / handoff[("spinlock", lo)] > 2
    assert barrier[("pthread", hi)] / barrier[("pthread", lo)] > 2
    assert (
        barrier[("msa-omu-2", hi)] / barrier[("msa-omu-2", lo)]
        < barrier[("pthread", hi)] / barrier[("pthread", lo)]
    )
