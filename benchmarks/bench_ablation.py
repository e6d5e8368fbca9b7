"""Ablation studies for the design choices DESIGN.md calls out.

Not figures from the paper -- these sweep the knobs the paper fixes
(entry count, OMU counter count, simple counters vs counting Bloom
filter, HWSync on/off) and check that each mechanism earns its place.
The entry-count, OMU-counter and Bloom sweeps print each point's
storage bits (:func:`repro.msa.storage.storage_bits`) beside its
cycles, coverage or steering: the paper's case is performance per bit.
"""

import pytest

from repro.common.params import MSAParams, OMUParams
from repro.harness.jobs import JobSpec, execute_spec
from repro.msa.storage import storage_bits
from repro.workloads.kernels import KERNELS

assert KERNELS  # kernels registry backs the specs' workload names


def ablation_spec(msa=None, omu=None, app="radiosity", n_cores=16, scale=0.4, seed=2015):
    """One ablation point as an engine spec: parameter overrides ride in
    ``JobSpec.params`` so the same spec is poolable and content-hashable
    for caching."""
    overrides = {}
    if msa is not None:
        overrides["msa"] = msa
    if omu is not None:
        overrides["omu"] = omu
    return JobSpec(
        config="msa-omu-2",
        workload=app,
        cores=n_cores,
        scale=scale,
        seed=seed,
        params=overrides,
    )


def run_with(**kwargs):
    """Run one ablation point through the engine's spec/executor path."""
    return execute_spec(ablation_spec(**kwargs))


def bits_with(**kwargs):
    """Storage bits of the machine one ablation point runs on."""
    return storage_bits(ablation_spec(**kwargs).resolved_params()[0])


class TestEntryCountSweep:
    """More entries help until the active working set fits; the paper's
    point is that 2 already captures most of the benefit."""

    @pytest.fixture(scope="class")
    def sweep(self, bench_scale):
        results = {}
        for entries in (1, 2, 4, 8, None):
            r = run_with(
                msa=MSAParams(entries_per_tile=entries),
                app="radiosity",
                scale=bench_scale,
            )
            results[entries] = r
        label = lambda e: "inf" if e is None else str(e)
        print("\nAblation: MSA entries per tile (radiosity, 16 cores)")
        for e, r in results.items():
            bits = bits_with(msa=MSAParams(entries_per_tile=e))["total"]
            print(
                f"  entries={label(e):>3}: cycles={r.cycles:>8} "
                f"coverage={100 * r.msa_coverage:.1f}% bits={bits}"
            )
        return results

    def test_sweep_timing(self, benchmark, bench_scale):
        benchmark.pedantic(
            lambda: run_with(
                msa=MSAParams(entries_per_tile=2), scale=bench_scale
            ),
            rounds=1,
            iterations=1,
        )

    def test_coverage_monotone_in_entries(self, sweep):
        coverages = [sweep[e].msa_coverage for e in (1, 2, 4, 8)]
        assert all(
            b >= a - 0.02 for a, b in zip(coverages, coverages[1:])
        )

    def test_more_entries_never_much_worse(self, sweep):
        assert sweep[8].cycles <= sweep[1].cycles * 1.1

    def test_infinite_is_the_bound(self, sweep):
        assert sweep[None].msa_coverage >= sweep[2].msa_coverage - 0.01


class TestOmuCounterSweep:
    """Fewer counters -> more aliasing -> more software steering; the
    effect is performance-only (runs stay correct)."""

    @pytest.fixture(scope="class")
    def sweep(self, bench_scale):
        results = {}
        for n_counters in (1, 2, 4, 16):
            r = run_with(
                omu=OMUParams(n_counters=n_counters),
                app="radiosity",
                scale=bench_scale,
            )
            results[n_counters] = r
        print("\nAblation: OMU counters per slice (radiosity, 16 cores)")
        for n, r in results.items():
            steered = r.msa_counters.get("omu_steered_sw", 0)
            bits = bits_with(omu=OMUParams(n_counters=n))["omu_bits"]
            print(
                f"  counters={n:>2}: cycles={r.cycles:>8} "
                f"aliasing-steered={steered} omu_bits={bits}"
            )
        return results

    def test_sweep_timing(self, benchmark, bench_scale):
        benchmark.pedantic(
            lambda: run_with(omu=OMUParams(n_counters=1), scale=bench_scale),
            rounds=1,
            iterations=1,
        )

    def test_aliasing_steering_decreases_with_counters(self, sweep):
        steered = {
            n: sweep[n].msa_counters.get("omu_steered_sw", 0) for n in sweep
        }
        assert steered[1] >= steered[16]

    def test_single_counter_still_correct(self, sweep):
        # validation hook ran inside run_workload; reaching here means
        # the 1-counter machine completed the workload correctly.
        assert sweep[1].cycles > 0


class TestBloomVsSimple:
    def test_bloom_reduces_steering(self, benchmark, bench_scale):
        simple_omu = OMUParams(n_counters=8)
        bloom_omu = OMUParams(n_counters=8, use_bloom=True, bloom_hashes=2)
        simple = benchmark.pedantic(
            lambda: run_with(omu=simple_omu, app="radiosity", scale=bench_scale),
            rounds=1,
            iterations=1,
        )
        bloom = run_with(omu=bloom_omu, app="radiosity", scale=bench_scale)
        s = simple.msa_counters.get("omu_steered_sw", 0)
        b = bloom.msa_counters.get("omu_steered_sw", 0)
        s_bits = bits_with(omu=simple_omu)["omu_bits"]
        b_bits = bits_with(omu=bloom_omu)["omu_bits"]
        print(
            f"\nAblation: OMU steering simple={s} omu_bits={s_bits} "
            f"bloom={b} omu_bits={b_bits}"
        )
        assert b_bits == s_bits  # one counter array either way: equal size
        assert b <= s + 5  # Bloom never much worse, usually better


class TestHwsyncAblation:
    def test_hwsync_earns_its_place_on_fluidanimate(
        self, benchmark, bench_scale
    ):
        with_opt = benchmark.pedantic(
            lambda: run_with(
                msa=MSAParams(entries_per_tile=2, hwsync_opt=True),
                app="fluidanimate",
                scale=bench_scale,
            ),
            rounds=1,
            iterations=1,
        )
        without = run_with(
            msa=MSAParams(entries_per_tile=2, hwsync_opt=False),
            app="fluidanimate",
            scale=bench_scale,
        )
        print(
            f"\nAblation: HWSync on fluidanimate "
            f"with={with_opt.cycles} without={without.cycles}"
        )
        assert with_opt.cycles <= without.cycles * 1.05

    def test_hwsync_harmless_on_barrier_app(self, bench_scale):
        with_opt = run_with(
            msa=MSAParams(entries_per_tile=2, hwsync_opt=True),
            app="streamcluster",
            scale=bench_scale,
        )
        without = run_with(
            msa=MSAParams(entries_per_tile=2, hwsync_opt=False),
            app="streamcluster",
            scale=bench_scale,
        )
        assert with_opt.cycles <= without.cycles * 1.1


class TestNocSensitivity:
    """The MSA's benefit comes from eliminating round trips, so it must
    grow as the interconnect gets slower -- a sanity anchor for the
    latency model."""

    def _run_noc(self, config, router_latency, scale):
        from repro.common.params import NocParams

        return execute_spec(
            JobSpec(
                config=config,
                workload="streamcluster",
                cores=16,
                scale=scale,
                params={"noc": NocParams(router_latency=router_latency)},
            )
        )

    def test_sweep_timing(self, benchmark, bench_scale):
        benchmark.pedantic(
            lambda: self._run_noc("msa-omu-2", 2, bench_scale),
            rounds=1,
            iterations=1,
        )

    def test_msa_gap_over_spinning_software_grows_with_noc_latency(
        self, bench_scale
    ):
        """Tournament-barrier software is coherence-bound: its cost (and
        therefore the MSA's absolute cycle advantage) scales with the
        interconnect.  (The *futex* baseline is kernel-constant-bound,
        so its ratio is NoC-insensitive -- that contrast is itself a
        property of the model worth pinning.)"""
        gaps = {}
        for router_latency in (1, 8):
            sw = self._run_noc("mcs-tour", router_latency, bench_scale)
            hw = self._run_noc("msa-omu-2", router_latency, bench_scale)
            gaps[router_latency] = sw.cycles - hw.cycles
        print(f"\nAblation: MSA absolute advantage vs router latency {gaps}")
        assert gaps[8] > gaps[1]

    def test_futex_baseline_noc_insensitive(self, bench_scale):
        ratios = {}
        for router_latency in (1, 8):
            sw = self._run_noc("pthread", router_latency, bench_scale)
            hw = self._run_noc("msa-omu-2", router_latency, bench_scale)
            ratios[router_latency] = sw.cycles / hw.cycles
        # Kernel costs dominate the pthread path: the ratio moves by
        # only a few percent across an 8x router-latency change.
        assert abs(ratios[8] - ratios[1]) / ratios[1] < 0.15

    def test_everything_slower_on_slow_noc(self, bench_scale):
        fast = self._run_noc("msa-omu-2", 1, bench_scale)
        slow = self._run_noc("msa-omu-2", 8, bench_scale)
        assert slow.cycles > fast.cycles


class TestSmtAblation:
    """Hardware multithreading (the paper's HWQueue-bit-per-hw-thread
    extension): double the threads on the same 16 tiles."""

    def _run_smt(self, config, hw_threads, scale, app="streamcluster"):
        # Thread count (16 * hw_threads) deliberately exceeds spec.cores,
        # which the registry call convention cannot express -- this one
        # stays on the direct build path.
        from repro.common.params import CoreParams
        from repro.harness.configs import machine_params
        from repro.harness.runner import run_workload
        from repro.machine import Machine

        params, library = machine_params(config, n_cores=16)
        params = params.with_(core=CoreParams(hw_threads=hw_threads))
        machine = Machine(params, library=library)
        return run_workload(
            machine, KERNELS[app](16 * hw_threads, scale)
        )

    def test_smt_doubles_participants_correctly(self, benchmark, bench_scale):
        result = benchmark.pedantic(
            lambda: self._run_smt("msa-omu-2", 2, bench_scale),
            rounds=1,
            iterations=1,
        )
        assert result.cycles > 0

    def test_msa_advantage_survives_smt(self, bench_scale):
        msa = self._run_smt("msa-omu-2", 2, bench_scale)
        sw = self._run_smt("pthread", 2, bench_scale)
        print(
            f"\nAblation: SMT x2 streamcluster pthread={sw.cycles} "
            f"msa={msa.cycles} ({sw.cycles / msa.cycles:.2f}x)"
        )
        assert msa.cycles < sw.cycles
