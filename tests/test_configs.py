"""Tests for configuration parsing and machine assembly."""

import pytest

from repro.common.errors import ConfigError
from repro.common.params import (
    CacheParams,
    MachineParams,
    MSAParams,
    NocParams,
    OMUParams,
)
from repro.harness.configs import CONFIG_NAMES, build_machine, machine_params
from repro.msa.isa import MODE_ALWAYS_FAIL, MODE_HW, MODE_IDEAL
from repro.msa.storage import storage_bits


class TestParamValidation:
    def test_non_square_core_count_rejected(self):
        with pytest.raises(ConfigError):
            MachineParams(n_cores=12).validate()

    def test_non_power_of_two_line_size_rejected(self):
        with pytest.raises(ConfigError):
            CacheParams(line_size=48).validate()

    def test_negative_noc_latency_rejected(self):
        with pytest.raises(ConfigError):
            NocParams(router_latency=-1).validate()

    def test_omu_needs_counters(self):
        with pytest.raises(ConfigError):
            OMUParams(n_counters=0).validate()

    def test_msa_inf_is_infinite(self):
        assert MSAParams(entries_per_tile=None).is_infinite
        assert not MSAParams(entries_per_tile=2).is_infinite

    def test_with_returns_modified_copy(self):
        base = MachineParams(n_cores=16)
        changed = base.with_(n_cores=64)
        assert changed.n_cores == 64 and base.n_cores == 16

    def test_mesh_side(self):
        assert MachineParams(n_cores=64).mesh_side == 8


class TestConfigNames:
    @pytest.mark.parametrize("name", CONFIG_NAMES)
    def test_every_advertised_config_builds(self, name):
        machine = build_machine(name, n_cores=16)
        assert machine.params.n_cores == 16

    def test_unknown_config_rejected(self):
        with pytest.raises(ConfigError):
            machine_params("msa-omu-banana")

    def test_msa_omu_entry_counts(self):
        for entries in (1, 2, 4, 8):
            params, lib = machine_params(f"msa-omu-{entries}")
            assert params.msa.entries_per_tile == entries
            assert lib == "hybrid"

    def test_noopt_disables_hwsync(self):
        params, _ = machine_params("msa-omu-2-noopt")
        assert not params.msa.hwsync_opt
        params, _ = machine_params("msa-omu-2")
        assert params.msa.hwsync_opt

    def test_bloom_variant(self):
        params, _ = machine_params("msa-omu-2-bloom")
        assert params.omu.use_bloom

    def test_no_omu_variant(self):
        params, _ = machine_params("msa-2-no-omu")
        assert not params.omu.enabled

    def test_type_restricted_variants(self):
        lockonly, _ = machine_params("msa-lockonly-2")
        assert lockonly.msa.lock_support
        assert not lockonly.msa.barrier_support
        assert not lockonly.msa.condvar_support
        barrieronly, _ = machine_params("msa-barrieronly-4")
        assert barrieronly.msa.barrier_support
        assert not barrieronly.msa.lock_support
        assert barrieronly.msa.entries_per_tile == 4

    def test_software_configs_have_no_msa(self):
        for name in ("pthread", "spinlock", "mcs-tour", "msa0"):
            params, _ = machine_params(name)
            assert params.msa is None

    def test_ideal_flag(self):
        params, _ = machine_params("ideal")
        assert params.ideal_sync


class TestMachineAssembly:
    def test_sync_unit_modes(self):
        assert build_machine("msa-omu-2").sync_mode == MODE_HW
        assert build_machine("msa0").sync_mode == MODE_ALWAYS_FAIL
        assert build_machine("pthread").sync_mode == MODE_ALWAYS_FAIL
        assert build_machine("ideal").sync_mode == MODE_IDEAL

    def test_msa_slices_one_per_tile(self):
        m = build_machine("msa-omu-2", n_cores=16)
        assert len(m.msa_slices) == 16
        m = build_machine("pthread", n_cores=16)
        assert m.msa_slices == []

    def test_coverage_none_without_msa(self):
        assert build_machine("pthread").msa_coverage() is None

    def test_library_names(self):
        assert build_machine("pthread").sync_library.name == "pthread"
        assert build_machine("mcs-tour").sync_library.name == "mcs-tour"
        assert "hybrid" in build_machine("msa-omu-2").sync_library.name

    def test_determinism_same_seed_same_cycles(self):
        from repro.harness.runner import run_workload
        from repro.workloads.kernels import KERNELS

        def run_once():
            m = build_machine("msa-omu-2", n_cores=16, seed=7)
            return run_workload(m, KERNELS["radiosity"](16, 0.3)).cycles

        assert run_once() == run_once()

    def test_different_seed_may_differ_but_valid(self):
        from repro.harness.runner import run_workload
        from repro.workloads.kernels import KERNELS

        for seed in (1, 2):
            m = build_machine("msa-omu-2", n_cores=16, seed=seed)
            result = run_workload(m, KERNELS["cholesky"](16, 0.3))
            assert result.cycles > 0


class TestStorageBits:
    def test_msa_omu_2_matches_hand_arithmetic(self):
        params, _ = machine_params("msa-omu-2", 16)
        bits = storage_bits(params)
        # Entry = 46 tag + 4 FSM + 16x1 HWQueue bits + 8 aux = 74 bits;
        # 16 tiles x 2 entries; OMU = 16 x 4 counters x 8 bits.
        assert bits["entry_bits"] == 74
        assert bits["msa_bits"] == 16 * 2 * 74
        assert bits["omu_bits"] == 16 * 4 * 8
        assert bits["total"] == bits["msa_bits"] + bits["omu_bits"]

    def test_software_configs_cost_nothing(self):
        for config in ("pthread", "mcs-tour"):
            params, _ = machine_params(config, 16)
            bits = storage_bits(params)
            assert (bits["msa_bits"], bits["omu_bits"], bits["total"]) == (0, 0, 0)

    def test_msa_inf_is_charged_the_upper_bound(self):
        params, _ = machine_params("msa-inf", 16)
        assert params.msa.entries_per_tile is None
        assert storage_bits(params)["msa_bits"] == 16 * 64 * 74

    def test_queue_bits_grow_with_core_count(self):
        small, _ = machine_params("msa-omu-2", 16)
        large, _ = machine_params("msa-omu-2", 64)
        assert storage_bits(large)["entry_bits"] > storage_bits(small)["entry_bits"]

    def test_bloom_omu_costs_its_one_counter_array(self):
        # Every hash of the counting-Bloom OMU indexes the same
        # n_counters array, so it is no bigger than the simple OMU.
        params, _ = machine_params("msa-omu-2", 16)
        simple = params.with_(omu=OMUParams(n_counters=8))
        bloom = params.with_(
            omu=OMUParams(n_counters=8, use_bloom=True, bloom_hashes=3)
        )
        assert storage_bits(bloom) == storage_bits(simple)
        assert storage_bits(bloom)["omu_bits"] == 16 * 8 * 8
