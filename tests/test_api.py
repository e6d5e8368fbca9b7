"""Tests for the :mod:`repro.api` facade, the package-root re-exports,
the ``python -m repro`` CLI, and the parallel-sweep acceptance smoke:
a 2-config x 2-workload grid through ``repro.api.sweep(workers=...)``
must be byte-identical to the serial path, and a repeat run must be
served (almost) entirely from the result cache."""

import pytest

import repro
from repro import api
from repro.machine import Machine
from repro.workloads.kernels import KERNELS

GRID = dict(
    configs=("pthread", "msa-omu-2"),
    workloads=("canneal", "swaptions"),
    cores=(16,),
    scale=0.25,
    seed=7,
)


class TestFacadeSurface:
    def test_package_root_reexports(self):
        assert repro.api is api
        assert repro.build is api.build
        assert repro.run is api.run
        assert repro.sweep is api.sweep
        assert repro.RunResult is api.RunResult
        assert "api" in dir(repro) and "sweep" in dir(repro)

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError):
            repro.no_such_name

    def test_facade_exports(self):
        for name in (
            "build",
            "run",
            "sweep",
            "RunResult",
            "SweepPoint",
            "Engine",
            "JobSpec",
            "CONFIG_NAMES",
        ):
            assert name in api.__all__
            assert getattr(api, name) is not None


class TestBuild:
    def test_consistent_keywords(self):
        machine = api.build("pthread", cores=4, seed=3)
        assert isinstance(machine, Machine)
        assert machine.params.n_cores == 4
        assert machine.params.seed == 3

    def test_param_overrides(self):
        from repro.common.params import CoreParams

        machine = api.build(
            "msa-omu-2", cores=4, core=CoreParams(hw_threads=2)
        )
        assert machine.params.core.hw_threads == 2


class TestRun:
    def test_config_name_and_workload_name(self):
        result = api.run("msa-omu-2", "streamcluster", cores=16, scale=0.25)
        assert result.config == "msa-omu-2"
        assert result.workload == "streamcluster"
        assert result.cycles > 0

    def test_prebuilt_machine_and_workload_instance(self):
        machine = api.build("pthread", cores=16)
        result = api.run(machine, KERNELS["canneal"](16, 0.25))
        assert result.cycles > 0

    def test_factory_callable(self):
        result = api.run("pthread", KERNELS["canneal"], cores=16, scale=0.25)
        assert result.workload == "canneal"

    def test_core_count_conflict_rejected(self):
        machine = api.build("pthread", cores=16)
        with pytest.raises(ValueError):
            api.run(machine, "canneal", cores=4)

    def test_matches_serial_runner(self):
        from repro.harness.jobs import JobSpec, execute_spec

        via_api = api.run("pthread", "canneal", cores=16, scale=0.25, seed=7)
        via_engine = execute_spec(
            JobSpec(
                config="pthread", workload="canneal", cores=16, scale=0.25,
                seed=7,
            )
        )
        assert via_api.to_json() == via_engine.to_json()


class TestSweepSmoke:
    """The acceptance smoke: parallel == serial, repeats hit the cache."""

    @pytest.fixture(scope="class")
    def serial_points(self):
        return api.sweep(**GRID)

    def test_parallel_matches_serial_byte_for_byte(
        self, serial_points, tmp_path
    ):
        cache = tmp_path / "cache"
        parallel, stats = api.sweep(
            **GRID, workers=4, cache_dir=cache, return_stats=True
        )
        assert stats.total == 4 and stats.executed == 4
        assert [p.result.to_json() for p in parallel] == [
            p.result.to_json() for p in serial_points
        ]

        repeat, stats2 = api.sweep(
            **GRID, workers=4, cache_dir=cache, return_stats=True
        )
        assert stats2.hit_rate >= 0.9  # acceptance floor; in fact 1.0
        assert stats2.executed == 0
        assert [p.result.to_json() for p in repeat] == [
            p.result.to_json() for p in serial_points
        ]

    def test_workloads_accepts_single_name_and_dict(self):
        single = api.sweep(
            configs=("pthread",), workloads="canneal", scale=0.25, seed=7
        )
        explicit = api.sweep(
            configs=("pthread",),
            workloads={"canneal": KERNELS["canneal"]},
            scale=0.25,
            seed=7,
        )
        assert len(single) == len(explicit) == 1
        assert single[0].result.to_json() == explicit[0].result.to_json()

    def test_machine_hook_path_still_serial(self):
        seen = []
        points = api.sweep(
            configs=("pthread",),
            workloads="canneal",
            scale=0.25,
            machine_hook=lambda m: seen.append(m.params.n_cores),
        )
        assert seen == [16] and len(points) == 1


class TestCli:
    def test_module_cli_sweep(self, tmp_path, capsys):
        from repro.__main__ import main

        csv_path = tmp_path / "out.csv"
        code = main(
            [
                "sweep",
                "--configs", "pthread", "msa-omu-2",
                "--workloads", "canneal",
                "--cores", "16",
                "--scale", "0.25",
                "--workers", "2",
                "--cache-dir", str(tmp_path / "cache"),
                "--baseline", "pthread",
                "--csv", str(csv_path),
            ]
        )
        assert code == 0
        text = csv_path.read_text()
        assert text.startswith("config,workload,n_cores,scale,cycles")
        assert "speedup" in text.splitlines()[0]
        assert "msa-omu-2" in text

    def test_module_cli_table1(self, capsys):
        from repro.__main__ import main

        assert main(["table1"]) == 0
        assert "MSA/OMU" in capsys.readouterr().out
