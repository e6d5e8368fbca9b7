"""Golden determinism suite: exact cycle counts and counters, pinned.

Unlike :mod:`tests.test_regression` (which guards *relative* invariants
so legitimate timing-model changes survive), this suite pins the exact
final cycle count, event count, and every NoC/MSA/sync-unit counter for
each of five representative configurations on two small workloads,
plus the ``(cycles, events)`` fingerprint of six larger points.

Its purpose is to make hot-path optimization safe: any change to the
event kernel, NoC, message, or stats layers that perturbs simulated
behaviour -- even a reordering of same-cycle events -- fails here
loudly.  The determinism contract these numbers encode is documented in
docs/PERF.md.

If a PR *intends* to change the timing model (new latency parameter,
protocol change), print a fresh table with::

    PYTHONPATH=src python -m pytest tests/test_golden_determinism.py \
        -k regeneration -s

paste it over ``GOLDEN``, and review the diff like any other
golden-file update.
"""

from __future__ import annotations

import json

import pytest

from repro.harness.configs import build_machine
from repro.harness.runner import run_workload
from repro.resilience.watchdog import Watchdog
from repro.workloads.kernels import KERNELS

CONFIGS = ("pthread", "mcs-tour", "msa0", "msa-omu-2", "ideal")

#: Two ways to drain the one event kernel, both pinned against the SAME
#: golden table.  The ids keep the names of the two kernels this table
#: once pinned side by side (a heap and a horizon-sharded calendar):
#: "legacy" drains the run in one go, "sharded" drains it through the
#: watchdog in 257-event chunks whose boundaries fall mid-bucket.
MODES = ("legacy", "sharded")
CHUNK_EVENTS = 257

# Workload name -> (kernel, cores, scale).
WORKLOADS = {
    "streamcluster": ("streamcluster", 16, 0.25),
    "fluidanimate": ("fluidanimate", 16, 0.3),
}


def snapshot(config: str, workload: str, mode: str = "legacy") -> dict:
    """One run's complete observable outcome, as a plain dict."""
    kernel, cores, scale = WORKLOADS[workload]
    machine = build_machine(config, n_cores=cores, seed=2015)
    watchdog = None
    if mode == "sharded":
        watchdog = Watchdog(max_events=50_000_000, chunk_events=CHUNK_EVENTS)
    result = run_workload(
        machine, KERNELS[kernel](cores, scale), watchdog=watchdog
    )
    latency = machine.network.stats.histogram("latency")
    return {
        "cycles": result.cycles,
        "events": machine.sim.events_processed,
        "noc": dict(sorted(result.noc_counters.items())),
        "msa": dict(sorted(result.msa_counters.items())),
        "sync": dict(sorted(result.sync_unit_counters.items())),
        "latency_count": latency.count,
        "latency_total": latency.total,
        "latency_p99": latency.percentile(99),
    }


GOLDEN = {
    "streamcluster": {
        "pthread": {
            "cycles": 28195,
            "events": 6180,
            "noc": {
                "link_stall_cycles": 280,
                "messages_delivered": 1314,
                "messages_sent": 1314,
                "sent.coh": 657,
                "sent.coh_l1": 657,
            },
            "msa": {},
            "sync": {},
            "latency_count": 1314,
            "latency_total": 12880,
            "latency_p99": 21,
        },
        "mcs-tour": {
            "cycles": 13378,
            "events": 8955,
            "noc": {
                "link_stall_cycles": 69,
                "messages_delivered": 1572,
                "messages_sent": 1572,
                "sent.coh": 786,
                "sent.coh_l1": 786,
            },
            "msa": {},
            "sync": {},
            "latency_count": 1572,
            "latency_total": 13791,
            "latency_p99": 19,
        },
        "msa0": {
            "cycles": 28367,
            "events": 6484,
            "noc": {
                "link_stall_cycles": 293,
                "messages_delivered": 1334,
                "messages_sent": 1334,
                "sent.coh": 667,
                "sent.coh_l1": 667,
            },
            "msa": {},
            "sync": {
                "always_fail": 204,
                "issued.barrier": 96,
                "issued.finish": 96,
                "issued.lock": 6,
                "issued.unlock": 6,
            },
            "latency_count": 1334,
            "latency_total": 13147,
            "latency_p99": 20,
        },
        "msa-omu-2": {
            "cycles": 9151,
            "events": 1576,
            "noc": {
                "link_stall_cycles": 425,
                "messages_delivered": 290,
                "messages_sent": 290,
                "sent.coh": 37,
                "sent.coh_l1": 37,
                "sent.msa": 108,
                "sent.msa_cpu": 108,
            },
            "msa": {
                "barrier_releases": 6,
                "entries_allocated": 7,
                "entries_freed": 6,
                "lock_grants": 6,
                "ops_hw": 108,
                "req.barrier": 96,
                "req.lock": 6,
                "req.unlock": 6,
            },
            "sync": {
                "issued.barrier": 96,
                "issued.lock": 6,
                "issued.unlock": 6,
                "silent_unlock_hits": 6,
            },
            "latency_count": 290,
            "latency_total": 2959,
            "latency_p99": 29,
        },
        "ideal": {
            "cycles": 8922,
            "events": 534,
            "noc": {
                "messages_delivered": 74,
                "messages_sent": 74,
                "sent.coh": 37,
                "sent.coh_l1": 37,
            },
            "msa": {},
            "sync": {
                "issued.barrier": 96,
                "issued.lock": 6,
                "issued.unlock": 6,
            },
            "latency_count": 74,
            "latency_total": 506,
            "latency_p99": 13,
        },
    },
    "fluidanimate": {
        "pthread": {
            "cycles": 25928,
            "events": 15244,
            "noc": {
                "link_stall_cycles": 152,
                "messages_delivered": 1274,
                "messages_sent": 1274,
                "sent.coh": 637,
                "sent.coh_l1": 637,
            },
            "msa": {},
            "sync": {},
            "latency_count": 1274,
            "latency_total": 11212,
            "latency_p99": 19,
        },
        "mcs-tour": {
            "cycles": 21574,
            "events": 20405,
            "noc": {
                "link_stall_cycles": 59,
                "messages_delivered": 1504,
                "messages_sent": 1504,
                "sent.coh": 752,
                "sent.coh_l1": 752,
            },
            "msa": {},
            "sync": {},
            "latency_count": 1504,
            "latency_total": 12363,
            "latency_p99": 19,
        },
        "msa0": {
            "cycles": 26432,
            "events": 17932,
            "noc": {
                "link_stall_cycles": 151,
                "messages_delivered": 1274,
                "messages_sent": 1274,
                "sent.coh": 637,
                "sent.coh_l1": 637,
            },
            "msa": {},
            "sync": {
                "always_fail": 2688,
                "issued.barrier": 32,
                "issued.finish": 32,
                "issued.lock": 1312,
                "issued.unlock": 1312,
            },
            "latency_count": 1274,
            "latency_total": 11211,
            "latency_p99": 19,
        },
        "msa-omu-2": {
            "cycles": 22969,
            "events": 34069,
            "noc": {
                "link_stall_cycles": 203,
                "messages_delivered": 6235,
                "messages_sent": 6235,
                "sent.coh": 418,
                "sent.coh_l1": 418,
                "sent.msa": 2837,
                "sent.msa_cpu": 2562,
            },
            "msa": {
                "alloc_deferred": 183,
                "alloc_full": 76,
                "barrier_releases": 1,
                "entries_allocated": 751,
                "entries_evicted": 719,
                "entries_freed": 1,
                "lock_grants": 924,
                "omu_decrements": 145,
                "omu_increments": 145,
                "omu_steered_sw": 69,
                "ops_hw": 2382,
                "ops_sw": 274,
                "reclaims_completed": 137,
                "reclaims_started": 158,
                "req.barrier": 32,
                "req.lock": 1053,
                "req.unlock": 1312,
                "revokes_retaken": 21,
                "revokes_sent": 165,
                "silent_acquires": 259,
            },
            "sync": {
                "hwsync_revoked": 165,
                "issued.barrier": 32,
                "issued.finish": 16,
                "issued.lock": 1312,
                "issued.unlock": 1312,
                "silent_lock_hits": 263,
                "silent_lock_lost_race": 4,
                "silent_unlock_hits": 1183,
            },
            "latency_count": 6235,
            "latency_total": 53160,
            "latency_p99": 19,
        },
        "ideal": {
            "cycles": 15895,
            "events": 6896,
            "noc": {
                "link_stall_cycles": 24,
                "messages_delivered": 512,
                "messages_sent": 512,
                "sent.coh": 256,
                "sent.coh_l1": 256,
            },
            "msa": {},
            "sync": {
                "issued.barrier": 32,
                "issued.lock": 1312,
                "issued.unlock": 1312,
            },
            "latency_count": 512,
            "latency_total": 4088,
            "latency_p99": 16,
        },
    },
}


#: Determinism fingerprints -- (simulated cycles, events processed) --
#: of larger points, keyed by (config, workload, cores, scale).  They
#: are the rows of the frozen ``benchmarks/BENCH_BASELINE.json`` and
#: ``benchmarks/BENCH_PR4.json`` that run in under a second each, so
#: those documents keep describing this simulator.
FINGERPRINTS = {
    ("msa-omu-2", "streamcluster", 16, 1.0): (36854, 6186),
    ("pthread", "streamcluster", 16, 1.0): (108919, 24471),
    ("msa-omu-2", "fluidanimate", 16, 1.0): (63585, 100368),
    ("msa-omu-2", "streamcluster", 64, 8.0): (324415, 276026),
    ("msa-omu-2", "canneal", 64, 2.0): (132114, 204497),
    ("ideal", "streamcluster", 64, 8.0): (300690, 48314),
}


@pytest.mark.parametrize(
    "point",
    sorted(FINGERPRINTS),
    ids=lambda p: f"{p[0]}-{p[1]}-c{p[2]}-s{p[3]:g}",
)
def test_fingerprint_is_live(point):
    config, workload, cores, scale = point
    machine = build_machine(config, n_cores=cores, seed=2015)
    result = run_workload(machine, KERNELS[workload](cores, scale))
    got = (result.cycles, machine.sim.events_processed)
    assert got == FINGERPRINTS[point], (
        f"{config}/{workload}/c{cores}/s{scale:g}: (cycles, events) "
        f"{got} != pinned {FINGERPRINTS[point]}"
    )


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("config", CONFIGS)
def test_golden_run_is_bit_identical(config, workload, mode):
    got = snapshot(config, workload, mode)
    want = GOLDEN[workload][config]
    assert got == want, (
        f"{config}/{workload} [{mode} drain] diverged from the golden "
        f"run:\n"
        f"got:  {json.dumps(got, sort_keys=True)}\n"
        f"want: {json.dumps(want, sort_keys=True)}\n"
        "If this PR intentionally changes the timing model, regenerate "
        "the table (see module docstring); a hot-path optimization -- "
        "including anything in the event kernel -- must never trip "
        "this, and both drains must match the same table."
    )


def test_golden_table_regeneration_helper():
    """Not a check -- run with ``-k regeneration -s`` to print a fresh
    golden table for pasting into this file after an intentional
    timing-model change."""
    fresh = {
        wl: {cfg: snapshot(cfg, wl) for cfg in CONFIGS}
        for wl in sorted(WORKLOADS)
    }
    print("\nGOLDEN =", json.dumps(fresh, indent=4))
    assert set(fresh) == set(GOLDEN)
