"""Benchmark-suite configuration.

Every benchmark regenerates one of the paper's tables/figures on a
scaled-down grid (16 cores by default, plus 64 cores where the paper's
claim is specifically about 64-core behaviour).  Run with::

    pytest benchmarks/ --benchmark-only

Set ``REPRO_BENCH_FULL=1`` to run the paper-sized grid (16 and 64
cores, full workload scale) -- slower but closer to the published
numbers.  The printed tables are the deliverable; the benchmark timings
just record how long each experiment takes to regenerate.

The figure drivers run on the parallel experiment engine
(:mod:`repro.harness.jobs`): set ``REPRO_WORKERS=8`` to fan each
figure's grid across processes and ``REPRO_CACHE_DIR=.repro-cache`` to
serve repeated grid points from the on-disk result cache (the second
benchmark run of an unchanged tree is then nearly free).
"""

import pytest

from repro.common import config

FULL = config.bench_full()

#: (core counts, workload scale) for the default and full grids.
CORES = (16, 64) if FULL else (16,)
SCALE = 1.0 if FULL else 0.4


@pytest.fixture(scope="session")
def bench_cores():
    return CORES


@pytest.fixture(scope="session")
def bench_scale():
    return SCALE
