"""Set-up probe: a fresh interpreter gets one workload ready, prints
``ready <slowdown> <yardstick seconds>``, and exits.  The measuring
process times spawn -> ``ready``.

Ready means: for ``direct`` workloads, the simulator imported, the
first point's machine built and its workload instantiated; for the
``engine`` workload, an ``Engine`` with two workers constructed over an
empty cache directory (which opens its job store).  The ``serve``
workload's set-up is the server's own start-up, timed without a probe.

The probe carries its own yardstick (``reference.py``): the host's
slowdown while this interpreter imports and builds, which the measuring
process's yardstick, running on the other CPU, would only estimate.
The second number is the wall time the yardstick itself took, which
the measuring process takes out of the set-up time.

    python3 benchmarks/e2e/probe.py sim-msa 2015 <empty-dir>
"""

import sys
from pathlib import Path

from reference import Yardstick
from workloads import WORKLOADS


def main(argv) -> int:
    name, seed, work = argv[0], int(argv[1]), Path(argv[2])
    workload = WORKLOADS[name]
    stick = Yardstick(work).start()
    with stick.measuring() as slowdown:
        if workload.kind == "engine":
            from repro.harness.jobs import Engine

            Engine(workers=2, cache_dir=str(work / "cache"))
        else:
            from repro.harness.configs import build_machine
            from repro.harness.jobs import resolve_factory

            point = workload.points[0]
            build_machine(point.config, n_cores=point.cores, seed=seed)
            resolve_factory(point.workload)(point.cores, scale=point.scale)
        stick.stop()
        print("ready", slowdown(), stick.wall_s, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
