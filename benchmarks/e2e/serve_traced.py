"""Run ``repro serve`` under the sampling profiler (traced runs only).

Installs the sampler before the server creates its threads, runs
``repro.api.serve`` on a free port until SIGTERM, then writes the
sampler's per-layer CPU weights as JSON.  The server advertises its URL
in ``<cache-dir>/serve.json`` as usual.

    python3 benchmarks/e2e/serve_traced.py <cache-dir> <out.json>
"""

import json
import sys

from trace import Sampler


def main(argv) -> int:
    cache_dir, out = argv
    from repro import api

    sampler = Sampler().start()
    try:
        api.serve(cache_dir=cache_dir, port=0, workers=1)
    finally:
        sampler.stop()
        with open(out, "w") as f:
            json.dump(sampler.to_dict(), f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
