"""Start ``repro serve`` with the benchmark's layer wrappers installed.

    python perfbench/launcher.py TOTALS.json serve [serve options...]

The program's ``Tracer`` is thread-local and the daemon evaluates on its
dispatcher thread, so the traced serve run needs the wrappers inside the
daemon process.  Each ``evaluate_batch`` the daemon makes also gets a
``Tracer`` whose spans supply the work counts.  When the daemon has
drained (SIGTERM) the totals are written to ``TOTALS.json``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import layers


def main(argv: list[str]) -> int:
    out, args = Path(argv[0]), argv[1:]
    import repro.server.daemon as daemon
    import repro.serving.batch as batch
    from repro.cli import main as cli_main
    from repro.obs import Tracer
    from repro.serving import plan_cache_stats

    totals = layers.Totals()
    wrappers = layers.install(totals)
    root_s = 0.0

    def evaluate_batch(*a, **kw):
        nonlocal root_s  # only the dispatcher thread calls this
        tracer = Tracer()
        start = time.perf_counter()
        try:
            return batch.evaluate_batch(*a, tracer=tracer, **kw)
        finally:
            root_s += time.perf_counter() - start
            layers.span_counts(tracer, totals)

    daemon.evaluate_batch = evaluate_batch
    try:
        return cli_main(args)
    finally:
        wrappers.uninstall()
        out.write_text(json.dumps({"totals": totals.to_dict(),
                                   "root_s": root_s,
                                   "plan_cache": plan_cache_stats()}))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
