"""Benchmark of the OMQ engine: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload batch-horn --seed 2017 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics, ``--trace 1`` re-runs the
workload with every layer's public functions wrapped and prints the
per-layer metrics.  ``BENCHMARK.json`` at the repository root lists the
metrics with their units; ``perfbench/README.md`` describes the workloads
and which end-to-end metric each layer metric should move.  The program
under test is ``src/repro`` of the checkout this script sits in.

The last line of standard output is the result object.  A failed answer
check prints no result and exits 1; a checkout without the program's
source exits 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 2017
WORKLOADS = ("batch-horn", "batch-disjunctive", "serve-horn")

#: Settings that would change what the program does under measurement;
#: removed from this process and from the daemons it starts.
STRIPPED_ENV = ("REPRO_FAULTS", "REPRO_TIMEOUT", "REPRO_BUDGET",
                "REPRO_CACHE_BACKEND", "REPRO_SANITIZE")

#: String hashing is randomized per process unless ``PYTHONHASHSEED`` is
#: set, and it orders the program's sets of fact tuples, so it decides in
#: which order the chase fires triggers and how much work it does.  Every
#: run (and the daemon, which inherits the environment) uses this value,
#: so two runs of the same code on the same inputs do the same work.
HASH_SEED = "0"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload to a smoke-test size "
                             "(used by the benchmark's own tests)")
    return parser.parse_args(argv)


def source_digest() -> str:
    """Digest of the program source measured (the checkout may not be a
    git repository)."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str | None:
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (ROOT / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:
        return None


def declared_units(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()),
                                  *(sys.argv[1:] if argv is None else argv)])
    for name in STRIPPED_ENV:
        os.environ.pop(name, None)
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"error: no program source under {src}", file=sys.stderr)
        return 2
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import batchload
    import checks
    import serveload

    units = declared_units(bool(args.trace))
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        if args.workload == "serve-horn":
            scale = serveload.TINY if args.tiny else serveload.Scale()
            result = serveload.run(args.seed, args.seconds, bool(args.trace),
                                   scale, workdir)
        else:
            scale = batchload.TINY if args.tiny else batchload.Scale()
            result = batchload.run(args.workload, args.seed, args.seconds,
                                   bool(args.trace), scale, workdir)
    except checks.CheckFailed as exc:
        print(f"answer check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    metrics = result["metrics"]
    if metrics.keys() != units.keys():
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(metrics.keys() ^ units.keys())}")
    info = {"workload": args.workload, "seed": args.seed,
            "trace": args.trace, "commit": commit(),
            "source": source_digest(), **result["info"]}
    print(json.dumps({"run": info}, sort_keys=True))
    print(json.dumps({
        "correct": True, "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
