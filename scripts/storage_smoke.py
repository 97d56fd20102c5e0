"""CI smoke for shared storage backends: concurrent writers, one store.

The storage subsystem's reason to exist is *sharing*: several ``repro
batch`` processes pointed at one ``--cache-backend`` must coexist
without corrupting it, and later runs must actually hit the answers
earlier runs stored.  This script exercises that end to end for both
backends — ``sqlite:``, whose transactions serialize writers, and the
flat ``dir:`` store, whose atomic renames keep concurrent writers from
tearing entries:

1. a warm-up run populates the store;
2. two ``repro batch`` subprocesses run **concurrently** against the
   same backend — both must exit 0 and both must report cache hits;
3. ``repro cache verify`` must find zero corrupt entries, and
   ``repro cache stats`` must parse.

Run from the repo root::

    PYTHONPATH=src python scripts/storage_smoke.py
"""

import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ONTO = os.path.join(ROOT, "examples", "ontologies", "clinic.gf")
WORKLOAD = os.path.join(ROOT, "examples", "workloads", "smoke.json")


def fail(msg: str) -> "None":
    print(f"STORAGE SMOKE FAILURE: {msg}", file=sys.stderr)
    raise SystemExit(1)


def env() -> dict:
    out = dict(os.environ)
    out["PYTHONPATH"] = os.path.join(ROOT, "src")
    out.pop("REPRO_FAULTS", None)
    out.pop("REPRO_CACHE_BACKEND", None)
    return out


def batch(uri: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "batch", ONTO,
         "--workload", WORKLOAD, "--cache-backend", uri, "--format", "json"],
        cwd=ROOT, env=env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)


def cache_cmd(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", "cache", *args],
        cwd=ROOT, env=env(), capture_output=True, text=True, timeout=120)


def run_backend(name: str, uri: str) -> None:
    print(f"[{name}] warm-up run against {uri}")
    proc = batch(uri)
    out, err = proc.communicate(timeout=300)
    if proc.returncode != 0:
        fail(f"{name}: warm-up batch exited {proc.returncode}: {err}")
    warm = json.loads(out)
    if warm["stats"]["cache"]["tripped"]:
        fail(f"{name}: warm-up run tripped the write breaker")

    print(f"[{name}] two concurrent batches sharing the store")
    first, second = batch(uri), batch(uri)
    reports = []
    for label, proc in (("first", first), ("second", second)):
        out, err = proc.communicate(timeout=300)
        if proc.returncode != 0:
            fail(f"{name}: concurrent {label} batch exited "
                 f"{proc.returncode}: {err}")
        reports.append(json.loads(out))
    for label, report in zip(("first", "second"), reports):
        hits = report["stats"]["cache"]["hits"]
        if hits <= 0:
            fail(f"{name}: concurrent {label} batch reported no cache hits "
                 f"({report['stats']['cache']})")
        print(f"[{name}] {label}: {hits} hits, "
              f"hit_rate={report['stats']['cache']['hit_rate']}")

    print(f"[{name}] repro cache verify")
    verify = cache_cmd("verify", uri)
    if verify.returncode != 0:
        fail(f"{name}: cache verify exited {verify.returncode}:\n"
             f"{verify.stdout}{verify.stderr}")
    print(f"[{name}] {verify.stdout.strip()}")

    stats = cache_cmd("stats", uri, "--format", "json")
    if stats.returncode != 0:
        fail(f"{name}: cache stats exited {stats.returncode}: {stats.stderr}")
    parsed = json.loads(stats.stdout)
    if parsed.get("entries", 0) <= 0:
        fail(f"{name}: shared store is empty after three runs: {parsed}")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="storage-smoke-") as tmp:
        run_backend("sqlite", f"sqlite:{os.path.join(tmp, 'shared.db')}")
        run_backend("dir", f"dir:{os.path.join(tmp, 'flat')}")
    print("STORAGE SMOKE OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
