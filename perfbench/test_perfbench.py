"""Tests for the benchmark itself, at a tiny size.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import re
import shutil
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import batchload  # noqa: E402
import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import serveload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def test_metric_names_and_units_are_well_formed():
    names = [m["name"] for group in ("end_to_end", "per_layer")
             for m in SPEC[group]]
    assert len(names) == len(set(names))
    for group in ("end_to_end", "per_layer"):
        for metric in SPEC[group]:
            assert NAME.fullmatch(metric["name"]), metric
            assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload,trace", [
    ("batch-horn", 0), ("batch-horn", 1), ("batch-disjunctive", 0),
    ("serve-horn", 0)])
def test_prints_every_metric_with_its_unit(workload, trace):
    # Three seconds give the open loop of serve-horn enough arrivals.
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "3",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    declared = {m["name"]: m["unit"]
                for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))


def test_fails_without_the_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "batch-horn", "--seed", "1", "--seconds",
                 "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_recorded_fingerprints_match_the_job_panels():
    recorded = json.loads((HERE / "workloads.json").read_text())
    got = {name: inputs.fingerprint(batchload.generate(
        name, batchload.Scale())) for name in batchload.WORKLOADS}
    got["serve-horn"] = inputs.fingerprint(
        [serveload.generate(serveload.Scale())])
    assert {name: w["fingerprint"] for name, w in recorded.items()} == got


def test_tampered_answers_are_rejected():
    cold = {(0, "atom-000"): ("ok", "ok", (("c1",),))}
    checks.check_same("warm", cold, dict(cold))
    with pytest.raises(checks.CheckFailed):
        checks.check_same("warm", cold,
                          {(0, "atom-000"): ("ok", "ok", (("c2",),))})
    with pytest.raises(checks.CheckFailed):
        checks.check_same("warm", cold, {})


def test_inconsistent_instances_must_answer_all_of_dom():
    facts = ["A0(c1)", "R0(c1,c2)", "D(c2)", "N(c2)"]
    checks.check_inconsistent("q(x) <- A0(x)", facts, "ok", "ok",
                              [["c1"], ["c2"]])
    with pytest.raises(checks.CheckFailed):
        checks.check_inconsistent("q(x) <- A0(x)", facts, "ok", "ok",
                                  [["c1"]])
    with pytest.raises(checks.CheckFailed):
        checks.check_inconsistent("q() <- A0(x) & R0(x,y)", facts, "ok",
                                  "no", [])
    # A consistent instance is not held to it.
    checks.check_inconsistent("q(x) <- A0(x)", facts[:2], "ok", "ok", [])


def test_accounting_and_storage_failures_are_rejected():
    stats = {"jobs": 3, "ok": 2, "unknown": 1, "error": 0, "quarantined": 0}
    checks.check_accounting(stats, 3)
    with pytest.raises(checks.CheckFailed):
        checks.check_accounting({**stats, "unknown": 0}, 3)
    with pytest.raises(checks.CheckFailed):
        checks.check_storage({"tripped": False,
                              "backend": {"write_errors": 1}})
    with pytest.raises(checks.CheckFailed):
        checks.check_storage({"tripped": True, "backend": {}})


def test_unknown_in_the_tier_is_rejected(tmp_path):
    from repro.serving.fingerprint import digest
    from repro.storage.base import open_backend

    path = tmp_path / "tier.sqlite"
    backend = open_backend(f"sqlite:{path}")
    backend.put("k", {"verdict": "ok", "answers": [], "outcome": None})
    backend.close()
    assert checks.check_tier(path) == 1
    text = json.dumps({"verdict": "unknown", "answers": [], "outcome": None})
    with sqlite3.connect(path) as conn:
        conn.execute("UPDATE entries SET value = ?, digest = ?",
                     (text, digest(text)))
    with pytest.raises(checks.CheckFailed):
        checks.check_tier(path)
