"""Tests for the command-line interface."""

import os

import pytest

from repro.cli import main
from repro.storage import open_backend


@pytest.fixture
def workspace(tmp_path):
    onto = tmp_path / "onto.gf"
    onto.write_text(
        "forall x (x = x -> (Hand(x) -> exists y (hasFinger(x,y) & Thumb(y))))\n")
    dl = tmp_path / "onto.dl"
    dl.write_text("Hand sub some hasFinger Thumb\n")
    data = tmp_path / "data.facts"
    data.write_text("Hand(h)\n# a comment\nArm(a)\n")
    bad = tmp_path / "clash.facts"
    bad.write_text("Hand(h)\n")
    return {"onto": str(onto), "dl": str(dl), "data": str(data)}


class TestClassify:
    def test_classify_fo(self, workspace, capsys):
        assert main(["classify", workspace["onto"]]) == 0
        out = capsys.readouterr().out
        assert "DICHOTOMY" in out
        assert "PTIME" in out

    def test_classify_dl(self, workspace, capsys):
        assert main(["classify", workspace["dl"], "--dl"]) == 0
        out = capsys.readouterr().out
        assert "DICHOTOMY" in out

    def test_classify_no_mat(self, workspace, capsys):
        assert main(["classify", workspace["onto"], "--no-mat"]) == 0
        out = capsys.readouterr().out
        assert "unknown" in out


class TestEvaluate:
    def test_evaluate_cq(self, workspace, capsys):
        assert main(["evaluate", workspace["onto"], workspace["data"],
                     "q(x) <- hasFinger(x,y) & Thumb(y)"]) == 0
        out = capsys.readouterr().out
        assert "h" in out and "1 certain answer" in out

    def test_evaluate_boolean(self, workspace, capsys):
        assert main(["evaluate", workspace["onto"], workspace["data"],
                     "q() <- Thumb(y)"]) == 0
        assert "certain: True" in capsys.readouterr().out

    def test_evaluate_ucq(self, workspace, capsys):
        assert main(["evaluate", workspace["onto"], workspace["data"],
                     "q(x) <- Thumb(x) ; q(x) <- Hand(x)"]) == 0
        assert "h" in capsys.readouterr().out

    def test_evaluate_sat_backend(self, workspace, capsys):
        assert main(["evaluate", workspace["onto"], workspace["data"],
                     "q() <- Thumb(y)", "--backend", "sat"]) == 0
        assert "certain: True" in capsys.readouterr().out


class TestEvaluateMultiQuery:
    def test_single_query_via_flag_matches_positional(self, workspace, capsys):
        assert main(["evaluate", workspace["onto"], workspace["data"],
                     "-q", "q(x) <- hasFinger(x,y) & Thumb(y)"]) == 0
        flag_out = capsys.readouterr().out
        assert main(["evaluate", workspace["onto"], workspace["data"],
                     "q(x) <- hasFinger(x,y) & Thumb(y)"]) == 0
        assert flag_out == capsys.readouterr().out

    def test_multiple_query_flags(self, workspace, capsys):
        assert main(["evaluate", workspace["onto"], workspace["data"],
                     "-q", "q(x) <- Hand(x)",
                     "-q", "q() <- Thumb(y)"]) == 0
        out = capsys.readouterr().out
        assert "query: q(x) <- Hand(x)" in out
        assert "query: q() <- Thumb(y)" in out
        assert "1 certain answer(s):" in out and "certain: True" in out

    def test_positional_plus_flag(self, workspace, capsys):
        assert main(["evaluate", workspace["onto"], workspace["data"],
                     "q(x) <- Hand(x)", "-q", "q() <- Thumb(y)"]) == 0
        out = capsys.readouterr().out
        assert out.index("q(x) <- Hand(x)") < out.index("q() <- Thumb(y)")

    def test_query_file(self, workspace, tmp_path, capsys):
        qfile = tmp_path / "queries.txt"
        qfile.write_text(
            "q(x) <- Hand(x)\n"
            "# a comment line\n"
            "\n"
            "q() <- Thumb(y)\n")
        assert main(["evaluate", workspace["onto"], workspace["data"],
                     "--query-file", str(qfile)]) == 0
        out = capsys.readouterr().out
        assert out.count("query: ") == 2

    def test_multi_query_json_payload(self, workspace, capsys):
        import json

        assert main(["evaluate", workspace["onto"], workspace["data"],
                     "-q", "q(x) <- Hand(x)", "-q", "q() <- Thumb(y)",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [q["query"] for q in payload["queries"]] == [
            "q(x) <- Hand(x)", "q() <- Thumb(y)"]
        assert payload["queries"][0]["answers"] == [["h"]]
        assert payload["queries"][1]["verdict"] == "yes"

    def test_no_query_at_all_exit_two(self, workspace, capsys):
        assert main(["evaluate", workspace["onto"], workspace["data"]]) == 2
        assert "no query given" in capsys.readouterr().err

    def test_one_bad_query_exit_two(self, workspace, capsys):
        assert main(["evaluate", workspace["onto"], workspace["data"],
                     "-q", "q(x) <- Hand(x)", "-q", "not a query"]) == 2
        assert "query" in capsys.readouterr().err


@pytest.fixture
def batch_workspace(workspace, tmp_path):
    import json

    workload = [
        {"query": "q(x) <- hasFinger(x,y) & Thumb(y)", "data": "data.facts"},
        {"query": "q() <- Thumb(y)", "facts": ["Hand(h)"]},
        {"query": "q(x) <- Hand(x)", "facts": ["Hand(h)", "Hand(g)"],
         "id": "pair"},
        {"query": "q(x) <- hasFinger(x,y) & Thumb(y)", "data": "data.facts"},
    ]
    path = tmp_path / "jobs.json"
    path.write_text(json.dumps(workload))
    workspace["workload"] = str(path)
    return workspace


class TestBatchCommand:
    def test_batch_text_report(self, batch_workspace, capsys):
        assert main(["batch", batch_workspace["onto"],
                     "--workload", batch_workspace["workload"]]) == 0
        out = capsys.readouterr().out
        assert "batch: 4 job(s), 4 ok / 0 unknown / 0 error" in out
        # Job 3 repeats job 0; under ambient fault injection job 0's
        # answer may be bound-relative, and then it is not cached.
        assert "cache=hit" in out or os.environ.get("REPRO_FAULTS")

    def test_batch_json_report(self, batch_workspace, capsys, cacheable):
        import json

        assert main(["batch", batch_workspace["onto"],
                     "--workload", batch_workspace["workload"],
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["jobs"]) == 4
        assert payload["jobs"][0]["answers"] == [["h"]]
        assert payload["jobs"][1]["verdict"] == "yes"
        assert payload["jobs"][2]["id"] == "pair"
        # Job 3 repeats job 0, the only repeated key.
        hit = payload["jobs"][3]["cache_hit"]
        assert hit == cacheable(payload["jobs"][0].get("outcome"))
        stats = payload["stats"]
        assert stats["ok"] == 4 and stats["cache"]["hits"] == hit
        assert "latency" in stats and "wall_seconds" in stats

    def test_batch_parallel_matches_serial(self, batch_workspace, capsys):
        import json

        assert main(["batch", batch_workspace["onto"],
                     "--workload", batch_workspace["workload"],
                     "--jobs", "2", "--format", "json"]) == 0
        parallel = json.loads(capsys.readouterr().out)
        assert main(["batch", batch_workspace["onto"],
                     "--workload", batch_workspace["workload"],
                     "--jobs", "1", "--format", "json"]) == 0
        serial = json.loads(capsys.readouterr().out)
        keys = ("index", "status", "verdict", "answers")
        assert [{k: j[k] for k in keys} for j in parallel["jobs"]] == \
            [{k: j[k] for k in keys} for j in serial["jobs"]]

    def test_batch_error_job_exit_two(self, batch_workspace, tmp_path, capsys):
        import json

        path = tmp_path / "bad_jobs.json"
        path.write_text(json.dumps(
            [{"query": "q(x) <- Hand(x)", "facts": ["Hand(h)"]},
             {"query": "q(x) <- Hand(x)", "data": "missing.facts"}]))
        assert main(["batch", batch_workspace["onto"],
                     "--workload", str(path)]) == 2
        assert "error" in capsys.readouterr().out

    def test_batch_malformed_workload_exit_two(self, batch_workspace,
                                               tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["batch", batch_workspace["onto"],
                     "--workload", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "invalid JSON" in err

    def test_batch_zero_jobs_flag_exit_two(self, batch_workspace, capsys):
        assert main(["batch", batch_workspace["onto"],
                     "--workload", batch_workspace["workload"],
                     "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err


class TestConsistent:
    def test_consistent(self, workspace, capsys):
        assert main(["consistent", workspace["onto"], workspace["data"]]) == 0
        assert "consistent: True" in capsys.readouterr().out

    def test_inconsistent_exit_code(self, tmp_path, capsys):
        onto = tmp_path / "o.gf"
        onto.write_text("forall x (x = x -> (A(x) -> false))\n")
        data = tmp_path / "d.facts"
        data.write_text("A(a)\n")
        assert main(["consistent", str(onto), str(data)]) == 1
        assert "consistent: False" in capsys.readouterr().out


class TestInfoCommands:
    def test_figure1(self, capsys):
        assert main(["figure1"]) == 0
        out = capsys.readouterr().out
        assert "uGF(1)" in out and "NO_DICHOTOMY" in out

    def test_bioportal(self, capsys):
        assert main(["bioportal"]) == 0
        out = capsys.readouterr().out
        assert "405/411" in out and "385/411" in out


class TestLintCommand:
    def test_clean_ontology_exit_zero(self, workspace, capsys):
        assert main(["lint", workspace["onto"]]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_error_diagnostic_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.gf"
        bad.write_text("exists z (A(z) | B(z))\n")
        assert main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "OMQ001" in out and "bad.gf:1" in out

    def test_json_format(self, tmp_path, capsys):
        import json

        bad = tmp_path / "bad.gf"
        bad.write_text("exists z (A(z) | B(z))\n")
        assert main(["lint", str(bad), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["diagnostics"][0]["code"] == "OMQ001"
        assert payload["diagnostics"][0]["line"] == 1

    def test_cross_artifact_data_clash(self, workspace, tmp_path, capsys):
        data = tmp_path / "clash.facts"
        data.write_text("hasFinger(a,b,c)\n")
        assert main(["lint", workspace["onto"], "--data", str(data)]) == 1
        assert "OMQ019" in capsys.readouterr().out

    def test_query_lint(self, workspace, capsys):
        assert main(["lint", workspace["onto"],
                     "--query", "q(x) <- Thumb(y)"]) == 1
        assert "OMQ012" in capsys.readouterr().out

    def test_program_lint(self, workspace, tmp_path, capsys):
        prog = tmp_path / "p.dlog"
        prog.write_text("goal(x) <- Q(y)\n")
        assert main(["lint", workspace["onto"], "--program", str(prog)]) == 1
        assert "OMQ011" in capsys.readouterr().out

    def test_dl_ontology_lint(self, workspace, capsys):
        assert main(["lint", workspace["dl"], "--dl"]) == 0

    def test_unparseable_ontology_exit_two(self, tmp_path, capsys):
        broken = tmp_path / "broken.gf"
        broken.write_text("forall x (A(x) -> B(x)\nA(a) -> \n")
        assert main(["lint", str(broken)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "broken.gf" in err
        assert "line 1" in err


class TestParseErrorHandling:
    def test_classify_unparseable_exit_two(self, tmp_path, capsys):
        broken = tmp_path / "broken.gf"
        broken.write_text("forall x (A(x) &&& B(x))\n")
        assert main(["classify", str(broken)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # one-line message, no traceback
        assert "broken.gf" in err and "line 1" in err

    def test_missing_file_exit_two(self, capsys):
        assert main(["classify", "/nonexistent/onto.gf"]) == 2
        assert "onto.gf" in capsys.readouterr().err

    def test_evaluate_bad_data_exit_two(self, workspace, tmp_path, capsys):
        data = tmp_path / "bad.facts"
        data.write_text("NotAFact(\n")
        assert main(["evaluate", workspace["onto"], str(data),
                     "q() <- Thumb(y)"]) == 2
        assert "bad.facts" in capsys.readouterr().err

    def test_evaluate_bad_query_exit_two(self, workspace, capsys):
        assert main(["evaluate", workspace["onto"], workspace["data"],
                     "not a query"]) == 2
        assert "query" in capsys.readouterr().err

    def test_consistent_unparseable_dl_exit_two(self, tmp_path, capsys):
        dl = tmp_path / "broken.dl"
        dl.write_text("Hand sub nonsense junk axiom\n")
        data = tmp_path / "d.facts"
        data.write_text("Hand(h)\n")
        assert main(["consistent", str(dl), str(data), "--dl"]) == 2
        assert "broken.dl" in capsys.readouterr().err

    def test_preflight_lint_failure_exit_two(self, workspace, tmp_path, capsys):
        data = tmp_path / "clash.facts"
        data.write_text("hasFinger(h,f1,f2)\n")
        assert main(["evaluate", workspace["onto"], str(data),
                     "q() <- Thumb(y)", "--preflight"]) == 2
        err = capsys.readouterr().err
        assert "pre-flight" in err and "OMQ019" in err


def _batch_json(ws, capsys, *flags):
    """The JSON report of one ``repro batch`` run in a fresh process
    (only the durable tier stays warm between runs)."""
    import json

    from repro.serving import clear_caches

    clear_caches()
    assert main(["batch", ws["onto"], "--workload", ws["workload"],
                 "--format", "json", *flags]) == 0
    return json.loads(capsys.readouterr().out)


def _cached_keys(jobs, cacheable):
    """The distinct (query, data) keys a run stored: those with a
    definitive answer (in the batch workspace, job 3 repeats job 0)."""
    return {(j["query"], j["data"]) for j in jobs
            if cacheable(j.get("outcome"))}


class TestCacheSetting:
    """``--cache-dir DIR`` is another spelling of ``--cache-backend
    dir:DIR``: one durable-tier setting, on batch and serve alike."""

    def test_cache_dir_is_the_dir_backend(self, batch_workspace, tmp_path,
                                          capsys, cacheable):
        flags = ("--cache-dir", str(tmp_path / "d"))
        cold = _batch_json(batch_workspace, capsys, *flags)
        stored = _cached_keys(cold["jobs"], cacheable)
        assert cold["stats"]["cache"]["backend"]["backend"] == "dir"
        with open_backend(f"dir:{tmp_path / 'd'}") as backend:
            entries = backend.stats()["entries"]
        assert entries == len(stored)
        warm = _batch_json(batch_workspace, capsys, *flags)
        # Each stored key is read from the dir once, then from memory.
        for job in warm["jobs"]:
            key = (job["query"], job["data"])
            assert job["cache_hit"] == (key in stored)
            if cacheable(job.get("outcome")):
                stored.add(key)
        stats = warm["stats"]["cache"]
        assert stats["backend"]["backend"] == "dir"
        assert stats["hits"] == sum(j["cache_hit"] for j in warm["jobs"])
        assert stats["backend"]["hits"] == entries

    @pytest.mark.parametrize("command", ["batch", "serve"])
    def test_cache_dir_and_backend_are_exclusive(
            self, command, batch_workspace, tmp_path, capsys):
        cache_dir = tmp_path / "d"
        argv = [command]
        if command == "batch":
            argv += [batch_workspace["onto"],
                     "--workload", batch_workspace["workload"]]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--cache-dir", str(cache_dir),
                         "--cache-backend", f"dir:{cache_dir}"])
        assert exc.value.code == 2
        assert "not allowed with" in capsys.readouterr().err
        assert not cache_dir.exists()

    def test_cache_dir_beats_env_backend(self, batch_workspace, tmp_path,
                                         capsys, monkeypatch, cacheable):
        env_store = tmp_path / "env.db"
        monkeypatch.setenv("REPRO_CACHE_BACKEND", f"sqlite:{env_store}")
        cache_dir = tmp_path / "d"
        report = _batch_json(batch_workspace, capsys,
                             "--cache-dir", str(cache_dir))
        assert report["stats"]["cache"]["backend"]["backend"] == "dir"
        assert len(list(cache_dir.glob("*.json"))) == len(
            _cached_keys(report["jobs"], cacheable))
        assert not env_store.exists()


class TestCacheCliMissingStore:
    """``repro cache`` against a backend path that was never created:
    an empty report, exit 0, and the store must not be created as a side
    effect of asking (ISSUE 10, satellite 2)."""

    def test_stats_reports_empty(self, tmp_path, capsys):
        import json
        path = tmp_path / "c.db"
        assert main(["cache", "stats", f"sqlite:{path}",
                     "--format", "json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["entries"] == 0 and out["exists"] is False
        assert not path.exists()

    def test_evict_is_a_no_op(self, tmp_path, capsys):
        path = tmp_path / "d"
        assert main(["cache", "evict", f"dir:{path}",
                     "--older-than", "60"]) == 0
        out = capsys.readouterr().out
        assert "evicted 0" in out and "no store" in out
        assert not path.exists()

    def test_verify_is_clean(self, tmp_path, capsys):
        path = tmp_path / "d"
        assert main(["cache", "verify", f"dir:{path}"]) == 0
        out = capsys.readouterr().out
        assert "ok: 0" in out and "no store" in out
        assert not path.exists()

    def test_bad_uri_still_exit_two(self, tmp_path, capsys):
        assert main(["cache", "stats", "redis:nope"]) == 2
        assert "unknown scheme" in capsys.readouterr().err


SHARD_REFUSAL = ("unknown scheme 'shard' (expected one of dir, sqlite, "
                 "or a bare path)")


class TestShardSchemeRefused:
    """The sharded directory store is gone.  A ``shard:`` URI exits 2
    from every entry point, naming the schemes left, and creates nothing:
    a store that was ``shard:`` is rebuilt by recomputing under another
    scheme."""

    def test_batch_flag(self, batch_workspace, tmp_path, capsys):
        before = sorted(tmp_path.iterdir())
        assert main(["batch", batch_workspace["onto"],
                     "--workload", batch_workspace["workload"],
                     "--cache-backend", f"shard:{tmp_path}/s?shards=4"]) == 2
        assert SHARD_REFUSAL in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before

    def test_env_default(self, batch_workspace, tmp_path, capsys,
                         monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_BACKEND", f"shard:{tmp_path}/s")
        before = sorted(tmp_path.iterdir())
        assert main(["batch", batch_workspace["onto"],
                     "--workload", batch_workspace["workload"]]) == 2
        assert SHARD_REFUSAL in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before

    def test_cache_stats(self, tmp_path, capsys):
        assert main(["cache", "stats", f"shard:{tmp_path}/s"]) == 2
        assert SHARD_REFUSAL in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_serve_flag(self, tmp_path):
        # A subprocess, so that a daemon which accepted the URI would
        # time out here instead of serving inside the test process.
        import subprocess
        import sys

        env = dict(os.environ)
        env.pop("REPRO_CACHE_BACKEND", None)
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--cache-backend", f"shard:{tmp_path}/s"],
            capture_output=True, text=True, env=env, cwd=tmp_path,
            timeout=30)
        assert proc.returncode == 2
        assert SHARD_REFUSAL in proc.stderr
        assert "listening on" not in proc.stdout
        assert list(tmp_path.iterdir()) == []


class TestChaosCli:
    def test_generate_prints_verified_workload(self, capsys):
        import json
        assert main(["chaos", "generate", "--seed", "3",
                     "--family", "horn", "--jobs", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["family"] == "horn"
        assert doc["verdict"] == "PTIME"
        assert len(doc["jobs"]) == 2

    def test_generate_writes_batch_ready_triple(self, tmp_path, capsys):
        out_dir = tmp_path / "wl"
        assert main(["chaos", "generate", "--seed", "3",
                     "--family", "horn", "--jobs", "2",
                     "--out", str(out_dir)]) == 0
        assert "fingerprint" in capsys.readouterr().out
        for name in ("ontology.gf", "workload.json", "manifest.json"):
            assert (out_dir / name).exists()

    def test_generate_invalid_spec_exit_two(self, capsys):
        assert main(["chaos", "generate", "--seed", "1",
                     "--family", "horn", "--inconsistency", "0.5"]) == 2
        assert "disjointness" in capsys.readouterr().err


class TestServeCli:
    @pytest.mark.parametrize("flag", [["--fastpath", "auto"],
                                      ["--backend", "sat"]])
    def test_serve_has_no_evaluation_flags(self, flag, capsys):
        # The daemon has no evaluation defaults of its own: a job set's
        # options travel in its submission, never on the command line.
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["serve", "--port", "0", *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestRetryCli:
    """``--retry`` is one argument type on ``batch`` and ``serve``."""

    def test_batch_retries_under_an_escalated_budget(
            self, workspace, tmp_path, capsys, no_ambient_faults):
        import json

        # Three hands need three nulls: the first attempt starves on two,
        # the retry's budget is sixteen times larger and answers.
        workload = tmp_path / "starved.json"
        workload.write_text(json.dumps([
            {"query": "q(x) <- hasFinger(x,y) & Thumb(y)",
             "facts": ["Hand(h1)", "Hand(h2)", "Hand(h3)"]}]))
        assert main(["batch", workspace["onto"], "--workload", str(workload),
                     "--budget", "nulls=2,chase_steps=2,conflicts=2,"
                                 "escalate=false",
                     "--retry", "attempts=2,escalation=16",
                     "--format", "json"]) == 0
        [job] = json.loads(capsys.readouterr().out)["jobs"]
        assert job["status"] == "ok"
        assert [a["status"] for a in job["attempts"]] == ["unknown", "ok"]
        assert job["attempts"][1]["escalation"] == 16.0
        assert all("backoff" not in a for a in job["attempts"])

    @pytest.mark.parametrize("argv", [
        ["batch", "onto.gf", "--workload", "jobs.json",
         "--retry", "backoff=0.05"],
        ["serve", "--port", "0", "--retry", "jitter=0.1"],
    ])
    def test_unknown_retry_key_exits_two_naming_the_keys(self, argv, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --retry: unknown retry key" in err
        assert "attempts, escalation, crashes" in err
