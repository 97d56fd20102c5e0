"""The answer key a batch job computes from its text.

A batch job looks its answer up before it builds its instance or
compiles its plan (:func:`repro.serving.batch._execute_job`).  Its key
must be the one composed from the built objects,
``AnswerCache.key(fingerprint_omq(O, q), fingerprint_instance(
make_instance(*facts)))``, so the stores written that way keep hitting:
on the example corpus and chaos seeds, on Hypothesis fact lists and on
``data`` files.  A hit must answer as the compile-first path did, a
broken job must fail as it did, and a warm job must parse and compile
nothing.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_chase_relevance import CORPUS

import repro.serving.batch as batch
from repro.logic.instance import make_instance
from repro.logic.ontology import ontology
from repro.obs import Tracer
from repro.semantics.certain import CertainEngine
from repro.serving import AnswerCache, Job, clear_caches, evaluate_batch
from repro.serving.fingerprint import (
    fingerprint_facts, fingerprint_instance, fingerprint_omq,
)
from repro.serving.plan import parse_query
from repro.storage import open_backend

HANDS = ontology(
    "forall x (x = x -> (Hand(x) -> exists y (hasFinger(x,y) & Thumb(y))))\n"
    "forall x,y (hasFinger(x,y) -> Digit(y))", name="horn-hands")
QUERIES = ["q(x) <- hasFinger(x,y) & Thumb(y)", "q(y) <- Digit(y)",
           "q() <- Thumb(y)", "q(x) <- Hand(x)"]
#: A 24-job horn-hands batch; jobs 20-23 repeat jobs 0-3.
WORKLOAD = [Job(query=QUERIES[i % 4], facts=(f"Hand(h{i % 5})", "Arm(a)"),
                job_id=f"j{i}") for i in range(24)]

#: A stored answer no engine would give.
SENTINEL = {"verdict": "ok", "answers": [["stored"]],
            "outcome": {"verdict": "yes", "definitive": True,
                        "engine": "sentinel", "attempts": []}}


def composed_key(onto, query: str, facts) -> str:
    """The key composed from the parsed query and the built instance."""
    return AnswerCache.key(fingerprint_omq(onto, parse_query(query)),
                           fingerprint_instance(make_instance(*facts)))


def run(onto, job: Job, cache: AnswerCache | None, **options):
    return batch._execute_job(0, job, onto, None, {"compile": options},
                              cache)


def assert_served(onto, job: Job, facts) -> None:
    """*job* hits the sentinel stored under the composed key of *facts*
    (its facts as text, comments and blank lines dropped)."""
    assert (fingerprint_facts(batch._job_facts(job))
            == fingerprint_instance(make_instance(*facts)))
    cache = AnswerCache()
    cache.put(composed_key(onto, job.query, facts), SENTINEL)
    result = run(onto, job, cache)
    assert result.cache_hit and result.answers == (("stored",),), result


# -- the key oracle -------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_key_matches_the_composed_key_on_the_corpus(name):
    clear_caches()
    onto, jobs = CORPUS[name]
    for query, facts in jobs:
        assert_served(onto, Job(query=query, facts=tuple(facts)), facts)


_BLANK = st.sampled_from(["", " ", "  ", "\t"])
_NAME = st.text(alphabet="ab01_:()'*+ ", min_size=1, max_size=5).filter(
    str.strip)
#: predicate -> arity; predicate names may hold anything but "(" and ",".
_PREDS = {"Z": 0, "A": 1, "R": 2, "T": 3, "P'*+": 1, "Q )": 2}


@st.composite
def _fact(draw) -> str:
    pred = draw(st.sampled_from(sorted(_PREDS)))
    args = [draw(_BLANK) + draw(_NAME) + draw(_BLANK)
            for _ in range(_PREDS[pred])]
    return (draw(_BLANK) + pred + draw(_BLANK) + "(" + ",".join(args) + ")"
            + draw(_BLANK))


@st.composite
def _fact_lists(draw) -> list[str]:
    facts = draw(st.lists(_fact(), max_size=8))
    repeats = draw(st.lists(st.sampled_from(facts), max_size=4)) if facts \
        else []
    return draw(st.permutations(facts + repeats))


@settings(max_examples=150, deadline=None)
@given(facts=_fact_lists())
def test_key_matches_the_composed_key_on_generated_facts(facts):
    assert_served(HANDS, Job(query="q(x) <- A(x)", facts=tuple(facts)),
                  facts)


def test_key_matches_the_composed_key_on_a_data_file(tmp_path):
    data = tmp_path / "db.facts"
    data.write_text("# hands\nHand(h1)   # a trailing comment\n\n"
                    "   hasFinger( h1 , f1 )\n\t\nHand(h1)\n#Hand(h2)\n")
    assert_served(HANDS, Job(query=QUERIES[0], data=str(data)),
                  ["Hand(h1)", "hasFinger( h1 , f1 )", "Hand(h1)"])


@pytest.mark.parametrize("scheme", ["dir", "sqlite"])
def test_stores_keyed_by_the_composed_key_keep_hitting(tmp_path, scheme):
    uri = (f"dir:{tmp_path / 'tier'}" if scheme == "dir"
           else f"sqlite:{tmp_path / 'tier.db'}")
    with open_backend(uri) as backend:
        for job in WORKLOAD:
            backend.put(composed_key(HANDS, job.query, job.facts), SENTINEL)
    clear_caches()
    report = evaluate_batch(HANDS, WORKLOAD, cache_backend=uri)
    assert all(r.cache_hit and r.answers == (("stored",),)
               for r in report.results)


# -- parity with the compile-first path -------------------------------------


def test_a_hit_reports_what_the_evaluation_stored(no_ambient_faults):
    clear_caches()
    cache = AnswerCache()
    for job in WORKLOAD[:4]:
        cold = run(HANDS, job, cache).to_dict()
        warm = run(HANDS, job, cache).to_dict()
        assert not cold["cache_hit"]
        del cold["elapsed"], warm["elapsed"]
        assert warm == {**cold, "cache_hit": True, "path": "cache"}


@pytest.mark.parametrize("job, reason", [
    (Job(query=QUERIES[0], facts=("Hand(h1", )),
     "data: malformed fact 'Hand(h1'"),
    (Job(query=QUERIES[0], facts=("R(a,b)", "Hand(h)", "R(a)")),
     "data: arity clash for R: 2 vs 1"),
    (Job(query="q(x) <- ", facts=("Hand(h1",)),
     "data: malformed fact 'Hand(h1'"),
    (Job(query=QUERIES[0], data="/nonexistent/db.facts"),
     "data: [Errno 2] No such file or directory: '/nonexistent/db.facts'"),
    (Job(query="q(x) <- ", facts=("Hand(h1)",)),
     "query: answer variable x not in query body"),
    (Job(query="r(x) <- Hand(x)", facts=("Hand(h1)",)),
     "query: head must look like q(...), got 'r(x)'"),
    (Job(query="q(x) <- Hand(x", facts=("Hand(h1)",)),
     "query: malformed atom 'Hand(x'"),
])
@pytest.mark.parametrize("cached", [False, True])
def test_a_broken_job_fails_as_before(job, reason, cached):
    result = run(HANDS, job, AnswerCache() if cached else None)
    assert (result.status, result.verdict, result.reason) == (
        "error", "error", reason)


def test_preflight_still_lints_on_a_hit():
    onto = ontology("exists z (A(z) | B(z))")  # unguarded: OMQ001
    job = Job(query="q() <- A(x)", facts=("C(c)",))
    cache = AnswerCache()
    cache.put(composed_key(onto, job.query, job.facts), SENTINEL)
    assert run(onto, job, cache).cache_hit
    result = run(onto, job, cache, preflight=True)
    assert result.status == "error" and not result.cache_hit
    assert result.reason.startswith("query: 1 lint error(s): error OMQ001 ")


def test_the_chase_backend_still_refuses_an_unconvertible_ontology_on_a_hit():
    onto = ontology("forall x (x = x -> (A(x) | forall y (R(x,y) -> B(y))))")
    job = Job(query="q() <- B(x)", facts=("A(a)",))
    cache = AnswerCache()
    cache.put(composed_key(onto, job.query, job.facts), SENTINEL)
    assert run(onto, job, cache, backend="sat").cache_hit
    result = run(onto, job, cache, backend="chase")
    assert result.status == "error" and not result.cache_hit
    assert result.reason == ("query: ontology is not rule-convertible; "
                             "use backend='sat'")


def test_a_bound_relative_entry_is_recomputed(no_ambient_faults):
    clear_caches()
    job = WORKLOAD[3]  # q(x) <- Hand(x) over Hand(h3), Arm(a)
    key = composed_key(HANDS, job.query, job.facts)
    cache = AnswerCache()
    cache.put(key, {**SENTINEL, "outcome": {**SENTINEL["outcome"],
                                            "definitive": False}})
    result = run(HANDS, job, cache)
    assert not result.cache_hit and result.answers == (("h3",),)
    assert cache.get(key)["answers"] == [["h3"]]  # stored over it


# -- a warm hit does no work ------------------------------------------------


@pytest.mark.parametrize("workers", [1, 2])
def test_a_warm_hit_parses_and_compiles_nothing(tmp_path, monkeypatch,
                                                no_ambient_faults, workers):
    # Every cold answer must be definitive, hence stored: no truncation.
    uri = f"dir:{tmp_path / 'tier'}"
    clear_caches()
    cold = evaluate_batch(HANDS, WORKLOAD, workers=workers, cache_backend=uri)
    assert cold.ok
    clear_caches()

    # Worker processes fork with these patches and log to the same file.
    log = tmp_path / "calls.log"

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            with open(log, "a") as fh:
                fh.write(name + "\n")
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(batch, "make_instance",
                        counted("make_instance", batch.make_instance))
    monkeypatch.setattr(batch, "compile_omq",
                        counted("compile_omq", batch.compile_omq))
    monkeypatch.setattr(CertainEngine, "__init__",
                        counted("CertainEngine", CertainEngine.__init__))
    tracer = Tracer()
    warm = evaluate_batch(HANDS, WORKLOAD, workers=workers,
                          cache_backend=uri, tracer=tracer)
    assert all(r.cache_hit for r in warm.results)
    assert warm.signatures() == cold.signatures()
    assert (log.read_text().split() if log.exists() else []) == []
    names = [span["name"] for span in tracer.to_dicts()]
    assert names.count("batch.job") == len(WORKLOAD)
    assert "plan.compile" not in names and "chase" not in names
