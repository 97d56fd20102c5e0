"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``classify <ontology-file>`` — fragment, Figure-1 band and complexity
  verdict for an ontology (FO syntax, or DL with ``--dl``).
* ``evaluate`` (alias ``eval``) ``<ontology-file> <data-file> <query>`` —
  certain answers of a CQ/UCQ over a database given the ontology.
  ``--timeout``/``--budget`` bound the evaluation (see
  ``docs/robustness.md``); ``--format json`` adds the full outcome
  provenance (verdict, engine, fallback reason, escalation ladder,
  resources consumed).  Several queries can be evaluated against one
  engine in a single invocation via repeated ``-q/--query`` flags or
  ``--query-file`` (one query per line).
* ``batch <ontology-file> --workload jobs.json [--jobs N]`` — the serving
  layer: evaluate a JSON workload of (instance, query) jobs with compiled
  plans, answer caching (``--cache-backend URI`` or ``--cache-dir DIR``
  persists it) and an optional process pool; the report aggregates
  per-job outcomes and cache/latency stats (see ``docs/serving.md``).
  ``--retry SPEC`` re-dispatches transient failures and worker crashes
  at once under escalated budgets (repeat crashers are quarantined);
  ``--journal FILE`` records every finished job crash-safely and
  ``--resume`` replays it, so a killed batch picks up where it died.
* ``serve`` — the daemon behind a JSON HTTP API (see ``docs/serving.md``).
  It has no evaluation defaults of its own: a job set evaluates as under
  ``batch``, unless its submission's ``options`` set ``backend``,
  ``preflight``, ``chase_depth``, ``sat_extra`` or ``fastpath: auto``.
* ``consistent <ontology-file> <data-file>`` — consistency check (same
  ``--timeout``/``--budget``/``--format`` options).
* ``trace summarize <trace.jsonl>`` — analyze a JSONL trace written by
  ``evaluate``/``batch`` ``--trace FILE``: top spans by self-time plus
  per-engine and per-rung breakdowns (see ``docs/observability.md``).
* ``lint <ontology-file> [--data F] [--query Q] [--program F]`` — static
  analysis: report ``OMQ0xx`` diagnostics over the ontology and, when
  given, the data/query/Datalog artifacts (``--format json`` for tooling).
* ``analyze program (FILE | --ontology F --query Q)`` — the Datalog≠
  program analyzer (see ``docs/architecture.md``): dependency graph,
  strata, dead/subsumed rules, chosen join orders and the fast-path
  admissibility verdict, for a program file or for the Theorem-5
  rewriting of an (ontology, query) pair; ``--emit`` prints the optimized
  program.
* ``cache (stats | evict --older-than S | verify) BACKEND`` — inspect
  and maintain a shared answer-cache backend named by URI (``dir:PATH``
  or ``sqlite:PATH``; see ``docs/storage.md``).  ``verify`` checks that
  every ``dir:`` entry parses as JSON, re-hashes every ``sqlite:`` row
  against its stored digest, and exits 1 when any entry is corrupt.
* ``chaos generate`` / ``chaos run`` — the seeded workload generator and
  the invariant-checking chaos harness (``--seed N --profile
  smoke|batch|serve|all``; see ``docs/robustness.md``): everything is a
  pure function of the seed, so a CI failure replays locally from its
  seed alone.  ``run`` exits 1 on any invariant violation.
* ``figure1`` — print the Figure-1 classification map.
* ``bioportal`` — regenerate the corpus analysis.

Data files contain one fact per line (``R(a,b)``); ontology files one
sentence per line (``forall x,y (R(x,y) -> A(x))``), or DL axioms with
``--dl`` (``A sub some R B``).

Exit codes: 0 success (``lint``: no error-level diagnostics), 1 failure
(``lint``: at least one error-level diagnostic; ``consistent``:
inconsistent), 2 unreadable or unparseable input (``batch``: including
any job with broken input), 3 resource budget exhausted before a verdict
(the engine answered ``UNKNOWN`` rather than hanging or guessing;
``batch``: any job unknown or quarantined, e.g. budget exhaustion or a
worker crash).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .analysis import (
    Diagnostic, LintError, Severity, has_errors, lint_artifacts,
    render_json, render_text,
)
from .core.classify import classify_dl_ontology, classify_ontology
from .core.dichotomy import FIGURE_1
from .dl.parser import parse_dl_ontology
from .dl.translate import dl_to_ontology
from .logic.instance import make_instance
from .logic.ontology import Ontology, ontology
from .logic.parser import ParseError, parse_sentences_with_lines
from .obs import NULL_TRACER, Tracer
from .queries.cq import QueryError, parse_cq, parse_ucq
from .runtime import Budget, ResourceExhausted
from .semantics.certain import CertainEngine
from .serving.plan import BACKENDS, FASTPATH_MODES


class CliInputError(Exception):
    """Unreadable or unparseable input; rendered as one line, exit code 2."""


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise CliInputError(f"{path}: {exc.strerror or exc}") from exc


def _load_ontology(path: str, dl: bool) -> Ontology:
    text = _read_text(path)
    try:
        if dl:
            return dl_to_ontology(parse_dl_ontology(text, name=Path(path).stem))
        return ontology(text, name=Path(path).stem)
    except (ParseError, ValueError) as exc:
        raise CliInputError(f"{path}: {exc}") from exc


def _load_instance(path: str):
    lines = [
        line.split("#", 1)[0].strip()
        for line in _read_text(path).splitlines()
    ]
    try:
        return make_instance(*(line for line in lines if line))
    except ValueError as exc:
        raise CliInputError(f"{path}: {exc}") from exc


def _parse_query(text: str):
    try:
        return parse_ucq(text) if ";" in text else parse_cq(text)
    except QueryError as exc:
        raise CliInputError(f"query: {exc}") from exc


def cmd_classify(args: argparse.Namespace) -> int:
    if args.dl:
        try:
            tbox = parse_dl_ontology(_read_text(args.ontology),
                                     name=Path(args.ontology).stem)
        except ValueError as exc:
            raise CliInputError(f"{args.ontology}: {exc}") from exc
        result = classify_dl_ontology(tbox, check_mat=not args.no_mat)
    else:
        onto = _load_ontology(args.ontology, dl=False)
        result = classify_ontology(onto, check_mat=not args.no_mat)
    print(result.summary())
    if result.materializability and result.materializability.witness:
        print(f"witness  : {result.materializability.witness}")
    return 0


def _build_budget(args: argparse.Namespace) -> Budget | None:
    """The budget from ``--timeout``/``--budget``; None when neither given."""
    spec = getattr(args, "budget", None)
    timeout = getattr(args, "timeout", None)
    if spec is None and timeout is None:
        return None
    try:
        budget = Budget.from_spec(spec) if spec else Budget()
    except ValueError as exc:
        raise CliInputError(f"--budget: {exc}") from exc
    if timeout is not None:
        if timeout <= 0:
            raise CliInputError("--timeout must be positive")
        budget.timeout = timeout
        budget.deadline = budget._start + timeout
    return budget


def _retry_policy(spec: str):
    """The ``--retry`` argument type: a bad spec is a usage error (exit
    2) that names the accepted keys."""
    from .resilience import RetryPolicy

    try:
        return RetryPolicy.from_spec(spec)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _build_tracer(args: argparse.Namespace) -> Tracer:
    """An enabled tracer when ``--trace FILE`` was given, else the no-op."""
    if getattr(args, "trace", None):
        return Tracer()
    return NULL_TRACER


def _export_trace(args: argparse.Namespace, tracer: Tracer) -> None:
    """Write the trace (one shot, even after budget-exhausted runs)."""
    path = getattr(args, "trace", None)
    if not path or not tracer.enabled:
        return
    try:
        count = tracer.export(path)
    except OSError as exc:
        raise CliInputError(f"--trace {path}: {exc.strerror or exc}") from exc
    print(f"trace: {count} span(s) written to {path}", file=sys.stderr)


def _print_exhausted(args: argparse.Namespace, exc: ResourceExhausted) -> int:
    """Render an UNKNOWN(resource_exhausted) outcome; exit code 3."""
    if getattr(args, "format", "text") == "json":
        import json
        print(json.dumps({"verdict": "unknown",
                          "outcome": exc.outcome.to_dict()}, indent=2))
    else:
        print(f"unknown: {exc.outcome.reason}", file=sys.stderr)
    return 3


def _gather_queries(args: argparse.Namespace) -> list[str]:
    """All query texts of one ``evaluate`` invocation, in argument order."""
    queries: list[str] = []
    if args.query is not None:
        queries.append(args.query)
    queries.extend(args.queries or [])
    if args.query_file:
        for raw in _read_text(args.query_file).splitlines():
            line = raw.split("#", 1)[0].strip()
            if line:
                queries.append(line)
    if not queries:
        raise CliInputError(
            "no query given (positional, -q/--query or --query-file)")
    return queries


def cmd_evaluate(args: argparse.Namespace) -> int:
    query_texts = _gather_queries(args)
    onto = _load_ontology(args.ontology, args.dl)
    data = _load_instance(args.data)
    parsed = [_parse_query(text) for text in query_texts]
    # One engine for the whole invocation: lint preflight and rule
    # conversion happen once however many queries follow.
    engine = CertainEngine(onto, **_evaluation_options(args))
    budget = _build_budget(args)
    tracer = _build_tracer(args)
    with tracer.activate():
        if len(parsed) == 1:
            code = _evaluate_one(args, engine, data, query_texts[0],
                                 parsed[0], budget)
        else:
            code = _evaluate_many(args, engine, data, query_texts, parsed,
                                  budget)
    # Exported after evaluation — an exit-3 (budget exhausted) run still
    # yields a complete trace with its failed spans.
    _export_trace(args, tracer)
    return code


def _evaluate_one(args, engine, data, query_text, query, budget) -> int:
    """The classic single-query path (output and exit codes unchanged)."""
    try:
        if query.arity == 0:
            holds = engine.entails(data, query, (), budget=budget)
            answers: list[tuple] = []
        else:
            answers = sorted(
                engine.certain_answers(data, query, budget=budget), key=repr)
    except ResourceExhausted as exc:
        return _print_exhausted(args, exc)
    outcome = engine.last_outcome
    if args.format == "json":
        import json
        payload: dict[str, object] = {
            "query": query_text,
            "outcome": outcome.to_dict() if outcome is not None else None,
        }
        if query.arity == 0:
            payload["verdict"] = "yes" if holds else "no"
        else:
            payload["answers"] = [[repr(e) for e in a] for a in answers]
        print(json.dumps(payload, indent=2))
    elif query.arity == 0:
        print(f"certain: {holds}")
    else:
        print(f"{len(answers)} certain answer(s):")
        for answer in answers:
            print("  " + ", ".join(repr(e) for e in answer))
    return 0


def _evaluate_many(args, engine, data, query_texts, parsed, budget) -> int:
    """Several queries against one engine; a shared budget bounds them all."""
    exit_code = 0
    payloads: list[dict[str, object]] = []
    for query_text, query in zip(query_texts, parsed):
        if args.format != "json":
            print(f"query: {query_text}")
        try:
            if query.arity == 0:
                holds = engine.entails(data, query, (), budget=budget)
                answers: list[tuple] = []
            else:
                answers = sorted(
                    engine.certain_answers(data, query, budget=budget),
                    key=repr)
        except ResourceExhausted as exc:
            exit_code = 3
            payloads.append({"query": query_text, "verdict": "unknown",
                             "outcome": exc.outcome.to_dict()})
            if args.format != "json":
                print(f"unknown: {exc.outcome.reason}", file=sys.stderr)
            continue
        outcome = engine.last_outcome
        payload: dict[str, object] = {
            "query": query_text,
            "outcome": outcome.to_dict() if outcome is not None else None,
        }
        if query.arity == 0:
            payload["verdict"] = "yes" if holds else "no"
            if args.format != "json":
                print(f"certain: {holds}")
        else:
            payload["answers"] = [[repr(e) for e in a] for a in answers]
            if args.format != "json":
                print(f"{len(answers)} certain answer(s):")
                for answer in answers:
                    print("  " + ", ".join(repr(e) for e in answer))
        payloads.append(payload)
    if args.format == "json":
        import json
        print(json.dumps({"queries": payloads}, indent=2))
    return exit_code


def _evaluation_options(args: argparse.Namespace) -> dict:
    """The evaluation flags given (the rest keep the library defaults)."""
    return {key: value for key, value in vars(args).items()
            if key in ("backend", "preflight", "fastpath")}


def _resolve_cache_backend(args: argparse.Namespace) -> str | None:
    """The durable-tier URI: ``--cache-backend`` (or ``--cache-dir``),
    else ``REPRO_CACHE_BACKEND`` — an explicit flag always wins."""
    from .storage import default_backend_uri

    if args.cache_backend is not None:
        return args.cache_backend
    return default_backend_uri()


def cmd_batch(args: argparse.Namespace) -> int:
    from .serving import evaluate_batch, load_workload
    from .storage import StorageError

    if args.jobs < 1:
        raise CliInputError("--jobs must be at least 1")
    if args.resume and not args.journal:
        raise CliInputError("--resume requires --journal FILE")
    cache_backend = _resolve_cache_backend(args)
    onto = _load_ontology(args.ontology, args.dl)
    try:
        jobs = load_workload(args.workload)
    except ValueError as exc:
        raise CliInputError(str(exc)) from exc
    budget = _build_budget(args)
    tracer = _build_tracer(args)
    try:
        report = evaluate_batch(
            onto, jobs, workers=args.jobs, budget=budget,
            cache_backend=cache_backend,
            tracer=tracer, retry=args.retry,
            journal=args.journal, resume=args.resume,
            **_evaluation_options(args))
    except (ValueError, StorageError) as exc:
        # Journal/ontology mismatch, a bad backend URI and friends:
        # bad input, not a crash.
        raise CliInputError(str(exc)) from exc
    _export_trace(args, tracer)
    if args.format == "json":
        import json
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render_text())
    if any(r.status == "error" for r in report.results):
        return 2
    return 0 if report.ok else 3


def cmd_serve(args: argparse.Namespace) -> int:
    """The long-lived serving daemon (see docs/serving.md).

    Binds, prints one parseable ``listening on http://host:port`` line,
    then runs until SIGTERM/SIGINT — which trigger a graceful drain:
    admission starts refusing with 503, accepted job sets finish (or are
    journaled for ``--resume``), and the process exits 0.
    """
    import signal
    import threading

    from .server import ReproServer
    from .storage import StorageError

    if args.workers < 1:
        raise CliInputError("--workers must be at least 1")
    if args.resume and not args.journal:
        raise CliInputError("--resume requires --journal FILE")
    cache_backend = _resolve_cache_backend(args)
    try:
        server = ReproServer(
            host=args.host, port=args.port, workers=args.workers,
            journal=args.journal, resume=args.resume,
            cache_backend=cache_backend, retry=args.retry,
            max_queued_jobs=args.max_queue, high_water=args.high_water,
            wedge_timeout=args.wedge_timeout)
    except StorageError as exc:
        raise CliInputError(str(exc)) from exc
    try:
        server.start()
    except OSError as exc:
        raise CliInputError(
            f"cannot bind {args.host}:{args.port}: "
            f"{exc.strerror or exc}") from exc

    shutdown = threading.Event()

    def _on_signal(signum, _frame):
        print(f"signal {signal.Signals(signum).name}: draining",
              file=sys.stderr, flush=True)
        shutdown.set()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    print(f"listening on http://{server.host}:{server.port}", flush=True)
    shutdown.wait()
    server.begin_drain()
    drained = server.drain(timeout=args.drain_timeout)
    server.stop()
    if not drained:
        print(f"drain timed out after {args.drain_timeout}s; "
              f"unfinished job sets are journaled for --resume",
              file=sys.stderr)
        return 1
    print("drained cleanly", file=sys.stderr)
    return 0


def cmd_consistent(args: argparse.Namespace) -> int:
    onto = _load_ontology(args.ontology, args.dl)
    data = _load_instance(args.data)
    engine = CertainEngine(onto, **_evaluation_options(args))
    budget = _build_budget(args)
    tracer = _build_tracer(args)
    try:
        with tracer.activate():
            consistent = engine.is_consistent(data, budget=budget)
    except ResourceExhausted as exc:
        _export_trace(args, tracer)
        return _print_exhausted(args, exc)
    _export_trace(args, tracer)
    if args.format == "json":
        import json
        outcome = engine.last_outcome
        print(json.dumps({
            "verdict": "yes" if consistent else "no",
            "outcome": outcome.to_dict() if outcome is not None else None,
        }, indent=2))
    else:
        print(f"consistent: {consistent}")
    return 0 if consistent else 1


def _lint_data_sigs(path: str) -> list[tuple[str, int]]:
    """Every (pred, arity) pair occurring in the data file."""
    pairs: set[tuple[str, int]] = set()
    for lineno, raw in enumerate(_read_text(path).splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        pred, _, rest = line.partition("(")
        if not rest.endswith(")"):
            raise CliInputError(f"{path}: line {lineno}: malformed fact {line!r}")
        args = [a for a in rest[:-1].split(",") if a.strip()]
        pairs.add((pred.strip(), len(args)))
    return sorted(pairs)


def cmd_lint(args: argparse.Namespace) -> int:
    sources = {"ontology": args.ontology}
    if args.dl:
        onto = _load_ontology(args.ontology, dl=True)
        sentences = list(onto.sentences)
        functional = onto.functional | onto.inverse_functional
        lines = None
    else:
        text = _read_text(args.ontology)
        try:
            parsed = parse_sentences_with_lines(text)
        except ParseError as exc:
            raise CliInputError(f"{args.ontology}: {exc}") from exc
        sentences = [phi for phi, _ in parsed]
        lines = [line for _, line in parsed]
        functional = frozenset()

    data_sig: dict[str, int] | None = None
    diags: list[Diagnostic] = []
    if args.data:
        sources["data"] = args.data
        data_sig = {}
        for pred, arity in _lint_data_sigs(args.data):
            if pred in data_sig and data_sig[pred] != arity:
                diags.append(Diagnostic(
                    "OMQ003", Severity.ERROR,
                    f"predicate {pred} occurs at arities {data_sig[pred]} "
                    f"and {arity} in the data",
                    source=args.data))
            data_sig.setdefault(pred, arity)
    query_text = args.query or None
    if query_text is not None:
        sources["query"] = "query"
    program_text = None
    if args.program:
        sources["program"] = args.program
        program_text = _read_text(args.program)

    diags += lint_artifacts(sentences, functional, data_sig, query_text,
                            program_text, sources, lines=lines)

    if args.format == "json":
        print(render_json(diags))
    else:
        print(render_text(diags))
    return 1 if has_errors(diags) else 0


def cmd_analyze_program(args: argparse.Namespace) -> int:
    from .analysis.program import (
        analyze_program, optimize_program, render_analysis,
    )
    from .datalog.program import parse_program

    if args.program_file:
        if args.ontology or args.query:
            raise CliInputError(
                "give either a program FILE or --ontology/--query, not both")
        try:
            program = parse_program(_read_text(args.program_file),
                                    goal=args.goal)
        except ValueError as exc:
            raise CliInputError(f"{args.program_file}: {exc}") from exc
    elif args.ontology and args.query:
        from .core.rewriting import TypeRewriting

        onto = _load_ontology(args.ontology, args.dl)
        query = _parse_query(args.query)
        try:
            rewriting = TypeRewriting(onto, query)
            program, _meta = rewriting.to_datalog_program_with_meta()
        except ValueError as exc:
            raise CliInputError(f"rewriting: {exc}") from exc
    else:
        raise CliInputError(
            "analyze program needs a program FILE or --ontology F --query Q")

    result = optimize_program(program)
    if args.format == "json":
        import json
        payload = result.to_dict()
        payload["optimized_report"] = analyze_program(
            result.program).to_dict()
        if args.emit:
            payload["optimized_program"] = [
                repr(r) for r in result.program.rules]
        print(json.dumps(payload, indent=2))
    else:
        print(render_analysis(program, result))
        if args.emit:
            print("optimized program:")
            for rule in result.program.rules:
                print(f"  {rule!r}")
    return 0


def cmd_trace_summarize(args: argparse.Namespace) -> int:
    from .obs import load_trace, render_summary, summarize_spans

    try:
        spans = load_trace(args.trace_file)
    except OSError as exc:
        raise CliInputError(
            f"{args.trace_file}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        raise CliInputError(str(exc)) from exc
    summary = summarize_spans(spans)
    if args.format == "json":
        import json
        print(json.dumps(summary, indent=2))
    else:
        print(render_summary(summary, top=args.top))
    return 0


def _render_stats_text(stats: dict, indent: str = "") -> list[str]:
    lines: list[str] = []
    for name in sorted(stats):
        value = stats[name]
        if isinstance(value, dict):
            lines.append(f"{indent}{name}:")
            lines.extend(_render_stats_text(value, indent + "  "))
        else:
            lines.append(f"{indent}{name:<14} {value}")
    return lines


def cmd_cache(args: argparse.Namespace) -> int:
    """``repro cache stats|evict|verify`` over one storage backend."""
    from .storage import (
        StorageError, backend_exists, open_backend, parse_backend_uri,
    )

    try:
        if not backend_exists(args.backend_uri):
            # A store that was never created: report it empty instead of
            # creating it as a side effect of asking (stats/evict/verify
            # are read-only questions) or failing on the missing path.
            scheme, path, _ = parse_backend_uri(args.backend_uri)
            if args.cache_command == "stats":
                empty = {"backend": scheme, "entries": 0, "hits": 0,
                         "misses": 0, "tripped": False, "exists": False}
                if args.format == "json":
                    import json
                    print(json.dumps(empty, indent=2, sort_keys=True))
                else:
                    print("\n".join(_render_stats_text(empty)))
            elif args.cache_command == "evict":
                if args.older_than < 0:
                    raise CliInputError("--older-than must be >= 0 seconds")
                print("evicted 0 entries (no store at "
                      f"{path})")
            else:
                print("ok: 0 entries verified (no store at "
                      f"{path})")
            return 0
        backend = open_backend(args.backend_uri)
    except StorageError as exc:
        raise CliInputError(str(exc)) from exc
    try:
        if args.cache_command == "stats":
            stats = backend.stats()
            if args.format == "json":
                import json
                print(json.dumps(stats, indent=2, sort_keys=True))
            else:
                print("\n".join(_render_stats_text(stats)))
            return 0
        if args.cache_command == "evict":
            if args.older_than < 0:
                raise CliInputError("--older-than must be >= 0 seconds")
            evicted = backend.evict_older_than(args.older_than)
            print(f"evicted {evicted} entr{'y' if evicted == 1 else 'ies'} "
                  f"not used in {args.older_than:g}s")
            return 0
        # verify: dir: entries must parse, sqlite: rows must match their
        # stored digests.
        corrupt = backend.verify()
        total = sum(1 for _ in backend.scan())
        for key in corrupt:
            print(f"corrupt: {key}")
        if corrupt:
            print(f"{len(corrupt)} of {total} entr"
                  f"{'y is' if total == 1 else 'ies are'} corrupt")
            return 1
        print(f"ok: {total} entr{'y' if total == 1 else 'ies'} verified")
        return 0
    finally:
        backend.close()


def cmd_chaos(args: argparse.Namespace) -> int:
    """``repro chaos generate|run`` (see docs/robustness.md)."""
    import json

    from .chaos import ChaosDriver, WorkloadSpec, generate_workload
    from .chaos.generate import GenerationError

    if args.chaos_command == "generate":
        try:
            generated = generate_workload(WorkloadSpec(
                seed=args.seed, family=args.family, jobs=args.jobs,
                instance_size=args.instance_size,
                domain_size=args.domain_size,
                inconsistency_rate=args.inconsistency))
        except GenerationError as exc:
            raise CliInputError(str(exc)) from exc
        if args.out:
            paths = generated.write(args.out)
            print(f"wrote {generated.family} workload "
                  f"({generated.verdict}, {len(generated.jobs)} jobs, "
                  f"fingerprint {generated.fingerprint[:12]}) to "
                  f"{paths['manifest']}")
        else:
            print(json.dumps(generated.to_dict(), indent=2))
        return 0
    try:
        driver = ChaosDriver(seed=args.seed, profile=args.profile,
                             jobs=args.jobs, workdir=args.workdir,
                             keep=args.keep)
    except ValueError as exc:
        raise CliInputError(str(exc)) from exc
    log = None
    if args.format == "text":
        log = lambda message: print(message, file=sys.stderr)  # noqa: E731
    report = driver.run(log=log)
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render_text())
    return 0 if report.ok else 1


def cmd_figure1(_args: argparse.Namespace) -> int:
    print(f"{'fragment':<18} {'band':<14} {'source':<22} note")
    for entry in FIGURE_1:
        print(f"{entry.name:<18} {entry.status.name:<14} "
              f"{entry.theorem:<22} {entry.note}")
    return 0


def cmd_bioportal(args: argparse.Namespace) -> int:
    from .bioportal import analyze_corpus, generate_corpus

    corpus = generate_corpus()
    report = analyze_corpus(corpus)
    for description, count, total in report.rows():
        print(f"{description:<45} {count:>3}/{total}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Ontology-mediated querying with the guarded fragment "
                    "(PODS 2017 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="classify an ontology")
    p_classify.add_argument("ontology")
    p_classify.add_argument("--dl", action="store_true",
                            help="parse the file as DL axioms")
    p_classify.add_argument("--no-mat", action="store_true",
                            help="skip the materializability search")
    p_classify.set_defaults(func=cmd_classify)

    def add_budget_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--timeout", type=float, metavar="SECONDS",
                       help="wall-clock deadline; exit code 3 when exceeded")
        p.add_argument("--budget", metavar="SPEC",
                       help="resource budget, e.g. "
                            "'timeout=0.5,conflicts=10000,chase_steps=5000'")
        p.add_argument("--format", choices=["text", "json"], default="text",
                       help="json includes the outcome provenance")
        p.add_argument("--trace", metavar="FILE",
                       help="write a hierarchical JSONL trace of the "
                            "evaluation (inspect with 'repro trace "
                            "summarize FILE')")

    def add_evaluation_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--backend", choices=BACKENDS,
                       default=argparse.SUPPRESS, help="default auto")
        p.add_argument("--preflight", action="store_true",
                       default=argparse.SUPPRESS, help="lint the input first")

    def add_retry_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--retry", metavar="SPEC", type=_retry_policy,
                       help="retry policy, e.g. "
                            "'attempts=3,escalation=2,crashes=3' (keys: "
                            "attempts, escalation, crashes); a job that ran "
                            "out of budget or crashed reruns at once under a "
                            "fresh escalated budget, a repeat crasher is "
                            "quarantined")

    def add_cache_args(p: argparse.ArgumentParser) -> None:
        # One setting, two spellings: --cache-dir DIR is --cache-backend
        # dir:DIR, and giving both is a usage error (exit 2).
        group = p.add_mutually_exclusive_group()
        group.add_argument("--cache-dir", metavar="DIR", dest="cache_backend",
                           type=lambda path: f"dir:{path}",
                           help="on-disk answer cache (same as "
                                "--cache-backend dir:DIR)")
        group.add_argument("--cache-backend", metavar="URI",
                           help="durable answer-cache backend shared across "
                                "invocations and worker processes: dir:PATH "
                                "or sqlite:PATH[?max_bytes=N&ttl=S] (see "
                                "docs/storage.md; default: "
                                "$REPRO_CACHE_BACKEND)")

    p_eval = sub.add_parser("evaluate", aliases=["eval"],
                            help="compute certain answers")
    p_eval.add_argument("ontology")
    p_eval.add_argument("data")
    p_eval.add_argument("query", nargs="?", default=None,
                        help='e.g. "q(x) <- R(x,y) & A(y)" '
                             '(";"-separated disjuncts for a UCQ)')
    p_eval.add_argument("-q", "--query", dest="queries", action="append",
                        metavar="QUERY",
                        help="additional query; repeatable — all queries "
                             "share one engine and budget")
    p_eval.add_argument("--query-file", metavar="FILE",
                        help="file with one query per line (#-comments ok)")
    p_eval.add_argument("--dl", action="store_true")
    add_evaluation_args(p_eval)
    add_budget_args(p_eval)
    p_eval.set_defaults(func=cmd_evaluate)

    p_batch = sub.add_parser(
        "batch", help="evaluate a JSON workload with compiled plans "
                      "(serving layer; see docs/serving.md)")
    p_batch.add_argument("ontology")
    p_batch.add_argument("--workload", required=True, metavar="FILE",
                         help='JSON list of jobs: {"query": ..., '
                              '"data": facts-file or "facts": [...]}')
    p_batch.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="worker processes (default 1: in-process)")
    p_batch.add_argument("--dl", action="store_true")
    add_evaluation_args(p_batch)
    add_retry_args(p_batch)
    p_batch.add_argument("--journal", metavar="FILE",
                         help="append-only JSONL journal of finished jobs "
                              "(crash-safe; one line per result)")
    p_batch.add_argument("--resume", action="store_true",
                         help="replay results already in --journal FILE "
                              "instead of recomputing them")
    add_cache_args(p_batch)
    p_batch.add_argument("--fastpath", choices=FASTPATH_MODES,
                         default=argparse.SUPPRESS,
                         help="compile statically-verified datalog-fastpath "
                              "plans for PTIME-classified OMQs (auto: gate "
                              "on the Figure-1 DICHOTOMY band + Horn; "
                              "default off)")
    add_budget_args(p_batch)
    p_batch.set_defaults(func=cmd_batch)

    p_serve = sub.add_parser(
        "serve", help="long-lived serving daemon: JSON HTTP API with "
                      "admission control, backpressure and graceful "
                      "drain (see docs/serving.md)",
        description="A job set evaluates as under 'repro batch', unless "
                    "its submission's options set backend, preflight, "
                    "chase_depth, sat_extra, fastpath (off, auto) or a "
                    "budget; a value compile_omq refuses gets 400.")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=0, metavar="PORT",
                         help="0 picks a free port (printed on stdout)")
    p_serve.add_argument("--workers", type=int, default=1, metavar="N",
                         help="worker processes kept warm across requests "
                              "(default 1: in-process evaluation)")
    p_serve.add_argument("--journal", metavar="FILE",
                         help="crash-safe JSONL journal of accepted "
                              "submissions and finished jobs")
    p_serve.add_argument("--resume", action="store_true",
                         help="replay --journal FILE on startup: journaled "
                              "job sets are re-created, finished jobs are "
                              "not recomputed")
    add_cache_args(p_serve)
    add_retry_args(p_serve)
    p_serve.add_argument("--max-queue", type=int, default=256, metavar="JOBS",
                         help="admission queue capacity in jobs "
                              "(default 256); beyond it submissions get 429")
    p_serve.add_argument("--high-water", type=float, default=0.5,
                         metavar="FRACTION",
                         help="queue fraction above which hard-band "
                              "(potentially-coNP) submissions are shed "
                              "while PTIME-band traffic still flows "
                              "(default 0.5)")
    p_serve.add_argument("--drain-timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="give up the graceful drain after this long "
                              "(default: wait for all accepted work)")
    p_serve.add_argument("--wedge-timeout", type=float, default=60.0,
                         metavar="SECONDS",
                         help="watchdog: kill and rebuild the worker pool "
                              "after this long without progress "
                              "(default 60)")
    p_serve.set_defaults(func=cmd_serve)

    p_cons = sub.add_parser("consistent", help="check consistency")
    p_cons.add_argument("ontology")
    p_cons.add_argument("data")
    p_cons.add_argument("--dl", action="store_true")
    add_evaluation_args(p_cons)
    add_budget_args(p_cons)
    p_cons.set_defaults(func=cmd_consistent)

    p_lint = sub.add_parser(
        "lint", help="static analysis: OMQ0xx diagnostics")
    p_lint.add_argument("ontology")
    p_lint.add_argument("--dl", action="store_true",
                        help="parse the ontology as DL axioms")
    p_lint.add_argument("--data", help="fact file to cross-check")
    p_lint.add_argument("--query", help="CQ/UCQ text to cross-check")
    p_lint.add_argument("--program", help="Datalog(≠) program file to lint")
    p_lint.add_argument("--format", choices=["text", "json"], default="text")
    p_lint.set_defaults(func=cmd_lint)

    p_analyze = sub.add_parser(
        "analyze", help="static program analysis (see docs/architecture.md)")
    analyze_sub = p_analyze.add_subparsers(dest="analyze_command",
                                           required=True)
    p_aprog = analyze_sub.add_parser(
        "program", help="dependency graph, strata, dead rules, join orders "
                        "and the fast-path admissibility verdict")
    p_aprog.add_argument("program_file", nargs="?", default=None,
                         metavar="FILE",
                         help="Datalog(≠) program file (one rule per line)")
    p_aprog.add_argument("--ontology", metavar="FILE",
                         help="analyze the Theorem-5 rewriting of this "
                              "ontology (with --query) instead of a file")
    p_aprog.add_argument("--query", metavar="QUERY",
                         help="unary CQ for the rewriting, e.g. "
                              '"q(x) <- A(x)"')
    p_aprog.add_argument("--dl", action="store_true",
                         help="parse --ontology as DL axioms")
    p_aprog.add_argument("--goal", default="goal",
                         help="goal relation of a program FILE "
                              "(default: goal)")
    p_aprog.add_argument("--emit", action="store_true",
                         help="also print the optimized program")
    p_aprog.add_argument("--format", choices=["text", "json"],
                         default="text")
    p_aprog.set_defaults(func=cmd_analyze_program)

    p_trace = sub.add_parser(
        "trace", help="inspect JSONL traces written by --trace "
                      "(see docs/observability.md)")
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_tsum = trace_sub.add_parser(
        "summarize", help="top spans by self-time, per-engine and "
                          "per-rung breakdowns")
    p_tsum.add_argument("trace_file")
    p_tsum.add_argument("--top", type=int, default=10, metavar="N",
                        help="rows in the top-spans table (default 10)")
    p_tsum.add_argument("--format", choices=["text", "json"], default="text")
    p_tsum.set_defaults(func=cmd_trace_summarize)

    p_cache = sub.add_parser(
        "cache", help="inspect and maintain a shared answer-cache backend "
                      "(see docs/storage.md)")
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)

    def add_backend_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument("backend_uri", metavar="BACKEND",
                       help="backend URI: dir:PATH or sqlite:PATH (a "
                            "bare path means dir:)")

    p_cstats = cache_sub.add_parser(
        "stats", help="entry count and hit/miss/error accounting")
    add_backend_arg(p_cstats)
    p_cstats.add_argument("--format", choices=["text", "json"],
                          default="text")
    p_cstats.set_defaults(func=cmd_cache)
    p_cevict = cache_sub.add_parser(
        "evict", help="drop entries not used recently")
    add_backend_arg(p_cevict)
    p_cevict.add_argument("--older-than", type=float, required=True,
                          metavar="SECONDS",
                          help="evict entries not used in this many seconds")
    p_cevict.set_defaults(func=cmd_cache)
    p_cverify = cache_sub.add_parser(
        "verify", help="check every entry (dir: parses each file as JSON, "
                       "sqlite: re-hashes each row against its stored "
                       "digest); exit 1 when any entry is corrupt")
    add_backend_arg(p_cverify)
    p_cverify.set_defaults(func=cmd_cache)

    p_chaos = sub.add_parser(
        "chaos", help="seeded workload generation and invariant-checking "
                      "chaos runs (see docs/robustness.md)")
    chaos_sub = p_chaos.add_subparsers(dest="chaos_command", required=True)
    p_cgen = chaos_sub.add_parser(
        "generate", help="generate a seeded repro-batch workload (band "
                         "verified through the classifier)")
    p_cgen.add_argument("--seed", type=int, required=True,
                        help="the seed; everything is a pure function of it")
    p_cgen.add_argument("--family", choices=["horn", "disjunctive", "mixed"],
                        default="mixed",
                        help="ontology family: horn (PTIME, "
                             "fastpath-eligible), disjunctive (coNP-hard, "
                             "supports inconsistency injection), or mixed "
                             "(the seed decides)")
    p_cgen.add_argument("--jobs", type=int, default=12,
                        help="jobs per workload (default 12)")
    p_cgen.add_argument("--instance-size", type=int, default=10,
                        metavar="FACTS", help="facts per instance")
    p_cgen.add_argument("--domain-size", type=int, default=6,
                        metavar="CONSTS", help="distinct constants")
    p_cgen.add_argument("--inconsistency", type=float, default=0.0,
                        metavar="RATE",
                        help="probability a job's instance is made "
                             "inconsistent (disjunctive family only)")
    p_cgen.add_argument("--out", metavar="DIR",
                        help="write ontology.gf + workload.json + "
                             "manifest.json here instead of printing")
    p_cgen.set_defaults(func=cmd_chaos)
    p_crun = chaos_sub.add_parser(
        "run", help="run a chaos profile: seeded workloads under seeded "
                    "fault schedules, invariants checked per episode; "
                    "exit 1 on any violation")
    p_crun.add_argument("--seed", type=int, required=True,
                        help="the seed; same seed, same workloads, same "
                             "fault schedule, same deterministic report")
    p_crun.add_argument("--profile", choices=["smoke", "batch", "serve",
                                              "all"],
                        default="smoke",
                        help="episode set (default smoke; see "
                             "docs/robustness.md for the episode table)")
    p_crun.add_argument("--jobs", type=int, default=8,
                        help="jobs per generated workload (default 8)")
    p_crun.add_argument("--workdir", metavar="DIR",
                        help="working directory (kept afterwards; default: "
                             "a temp dir, removed unless --keep)")
    p_crun.add_argument("--keep", action="store_true",
                        help="keep the temp workdir for post-mortems")
    p_crun.add_argument("--format", choices=["text", "json"],
                        default="text")
    p_crun.set_defaults(func=cmd_chaos)

    p_fig = sub.add_parser("figure1", help="print the Figure-1 map")
    p_fig.set_defaults(func=cmd_figure1)

    p_bio = sub.add_parser("bioportal", help="run the corpus analysis")
    p_bio.set_defaults(func=cmd_bioportal)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LintError as exc:
        print("error: pre-flight lint failed:", file=sys.stderr)
        print(render_text(exc.diagnostics), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
