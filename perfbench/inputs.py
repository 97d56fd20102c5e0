"""Seeded inputs, stratified over the generator's ontology classes.

``repro.chaos.generate_workload`` draws each workload's ontology from its
seed: 3 or 4 unary levels, and existential axioms on a nonempty subset of
the roles -- ten classes in all.  Their costs differ several-fold (a
4-level ontology with three existentials chases about ten times longer
than a 3-level one with one), so a workload built from a single seed
would mostly measure which class the seed drew.  Each workload therefore
holds one generated sub-workload per class it covers, with sub-seeds drawn
from the command-line seed: the ontology mix is the same in every run and
the seed decides the queries and instances.

The horn family is cheap to classify and, for a given seed, builds the
same ontology skeleton the disjunctive family does (the disjunctive one
adds a covering and a disjointness axiom), so classes are found by
scanning horn workloads; :func:`stratified` checks that every generated
sub-workload kept its class's skeleton.
"""

from __future__ import annotations

import random
import re
from typing import Any

from repro.chaos import SHAPES, WorkloadSpec, generate_workload
from repro.serving import Job
from repro.serving.fingerprint import digest

#: The seed every run draws its job panel from.  Within one ontology
#: class, per-job costs still vary several-fold with the drawn query and
#: instance; a run holds about a hundred jobs, and with panels drawn from
#: the run's seed the quartile spread of cold throughput across seeds was
#: 0.25-0.27.  The run's ``--seed`` orders the panel and, for serve,
#: decides the traffic (arrival times, jobset make-up, repeats).
PANEL_SEED = 2017


def class_count(levels: int) -> int:
    """Ontology classes with *levels* levels: nonempty subsets of the
    ``levels - 1`` roles that carry an existential axiom."""
    return 2 ** (levels - 1) - 1


def _levels(ontology_text: str) -> int:
    return 1 + max(int(i) for i in re.findall(r"\bA(\d+)\(", ontology_text))


def stratified(seed: int, spec: dict[str, Any], levels: tuple[int, ...],
               jobs: int, classes: int | None = None) -> list:
    """One generated workload per ontology class with *levels* levels.

    *spec* holds the ``WorkloadSpec`` knobs other than seed, shapes and
    jobs.  *classes* stops after that many classes (in the order the seed
    finds them); by default every class of those levels is covered.  The
    result is sorted by ontology text, and workload ``k`` cycles through
    the query shapes starting at shape ``k``, so short job slices still
    mix shapes.
    """
    want = classes or sum(class_count(n) for n in levels)
    rng = random.Random(seed)
    picked: dict[str, int] = {}
    for _ in range(4096):
        sub = rng.getrandbits(32)
        text = generate_workload(
            WorkloadSpec(seed=sub, family="horn", jobs=1)).ontology_text
        if _levels(text) in levels and text not in picked:
            picked[text] = sub
            if len(picked) == want:
                break
    else:
        raise RuntimeError(f"seed {seed}: found {len(picked)} of {want} "
                           f"ontology classes")
    out = []
    for k, (skeleton, sub) in enumerate(sorted(picked.items())):
        shapes = SHAPES[k % len(SHAPES):] + SHAPES[:k % len(SHAPES)]
        wl = generate_workload(
            WorkloadSpec(seed=sub, shapes=shapes, jobs=jobs, **spec))
        if not set(skeleton.splitlines()) <= set(wl.ontology_text.splitlines()):
            raise RuntimeError(f"sub-seed {sub}: generated ontology is not "
                               f"in its class:\n{wl.ontology_text}")
        out.append(wl)
    return out


def jobs_of(workload) -> list[Job]:
    return [Job(query=j["query"], facts=tuple(j["facts"]), job_id=j["id"])
            for j in workload.jobs]


def fingerprint(workloads) -> str:
    """One digest over the sub-workloads' ``GeneratedWorkload.fingerprint``."""
    return digest("|".join(wl.fingerprint for wl in workloads))
