"""repro.resilience — retries, quarantine and crash-safe resume for serving.

The dichotomy theorems (Thm. 7/8/11) guarantee that one workload mixes
PTIME-evaluable OMQs with coNP-hard ones, so under sustained traffic
individual jobs *will* exhaust budgets, crash workers or hang.  This
package treats those failures as first-class states instead of terminal
UNKNOWNs:

* :class:`RetryPolicy` — bounded attempts with per-attempt budget
  escalation (:meth:`repro.runtime.Budget.escalated`) and a crash
  threshold;
* :class:`Supervisor` — drives a set of jobs through attempts under a
  policy, re-dispatching transient (``unknown``) outcomes and crashes as
  the next wave at once (no wait: a retry's fresh budget, or a rebuilt
  pool, is what makes it worth running), and **quarantining** a job whose
  attempts keep killing their worker so the rest of the batch proceeds;
* :class:`PoolSupervisor` — a self-healing ``ProcessPoolExecutor``
  facade: rebuilds the pool after a ``BrokenProcessPool``, switches to
  single-in-flight *cautious* dispatch for exact poison attribution, and
  degrades to in-driver serial execution after too many consecutive pool
  deaths;
* :class:`Journal` — an append-only, corrupt-tail-tolerant JSONL journal
  of finished job results, so a batch killed mid-run resumes without
  recomputing completed work (``repro batch --journal FILE --resume``).

Surfaced by :func:`repro.serving.evaluate_batch` and the ``repro batch``
CLI; see ``docs/serving.md`` for the job-status lifecycle and
``docs/robustness.md`` for the ``kill:`` fault kind that makes all of
this deterministically testable.
"""

from .journal import Journal, JournalError, replay_journal
from .pool import PoolSupervisor
from .retry import RetryPolicy
from .supervisor import AttemptOutcome, AttemptRecord, Supervisor, Task

__all__ = [
    "AttemptOutcome", "AttemptRecord", "Journal", "JournalError",
    "PoolSupervisor", "RetryPolicy", "Supervisor", "Task",
    "replay_journal",
]
