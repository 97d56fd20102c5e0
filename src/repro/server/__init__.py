"""repro.server — the long-lived, overload-safe serving daemon.

``repro serve`` wraps the batch-serving layer (:mod:`repro.serving`) and
the fault-tolerance layer (:mod:`repro.resilience`) in a JSON HTTP API
that stays up: plans and caches warm across requests, admission control
with band-aware load shedding (the paper's Figure-1 dichotomy as a
static cost signal — under pressure, potentially-coNP work is shed
first while PTIME-band traffic keeps flowing), per-request deadlines,
graceful SIGTERM drain, a watchdog for wedged worker pools, and a
crash-safe journal so a SIGKILLed daemon restarted with ``--journal
--resume`` serves the same final reports.

* :mod:`~repro.server.admission` — :class:`AdmissionController`, which
  refuses only while draining, on a full queue, or hard-band work above
  high water (re-exported here with
  :func:`~repro.serving.plan.classify_band`, the static band it sheds by);
* :mod:`~repro.server.state` — :class:`JobSet`, :class:`JobSetStore`;
* :mod:`~repro.server.daemon` — :class:`ReproServer`, the HTTP transport.

See ``docs/serving.md`` ("Serving daemon") for endpoints and the
admission/backpressure/drain state diagram.
"""

from ..serving.plan import BAND_HARD, BAND_PTIME, classify_band
from .admission import AdmissionController, Decision
from .daemon import ReproServer, RequestError
from .state import JobSet, JobSetStore

__all__ = [
    "BAND_HARD", "BAND_PTIME", "AdmissionController", "Decision",
    "classify_band",
    "ReproServer", "RequestError",
    "JobSet", "JobSetStore",
]
