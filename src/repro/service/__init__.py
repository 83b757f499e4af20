"""``repro.service`` — search-as-a-service on top of the runtime layer.

A dependency-free HTTP API (:mod:`~repro.service.api`) plus a worker daemon
(:mod:`~repro.service.daemon`) backed by a persistent sqlite job registry
(:mod:`~repro.service.db`).  Clients submit tasks — raw series or registered
datasets — and get either an immediate zero-shot ranking (``POST /rank``)
or a job id for long-running work; results are content-addressed so
identical submissions across tenants dedupe to one computation.  The
:class:`~repro.service.engine.Engine` facade is the single code path shared
by the daemon and the CLI.  See ``docs/service.md``.
"""

from .api import ServiceAPI
from .daemon import Daemon, MetricsSampler
from .db import (
    IllegalTransitionError,
    RegistryCorruptError,
    RegistryError,
    ServiceDB,
    UnknownJobError,
)
from .engine import Engine, RankOutcome, artifacts_fingerprint
from .jobs import JobResult, execute_job
from .protocol import (
    JOB_KINDS,
    PROTOCOL_VERSION,
    JobRequest,
    ProtocolError,
    RuntimeOverrides,
    build_task,
    parse_runtime,
    parse_submit,
    request_fingerprint,
    task_fingerprint,
)

__all__ = [
    "Daemon",
    "Engine",
    "IllegalTransitionError",
    "JOB_KINDS",
    "JobRequest",
    "JobResult",
    "MetricsSampler",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RankOutcome",
    "RegistryCorruptError",
    "RegistryError",
    "RuntimeOverrides",
    "ServiceAPI",
    "ServiceDB",
    "UnknownJobError",
    "artifacts_fingerprint",
    "build_task",
    "execute_job",
    "parse_runtime",
    "parse_submit",
    "request_fingerprint",
    "task_fingerprint",
]
