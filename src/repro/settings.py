"""Every ``$REPRO_*`` environment variable the program honours, in one place.

:class:`Settings` holds one typed field per variable.  This is the only
module that reads ``os.environ``; everything else receives a ``Settings``
(or one field of it) and never parses the environment itself.

Resolution order, for every knob: the field default, then the environment
(:meth:`Settings.from_env`), then an explicit value — a CLI flag or a field
of a service job's ``RuntimeOverrides`` — applied with
:meth:`Settings.override`.  The environment is read when a consumer is
built (an evaluator, a sampler, a CLI command, a daemon job), never frozen
at import, except for the two process defaults of anomaly and profiling
mode, which the evaluation payload carries to every backend explicitly.

Each variable is parsed by the rule of its type: on/off words, integers,
seconds, a choice, a path, or a fidelity spec.  A value that does not parse
raises :class:`~repro.utils.validation.ConfigError` naming the variable and
the value, which the CLI renders as exit status 2.  An unset or empty
variable means the default.  ``docs/runtime.md`` tabulates all of them.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping

from .utils.validation import ConfigError

if TYPE_CHECKING:
    from .runtime.faults import RetryPolicy
    from .runtime.fidelity import FidelitySchedule

_BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"

_ON = ("1", "true", "on", "yes")
_OFF = ("0", "false", "off", "no")


# ---------------------------------------------------------------------------
# One coercion rule per type.  Each accepts an environment string or an
# explicit typed value and raises ValueError on anything it cannot accept.
# ---------------------------------------------------------------------------


def _flag(value) -> bool:
    if isinstance(value, bool):
        return value
    word = str(value).strip().lower()
    if word in _ON:
        return True
    if word in _OFF:
        return False
    raise ValueError(f"expected one of {', '.join(_ON + _OFF)}")


def _int_at_least(minimum: int) -> Callable[[Any], int]:
    def coerce(value) -> int:
        return max(minimum, int(value))

    return coerce


def _seconds(positive: bool) -> Callable[[Any], float]:
    def coerce(value) -> float:
        seconds = float(value)
        if not math.isfinite(seconds) or seconds < 0 or (positive and seconds == 0):
            bound = "> 0" if positive else ">= 0"
            raise ValueError(f"expected a finite number of seconds {bound}")
        return seconds

    return coerce


def _choice(choices_of: Callable[[], tuple[str, ...]]) -> Callable[[Any], str]:
    def coerce(value) -> str:
        choice = str(value).strip().lower()
        choices = choices_of()
        if choice not in choices:
            raise ValueError(f"expected one of {', '.join(choices)}")
        return choice

    return coerce


def _divergence_policies() -> tuple[str, ...]:
    from .runtime.evaluator import DIVERGENCE_POLICIES

    return DIVERGENCE_POLICIES


def _fidelity_schedule(value) -> "FidelitySchedule":
    from .runtime.fidelity import FidelitySchedule, parse_fidelity_schedule

    if isinstance(value, FidelitySchedule):
        return value
    return parse_fidelity_schedule(value)


def _env(name: str, coerce: Callable[[Any], Any], default=None):
    return field(default=default, metadata={"env": name, "coerce": coerce})


@dataclass(frozen=True)
class Settings:
    """The resolved value of every ``$REPRO_*`` knob (see ``docs/runtime.md``)."""

    # Proxy-evaluation engine (docs/runtime.md).
    workers: int = _env("REPRO_WORKERS", _int_at_least(1), 1)
    divergence_policy: str = _env(
        "REPRO_DIVERGENCE_POLICY", _choice(_divergence_policies), "sentinel"
    )
    max_retries: int | None = _env("REPRO_MAX_RETRIES", _int_at_least(0))
    eval_timeout: float | None = _env("REPRO_EVAL_TIMEOUT", _seconds(positive=True))
    # Durable state.
    eval_cache: bool = _env("REPRO_EVAL_CACHE", _flag, True)
    eval_cache_dir: Path = _env(
        "REPRO_EVAL_CACHE_DIR", Path, _BENCHMARKS / ".cache" / "proxy"
    )
    cache_dir: Path = _env("REPRO_CACHE_DIR", Path, _BENCHMARKS / ".cache")
    checkpoint_dir: Path = _env(
        "REPRO_CHECKPOINT_DIR", Path, _BENCHMARKS / ".checkpoints"
    )
    service_db: Path = _env(
        "REPRO_SERVICE_DB", Path, _BENCHMARKS / ".service" / "registry.sqlite"
    )
    # Successive-halving collection (docs/fidelity.md).
    fidelity_schedule: "FidelitySchedule | None" = _env(
        "REPRO_FIDELITY_SCHEDULE", _fidelity_schedule
    )
    fidelity_warm_dir: str | None = _env("REPRO_FIDELITY_WARM_DIR", str)
    # Observability and numerics (docs/observability.md, docs/numerics.md).
    metrics_interval: float = _env(
        "REPRO_METRICS_INTERVAL", _seconds(positive=False), 30.0
    )
    profile: bool = _env("REPRO_PROFILE", _flag, False)
    anomaly: bool = _env("REPRO_ANOMALY", _flag, False)
    trace: str | None = _env("REPRO_TRACE", str)
    # Service client (docs/service.md).
    service_url: str = _env("REPRO_SERVICE_URL", str, "http://127.0.0.1:8737")

    @classmethod
    def read(cls, name: str, environ: Mapping[str, str] | None = None):
        """One field as :meth:`from_env` would resolve it, parsed alone.

        For the readers that cannot afford the whole set: the anomaly and
        profiling process defaults taken at import.
        """
        variable, coerce, default = _SPECS[name]
        raw = (os.environ if environ is None else environ).get(variable, "").strip()
        if not raw:
            return default
        try:
            return coerce(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"${variable}={raw!r} is invalid: {exc}") from None

    @classmethod
    def from_env(cls, environ: Mapping[str, str] | None = None) -> "Settings":
        """Defaults overlaid with the (current) environment."""
        return cls(**{name: cls.read(name, environ) for name in _SPECS})

    def override(self, **values) -> "Settings":
        """Apply explicit values (CLI flags, job overrides); ``None`` keeps
        the current value."""
        changes = {}
        for name, value in values.items():
            if value is None:
                continue
            try:
                changes[name] = _SPECS[name][1](value)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{name}={value!r} is invalid: {exc}") from None
        return replace(self, **changes)

    def retry_policy(self) -> "RetryPolicy | None":
        """The evaluator's retry policy, or ``None`` (fail fast, no timeout)
        when neither a retry count nor a timeout is set."""
        from .runtime.faults import RetryPolicy

        if self.max_retries is None and self.eval_timeout is None:
            return None
        return RetryPolicy(max_retries=self.max_retries or 0, timeout=self.eval_timeout)


# Field name -> (environment variable, coercion, default).
_SPECS = {
    spec.name: (spec.metadata["env"], spec.metadata["coerce"], spec.default)
    for spec in fields(Settings)
}

# Field name -> environment variable, for scripts that set one.
ENV_VARS = {name: spec[0] for name, spec in _SPECS.items()}
