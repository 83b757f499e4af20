"""The one settings layer: every ``$REPRO_*`` variable, parsed by one rule.

* a malformed value of any variable is a typed ``ConfigError`` naming the
  variable and the value,
* a value that parses keeps its historical meaning and default,
* explicit values (CLI flags, job overrides) beat the environment,
* ``repro.settings`` is the only module that reads the environment, and
* ``docs/runtime.md`` tabulates exactly the variables ``Settings`` honours.
"""

import os
import re
from pathlib import Path

import pytest

from repro.autodiff.anomaly import set_anomaly_default
from repro.obs.profile import set_profiling_default
from repro.runtime import FidelitySchedule
from repro.settings import ENV_VARS, Settings
from repro.utils.validation import ConfigError

REPO = Path(__file__).resolve().parents[1]

# One malformed value per typed variable.
MALFORMED = {
    "REPRO_WORKERS": "two",
    "REPRO_DIVERGENCE_POLICY": "bogus",
    "REPRO_MAX_RETRIES": "x",
    "REPRO_EVAL_TIMEOUT": "0",
    "REPRO_EVAL_CACHE": "disabled",
    "REPRO_FIDELITY_SCHEDULE": "3:3",
    "REPRO_METRICS_INTERVAL": "soon",
    "REPRO_PROFILE": "enabled",
    "REPRO_ANOMALY": "enabled",
    "REPRO_REFERENCE_KERNELS": "maybe",
}

# Paths and free text: every non-empty string is a valid value.
FREE_TEXT = {
    "REPRO_EVAL_CACHE_DIR",
    "REPRO_CACHE_DIR",
    "REPRO_CHECKPOINT_DIR",
    "REPRO_SERVICE_DB",
    "REPRO_FIDELITY_WARM_DIR",
    "REPRO_TRACE",
    "REPRO_SERVICE_URL",
}


class TestTypedErrors:
    def test_every_variable_is_covered(self):
        assert len(ENV_VARS) == 17
        assert set(MALFORMED) | FREE_TEXT == set(ENV_VARS.values())
        assert not set(MALFORMED) & FREE_TEXT

    @pytest.mark.parametrize("variable", sorted(MALFORMED))
    def test_malformed_value_is_config_error(self, variable):
        value = MALFORMED[variable]
        with pytest.raises(ConfigError) as excinfo:
            Settings.from_env({variable: value})
        assert variable in str(excinfo.value)
        assert repr(value) in str(excinfo.value)

    @pytest.mark.parametrize("variable", sorted(FREE_TEXT))
    def test_free_text_is_taken_as_given(self, variable):
        settings = Settings.from_env({variable: "some/where"})
        name = {value: key for key, value in ENV_VARS.items()}[variable]
        assert str(getattr(settings, name)) == "some/where"


class TestMeanings:
    def test_unset_and_empty_mean_default(self):
        assert Settings.from_env({}) == Settings()
        assert Settings.from_env({name: "" for name in ENV_VARS.values()}) == Settings()

    def test_defaults(self):
        settings = Settings()
        assert settings.workers == 1
        assert settings.eval_cache is True
        assert settings.divergence_policy == "sentinel"
        assert settings.metrics_interval == 30.0
        assert settings.retry_policy() is None
        assert settings.service_url == "http://127.0.0.1:8737"
        assert settings.eval_cache_dir == REPO / "benchmarks" / ".cache" / "proxy"

    @pytest.mark.parametrize("word", ["1", "true", "On", " yes "])
    def test_on_words(self, word):
        assert Settings.from_env({"REPRO_PROFILE": word}).profile is True
        assert Settings.from_env({"REPRO_EVAL_CACHE": word}).eval_cache is True

    @pytest.mark.parametrize("word", ["0", "false", "OFF", "no"])
    def test_off_words(self, word):
        assert Settings.from_env({"REPRO_ANOMALY": word}).anomaly is False
        assert Settings.from_env({"REPRO_EVAL_CACHE": word}).eval_cache is False

    def test_typed_values(self):
        settings = Settings.from_env(
            {
                "REPRO_WORKERS": "-3",
                "REPRO_MAX_RETRIES": "-1",
                "REPRO_EVAL_TIMEOUT": "2.5",
                "REPRO_DIVERGENCE_POLICY": "RAISE",
                "REPRO_FIDELITY_SCHEDULE": " 3 : 3 : 1 ",
                "REPRO_METRICS_INTERVAL": "0",
            }
        )
        assert settings.workers == 1  # floor of one
        assert settings.max_retries == 0  # floor of zero
        assert settings.eval_timeout == 2.5
        assert settings.divergence_policy == "raise"
        assert settings.fidelity_schedule == FidelitySchedule(3, 3, 1)
        assert settings.metrics_interval == 0.0  # 0 disables the sampler

    def test_read_agrees_with_from_env(self):
        environ = {"REPRO_REFERENCE_KERNELS": "on", "REPRO_WORKERS": "4"}
        settings = Settings.from_env(environ)
        for name in ENV_VARS:
            assert Settings.read(name, environ) == getattr(settings, name)


class TestPrecedence:
    def test_explicit_beats_env_beats_default(self):
        env = Settings.from_env({"REPRO_WORKERS": "3", "REPRO_EVAL_CACHE": "0"})
        assert env.workers == 3 and env.eval_cache is False
        assert env.override(workers=None).workers == 3
        assert env.override(workers=5).workers == 5
        assert env.override(eval_cache=True).eval_cache is True

    def test_explicit_values_are_validated(self):
        with pytest.raises(ConfigError, match="eval_timeout"):
            Settings().override(eval_timeout=0)
        with pytest.raises(ConfigError, match="fidelity_schedule"):
            Settings().override(fidelity_schedule="3:x:1")

    def test_retry_policy_from_either_knob(self):
        assert Settings().override(max_retries=2).retry_policy().max_retries == 2
        policy = Settings().override(eval_timeout=1.5).retry_policy()
        assert policy.max_retries == 0 and policy.timeout == 1.5


class TestOneReader:
    def test_no_module_but_settings_reads_the_environment(self):
        offenders = []
        for path in sorted((REPO / "src" / "repro").rglob("*.py")):
            if path.name == "settings.py" and path.parent.name == "repro":
                continue
            for number, line in enumerate(path.read_text().splitlines(), 1):
                if re.search(r"os\.environ|getenv|putenv", line):
                    offenders.append(f"{path.relative_to(REPO)}:{number}: {line}")
        assert not offenders, "\n".join(offenders)

    def test_process_defaults_do_not_write_the_environment(self, monkeypatch):
        for name in ("REPRO_ANOMALY", "REPRO_PROFILE"):
            monkeypatch.delenv(name, raising=False)
        try:
            set_anomaly_default(True)
            set_profiling_default(True)
            assert "REPRO_ANOMALY" not in os.environ
            assert "REPRO_PROFILE" not in os.environ
        finally:
            set_anomaly_default(False)
            set_profiling_default(False)


class TestDocsTable:
    def test_runtime_md_table_lists_exactly_the_settings(self):
        text = (REPO / "docs" / "runtime.md").read_text()
        section = text.split("## Environment variables", 1)[1].split("\n## ", 1)[0]
        rows = [line for line in section.splitlines() if line.startswith("| `$REPRO_")]
        documented = {re.match(r"\| `\$(REPRO_[A-Z_]+)`", row).group(1) for row in rows}
        assert len(rows) == len(documented)
        assert documented == set(ENV_VARS.values())
