"""Tests for the successive-halving fidelity dimension (docs/fidelity.md).

The contracts under test, in order of importance:

* **a flat campaign is the one-rung ladder** — with no schedule
  configured, fingerprints, cache keys, scores, pairing RNG streams, and
  service score material and bodies are those of a plain full-fidelity
  sweep, and no warm snapshot is written;
* **warm-promotion equivalence** — a candidate promoted through the rungs
  (resuming from warm snapshots) lands on *exactly* the score a fresh
  full-fidelity run produces, on the serial and the pool backend;
* **versioned resume** — progress files written under a different
  ``CACHE_KEY_VERSION`` refuse with a typed error instead of mixing
  incompatible fingerprint keyings;
* **typed config validation** — bad numerics and malformed schedule specs
  raise :class:`ConfigError` at construction / at the CLI flag.
"""

import numpy as np
import pytest

from repro.core.trainer import TrainConfig
from repro.data import CTSData
from repro.runtime import (
    CACHE_KEY_VERSION,
    Checkpoint,
    EvalProgress,
    FidelityResult,
    FidelitySchedule,
    FidelityScheduler,
    ProgressVersionError,
    ProxyEvaluator,
    RungReport,
    parse_fidelity_schedule,
    proxy_fingerprint,
    warm_lineage_fingerprint,
)
from repro.settings import Settings
from repro.space import HyperSpace, JointSearchSpace
from repro.tasks import ProxyConfig, Task, measure_arch_hyper
from repro.utils.validation import ConfigError

TINY_HYPER = HyperSpace(
    num_blocks=(1,), num_nodes=(3,), hidden_dims=(8,), output_dims=(8,),
    output_modes=(0, 1), dropout=(0, 1),
)


def _toy_task(t=160, seed=0, name="fid-toy"):
    rng = np.random.default_rng(seed)
    values = rng.normal(10, 2, size=(4, t, 1)).astype(np.float32)
    adj = np.ones((4, 4), dtype=np.float32)
    return Task(CTSData(name, values, adj, "test"), p=6, q=3)


def _candidates(count, seed=0):
    space = JointSearchSpace(hyper_space=TINY_HYPER)
    return space.sample_batch(count, np.random.default_rng(seed))


def cheap_eval(arch_hyper, task, config):
    """Deterministic instant eval keyed by the full fingerprint (picklable)."""
    digest = proxy_fingerprint(arch_hyper, task, config)
    return int(digest[:8], 16) / 0xFFFFFFFF + 0.25


# ----------------------------------------------------------------------
# Schedule grammar and ladder math
# ----------------------------------------------------------------------
class TestSchedule:
    def test_parse_roundtrip(self):
        schedule = parse_fidelity_schedule("3:3:1")
        assert schedule == FidelitySchedule(eta=3, rungs=3, min_epochs=1)
        assert schedule.spec() == "3:3:1"

    @pytest.mark.parametrize(
        "spec", ["", "3:3", "3:3:1:9", "a:b:c", "3::1", "1.5:3:1"]
    )
    def test_malformed_specs_raise_typed(self, spec):
        with pytest.raises(ConfigError):
            parse_fidelity_schedule(spec)

    @pytest.mark.parametrize(
        "kwargs", [dict(eta=1), dict(rungs=0), dict(min_epochs=0), dict(eta=True)]
    )
    def test_invalid_fields_raise_typed(self, kwargs):
        with pytest.raises(ConfigError):
            FidelitySchedule(**kwargs)

    def test_rung_epochs_geometric_and_capped(self):
        schedule = FidelitySchedule(eta=3, rungs=3, min_epochs=1)
        assert schedule.rung_epochs(8) == [1, 3, 8]
        assert schedule.rung_epochs(9) == [1, 3, 9]
        # Budgets past full collapse; the ladder always ends at full.
        assert schedule.rung_epochs(2) == [1, 2]
        assert schedule.rung_epochs(1) == [1]

    def test_single_rung_is_flat(self):
        assert FidelitySchedule(eta=2, rungs=1, min_epochs=1).rung_epochs(5) == [5]

    def test_keep_fraction(self):
        schedule = FidelitySchedule(eta=3, rungs=3, min_epochs=1)
        assert schedule.keep(9) == 3
        assert schedule.keep(8) == 3
        assert schedule.keep(2) == 1
        assert schedule.keep(1) == 1  # never culls the last survivor

    def test_resolver_passthrough_env_and_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_FIDELITY_SCHEDULE", raising=False)
        assert Settings.from_env().fidelity_schedule is None
        explicit = FidelitySchedule(eta=2, rungs=2, min_epochs=1)
        resolve = Settings.from_env().override
        assert resolve(fidelity_schedule=explicit).fidelity_schedule is explicit
        assert resolve(fidelity_schedule="2:2:1").fidelity_schedule == explicit
        monkeypatch.setenv("REPRO_FIDELITY_SCHEDULE", "4:2:1")
        assert Settings.from_env().fidelity_schedule == FidelitySchedule(4, 2, 1)

    def test_label_policy_resolution(self, monkeypatch):
        # Only full-fidelity scores label; the retired policy knob is not a
        # setting, so its variable is ignored and its name is refused.
        monkeypatch.delenv("REPRO_FIDELITY_LABEL_POLICY", raising=False)
        without = Settings.from_env()
        monkeypatch.setenv("REPRO_FIDELITY_LABEL_POLICY", "tagged")
        assert Settings.from_env() == without
        with pytest.raises(KeyError):
            Settings().override(fidelity_label_policy="tagged")


# ----------------------------------------------------------------------
# Typed numeric validation at construction (satellite: ConfigError)
# ----------------------------------------------------------------------
class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(epochs=0),
            dict(epochs=1.5),
            dict(batch_size=0),
            dict(lr=0.0),
            dict(lr=float("nan")),
            dict(weight_decay=float("inf")),
            dict(seed=-1),
            dict(fidelity_epochs=0),
            dict(epochs=3, fidelity_epochs=4),  # partial budget beyond full
        ],
    )
    def test_proxy_config_rejects_bad_numerics(self, kwargs):
        with pytest.raises(ConfigError):
            ProxyConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(epochs=0),
            dict(batch_size=-1),
            dict(patience=0),
            dict(lr=-1e-3),
            dict(grad_clip=float("nan")),
        ],
    )
    def test_train_config_rejects_bad_numerics(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)

    def test_config_error_is_value_error(self):
        # Existing `except ValueError` call sites keep working.
        assert issubclass(ConfigError, ValueError)


# ----------------------------------------------------------------------
# Fingerprint inertness: the fidelity axis is score material only when
# an actual partial budget is requested
# ----------------------------------------------------------------------
class TestFingerprintInertness:
    def test_defaults_and_full_fidelity_share_fingerprint(self):
        (ah,) = _candidates(1)
        task = _toy_task()
        plain = proxy_fingerprint(ah, task, ProxyConfig(epochs=3))
        # fidelity_epochs == epochs is full fidelity: same measurement.
        assert proxy_fingerprint(
            ah, task, ProxyConfig(epochs=3, fidelity_epochs=3)
        ) == plain
        # warm_dir is score-inert wherever it points.
        assert proxy_fingerprint(
            ah, task, ProxyConfig(epochs=3, warm_dir="/anywhere")
        ) == plain

    def test_partial_fidelity_changes_fingerprint(self):
        (ah,) = _candidates(1)
        task = _toy_task()
        plain = proxy_fingerprint(ah, task, ProxyConfig(epochs=3))
        partial = proxy_fingerprint(
            ah, task, ProxyConfig(epochs=3, fidelity_epochs=1)
        )
        assert partial != plain
        assert partial != proxy_fingerprint(
            ah, task, ProxyConfig(epochs=3, fidelity_epochs=2)
        )

    def test_warm_lineage_strips_fidelity_axis(self):
        (ah,) = _candidates(1)
        task = _toy_task()
        plain = proxy_fingerprint(ah, task, ProxyConfig(epochs=3))
        for config in (
            ProxyConfig(epochs=3, fidelity_epochs=1, warm_dir="/tmp/w"),
            ProxyConfig(epochs=3, fidelity_epochs=2),
            ProxyConfig(epochs=3),
        ):
            assert warm_lineage_fingerprint(ah, task, config) == plain


# ----------------------------------------------------------------------
# Warm-promotion bitwise equivalence (the tentpole guarantee)
# ----------------------------------------------------------------------
class TestWarmPromotionEquivalence:
    def test_partial_then_resume_equals_fresh_full(self, tmp_path):
        """measure_arch_hyper is resumable by fidelity: 1 epoch, then warm-
        continue to 3, bitwise equal to a fresh 3-epoch run."""
        (ah,) = _candidates(1)
        task = _toy_task()
        fresh = measure_arch_hyper(ah, task, ProxyConfig(epochs=3, batch_size=32))
        warm = str(tmp_path / "warm")
        for budget in (1, 2):
            measure_arch_hyper(
                ah,
                task,
                ProxyConfig(
                    epochs=3, batch_size=32, fidelity_epochs=budget, warm_dir=warm
                ),
            )
        resumed = measure_arch_hyper(
            ah, task, ProxyConfig(epochs=3, batch_size=32, warm_dir=warm)
        )
        assert resumed == fresh

    def test_partial_scores_are_deterministic(self, tmp_path):
        (ah,) = _candidates(1)
        task = _toy_task()
        config = ProxyConfig(epochs=3, batch_size=32, fidelity_epochs=1)
        assert measure_arch_hyper(ah, task, config) == measure_arch_hyper(
            ah, task, config
        )

    def _ladder(self, evaluator, tmp_path, label):
        task = _toy_task()
        pairs = [(ah, task) for ah in _candidates(4)]
        config = ProxyConfig(epochs=3, batch_size=32)
        reference = evaluator.evaluate_pairs(pairs, config)
        result = evaluator.evaluate_rungs(
            pairs,
            config,
            schedule=FidelitySchedule(eta=2, rungs=3, min_epochs=1),
            warm_dir=str(tmp_path / f"warm-{label}"),
        )
        return reference, result

    def test_serial_survivors_bitwise_equal_flat(self, tmp_path):
        reference, result = self._ladder(
            ProxyEvaluator(workers=1, cache=None), tmp_path, "serial"
        )
        survivors = [
            i for i, fidelity in enumerate(result.fidelities) if fidelity >= 3
        ]
        assert survivors  # the ladder always promotes someone to full fidelity
        for i in survivors:
            assert result.scores[i] == reference[i]
        # Culled candidates carry their cull-rung fidelity tag.
        assert all(
            fidelity in (1, 2, 3) for fidelity in result.fidelities
        )
        assert result.label_mask() == [f >= 3 for f in result.fidelities]
        # Warm accounting: 4@1 + 2@(2-1) + 1@(3-2) = 7 of 12 flat epochs.
        assert result.epochs_spent == 7
        assert result.epochs_saved == 5

    def test_survivor_snapshot_stops_at_last_partial_budget(self, tmp_path, monkeypatch):
        """The final rung reads the last partial snapshot but writes none:
        nothing measures a full-fidelity candidate again.  The completed
        ladder then deletes every snapshot it wrote."""
        from repro.runtime import WarmStore

        epochs = {}
        original = WarmStore.save

        def recording_save(store, arch_hyper, task, config, state):
            epochs[arch_hyper.key()] = int(state["epoch"])
            original(store, arch_hyper, task, config, state)

        monkeypatch.setattr(WarmStore, "save", recording_save)
        _, result = self._ladder(
            ProxyEvaluator(workers=1, cache=None), tmp_path, "final"
        )
        for ah, fidelity in zip(_candidates(4), result.fidelities):
            # Ladder 1 -> 2 -> 3: a survivor's lineage ends at epoch 2.
            assert epochs[ah.key()] == min(fidelity, 2)
        assert not list((tmp_path / "warm-final").glob("*.warm.pkl"))

    def test_pool_matches_serial_bitwise(self, tmp_path):
        serial_ref, serial = self._ladder(
            ProxyEvaluator(workers=1, cache=None), tmp_path, "s"
        )
        pool_ref, pool = self._ladder(
            ProxyEvaluator(workers=2, cache=None), tmp_path, "p"
        )
        assert pool_ref == serial_ref
        assert pool.scores == serial.scores
        assert pool.fidelities == serial.fidelities
        survivors = [i for i, f in enumerate(pool.fidelities) if f >= 3]
        for i in survivors:
            assert pool.scores[i] == pool_ref[i]

    def test_cold_promotion_equals_fresh_full_too(self):
        """No warm dir: promoted candidates retrain from scratch and still
        land on the fresh full-fidelity score (partial training is a prefix
        of the full run)."""
        evaluator = ProxyEvaluator(workers=1, cache=None)
        task = _toy_task()
        pairs = [(ah, task) for ah in _candidates(3)]
        config = ProxyConfig(epochs=2, batch_size=32)
        reference = evaluator.evaluate_pairs(pairs, config)
        result = evaluator.evaluate_rungs(
            pairs, config, schedule=FidelitySchedule(eta=3, rungs=2, min_epochs=1)
        )
        for i, fidelity in enumerate(result.fidelities):
            if fidelity >= 2:
                assert result.scores[i] == reference[i]


# ----------------------------------------------------------------------
# The flat default: no schedule anywhere runs the one-rung ladder
# ----------------------------------------------------------------------
class TestInertDefault:
    def test_evaluate_rungs_without_schedule_is_evaluate_pairs(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.delenv("REPRO_FIDELITY_SCHEDULE", raising=False)
        evaluator = ProxyEvaluator(workers=1, cache=None, eval_fn=cheap_eval)
        task = _toy_task()
        pairs = [(ah, task) for ah in _candidates(3)]
        config = ProxyConfig(epochs=2)
        flat = evaluator.evaluate_pairs(pairs, config)
        result = evaluator.evaluate_rungs(
            pairs, config, warm_dir=str(tmp_path / "warm")
        )
        assert isinstance(result, FidelityResult)
        assert result.scores == flat
        assert result.fidelities == [2, 2, 2]
        assert result.rungs == [
            RungReport(
                rung=0, epochs=2, candidates=3, promoted=0, culled=0,
                epoch_budget=6,
            )
        ]
        assert result.epochs_spent == 6 and result.epochs_saved == 0
        assert result.label_mask() is None
        # One rung has nothing to promote, so no warm dir is attached.
        assert not (tmp_path / "warm").exists()

    def test_rung_metrics_and_reports(self):
        from repro.obs import MetricsRegistry, metrics_scope

        evaluator = ProxyEvaluator(workers=1, cache=None, eval_fn=cheap_eval)
        task = _toy_task()
        pairs = [(ah, task) for ah in _candidates(4)]
        config = ProxyConfig(epochs=4)
        with metrics_scope(MetricsRegistry()) as registry:
            result = evaluator.evaluate_rungs(
                pairs, config, schedule=FidelitySchedule(eta=2, rungs=2, min_epochs=1)
            )
            snapshot = registry.snapshot()
        assert [r.rung for r in result.rungs] == [0, 1]
        assert result.rungs[0].candidates == 4
        assert result.rungs[0].promoted == 2
        assert result.rungs[0].culled == 2
        assert result.rungs[1].promoted == 0  # final rung promotes nowhere
        assert snapshot["fidelity.rungs"]["value"] == 2
        assert snapshot["fidelity.evals"]["value"] == 6
        assert snapshot["fidelity.epochs_spent"]["value"] == result.epochs_spent
        assert snapshot["fidelity.culled"]["value"] == 2
        assert snapshot["fidelity.epochs_saved"]["value"] == result.epochs_saved


# ----------------------------------------------------------------------
# Checkpointed mid-rung resume + progress version skew
# ----------------------------------------------------------------------
class TestSchedulerResume:
    def test_mid_rung_interrupt_resumes_bitwise(self, tmp_path):
        task = _toy_task()
        pairs = [(ah, task) for ah in _candidates(4)]
        config = ProxyConfig(epochs=4)
        schedule = FidelitySchedule(eta=2, rungs=2, min_epochs=1)

        clean = ProxyEvaluator(workers=1, cache=None, eval_fn=cheap_eval)
        expected = clean.evaluate_rungs(pairs, config, schedule=schedule)

        calls = {"n": 0}

        def flaky_eval(arch_hyper, task_, config_):
            calls["n"] += 1
            if calls["n"] == 3:  # dies mid-rung-0
                raise RuntimeError("simulated crash")
            return cheap_eval(arch_hyper, task_, config_)

        path = tmp_path / "collect.ckpt"
        flaky = ProxyEvaluator(workers=1, cache=None, eval_fn=flaky_eval)
        with pytest.raises(RuntimeError, match="simulated crash"):
            flaky.evaluate_rungs(
                pairs,
                config,
                schedule=schedule,
                progress=EvalProgress(Checkpoint(path, kind="eval-progress")),
            )

        resumed_calls = {"n": 0}

        def counting_eval(arch_hyper, task_, config_):
            resumed_calls["n"] += 1
            return cheap_eval(arch_hyper, task_, config_)

        resumer = ProxyEvaluator(workers=1, cache=None, eval_fn=counting_eval)
        result = resumer.evaluate_rungs(
            pairs,
            config,
            schedule=schedule,
            progress=EvalProgress(Checkpoint(path, kind="eval-progress")),
        )
        assert result.scores == expected.scores
        assert result.fidelities == expected.fidelities
        # The two rung-0 scores flushed before the crash replay from the
        # progress file; only the remaining evaluations run live.
        assert resumed_calls["n"] == 6 - 2

    def test_progress_version_skew_refuses(self, tmp_path):
        checkpoint = Checkpoint(tmp_path / "progress.ckpt", kind="eval-progress")
        checkpoint.save({"scores": {"ab": 1.0}, "key_version": CACHE_KEY_VERSION - 1})
        with pytest.raises(ProgressVersionError, match="refusing to resume"):
            EvalProgress(checkpoint)

    def test_progress_without_version_refuses(self, tmp_path):
        # Files from before versions were recorded cannot prove their keying.
        checkpoint = Checkpoint(tmp_path / "legacy.ckpt", kind="eval-progress")
        checkpoint.save({"scores": {"ab": 1.0}})
        with pytest.raises(ProgressVersionError):
            EvalProgress(checkpoint)

    def test_progress_current_version_loads(self, tmp_path):
        checkpoint = Checkpoint(tmp_path / "ok.ckpt", kind="eval-progress")
        checkpoint.save({"scores": {"ab": 1.5}, "key_version": CACHE_KEY_VERSION})
        assert EvalProgress(checkpoint).known("ab") == 1.5


# ----------------------------------------------------------------------
# Label eligibility masks in pairing (survivors policy plumbing)
# ----------------------------------------------------------------------
class TestPairingEligibility:
    def test_none_and_all_true_masks_are_rng_inert(self):
        from repro.comparator.pairing import dynamic_pairs

        scores = np.array([0.5, 0.3, 0.9, 0.7])
        unmasked = dynamic_pairs(scores, np.random.default_rng(7), 16)
        masked = dynamic_pairs(
            scores, np.random.default_rng(7), 16, eligible=np.ones(4, dtype=bool)
        )
        assert [(p.index_a, p.index_b, p.label) for p in unmasked] == [
            (p.index_a, p.index_b, p.label) for p in masked
        ]

    def test_ineligible_candidates_never_pair(self):
        from repro.comparator.pairing import dynamic_pairs

        scores = np.array([0.5, 0.3, 0.9, 0.7])
        eligible = np.array([True, False, True, True])
        pairs = dynamic_pairs(scores, np.random.default_rng(0), 32, eligible=eligible)
        assert pairs
        for pair in pairs:
            assert pair.index_a != 1 and pair.index_b != 1

    def test_too_few_eligible_is_typed_failure(self):
        from repro.comparator.pairing import dynamic_pairs, has_comparable_pair

        scores = np.array([0.5, 0.3, 0.9])
        eligible = np.array([True, False, False])
        assert not has_comparable_pair(scores, eligible)
        with pytest.raises(ValueError, match="no comparable pair"):
            dynamic_pairs(scores, np.random.default_rng(0), 8, eligible=eligible)


# ----------------------------------------------------------------------
# Search loops: fidelity-tagged collection feeding the comparator
# ----------------------------------------------------------------------
class TestAutoCTSPlusFidelity:
    def _search(self, **config_kwargs):
        from repro.search import AutoCTSPlusConfig, AutoCTSPlusSearch

        space = JointSearchSpace(hyper_space=TINY_HYPER)
        config = AutoCTSPlusConfig(
            n_measured_samples=6,
            proxy=ProxyConfig(epochs=4),
            **config_kwargs,
        )
        evaluator = ProxyEvaluator(workers=1, cache=None, eval_fn=cheap_eval)
        return AutoCTSPlusSearch(space, config, evaluator=evaluator)

    def test_flat_collect_leaves_no_mask(self):
        search = self._search()
        measured = search.collect_samples(_toy_task())
        assert len(measured) == 6
        assert search._label_eligible is None

    def test_scheduled_collect_masks_culled_candidates(self):
        search = self._search(fidelity_schedule="2:2:1")
        measured = search.collect_samples(_toy_task())
        assert len(measured) == 6
        mask = search._label_eligible
        assert mask is not None and mask.sum() == 3  # keep(6) with eta=2
        # Masked (culled) scores are partial-fidelity measurements.
        flat = self._search().collect_samples(_toy_task())
        for i, eligible in enumerate(mask):
            if eligible:
                assert measured[i][1] == flat[i][1]


# ----------------------------------------------------------------------
# Service protocol: the schedule is score material
# ----------------------------------------------------------------------
class TestServiceProtocol:
    def test_score_material_has_no_fidelity_keys_by_default(self):
        from repro.service.protocol import RuntimeOverrides

        material = RuntimeOverrides().score_material()
        assert "fidelity_schedule" not in material
        assert "fidelity_label_policy" not in material

    def test_score_material_canonicalizes_schedule(self):
        from repro.service.protocol import RuntimeOverrides

        material = RuntimeOverrides(fidelity_schedule=" 3:3:1 ").score_material()
        assert material["fidelity_schedule"] == "3:3:1"
        assert material["fidelity_label_policy"] == "survivors"

    def test_parse_runtime_accepts_and_rejects(self):
        from repro.service.protocol import ProtocolError, parse_runtime

        overrides = parse_runtime(
            {"fidelity_schedule": "3:3:1", "fidelity_label_policy": "tagged"}
        )
        assert overrides.fidelity_schedule == "3:3:1"
        # The retired label-policy key is ignored like any unknown key.
        assert overrides == parse_runtime({"fidelity_schedule": "3:3:1"})
        with pytest.raises(ProtocolError, match="fidelity schedule"):
            parse_runtime({"fidelity_schedule": "bogus"})

    def test_parse_runtime_rejects_bad_proxy_numerics_at_submit(self):
        from repro.service.protocol import ProtocolError, parse_runtime

        with pytest.raises(ProtocolError, match="runtime"):
            parse_runtime({"proxy_epochs": 0})


class TestServiceCollect:
    """A collect job runs its own schedule, or the flat one-rung sweep."""

    @staticmethod
    def _collect(engine, runtime):
        from repro.service.jobs import execute_job
        from repro.service.protocol import parse_submit, request_fingerprint
        from tests.test_service import _task_spec

        request = parse_submit(
            {
                "kind": "collect",
                "task": _task_spec(),
                "options": {"n_samples": 3},
                "runtime": runtime,
            }
        )
        fingerprint = request_fingerprint(request, engine.fingerprint)
        return fingerprint, execute_job(engine, request, fingerprint).body

    @staticmethod
    def _engine(tmp_path, eval_fn=None):
        from repro.experiments.config import SCALES
        from repro.service import Engine
        from tests.test_service import _artifacts

        return Engine(
            _artifacts(),
            SCALES["smoke"],
            checkpoint_dir=tmp_path / "ckpt",
            eval_fn=eval_fn,
            cache_enabled=False,
        )

    def test_daemon_schedule_does_not_reach_a_flat_request(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.delenv("REPRO_FIDELITY_SCHEDULE", raising=False)
        engine = self._engine(tmp_path, eval_fn=cheap_eval)
        runtime = {"proxy_epochs": 3}
        flat = self._collect(engine, runtime)
        monkeypatch.setenv("REPRO_FIDELITY_SCHEDULE", "3:3:1")
        # Same request fingerprint, so the body must not change either, or
        # dedup would serve one computation for another.
        assert self._collect(engine, runtime) == flat
        assert "fidelity_schedule" not in flat[1]
        assert all("fidelity_epochs" not in s for s in flat[1]["samples"])
        scheduled = self._collect(engine, {**runtime, "fidelity_schedule": "3:3:1"})
        assert scheduled[0] != flat[0] and scheduled[1] != flat[1]

    def test_flat_collect_writes_no_warm_snapshot(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_FIDELITY_SCHEDULE", raising=False)
        engine = self._engine(tmp_path)
        runtime = {"proxy_epochs": 2, "proxy_batch_size": 32}
        self._collect(engine, runtime)
        assert not list((tmp_path / "ckpt").rglob("*.warm.pkl"))

    def test_finished_scheduled_collect_leaves_no_warm_snapshot(self, tmp_path):
        # A killed 3:3:1 collect keeps its rung-0 snapshots so that the
        # restarted job warm-resumes; once the ladder completes they go, and
        # the result equals an uninterrupted run's.
        from repro.service import Daemon, Engine, ServiceDB
        from repro.experiments.config import SCALES
        from tests.test_service import InterruptAfter, Service, _artifacts, _task_spec

        payload = {
            "kind": "collect",
            "task": _task_spec(),
            "options": {"n_samples": 4},
            "runtime": {
                "proxy_epochs": 3,
                "proxy_batch_size": 32,
                "fidelity_schedule": "3:3:1",
            },
        }
        reference_service = Service(tmp_path / "ref")
        _, submitted = reference_service.request("/jobs", payload)
        reference = reference_service.wait_for(submitted["job"]["id"])["result"]
        reference_service.close()
        assert not list((tmp_path / "ref" / "ckpt").rglob("*.warm.pkl"))

        # Rung 0 measures all 4 candidates at 1 epoch; the kill lands on the
        # first rung-1 evaluation.
        crashed = Service(
            tmp_path / "crash",
            eval_fn=InterruptAfter(measure_arch_hyper, after=4),
            start_daemon=False,
        )
        _, submitted = crashed.request("/jobs", payload)
        with pytest.raises(KeyboardInterrupt):
            crashed.daemon.run_once()
        crashed.api.stop()
        warm = tmp_path / "crash" / "ckpt"
        assert len(list(warm.rglob("*.warm.pkl"))) == 4

        engine = Engine(
            _artifacts(),
            SCALES["smoke"],
            checkpoint_dir=warm,
            cache_enabled=False,
        )
        db = ServiceDB(tmp_path / "crash" / "registry.sqlite")
        db.recover_orphans()
        assert Daemon(db, engine, poll_interval=0.01).run_once()
        final = db.get_job(submitted["job"]["id"])
        assert final["status"] == "done"
        assert final["metrics"]["eval.resumed"]["value"] == 4
        assert db.get_result(final["fingerprint"]) == reference
        assert not list(warm.rglob("*.warm.pkl"))
        db.close()


# ----------------------------------------------------------------------
# CLI flag parsing (satellite: validation covers the flags too)
# ----------------------------------------------------------------------
class TestCLI:
    def test_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "search",
                "SZ-TAXI",
                "--fidelity-schedule",
                "3:3:1",
                "--warm-dir",
                "/tmp/warm",
            ]
        )
        assert args.fidelity_schedule == "3:3:1"
        assert args.warm_dir == "/tmp/warm"
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["search", "SZ-TAXI", "--fidelity-label-policy", "tagged"]
            )

    @pytest.mark.parametrize("command", ["search", "autocts"])
    def test_malformed_schedule_exits_cleanly(self, command, capsys):
        from repro.cli import main

        code = main([command, "SZ-TAXI", "--fidelity-schedule", "nope"])
        assert code == 2
        err = capsys.readouterr().err
        assert "repro: error:" in err and "fidelity schedule" in err

    def test_invalid_schedule_numerics_exit_cleanly(self, capsys):
        from repro.cli import main

        code = main(["search", "SZ-TAXI", "--fidelity-schedule", "1:3:1"])
        assert code == 2
        assert "eta" in capsys.readouterr().err
