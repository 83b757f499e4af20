"""Checkpoint/resume suite: interrupted runs must resume bitwise-identically.

Each pipeline stage (sample collection, T-AHC pretraining, evolutionary
search) is killed mid-way by an injected fault, resumed from its progress
checkpoint, and compared bitwise against an uninterrupted reference run.
Corruption, version, kind, and run-identity mismatches must discard the
checkpoint cleanly — never crash, never resume into the wrong run.
"""

import os
import pickle

import numpy as np
import pytest

from repro.comparator import (
    PretrainConfig,
    TAHC,
    collect_task_samples,
    pretrain_tahc,
)
from repro.data import CTSData
from repro.embedding import MLPEmbedder
from repro.runtime import (
    CHECKPOINT_FORMAT_VERSION,
    Checkpoint,
    EvalFailedError,
    EvalProgress,
    ProxyEvaluator,
    proxy_fingerprint,
)
from repro.search import EvolutionConfig, EvolutionarySearch
from repro.space import HyperSpace, JointSearchSpace
from repro.tasks import Task

TINY_HYPER = HyperSpace(
    num_blocks=(1,), num_nodes=(3,), hidden_dims=(8, 12), output_dims=(8,),
    output_modes=(0, 1), dropout=(0, 1),
)

BUDGET_FILE_ENV = "REPRO_TEST_BUDGET_FILE"
BUDGET_ENV = "REPRO_TEST_EVAL_BUDGET"


def _toy_task(t=200, seed=0, name="toy"):
    rng = np.random.default_rng(seed)
    values = rng.normal(10, 2, size=(4, t, 1)).astype(np.float32)
    adj = np.ones((4, 4), dtype=np.float32)
    return Task(CTSData(name, values, adj, "test"), p=6, q=3)


def _candidates(count, seed=0):
    space = JointSearchSpace(hyper_space=TINY_HYPER)
    return space.sample_batch(count, np.random.default_rng(seed))


def cheap_eval(arch_hyper, task, config):
    digest = proxy_fingerprint(arch_hyper, task, config)
    return int(digest[:8], 16) / 0xFFFFFFFF + 0.25


def budgeted_eval(arch_hyper, task, config):
    """Succeeds for the first $REPRO_TEST_EVAL_BUDGET calls, then raises.

    Simulates a job killed after K evaluations; the counter lives in a file
    so the budget spans evaluator instances.
    """
    path = os.environ[BUDGET_FILE_ENV]
    try:
        with open(path) as handle:
            count = int(handle.read().strip() or 0)
    except (FileNotFoundError, ValueError):
        count = 0
    with open(path, "w") as handle:
        handle.write(str(count + 1))
    if count >= int(os.environ[BUDGET_ENV]):
        raise RuntimeError("injected kill: evaluation budget exhausted")
    return cheap_eval(arch_hyper, task, config)


@pytest.fixture
def budget_env(tmp_path, monkeypatch):
    monkeypatch.setenv(BUDGET_FILE_ENV, str(tmp_path / "budget-counter"))
    monkeypatch.setenv(BUDGET_ENV, "5")
    return monkeypatch


class TestCheckpointPrimitive:
    def test_roundtrip(self, tmp_path):
        ckpt = Checkpoint(tmp_path / "a.ckpt", kind="demo", meta={"seed": 0})
        assert not ckpt.exists()
        assert ckpt.load() is None
        ckpt.save({"epoch": 3, "values": [1.0, 2.0]})
        assert ckpt.exists()
        assert Checkpoint(tmp_path / "a.ckpt", "demo", {"seed": 0}).load() == {
            "epoch": 3,
            "values": [1.0, 2.0],
        }

    def test_save_is_atomic(self, tmp_path):
        ckpt = Checkpoint(tmp_path / "a.ckpt", kind="demo")
        ckpt.save({"epoch": 1})
        ckpt.save({"epoch": 2})
        assert [p.name for p in tmp_path.iterdir()] == ["a.ckpt"]

    def test_wrong_kind_discarded(self, tmp_path):
        Checkpoint(tmp_path / "a.ckpt", kind="collect").save({"x": 1})
        assert Checkpoint(tmp_path / "a.ckpt", kind="pretrain").load() is None
        assert not (tmp_path / "a.ckpt").exists()  # discarded, not kept

    def test_meta_mismatch_discarded(self, tmp_path):
        Checkpoint(tmp_path / "a.ckpt", "demo", {"seed": 0}).save({"x": 1})
        assert Checkpoint(tmp_path / "a.ckpt", "demo", {"seed": 1}).load() is None
        assert not (tmp_path / "a.ckpt").exists()

    def test_old_format_version_discarded(self, tmp_path):
        payload = {
            "format_version": CHECKPOINT_FORMAT_VERSION - 1,
            "kind": "demo",
            "meta": {},
            "state": {"x": 1},
        }
        with open(tmp_path / "a.ckpt", "wb") as handle:
            pickle.dump(payload, handle)
        assert Checkpoint(tmp_path / "a.ckpt", "demo").load() is None

    def test_truncated_file_discarded_cleanly(self, tmp_path):
        ckpt = Checkpoint(tmp_path / "a.ckpt", kind="demo")
        ckpt.save({"epoch": 7})
        raw = (tmp_path / "a.ckpt").read_bytes()
        (tmp_path / "a.ckpt").write_bytes(raw[: len(raw) // 2])
        assert ckpt.load() is None  # no exception
        assert not ckpt.exists()

    def test_garbage_bytes_discarded_cleanly(self, tmp_path):
        (tmp_path / "a.ckpt").write_bytes(b"\x00definitely not a pickle")
        assert Checkpoint(tmp_path / "a.ckpt", "demo").load() is None

    def test_clear(self, tmp_path):
        ckpt = Checkpoint(tmp_path / "a.ckpt", kind="demo")
        ckpt.save({"x": 1})
        ckpt.clear()
        assert not ckpt.exists()
        ckpt.clear()  # idempotent


class TestEvalProgress:
    def test_record_and_resume(self, tmp_path):
        ckpt = Checkpoint(tmp_path / "p.ckpt", "eval-progress")
        progress = EvalProgress(ckpt)
        progress.record("fp-1", 0.5)
        progress.record("fp-2", 0.75)
        resumed = EvalProgress(Checkpoint(tmp_path / "p.ckpt", "eval-progress"))
        assert resumed.known("fp-1") == 0.5
        assert resumed.known("fp-2") == 0.75
        assert resumed.known("fp-3") is None

    def test_flush_cadence(self, tmp_path):
        ckpt = Checkpoint(tmp_path / "p.ckpt", "eval-progress")
        progress = EvalProgress(ckpt, flush_every=3)
        progress.record("fp-1", 1.0)
        progress.record("fp-2", 2.0)
        assert not ckpt.exists()  # below the cadence, nothing on disk yet
        progress.record("fp-3", 3.0)
        assert ckpt.exists()
        progress.record("fp-4", 4.0)
        progress.flush()  # explicit flush persists the partial batch
        assert EvalProgress(ckpt).known("fp-4") == 4.0

    def test_evaluator_prefills_from_progress(self, tmp_path):
        task = _toy_task()
        candidates = _candidates(4)
        ckpt = Checkpoint(tmp_path / "p.ckpt", "eval-progress")

        reference = ProxyEvaluator(workers=1, cache=None, eval_fn=cheap_eval)
        expected = reference.evaluate_many(candidates, task)

        warm = ProxyEvaluator(workers=1, cache=None, eval_fn=cheap_eval)
        warm.evaluate_pairs(
            [(ah, task) for ah in candidates], progress=EvalProgress(ckpt)
        )
        # A fresh evaluator must answer entirely from progress — its eval_fn
        # would raise if called at all.
        def boom(*args):
            raise AssertionError("eval_fn must not run on resume")

        resumed = ProxyEvaluator(workers=1, cache=None, eval_fn=boom)
        scores = resumed.evaluate_pairs(
            [(ah, task) for ah in candidates], progress=EvalProgress(ckpt)
        )
        assert scores == expected
        assert resumed.stats.resumed == 4
        assert "resumed from checkpoint" in resumed.stats.report()


class TestCollectResume:
    def test_interrupted_collection_resumes_bitwise(self, tmp_path, budget_env):
        tasks = [_toy_task(seed=0, name="a"), _toy_task(seed=1, name="b")]
        space = JointSearchSpace(hyper_space=TINY_HYPER)
        config = PretrainConfig(shared_samples=2, random_samples=2)
        # 2 tasks x 4 candidates = 8 evaluations; the kill lands after 5.

        def embedder():
            return MLPEmbedder(input_dim=1, output_dim=8)

        reference = collect_task_samples(
            tasks, space, embedder(), config,
            evaluator=ProxyEvaluator(workers=1, cache=None, eval_fn=cheap_eval),
        )

        ckpt = Checkpoint(tmp_path / "collect.ckpt", "eval-progress")
        with pytest.raises(EvalFailedError):
            collect_task_samples(
                tasks, space, embedder(), config,
                evaluator=ProxyEvaluator(
                    workers=1, cache=None, eval_fn=budgeted_eval
                ),
                checkpoint=ckpt,
            )
        assert ckpt.exists()  # partial progress flushed despite the crash

        budget_env.setenv(BUDGET_ENV, "999")
        resumed_evaluator = ProxyEvaluator(
            workers=1, cache=None, eval_fn=budgeted_eval
        )
        resumed = collect_task_samples(
            tasks, space, embedder(), config,
            evaluator=resumed_evaluator,
            checkpoint=Checkpoint(tmp_path / "collect.ckpt", "eval-progress"),
        )
        assert resumed_evaluator.stats.resumed == 5
        assert resumed_evaluator.stats.misses == 3  # only the tail is recomputed
        for ref_set, res_set in zip(reference, resumed):
            assert [ah.key() for ah in ref_set.arch_hypers] == [
                ah.key() for ah in res_set.arch_hypers
            ]
            np.testing.assert_array_equal(ref_set.scores, res_set.scores)


def _synthetic_sample_sets(n_tasks=2, shared=4, extra=4):
    space = JointSearchSpace(hyper_space=TINY_HYPER)
    rng = np.random.default_rng(0)
    from repro.comparator import TaskSampleSet

    shared_pool = space.sample_batch(shared, rng)
    sets = []
    for t in range(n_tasks):
        pool = shared_pool + space.sample_batch(extra, rng)
        scores = np.array(
            [-ah.hyper.hidden_dim + 0.01 * t * ah.hyper.num_nodes for ah in pool]
        )
        preliminary = np.random.default_rng(100 + t).standard_normal(
            (4, 8, 8)
        ).astype(np.float32)
        sets.append(
            TaskSampleSet(
                task_name=f"task{t}", preliminary=preliminary,
                arch_hypers=pool, scores=scores, shared_count=shared,
            )
        )
    return sets


def _fresh_tahc():
    return TAHC(embed_dim=8, gin_layers=1, hidden_dim=8,
                preliminary_dim=8, task_embed_dim=8, seed=0)


class _InterruptAfter:
    """Wrap a function to raise KeyboardInterrupt after N successful calls."""

    def __init__(self, fn, after):
        self.fn = fn
        self.after = after
        self.calls = 0

    def __call__(self, *args, **kwargs):
        if self.calls >= self.after:
            raise KeyboardInterrupt("injected mid-training interrupt")
        self.calls += 1
        return self.fn(*args, **kwargs)


class TestPretrainResume:
    CONFIG = PretrainConfig(
        shared_samples=4, random_samples=4, epochs=6, pairs_per_task=8,
        patience=99,
    )

    def _reference(self):
        model = _fresh_tahc()
        history = pretrain_tahc(model, _synthetic_sample_sets(), self.CONFIG)
        return model, history

    def test_interrupted_pretraining_resumes_bitwise(self, tmp_path, monkeypatch):
        import repro.comparator.pretrain as pretrain_mod

        ref_model, ref_history = self._reference()

        ckpt_path = tmp_path / "pretrain.ckpt"
        model = _fresh_tahc()
        real_pairs = pretrain_mod.dynamic_pairs
        monkeypatch.setattr(
            pretrain_mod, "dynamic_pairs", _InterruptAfter(real_pairs, after=5)
        )
        with pytest.raises(KeyboardInterrupt):
            pretrain_tahc(
                model, _synthetic_sample_sets(), self.CONFIG,
                checkpoint=Checkpoint(ckpt_path, "pretrain"),
            )
        monkeypatch.setattr(pretrain_mod, "dynamic_pairs", real_pairs)

        # Resume into a *fresh* model: everything must come from the file.
        resumed_model = _fresh_tahc()
        resumed_history = pretrain_tahc(
            resumed_model, _synthetic_sample_sets(), self.CONFIG,
            checkpoint=Checkpoint(ckpt_path, "pretrain"),
        )
        assert resumed_history.losses == ref_history.losses
        assert resumed_history.accuracies == ref_history.accuracies
        assert resumed_history.deltas == ref_history.deltas
        for (name, param), (_, ref_param) in zip(
            resumed_model.named_parameters(), ref_model.named_parameters()
        ):
            np.testing.assert_array_equal(
                param.data, ref_param.data, err_msg=f"parameter {name} diverged"
            )

    def test_resume_of_finished_run_is_a_noop(self, tmp_path, monkeypatch):
        import repro.comparator.pretrain as pretrain_mod

        ckpt = Checkpoint(tmp_path / "pretrain.ckpt", "pretrain")
        model = _fresh_tahc()
        history = pretrain_tahc(model, _synthetic_sample_sets(), self.CONFIG,
                                checkpoint=ckpt)

        # Re-running must return the recorded history without training at all.
        def boom(*args, **kwargs):
            raise AssertionError("finished run must not train again")

        monkeypatch.setattr(pretrain_mod, "dynamic_pairs", boom)
        again = pretrain_tahc(
            _fresh_tahc(), _synthetic_sample_sets(), self.CONFIG,
            checkpoint=Checkpoint(tmp_path / "pretrain.ckpt", "pretrain"),
        )
        assert again.losses == history.losses

    def test_changed_config_discards_checkpoint(self, tmp_path):
        ckpt = Checkpoint(tmp_path / "pretrain.ckpt", "pretrain")
        pretrain_tahc(_fresh_tahc(), _synthetic_sample_sets(), self.CONFIG,
                      checkpoint=ckpt)
        other = PretrainConfig(
            shared_samples=4, random_samples=4, epochs=6, pairs_per_task=8,
            patience=99, seed=1,
        )
        # Different run identity: must retrain from scratch, not resume.
        history = pretrain_tahc(
            _fresh_tahc(), _synthetic_sample_sets(), other,
            checkpoint=Checkpoint(tmp_path / "pretrain.ckpt", "pretrain"),
        )
        assert len(history.losses) == other.epochs


def _oracle_compare(score_fn):
    def compare(candidates):
        scores = np.array([score_fn(ah) for ah in candidates])
        return (scores[:, None] < scores[None, :]).astype(np.float32)

    return compare


class TestEvolutionResume:
    SPACE = JointSearchSpace(hyper_space=TINY_HYPER)
    CONFIG = EvolutionConfig(
        initial_samples=8, population_size=4, generations=3,
        offspring_per_generation=4, top_k=2,
    )
    SCORE = staticmethod(lambda ah: -ah.hyper.hidden_dim - 0.1 * len(ah.arch.edges))

    def test_interrupted_search_resumes_bitwise(self, tmp_path):
        reference = EvolutionarySearch(
            self.SPACE, _oracle_compare(self.SCORE), self.CONFIG, seed=3
        ).run()

        compare = _oracle_compare(self.SCORE)
        interrupted = _InterruptAfter(compare, after=2)
        ckpt_path = tmp_path / "evo.ckpt"
        with pytest.raises(KeyboardInterrupt):
            EvolutionarySearch(
                self.SPACE, interrupted, self.CONFIG, seed=3
            ).run(checkpoint=Checkpoint(ckpt_path, "evolution"))
        assert ckpt_path.exists()

        resumed = EvolutionarySearch(
            self.SPACE, compare, self.CONFIG, seed=3
        ).run(checkpoint=Checkpoint(ckpt_path, "evolution"))
        assert [ah.key() for ah in resumed.top_candidates] == [
            ah.key() for ah in reference.top_candidates
        ]
        assert [ah.key() for ah in resumed.final_population] == [
            ah.key() for ah in reference.final_population
        ]
        assert resumed.comparisons == reference.comparisons

    def test_different_seed_discards_checkpoint(self, tmp_path):
        compare = _oracle_compare(self.SCORE)
        ckpt_path = tmp_path / "evo.ckpt"
        EvolutionarySearch(self.SPACE, compare, self.CONFIG, seed=3).run(
            checkpoint=Checkpoint(ckpt_path, "evolution")
        )
        # A different seed is a different run: its result must match a fresh
        # (checkpoint-free) run of that seed, not the seed-3 leftovers.
        fresh = EvolutionarySearch(self.SPACE, compare, self.CONFIG, seed=4).run()
        resumed = EvolutionarySearch(self.SPACE, compare, self.CONFIG, seed=4).run(
            checkpoint=Checkpoint(ckpt_path, "evolution")
        )
        assert [ah.key() for ah in resumed.top_candidates] == [
            ah.key() for ah in fresh.top_candidates
        ]
