"""Golden content addresses: fingerprints must stay byte-identical.

Eval-cache entries, warm-resume snapshots and registry dedup are all keyed
by these hex digests, so a refactor that silently changes one orphans every
cached score and served result.  The digests below are pinned literals;
a change here must come with a ``CACHE_KEY_VERSION`` bump and a reason.

The inputs are built from exact integer arithmetic (no RNG streams, no
transcendental functions) so the digests do not depend on the numpy
version or platform.
"""

from __future__ import annotations

import numpy as np

from repro.data.datasets import CTSData
from repro.runtime.fingerprint import proxy_fingerprint, warm_lineage_fingerprint
from repro.service.protocol import parse_submit, request_fingerprint
from repro.space.archhyper import ArchHyper
from repro.tasks import ProxyConfig, Task

ARCH_HYPER = ArchHyper.from_dict(
    {
        "arch": {
            "num_nodes": 7,
            "edges": [
                (0, 1, "gdcc"),
                (0, 2, "inf_s"),
                (0, 6, "dgcn"),
                (2, 3, "skip"),
                (2, 4, "dgcn"),
                (4, 5, "inf_s"),
            ],
        },
        "hyper": {"B": 6, "C": 7, "H": 48, "I": 64, "U": 0, "delta": 0},
    }
)

ENGINE_FINGERPRINT = "0123456789abcdef" * 4


def _values() -> np.ndarray:
    return ((np.arange(4 * 120) % 17).astype(np.float32) * 0.25 + 8.0).reshape(
        4, 120, 1
    )


def _adjacency() -> np.ndarray:
    return np.ones((4, 4), dtype=np.float32)


def _task(masked: bool = False) -> Task:
    mask = None
    if masked:
        mask = (np.arange(4 * 120) % 11 != 0).reshape(4, 120, 1)
    data = CTSData("golden", _values(), _adjacency(), "test", mask=mask)
    return Task(data, p=6, q=3)


def _spec() -> dict:
    return {
        "name": "golden",
        "values": _values().tolist(),
        "adjacency": _adjacency().tolist(),
        "p": 6,
        "q": 3,
    }


class TestGoldenProxyFingerprints:
    def test_clean_task(self):
        assert proxy_fingerprint(ARCH_HYPER, _task(), ProxyConfig()) == (
            "b4f3eeda09e0c78c0ccc6fc9ea101a76720146470af422a2a4d0a433277aee70"
        )

    def test_masked_task(self):
        assert proxy_fingerprint(ARCH_HYPER, _task(masked=True), ProxyConfig()) == (
            "d68c7455e1e9d0af904384b6994c51853dd7dc9ac0bddf985f474414177c71ef"
        )

    def test_partial_fidelity(self):
        config = ProxyConfig(epochs=4, fidelity_epochs=2)
        assert proxy_fingerprint(ARCH_HYPER, _task(), config) == (
            "8d1d2f19ba833402ab570e0ac5a4643b751c2d056d0c6ae7f9c9bcc79c28d5ba"
        )

    def test_warm_lineage(self):
        config = ProxyConfig(epochs=4, fidelity_epochs=2, warm_dir="warm")
        assert warm_lineage_fingerprint(ARCH_HYPER, _task(), config) == (
            "285994fb5bf908b35af21ff6038f6dae5fdb24c2eae2cc763adb51ac60b37507"
        )


class TestGoldenRequestFingerprints:
    def test_collect_submission(self):
        request = parse_submit(
            {
                "kind": "collect",
                "task": _spec(),
                "options": {"n_samples": 4},
                "runtime": {"workers": 2, "fidelity_schedule": "3:3:1"},
            }
        )
        assert request_fingerprint(request, ENGINE_FINGERPRINT) == (
            "68ecadb24a8f9a26b8c03c7d8bf2a06a4be18727d08d7f406370ed3470daec0c"
        )

    def test_search_submission(self):
        # The service runs a zero-shot search as the "rank" job kind.
        request = parse_submit(
            {"kind": "rank", "task": _spec(), "options": {"top_k": 2}}
        )
        assert request_fingerprint(request, ENGINE_FINGERPRINT) == (
            "ce55c6a4dbf0a0ee931abfe9405aef509a0e0857d06f5f786733587831518122"
        )
