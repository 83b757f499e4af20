"""The end-to-end benchmark's contract with the program.

``benchmarks/e2e`` imports program names and wraps program functions by
their dotted paths (its probes).  A deletion or rename that removes one of
them makes every benchmark run exit non-zero before it measures anything.
This test imports the workload module and installs, then removes, every
probe against the real program, so such a break fails tier-1 instead.
"""

from __future__ import annotations

import importlib
from pathlib import Path

E2E_DIR = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"


def _resolve(target: str):
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for name in path:
        owner = getattr(owner, name)
    return vars(owner)[attr]


def test_every_probe_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(E2E_DIR))
    workloads = importlib.import_module("e2e_workloads")
    trace = importlib.import_module("e2e_trace")
    probes = workloads.SETUP_PROBES + workloads.SERVICE_PROBES
    originals = {probe.target: _resolve(probe.target) for probe in probes}

    patches = trace.Patches(trace.SpanRecorder(), probes)
    try:
        patches.install()
        wrapped = [t for t, original in originals.items() if _resolve(t) is not original]
    finally:
        patches.uninstall()

    assert sorted(wrapped) == sorted(originals)
    assert all(_resolve(t) is original for t, original in originals.items())
