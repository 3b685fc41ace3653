"""Fixtures shared by the test modules."""

import os
from concurrent.futures import process
from types import SimpleNamespace

import pytest


@pytest.fixture(params=["serial", "pooled"])
def csv_cpus(request, monkeypatch):
    """The CPUs the CSV writer sees: one, which keeps its formatting in
    process, or two, which give it a pool of two worker processes on any
    machine. Yields the CPU count and the list of pools it builds."""
    cpus = {0} if request.param == "serial" else {0, 1}
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    pools = []

    class Recorded(process.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(self)

    monkeypatch.setattr(process, "ProcessPoolExecutor", Recorded)
    return SimpleNamespace(cpus=len(cpus), pools=pools)
