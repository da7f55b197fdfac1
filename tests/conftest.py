import os

import pytest


@pytest.fixture
def one_cpu(monkeypatch):
    """run_compare sees one usable CPU, so it fits in process, with no pool."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


@pytest.fixture
def two_cpus(monkeypatch):
    """run_compare sees two usable CPUs, so a plan of two or more fits runs
    in a two-worker pool on any machine."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
