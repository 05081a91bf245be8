"""Shared fixtures: a small deterministic dataset and a trained model.

Session-scoped so the (pure-numpy) training cost is paid once per test run.

A session-wide leak guard fails the run if any campaign worker process,
live observability server thread or shared-memory golden-cache segment
outlives the suite.

Hypothesis profiles: ``dev`` (default) keeps the randomized search; ``ci``
derandomizes it so carry-style regressions fail loudly and reproducibly in
CI.  Select with ``HYPOTHESIS_PROFILE=ci``.
"""

from __future__ import annotations

import multiprocessing
import os
import threading

import numpy as np
import pytest
from hypothesis import settings

from repro.data import SyntheticImageNet, make_splits, train
from repro.exec import live_segments
from repro.models import simple_cnn

settings.register_profile("dev", deadline=None)
settings.register_profile("ci", deadline=None, derandomize=True,
                          max_examples=50, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


@pytest.fixture(scope="session", autouse=True)
def no_leaked_workers_threads_or_segments():
    """Fail the run if the suite leaves executor state behind."""
    segments_before = set(live_segments())
    yield
    leaks = []
    children = multiprocessing.active_children()
    if children:
        leaks.append(f"worker processes still running: {children}")
    servers = [t for t in threading.enumerate()
               if t.name == "repro-live-obs" and t.is_alive()]
    if servers:
        leaks.append(f"{len(servers)} live observability server thread(s)")
    segments = sorted(set(live_segments()) - segments_before)
    if segments:
        leaks.append(f"shared-memory segments left in /dev/shm: {segments}")
    if leaks:
        pytest.fail("; ".join(leaks))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def small_dataset():
    """A small but learnable synthetic dataset (6 classes, 32x32)."""
    return SyntheticImageNet(num_classes=6, num_samples=240, image_size=32, seed=7)


@pytest.fixture(scope="session")
def splits(small_dataset):
    return make_splits(small_dataset)


@pytest.fixture(scope="session")
def trained_model(splits):
    """A simple CNN trained well enough for format/injection experiments."""
    train_split, val_split = splits
    result = train(simple_cnn(num_classes=6, seed=0), train_split, val_split,
                   epochs=4, seed=0)
    assert result.val_accuracy > 0.5, (
        f"fixture model failed to train (val accuracy {result.val_accuracy})"
    )
    result.model.eval()
    return result.model


@pytest.fixture(scope="session")
def val_data(splits):
    return splits[1]


@pytest.fixture()
def val_batch(val_data):
    images, labels = val_data
    return images[:16], labels[:16]
