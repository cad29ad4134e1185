"""Degradation is loud, counted, and result-preserving.

Before this warning existed, a broken process pool silently handed
the whole run to the serial path — same answer, a fraction of the
throughput, and nothing in the logs.  Now the one step down, process
pool → in-process serial, emits a structured
:class:`ParallelDegradationWarning` (operator-matchable fields, not
just prose) and bumps ``parallel.serial_fallbacks``, and the model is
byte-identical to the ``n_workers=1`` run.  Each way the pool can fail
to start — no shared memory, a refused shared-memory block, a strategy
that cannot cross the process boundary — takes that same single step.
"""

import types

import numpy as np
import pytest

from repro import telemetry
from repro.core.strategies import RandomSeedStrategy
from repro.io import save_model
from repro.parallel import ParallelDegradationWarning, condense_sharded
from repro.parallel import engine, shm


@pytest.fixture()
def dataset():
    rng = np.random.default_rng(11)
    return rng.normal(size=(400, 3))


def force_pool_failure(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise engine._PoolFailure(RuntimeError("forced by test"))

    monkeypatch.setattr(engine, "_drain_warm_pool", refuse)


def run(data, **overrides):
    options = dict(
        k=8, n_shards=4, n_workers=2, strategy="mdav", random_state=5,
    )
    options.update(overrides)
    return condense_sharded(data, **options)


def model_bytes(model, path):
    save_model(path, model)
    return path.read_bytes()


def run_degraded(data, **overrides):
    """Run expecting exactly one process → serial step; return the
    model and the ``parallel.serial_fallbacks`` count."""
    pipeline = telemetry.configure()
    try:
        with pytest.warns(ParallelDegradationWarning) as captured:
            model = run(data, **overrides)
        fallbacks = pipeline.registry.counter(
            "parallel.serial_fallbacks"
        ).value()
    finally:
        telemetry.disable()
    steps = [
        (w.message.from_backend, w.message.to_backend)
        for w in captured
        if isinstance(w.message, ParallelDegradationWarning)
    ]
    assert steps == [("process", "serial")]
    assert fallbacks == 1
    assert model.metadata["parallel"]["effective_backend"] == "serial"
    assert model.metadata["parallel"]["degraded"] is True
    return model


def test_pool_failure_warns_and_lands_on_serial(monkeypatch, dataset):
    force_pool_failure(monkeypatch)
    with pytest.warns(ParallelDegradationWarning) as captured:
        run(dataset)
    warning = captured[0].message
    assert warning.from_backend == "process"
    assert warning.to_backend == "serial"
    assert warning.n_pending == 4
    assert "forced by test" in warning.reason


def test_degraded_model_is_bit_identical(monkeypatch, dataset, tmp_path):
    baseline = run(dataset)
    assert baseline.metadata["parallel"]["degraded"] is False
    force_pool_failure(monkeypatch)
    degraded = run_degraded(dataset)
    assert model_bytes(degraded, tmp_path / "degraded.json") \
        == model_bytes(baseline, tmp_path / "baseline.json")


def test_missing_shared_memory_degrades_to_serial(monkeypatch, dataset,
                                                  tmp_path):
    reference = run(dataset, n_workers=1)
    monkeypatch.setattr(shm, "_shared_memory", None)
    degraded = run_degraded(dataset)
    assert model_bytes(degraded, tmp_path / "degraded.json") \
        == model_bytes(reference, tmp_path / "reference.json")


def test_refused_shared_memory_block_degrades_to_serial(
    monkeypatch, dataset, tmp_path
):
    reference = run(dataset, n_workers=1)

    def refuse(*_args, **_kwargs):
        raise OSError("no space left on /dev/shm")

    monkeypatch.setattr(
        shm, "_shared_memory", types.SimpleNamespace(SharedMemory=refuse)
    )
    degraded = run_degraded(dataset)
    assert model_bytes(degraded, tmp_path / "degraded.json") \
        == model_bytes(reference, tmp_path / "reference.json")


def test_unpicklable_strategy_degrades_to_serial(dataset, tmp_path):
    strategy = RandomSeedStrategy()
    strategy.hook = lambda: None  # lambdas cannot be pickled
    reference = run(dataset, n_workers=1, strategy=strategy)
    degraded = run_degraded(dataset, strategy=strategy)
    assert model_bytes(degraded, tmp_path / "degraded.json") \
        == model_bytes(reference, tmp_path / "reference.json")


def test_undegraded_run_emits_no_warning(dataset, recwarn):
    model = run(dataset)
    assert model.metadata["parallel"]["effective_backend"] == "process"
    assert not [
        w for w in recwarn.list
        if isinstance(w.message, ParallelDegradationWarning)
    ]
