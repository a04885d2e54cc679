"""Faults the tests inject into a pipeline run or a snapshot swap.

Neither the pipeline nor the serving stack carries fault hooks of its
own.  A pipeline test makes guarded units fail by patching
:meth:`~repro.pipeline.resilience.StageGuard.run` (:func:`inject`); a
serving test makes one step of a swap die hard by patching it to raise
:class:`~repro.pipeline.chaos.SimulatedCrash`, and garbles a candidate
file by writing over it.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.pipeline.chaos import SimulatedCrash
from repro.pipeline.resilience import StageGuard
from repro.pipeline.store import FailureDatabase
from repro.query.index import DatabaseIndex
from repro.query.snapshot import SnapshotManager
from repro.rng import child_generator


class ChaosError(RuntimeError):
    """The fault :func:`inject` raises.

    Deliberately not a :class:`~repro.errors.ReproError`: it models an
    arbitrary unexpected crash, so it exercises the guard's generic
    handling rather than any domain-specific catch.
    """


@contextmanager
def inject(stage: str, rate: float, seed: int) -> Iterator[None]:
    """Within the block, a guarded unit of ``stage`` fails with
    :class:`ChaosError` when its draw falls below ``rate``.

    Each ``(stage, unit_id)`` draws from its own child stream of
    ``seed``, so whether a unit fails does not depend on processing
    order, and two runs with the same seed fail the same units.
    """
    run = StageGuard.run

    def faulty_run(self, name, unit_id, func, **kwargs):
        if name != stage:
            return run(self, name, unit_id, func, **kwargs)
        rng = child_generator(seed, f"chaos:{stage}:{unit_id}")

        def faulty():
            if rng.random() < rate:
                raise ChaosError(f"injected fault at {stage}:{unit_id}")
            return func()

        return run(self, name, unit_id, faulty, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(StageGuard, "run", faulty_run)
        yield


#: The steps of a swap, each as the attribute a crash there replaces:
#: reading the candidate file, building its index, and publishing the
#: built engine (the last instant a crash could tear the swap).
SWAP_STEPS = {
    "swap-load": (FailureDatabase, "load"),
    "swap-build": (DatabaseIndex, "build"),
    "swap-publish": (SnapshotManager, "_publish"),
}


def _die(*args, **kwargs):
    raise SimulatedCrash("simulated hard crash")


@contextmanager
def swap_crash(step: str) -> Iterator[None]:
    """Within the block, every swap dies hard at ``step``."""
    owner, attribute = SWAP_STEPS[step]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(owner, attribute, _die)
        yield


def tear(path: Path) -> None:
    """Garble a saved database file as a torn write would: a NUL, then
    the first half of its bytes, beside its still-valid sidecar."""
    data = path.read_bytes()
    path.write_bytes(b"\x00" + data[: max(1, len(data) // 2)])
