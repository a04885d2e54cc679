"""Faults the serving tests inject into a snapshot swap.

The serving stack carries no fault hooks of its own: a test makes one
step of a swap die hard by patching it to raise
:class:`~repro.pipeline.chaos.SimulatedCrash`, and garbles a candidate
file by writing over it.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.pipeline.chaos import SimulatedCrash
from repro.pipeline.store import FailureDatabase
from repro.query.index import DatabaseIndex
from repro.query.snapshot import SnapshotManager

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
