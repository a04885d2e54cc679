"""Tests for the atomic snapshot lifecycle.

The contract under test: readers always see exactly one complete
generation — across hot swaps, corrupt candidates, and simulated hard
crashes at every declared swap kill point — and the last-good snapshot
keeps serving whenever a candidate fails.
"""

from __future__ import annotations

import threading

import pytest

from repro.errors import CorruptDatabaseError
from repro.obs.metrics import MetricsRegistry
from repro.pipeline.chaos import SWAP_POINTS, ServingChaos, SimulatedCrash
from repro.pipeline.checkpoint import canonical_json
from repro.pipeline.config import PipelineConfig
from repro.pipeline.runner import process_corpus
from repro.query.engine import Query, QueryEngine
from repro.query.snapshot import DirectoryWatcher, SnapshotManager
from repro.synth.dataset import SyntheticCorpus

THREADS = 8


@pytest.fixture(scope="module")
def other_db(small_corpus):
    """A second, different database (subset corpus → new fingerprint)."""
    subset = SyntheticCorpus(seed=small_corpus.seed,
                             documents=small_corpus.documents[:2])
    config = PipelineConfig(seed=small_corpus.seed, ocr_enabled=False,
                            dictionary_mode="seed")
    return process_corpus(subset, config).database


class TestSnapshotManager:
    def test_boot_snapshot(self, small_db):
        manager = SnapshotManager(small_db, source="boot")
        snapshot = manager.current()
        assert snapshot.generation == 1
        assert snapshot.fingerprint == small_db.fingerprint()
        assert snapshot.source == "boot"
        assert manager.degraded is False
        assert manager.last_error is None

    def test_accepts_prebuilt_engine(self, small_db):
        engine = QueryEngine(small_db)
        manager = SnapshotManager(engine)
        assert manager.engine is engine

    def test_swap_database_bumps_generation(self, small_db, other_db):
        manager = SnapshotManager(small_db)
        assert manager.swap_database(other_db, source="delta") is True
        snapshot = manager.current()
        assert snapshot.generation == 2
        assert snapshot.fingerprint == other_db.fingerprint()
        assert snapshot.source == "delta"
        # The new engine answers from the new database.
        assert (manager.engine.execute(Query(metric="count")).value
                == QueryEngine(other_db).execute(
                    Query(metric="count")).value)

    def test_same_fingerprint_is_noop(self, small_db):
        manager = SnapshotManager(small_db)
        engine_before = manager.engine
        assert manager.swap_database(small_db) is False
        assert manager.generation == 1
        assert manager.engine is engine_before

    def test_noop_swap_clears_degraded(self, small_db, tmp_path):
        manager = SnapshotManager(small_db)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert manager.load(bad) is False
        assert manager.degraded is True
        # The offered content equals what we serve: healthy again.
        assert manager.swap_database(small_db) is False
        assert manager.degraded is False

    def test_load_good_file(self, small_db, other_db, tmp_path):
        path = tmp_path / "next.json"
        other_db.save(path)
        manager = SnapshotManager(small_db)
        assert manager.load(path) is True
        assert manager.generation == 2
        assert manager.fingerprint == other_db.fingerprint()
        assert manager.current().source == str(path)

    def test_corrupt_json_quarantined(self, small_db, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("\x00garbage", encoding="utf-8")
        manager = SnapshotManager(small_db)
        assert manager.load(bad) is False
        assert manager.generation == 1
        assert manager.degraded is True
        assert manager.stats()["quarantined"] == 1
        # The last-good snapshot still answers.
        manager.engine.execute(Query(metric="dpm"))

    def test_checksum_mismatch_quarantined(self, small_db, other_db,
                                           tmp_path):
        path = tmp_path / "torn.json"
        other_db.save(path)
        # Tear the payload after the sidecar was published.
        text = path.read_text(encoding="utf-8")
        path.write_text(text[: len(text) // 2], encoding="utf-8")
        manager = SnapshotManager(small_db)
        assert manager.load(path) is False
        assert manager.degraded is True
        assert "sha256" in manager.last_error

    def test_wrong_structure_quarantined(self, small_db, tmp_path):
        path = tmp_path / "shape.json"
        path.write_text('{"format": 999}', encoding="utf-8")
        manager = SnapshotManager(small_db)
        assert manager.load(path) is False
        assert manager.degraded is True

    def test_missing_file_propagates(self, small_db, tmp_path):
        manager = SnapshotManager(small_db)
        with pytest.raises(OSError):
            manager.load(tmp_path / "vanished.json")

    def test_successful_swap_clears_quarantine_flag(
            self, small_db, other_db, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        good = tmp_path / "good.json"
        other_db.save(good)
        manager = SnapshotManager(small_db)
        manager.load(bad)
        assert manager.degraded is True
        assert manager.load(good) is True
        assert manager.degraded is False
        assert manager.stats()["quarantined"] == 1  # history survives

    def test_chaos_corrupt_candidate_quarantined(
            self, small_db, other_db, tmp_path):
        path = tmp_path / "next.json"
        other_db.save(path)
        chaos = ServingChaos(corrupt_candidate=True)
        manager = SnapshotManager(small_db, chaos=chaos)
        assert manager.load(path) is False
        assert chaos.injected_corruptions == 1
        assert manager.generation == 1
        assert manager.degraded is True

    @pytest.mark.parametrize("point", SWAP_POINTS)
    def test_crash_at_every_swap_point_preserves_old(
            self, small_db, other_db, tmp_path, point):
        path = tmp_path / "next.json"
        other_db.save(path)
        chaos = ServingChaos(crash_at=point)
        manager = SnapshotManager(small_db, chaos=chaos)
        before = manager.current()
        baseline = canonical_json(
            manager.engine.execute(Query(metric="dpm")).value)
        with pytest.raises(SimulatedCrash):
            manager.load(path)
        # The pointer never moved: same object, same answers.
        assert manager.current() is before
        assert canonical_json(
            manager.engine.execute(Query(metric="dpm")).value
        ) == baseline
        # Recovery: clear the kill point and retry the same swap.
        chaos.crash_at = None
        assert manager.load(path) is True
        assert manager.fingerprint == other_db.fingerprint()

    def test_swap_engine_publishes_prebuilt(self, small_db, other_db):
        manager = SnapshotManager(small_db)
        prebuilt = QueryEngine(other_db)
        assert manager.swap_engine(prebuilt, source="prebuilt") is True
        assert manager.generation == 2
        assert manager.engine is prebuilt
        assert manager.current().source == "prebuilt"
        # Same fingerprint again: a noop that clears degraded state.
        assert manager.swap_engine(QueryEngine(other_db)) is False
        assert manager.generation == 2

    def test_swap_engine_crash_at_publish(self, small_db, other_db):
        chaos = ServingChaos(crash_at="swap-publish")
        manager = SnapshotManager(small_db, chaos=chaos)
        with pytest.raises(SimulatedCrash):
            manager.swap_engine(QueryEngine(other_db))
        assert manager.generation == 1
        assert manager.fingerprint == small_db.fingerprint()

    @pytest.mark.parametrize("point", ("swap-build", "swap-publish"))
    def test_crash_during_database_swap(self, small_db, other_db,
                                        point):
        chaos = ServingChaos(crash_at=point)
        manager = SnapshotManager(small_db, chaos=chaos)
        with pytest.raises(SimulatedCrash):
            manager.swap_database(other_db)
        assert manager.generation == 1
        assert manager.fingerprint == small_db.fingerprint()

    def test_metrics_record_every_outcome(self, small_db, other_db,
                                          tmp_path):
        registry = MetricsRegistry()
        manager = SnapshotManager(small_db, registry=registry)
        manager.swap_database(small_db)            # noop
        manager.swap_database(other_db)            # ok
        bad = tmp_path / "bad.json"
        bad.write_text("nope", encoding="utf-8")
        manager.load(bad)                          # quarantined
        text = registry.render_prometheus()
        assert 'repro_snapshot_swaps_total{outcome="noop"} 1' in text
        assert 'repro_snapshot_swaps_total{outcome="ok"} 1' in text
        assert ('repro_snapshot_swaps_total{outcome="quarantined"} 1'
                in text)
        assert "repro_snapshot_generation 2" in text
        assert "repro_snapshot_quarantined_total 1" in text


class TestDirectoryWatcher:
    def test_missing_directory_is_empty(self, tmp_path):
        watcher = DirectoryWatcher(tmp_path / "nope")
        assert watcher.poll() == []

    def test_reports_new_then_quiesces(self, tmp_path):
        watcher = DirectoryWatcher(tmp_path)
        assert watcher.poll() == []
        (tmp_path / "b.json").write_text("{}", encoding="utf-8")
        (tmp_path / "a.json").write_text("{}", encoding="utf-8")
        assert watcher.poll() == [tmp_path / "a.json",
                                  tmp_path / "b.json"]
        assert watcher.poll() == []

    def test_reports_changed_content(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text("{}", encoding="utf-8")
        watcher = DirectoryWatcher(tmp_path)
        watcher.poll()
        path.write_text('{"v": 22}', encoding="utf-8")
        assert watcher.poll() == [path]

    def test_sidecars_are_not_candidates(self, tmp_path):
        (tmp_path / "db.json").write_text("{}", encoding="utf-8")
        (tmp_path / "db.json.sha256").write_text("x", encoding="utf-8")
        watcher = DirectoryWatcher(tmp_path)
        assert watcher.poll() == [tmp_path / "db.json"]


class TestSwapUnderLoad:
    """Satellite: ≥8 reader threads while snapshots swap underneath.

    Every response must be internally consistent — the result must
    match the serial answer for *the fingerprint the response claims*,
    i.e. all rows from exactly one generation, never a blend.
    """

    QUERIES = [
        Query(metric="dpm"),
        Query(metric="count", group_by="manufacturer"),
        Query(metric="miles", group_by="month"),
        Query(metric="tags"),
    ]

    def test_engine_reads_never_blend_generations(
            self, small_db, other_db):
        expected = {}
        for db in (small_db, other_db):
            serial = QueryEngine(db)
            expected[db.fingerprint()] = {
                q.canonical(): canonical_json(serial.execute(q).value)
                for q in self.QUERIES}
        manager = SnapshotManager(small_db)
        failures: list[str] = []
        stop = threading.Event()
        barrier = threading.Barrier(THREADS + 1)

        def reader(offset: int) -> None:
            barrier.wait()
            rounds = 0
            while not stop.is_set() or rounds < 20:
                rounds += 1
                q = self.QUERIES[(offset + rounds) % len(self.QUERIES)]
                snapshot = manager.current()
                result = snapshot.engine.execute(q)
                known = expected.get(result.fingerprint)
                if known is None:
                    failures.append(
                        f"unknown fingerprint {result.fingerprint}")
                elif (canonical_json(result.value)
                      != known[q.canonical()]):
                    failures.append(
                        f"{q.metric}: blended generations "
                        f"(fingerprint {result.fingerprint[:8]})")
                if rounds >= 400:
                    break

        def swapper() -> None:
            barrier.wait()
            for i in range(30):
                manager.swap_database(
                    other_db if i % 2 == 0 else small_db)
            stop.set()

        threads = [threading.Thread(target=reader, args=(n,))
                   for n in range(THREADS)]
        threads.append(threading.Thread(target=swapper))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures
        assert manager.generation == 1 + 30  # every swap published
