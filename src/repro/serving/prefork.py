"""The pre-fork master: port ownership, supervision, coordination.

Layout (one master, N workers, one shared port)::

    PreforkServer (master — owns nothing on the request path)
      ├─ port reservation        SO_REUSEPORT bound-but-not-listening
      ├─ generation file         the hot-swap pointer (publish())
      ├─ worker 0..N-1           forked; each a full QueryServer
      └─ supervisor thread       respawns crashed workers

**Port handling.**  The master binds a ``SO_REUSEPORT`` reservation
socket but never listens on it — TCP only routes SYNs to *listening*
sockets, so the reservation is inert; it exists to resolve ``port=0``
to a concrete port once and to keep that port stable across worker
respawns.  Each worker then binds its own ``SO_REUSEPORT`` socket and
the kernel load-balances accepts.  Every platform with the ``fork``
start method pre-fork needs (Linux, macOS, the BSDs) defines the
option; where it is missing, :meth:`PreforkServer.start` raises
``ValueError`` before it forks.

**Supervision.**  A worker that dies for any reason while the server
is running is respawned under the same worker id (same metrics dump
slot, same generation file), and the respawn catches up to the
current generation at boot.  Shutdown SIGTERMs every worker; each
drains in-flight requests (the PR 6 graceful-drain path) before
exiting, and stragglers are killed after the drain timeout.

**Hot swap.**  :meth:`PreforkServer.publish` atomically bumps the
generation file; every worker's watcher loads the new database
through its own snapshot manager.  During the propagation window
different workers may serve adjacent generations, but every single
response is built from exactly one — and each carries its
fingerprint, so clients (and the swap-under-load tests) can prove it.
"""

from __future__ import annotations

import json
import multiprocessing
import shutil
import signal
import socket
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

from .generation import GenerationFile
from .worker import WorkerConfig, run_worker


def _worker_entry(config: WorkerConfig) -> None:
    """Child-process entry point (module-level: picklable by name)."""
    sys.exit(run_worker(config))


class PreforkServer:
    """Master for ``repro serve --processes N``.

    Usable as a context manager (the test/embedding mode)::

        with PreforkServer("db.json", port=0, processes=2) as server:
            server.wait_ready()
            urllib.request.urlopen(server.url + "/v1/healthz")
    """

    def __init__(self, db_path: str | Path,
                 host: str = "127.0.0.1", port: int = 8350, *,
                 processes: int = 2,
                 run_dir: str | Path | None = None,
                 cache_size: int = 256,
                 max_inflight: int = 64,
                 deadline_s: float = 10.0,
                 drain_timeout_s: float = 5.0,
                 verbose: bool = False) -> None:
        if processes < 1:
            raise ValueError(
                f"processes must be >= 1, got {processes}")
        self.db_path = str(db_path)
        self.requested_host = host
        self.requested_port = port
        self.processes = processes
        self._cache_size = cache_size
        self._max_inflight = max_inflight
        self._deadline_s = deadline_s
        self._drain_timeout_s = drain_timeout_s
        self._verbose = verbose
        self._owns_run_dir = run_dir is None
        self.run_dir = Path(run_dir) if run_dir is not None else None
        self._reservation: socket.socket | None = None
        self._workers: list[multiprocessing.process.BaseProcess | None]
        self._workers = [None] * processes
        self._supervisor: threading.Thread | None = None
        self._stopping = threading.Event()
        self._started = False
        self._host = host
        self._port = port
        self.generation_file: GenerationFile | None = None

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    @property
    def host(self) -> str:
        return self._host

    @property
    def port(self) -> int:
        """The resolved port (concrete also when constructed with 0)."""
        return self._port

    @property
    def url(self) -> str:
        return f"http://{self._host}:{self._port}"

    @property
    def generation(self) -> int:
        """The currently published generation."""
        current = (self.generation_file.read()
                   if self.generation_file else None)
        return current.generation if current else 0

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def start(self) -> "PreforkServer":
        """Reserve the port, publish generation 1, fork the
        workers, and begin supervising.  Idempotent.

        Raises ``ValueError`` where the socket layer lacks
        ``SO_REUSEPORT``: each worker binds the shared port itself.
        """
        if self._started:
            return self
        if not hasattr(socket, "SO_REUSEPORT"):
            raise ValueError(
                "pre-fork serving needs SO_REUSEPORT, which this "
                "platform's socket module does not define; use the "
                "single-process QueryServer (repro serve --processes "
                "0) instead")
        self._started = True
        if self.run_dir is None:
            self.run_dir = Path(tempfile.mkdtemp(
                prefix="repro-serving-"))
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self._metrics_dir = self.run_dir / "metrics"
        self._metrics_dir.mkdir(exist_ok=True)
        self.generation_file = GenerationFile(
            self.run_dir / "generation.json")
        self.generation_file.publish(self.db_path)
        self._reserve_port()
        context = multiprocessing.get_context("fork")
        self._context = context
        for worker_id in range(self.processes):
            self._workers[worker_id] = self._spawn(worker_id)
        self._supervisor = threading.Thread(
            target=self._supervise, name="repro-prefork-supervisor",
            daemon=True)
        self._supervisor.start()
        return self

    def _reserve_port(self) -> None:
        # Bound but never listening: resolves port=0 once and pins the
        # number for every (re)spawned worker.  TCP only routes SYNs
        # to listening sockets, so this socket never steals a
        # connection.
        reservation = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        reservation.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        reservation.bind((self.requested_host, self.requested_port))
        self._reservation = reservation
        self._host, self._port = reservation.getsockname()[:2]

    def _worker_config(self, worker_id: int) -> WorkerConfig:
        return WorkerConfig(
            worker_id=worker_id,
            host=self._host,
            port=self._port,
            generation_path=str(self.generation_file.path),
            metrics_dir=str(self._metrics_dir),
            cache_size=self._cache_size,
            max_inflight=self._max_inflight,
            deadline_s=self._deadline_s,
            drain_timeout_s=self._drain_timeout_s,
            verbose=self._verbose)

    def _spawn(self, worker_id: int):
        process = self._context.Process(
            target=_worker_entry,
            args=(self._worker_config(worker_id),),
            name=f"repro-serving-worker-{worker_id}",
            daemon=False)
        process.start()
        return process

    def _supervise(self) -> None:
        while not self._stopping.is_set():
            for worker_id, process in enumerate(self._workers):
                if process is None or process.is_alive():
                    continue
                process.join()
                if self._stopping.is_set():
                    break
                self._workers[worker_id] = self._spawn(worker_id)
            self._stopping.wait(0.1)

    def wait_ready(self, timeout: float = 30.0) -> bool:
        """Block until the port answers ``/v1/healthz`` with 200."""
        deadline = time.monotonic() + timeout
        url = self.url + "/v1/healthz"
        while time.monotonic() < deadline:
            try:
                with urllib.request.urlopen(url, timeout=2) as res:
                    if res.status == 200:
                        return True
            except (urllib.error.URLError, OSError):
                pass
            time.sleep(0.05)
        return False

    def publish(self, db_path: str | Path) -> int:
        """Hot-swap: point every worker at a new database file.

        Returns the published generation number.  Workers converge
        within their poll interval; a worker that finds the candidate
        corrupt quarantines it locally and keeps serving last-good.
        """
        return self.generation_file.publish(db_path).generation

    def scrape_metrics(self, timeout: float = 10.0) -> str:
        """One aggregated ``/metrics`` scrape (whichever worker
        answers merges every sibling's dump)."""
        with urllib.request.urlopen(self.url + "/metrics",
                                    timeout=timeout) as res:
            return res.read().decode("utf-8")

    def shutdown(self) -> None:
        """SIGTERM every worker, wait for graceful drains, clean up."""
        if not self._started:
            return
        self._stopping.set()
        if self._supervisor is not None:
            self._supervisor.join(timeout=5.0)
            self._supervisor = None
        for process in self._workers:
            if process is not None and process.is_alive():
                process.terminate()  # SIGTERM -> graceful drain
        deadline = time.monotonic() + self._drain_timeout_s + 5.0
        for process in self._workers:
            if process is None:
                continue
            remaining = max(deadline - time.monotonic(), 0.1)
            process.join(timeout=remaining)
            if process.is_alive():
                process.kill()
                process.join(timeout=5.0)
        self._workers = [None] * self.processes
        if self._reservation is not None:
            self._reservation.close()
            self._reservation = None
        if self._owns_run_dir and self.run_dir is not None:
            shutil.rmtree(self.run_dir, ignore_errors=True)
        self._started = False

    def __enter__(self) -> "PreforkServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


def serve_prefork(db_path: str | Path, host: str = "127.0.0.1",
                  port: int = 8350, *, processes: int = 2,
                  run_dir: str | Path | None = None,
                  cache_size: int = 256,
                  max_inflight: int = 64,
                  deadline_s: float = 10.0,
                  verbose: bool = True,
                  watch: str | Path | None = None,
                  watch_interval_s: float = 2.0) -> None:
    """Blocking entry point (``repro serve --processes N``).

    With ``watch``, the *master* polls the directory for database
    drops and publishes each one through the generation file — the
    workers do the loading (and per-worker quarantine of corrupt
    candidates).
    """
    from ..query.snapshot import DirectoryWatcher

    server = PreforkServer(
        db_path, host, port, processes=processes, run_dir=run_dir,
        cache_size=cache_size, max_inflight=max_inflight,
        deadline_s=deadline_s, verbose=verbose)
    server.start()
    if verbose:
        print(json.dumps({
            "serving": server.url, "processes": processes,
        }), file=sys.stderr)
    watcher = DirectoryWatcher(watch) if watch is not None else None
    stop = threading.Event()
    try:
        # SIGTERM (systemd, CI `kill`) drains like Ctrl-C instead of
        # orphaning the workers.
        signal.signal(signal.SIGTERM, lambda *_: stop.set())
    except ValueError:
        pass  # not the main thread (embedded use); Ctrl-C still works
    try:
        while not stop.is_set():
            if watcher is not None:
                for path in watcher.poll():
                    server.publish(path)
                stop.wait(watch_interval_s)
            else:
                stop.wait(3600)
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
