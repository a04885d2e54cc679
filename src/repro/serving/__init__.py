"""Scale-out serving: a pre-fork multi-process HTTP front end.

One :class:`~repro.query.server.QueryServer` is GIL-bound: a single
process can keep exactly one core busy no matter how many handler
threads it runs.  This package scales the same API surface across
cores without giving up any single-process guarantee:

* :mod:`~repro.serving.prefork` — :class:`PreforkServer`: the master.
  Reserves the port with ``SO_REUSEPORT`` (each worker binds its own
  socket to it; without the option, :meth:`PreforkServer.start`
  raises ``ValueError``), forks ``N`` workers, supervises them
  (crash-respawn), and drains them gracefully on shutdown.
* :mod:`~repro.serving.worker` — :func:`run_worker`: one worker
  process.  Holds its own immutable index/engine behind a
  :class:`~repro.query.snapshot.SnapshotManager`, serves the ``/v1``
  API, flushes its :class:`~repro.obs.metrics.MetricsRegistry` dump
  to disk, and aggregates every sibling's dump into one ``/metrics``
  exposition at scrape time.
* :mod:`~repro.serving.generation` — :class:`GenerationFile` +
  :class:`GenerationWatcher`: hot-swap coordination.  The master
  publishes ``{generation, path}`` atomically; each worker watches
  the file and loads the new database through its snapshot manager,
  so every response still comes from exactly one generation and a
  corrupt candidate is quarantined per-worker, last-good keeps
  serving.

Consistency across processes is *eventual by generation*: during a
swap, different workers may briefly serve adjacent generations, but
any single response is built from exactly one — the same per-request
snapshot capture the threaded server already guarantees, plus
fingerprint-scoped page cursors that refuse to span generations.

Quickstart::

    from repro.api import PreforkServer

    with PreforkServer("db.json", port=0, processes=4) as server:
        server.wait_ready()
        ...  # http://127.0.0.1:<port>/v1/query
        server.publish("db-next.json")  # hot-swap every worker
"""
