"""Sqlite persistence for sweep-as-a-service: result index + job queue.

Two stores back the always-on coordinator (:mod:`repro.service`):

* :class:`SqliteResultCache` -- a drop-in
  :class:`~repro.experiments.orchestrator.ResultCache` whose index
  lives in ``<root>/index.sqlite3`` instead of the flock'd
  ``index.json``.  The ``.repro_cache/`` data blobs (one JSON file per
  simulated cell) are unchanged, so every existing consumer of the
  cache directory keeps working; only the LRU/stats bookkeeping moves
  into sqlite, whose page-level locking survives thousands of
  concurrent cells where rewriting one JSON index per touch will not.
  On first open an existing ``index.json`` is adopted one time --
  lifetime stats and LRU order carry over -- and renamed to
  ``index.json.migrated`` so the two bookkeeping schemes never run
  side by side.

* :class:`JobStore` -- the coordinator's persistent job queue and
  event log.  Jobs (sweep / scenario / report submissions over the
  HTTP API) survive coordinator crashes: a SIGKILLed coordinator
  restarts, moves its ``running`` jobs back to ``queued``
  (:meth:`JobStore.requeue_running`), and resumes -- finished cells
  are already in the result cache, so the resumed job fast-forwards
  through cache hits.  :meth:`JobStore.claim_next` implements the
  scheduling policy: strict priority first, then **fair share** across
  submitters (the submitter with the fewest already-started jobs goes
  first), then FIFO.

Both stores open one sqlite connection per thread (WAL journal, busy
timeout) so the HTTP handler threads, the scheduler, and concurrent
submitter processes can share them without a global lock.  Instances
must not be shared across ``fork()`` -- each process opens its own.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import sqlite3
import threading
import time
import weakref
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.experiments.orchestrator import ResultCache
from repro.experiments.runner import RunResult
from repro.service import JOB_STATES

#: Longest :meth:`JobStore.wait_for_change` blocks without a wake-up.
#: Writes through the same :class:`JobStore` wake waiters at once; this
#: only bounds how late a change made by another process is noticed.
IDLE_RECHECK_S = 1.0


class _Connection(sqlite3.Connection):
    """A connection :data:`_LIVE` can refer to weakly."""


#: Every open connection, and the ones a fork pinned (see below).
_LIVE: "weakref.WeakSet[_Connection]" = weakref.WeakSet()
_PINNED: List[_Connection] = []


def _before_fork() -> None:
    # The local backend forks pool workers while other threads may be
    # inside sqlite, holding one of its mutexes.  A child that then ran
    # sqlite code would wait on that mutex forever, so it must free no
    # sqlite object it inherits: every open connection is pinned (a
    # thread-local one of a thread the child lacks would be closed), and
    # inherited garbage -- cursors in reference cycles, say -- is frozen
    # out of the child's collector.
    _PINNED[:] = _LIVE
    gc.freeze()


def _after_fork_in_parent() -> None:
    _PINNED.clear()
    gc.unfreeze()


os.register_at_fork(before=_before_fork,
                    after_in_parent=_after_fork_in_parent)


def _connect(path: Union[str, Path]) -> sqlite3.Connection:
    """A WAL-mode autocommit connection (transactions are explicit)."""
    con = sqlite3.connect(str(path), timeout=30.0, isolation_level=None,
                          factory=_Connection)
    _LIVE.add(con)
    con.execute("PRAGMA journal_mode=WAL")
    con.execute("PRAGMA synchronous=NORMAL")
    con.execute("PRAGMA busy_timeout=30000")
    return con


@contextlib.contextmanager
def _txn(con: sqlite3.Connection) -> Iterator[sqlite3.Connection]:
    """One IMMEDIATE transaction: the write lock is taken up front, so
    read-modify-write sequences are atomic across processes."""
    con.execute("BEGIN IMMEDIATE")
    try:
        yield con
    except BaseException:
        con.execute("ROLLBACK")
        raise
    con.execute("COMMIT")


class SqliteResultCache(ResultCache):
    """A ResultCache whose index is a sqlite database, not a JSON file.

    Same directory layout for data (``<root>/<key>.json`` blobs), same
    public API and lifetime counters, same LRU semantics -- but every
    get/put touches only the affected row instead of rewriting the
    whole index under an exclusive flock.  Safe for many concurrent
    processes and threads (sqlite WAL + per-thread connections).
    """

    INDEX_DB = "index.sqlite3"

    #: ``index.json`` is renamed to this after its one-time adoption.
    MIGRATED_NAME = "index.json.migrated"

    _COUNTERS = ("hits", "misses", "evictions", "puts")

    def __init__(
        self,
        root: Optional[Union[str, Path]] = None,
        max_bytes: Optional[int] = None,
    ) -> None:
        super().__init__(root, max_bytes=max_bytes)
        self._tls = threading.local()

    # -- connection / schema ---------------------------------------------

    def _db(self) -> sqlite3.Connection:
        con = getattr(self._tls, "con", None)
        if con is None:
            self.root.mkdir(parents=True, exist_ok=True)
            con = _connect(self.root / self.INDEX_DB)
            con.execute(
                "CREATE TABLE IF NOT EXISTS meta "
                "(k TEXT PRIMARY KEY, v INTEGER NOT NULL)"
            )
            con.execute(
                "CREATE TABLE IF NOT EXISTS entries (key TEXT PRIMARY KEY, "
                "size INTEGER NOT NULL, tick INTEGER NOT NULL)"
            )
            con.execute(
                "CREATE INDEX IF NOT EXISTS entries_lru ON entries (tick, key)"
            )
            self._tls.con = con
            self._adopt_legacy_index(con)
        return con

    def _adopt_legacy_index(self, con: sqlite3.Connection) -> None:
        """One-time import of a pre-sqlite ``index.json`` (and of any
        stray data blobs), preserving lifetime stats and LRU order."""
        with _txn(con):
            con.executemany(
                "INSERT OR IGNORE INTO meta (k, v) VALUES (?, 0)",
                [(k,) for k in ("adopted", "tick") + self._COUNTERS],
            )
            if con.execute(
                "SELECT v FROM meta WHERE k='adopted'"
            ).fetchone()[0]:
                return
            # The salvage-capable JSON reader: parses what it can of a
            # legacy index and reconciles the directory's blobs in.
            legacy = ResultCache._read_index(self)
            for field in self._COUNTERS:
                con.execute(
                    "UPDATE meta SET v = v + ? WHERE k = ?",
                    (int(legacy["stats"][field]), field),
                )
            con.execute(
                "UPDATE meta SET v = ? WHERE k = 'tick'",
                (int(legacy["tick"]),),
            )
            con.executemany(
                "INSERT OR REPLACE INTO entries (key, size, tick) "
                "VALUES (?, ?, ?)",
                [
                    (key, int(entry["size"]), int(entry["tick"]))
                    for key, entry in legacy["entries"].items()
                ],
            )
            con.execute("UPDATE meta SET v = 1 WHERE k = 'adopted'")
        with contextlib.suppress(OSError):
            os.replace(
                self.root / self.INDEX_NAME, self.root / self.MIGRATED_NAME
            )

    # -- row helpers (call inside a transaction) -------------------------

    @staticmethod
    def _bump(con: sqlite3.Connection, field: str, n: int = 1) -> None:
        con.execute("UPDATE meta SET v = v + ? WHERE k = ?", (n, field))

    @staticmethod
    def _next_tick(con: sqlite3.Connection) -> int:
        con.execute("UPDATE meta SET v = v + 1 WHERE k = 'tick'")
        return con.execute("SELECT v FROM meta WHERE k='tick'").fetchone()[0]

    def _touch_row(self, con: sqlite3.Connection, key: str, size: int) -> None:
        con.execute(
            "INSERT OR REPLACE INTO entries (key, size, tick) VALUES (?, ?, ?)",
            (key, size, self._next_tick(con)),
        )

    def _evict_rows(
        self,
        con: sqlite3.Connection,
        max_bytes: int,
        protect: Tuple[str, ...] = (),
    ) -> List[str]:
        """Drop LRU rows until the cap holds; returns the victims (the
        caller unlinks their blobs after commit)."""
        if max_bytes <= 0:
            return []
        total = con.execute(
            "SELECT COALESCE(SUM(size), 0) FROM entries"
        ).fetchone()[0]
        victims: List[str] = []
        for key, size in con.execute(
            "SELECT key, size FROM entries ORDER BY tick, key"
        ).fetchall():
            if total <= max_bytes:
                break
            if key in protect:
                continue
            victims.append(key)
            total -= size
        for key in victims:
            con.execute("DELETE FROM entries WHERE key = ?", (key,))
        if victims:
            self._bump(con, "evictions", len(victims))
            self.evictions += len(victims)
        return victims

    def _reconcile_rows(self, con: sqlite3.Connection) -> None:
        """Make the rows agree with the directory (inside a txn)."""
        for (key,) in con.execute("SELECT key FROM entries").fetchall():
            if not self.path_for(key).is_file():
                con.execute("DELETE FROM entries WHERE key = ?", (key,))
        for path in self._data_files():
            key = path.stem
            if not con.execute(
                "SELECT 1 FROM entries WHERE key = ?", (key,)
            ).fetchone():
                con.execute(
                    "INSERT INTO entries (key, size, tick) VALUES (?, ?, 0)",
                    (key, path.stat().st_size),
                )

    # -- public API ------------------------------------------------------

    def get(self, key: str) -> Optional[RunResult]:
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            result = RunResult.from_dict(data)
            size = path.stat().st_size
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            if self.root.is_dir():  # a miss never conjures the directory
                con = self._db()
                with _txn(con):
                    self._bump(con, "misses")
            return None
        self.hits += 1
        con = self._db()
        with _txn(con):
            self._bump(con, "hits")
            # LRU: a hit refreshes recency -- but only while the blob
            # still exists, else a concurrent eviction between the read
            # above and this transaction would be resurrected as an
            # orphan row (same hazard as ResultCache.get).
            if con.execute(
                "SELECT 1 FROM entries WHERE key = ?", (key,)
            ).fetchone() or path.is_file():
                self._touch_row(con, key, size)
        return result

    def put(self, key: str, result: RunResult) -> None:
        size = self._write_blob(key, result)
        con = self._db()
        with _txn(con):
            if not self.path_for(key).is_file():
                # A concurrent eviction raced the blob away between the
                # write above and this transaction; restore it so the
                # row never points at a missing file.
                size = self._write_blob(key, result)
            self._bump(con, "puts")
            self._touch_row(con, key, size)
            victims = self._evict_rows(con, self.max_bytes, protect=(key,))
        for victim in victims:
            with contextlib.suppress(OSError):
                self.path_for(victim).unlink()

    def prune(self, max_bytes: Optional[int] = None) -> int:
        target = self.max_bytes if max_bytes is None else max(0, int(max_bytes))
        if target <= 0:
            return 0
        con = self._db()
        with _txn(con):
            self._reconcile_rows(con)
            victims = self._evict_rows(con, target)
        for victim in victims:
            with contextlib.suppress(OSError):
                self.path_for(victim).unlink()
        return len(victims)

    def stats(self) -> Dict[str, object]:
        con = self._db()
        with _txn(con):
            self._reconcile_rows(con)
            entries, size_bytes = con.execute(
                "SELECT COUNT(*), COALESCE(SUM(size), 0) FROM entries"
            ).fetchone()
            counters = dict(
                con.execute(
                    "SELECT k, v FROM meta WHERE k IN (?, ?, ?, ?)",
                    self._COUNTERS,
                ).fetchall()
            )
        return {
            "root": str(self.root),
            "index": "sqlite",
            "entries": entries,
            "size_bytes": size_bytes,
            "max_bytes": self.max_bytes,
            **{field: counters.get(field, 0) for field in self._COUNTERS},
        }

    def clear(self) -> int:
        if not self.root.is_dir():
            return 0
        con = self._db()
        removed = 0
        with _txn(con):
            for path in self._data_files():
                with contextlib.suppress(OSError):
                    path.unlink()
                    removed += 1
            con.execute("DELETE FROM entries")
            con.executemany(
                "UPDATE meta SET v = 0 WHERE k = ?",
                [(k,) for k in ("tick",) + self._COUNTERS],
            )
        return removed

    def close(self) -> None:
        con = getattr(self._tls, "con", None)
        if con is not None:
            con.close()
            self._tls.con = None


def open_result_cache(
    root: Optional[Union[str, Path]] = None,
    max_bytes: Optional[int] = None,
    index: str = "auto",
) -> ResultCache:
    """A ResultCache for ``root`` with the right index backend.

    ``index``: ``"sqlite"`` / ``"json"`` force a backend; ``"auto"``
    (default) keeps whatever the directory already uses -- sqlite if
    ``index.sqlite3`` exists, else the legacy JSON index -- so mixed
    fleets never run both bookkeeping schemes on one directory.
    """
    if index not in ("auto", "sqlite", "json"):
        raise ValueError(f"unknown cache index backend {index!r}")
    if index == "auto":
        probe = ResultCache(root, max_bytes=0)
        index = "sqlite" if (probe.root / SqliteResultCache.INDEX_DB).exists() \
            else "json"
    if index == "sqlite":
        return SqliteResultCache(root, max_bytes=max_bytes)
    return ResultCache(root, max_bytes=max_bytes)


class JobStore:
    """The coordinator's persistent queue: jobs, states, and event logs.

    One sqlite file (``jobs.sqlite3`` under the service state
    directory) holds every submitted job and its streamed
    ``CellUpdate`` events, so a coordinator can be killed and restarted
    without losing the queue.  All methods are safe to call from any
    thread and from multiple processes sharing the file.

    Every submit and every event append (which covers running, finish,
    fail and cancel) bumps :attr:`version` and wakes the threads blocked
    in :meth:`wait_for_change`, so the scheduler and the event streams
    react to a change instead of polling for it.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._tls = threading.local()
        self._changed = threading.Condition()
        self._version = 0

    # -- change notification ---------------------------------------------

    @property
    def version(self) -> int:
        """Bumped by every submit and event append.  Read it *before*
        looking at the store and pass it to :meth:`wait_for_change`, so
        a change made in between is never slept through."""
        return self._version

    def notify(self) -> None:
        """Wake every :meth:`wait_for_change` caller (shutdown paths set
        their own stop flag first, then call this)."""
        with self._changed:
            self._version += 1
            self._changed.notify_all()

    def wait_for_change(self, seen: int,
                        timeout: Optional[float] = None) -> None:
        """Block until :attr:`version` moves past ``seen``, or at most
        ``timeout`` seconds (capped at :data:`IDLE_RECHECK_S`)."""
        limit = IDLE_RECHECK_S if timeout is None else min(timeout,
                                                           IDLE_RECHECK_S)
        with self._changed:
            self._changed.wait_for(lambda: self._version != seen, limit)

    def _db(self) -> sqlite3.Connection:
        con = getattr(self._tls, "con", None)
        if con is None:
            con = _connect(self.path)
            con.execute(
                "CREATE TABLE IF NOT EXISTS jobs ("
                " id INTEGER PRIMARY KEY AUTOINCREMENT,"
                " kind TEXT NOT NULL,"
                " spec TEXT NOT NULL,"
                " submitter TEXT NOT NULL DEFAULT 'anonymous',"
                " priority INTEGER NOT NULL DEFAULT 0,"
                " state TEXT NOT NULL DEFAULT 'queued',"
                " cancel_requested INTEGER NOT NULL DEFAULT 0,"
                " submitted_at REAL NOT NULL,"
                " started_at REAL,"
                " finished_at REAL,"
                " attempts INTEGER NOT NULL DEFAULT 0,"
                " error TEXT,"
                " result TEXT)"
            )
            con.execute(
                "CREATE INDEX IF NOT EXISTS jobs_state ON jobs (state, id)"
            )
            con.execute(
                "CREATE TABLE IF NOT EXISTS job_events ("
                " job_id INTEGER NOT NULL,"
                " seq INTEGER NOT NULL,"
                " at REAL NOT NULL,"
                " payload TEXT NOT NULL,"
                " PRIMARY KEY (job_id, seq))"
            )
            self._tls.con = con
        return con

    @staticmethod
    def _row_to_job(row: Tuple) -> Dict[str, object]:
        (job_id, kind, spec, submitter, priority, state, cancel_requested,
         submitted_at, started_at, finished_at, attempts, error,
         result) = row
        return {
            "id": job_id,
            "kind": kind,
            "spec": json.loads(spec),
            "submitter": submitter,
            "priority": priority,
            "state": state,
            "cancel_requested": bool(cancel_requested),
            "submitted_at": submitted_at,
            "started_at": started_at,
            "finished_at": finished_at,
            "attempts": attempts,
            "error": error,
            "result": json.loads(result) if result else None,
        }

    _JOB_COLUMNS = (
        "id, kind, spec, submitter, priority, state, cancel_requested, "
        "submitted_at, started_at, finished_at, attempts, error, result"
    )

    # -- submission / inspection -----------------------------------------

    def submit(
        self,
        kind: str,
        spec: Dict[str, object],
        submitter: str = "anonymous",
        priority: int = 0,
    ) -> int:
        con = self._db()
        with _txn(con):
            cur = con.execute(
                "INSERT INTO jobs (kind, spec, submitter, priority, state,"
                " submitted_at) VALUES (?, ?, ?, ?, 'queued', ?)",
                (kind, json.dumps(spec, sort_keys=True), submitter,
                 int(priority), time.time()),
            )
        self.notify()
        return int(cur.lastrowid)

    def get(self, job_id: int) -> Optional[Dict[str, object]]:
        row = self._db().execute(
            f"SELECT {self._JOB_COLUMNS} FROM jobs WHERE id = ?", (job_id,)
        ).fetchone()
        return self._row_to_job(row) if row else None

    def list_jobs(
        self,
        state: Optional[str] = None,
        submitter: Optional[str] = None,
    ) -> List[Dict[str, object]]:
        clauses, params = [], []
        if state is not None:
            clauses.append("state = ?")
            params.append(state)
        if submitter is not None:
            clauses.append("submitter = ?")
            params.append(submitter)
        where = f"WHERE {' AND '.join(clauses)}" if clauses else ""
        rows = self._db().execute(
            f"SELECT {self._JOB_COLUMNS} FROM jobs {where} ORDER BY id",
            params,
        ).fetchall()
        return [self._row_to_job(row) for row in rows]

    def counts(self) -> Dict[str, int]:
        found = dict(self._db().execute(
            "SELECT state, COUNT(*) FROM jobs GROUP BY state"
        ).fetchall())
        return {state: found.get(state, 0) for state in JOB_STATES}

    # -- scheduling ------------------------------------------------------

    def claim_next(self) -> Optional[Dict[str, object]]:
        """Atomically claim the next runnable job (or None).

        Order: highest ``priority`` first; within a priority level the
        *submitter* with the fewest already-started jobs goes first
        (fair share -- one user queueing 100 sweeps cannot starve a
        user queueing 1), FIFO as the final tie-break.
        """
        con = self._db()
        with _txn(con):
            row = con.execute(
                f"""
                SELECT {self._JOB_COLUMNS} FROM jobs j
                WHERE j.state = 'queued'
                ORDER BY
                  j.priority DESC,
                  (SELECT COUNT(*) FROM jobs u
                   WHERE u.submitter = j.submitter
                     AND u.state IN ('running', 'done', 'failed')) ASC,
                  j.id ASC
                LIMIT 1
                """
            ).fetchone()
            if row is None:
                return None
            con.execute(
                "UPDATE jobs SET state = 'running', started_at = ?,"
                " attempts = attempts + 1 WHERE id = ?",
                (time.time(), row[0]),
            )
        return self.get(row[0])

    def requeue_running(self) -> List[int]:
        """Crash recovery: every ``running`` job back to ``queued``.

        Call once at coordinator startup -- a job can only be running
        while a scheduler holds it, and this store just got opened.
        """
        con = self._db()
        with _txn(con):
            ids = [row[0] for row in con.execute(
                "SELECT id FROM jobs WHERE state = 'running' ORDER BY id"
            ).fetchall()]
            con.execute(
                "UPDATE jobs SET state = 'queued' WHERE state = 'running'"
            )
        for job_id in ids:
            self.add_event(job_id, {
                "event": "state", "state": "queued",
                "note": "requeued after coordinator restart",
            })
        return ids

    # -- lifecycle -------------------------------------------------------

    def _finish(self, job_id: int, state: str, error: Optional[str],
                result: Optional[Dict[str, object]]) -> None:
        con = self._db()
        with _txn(con):
            con.execute(
                "UPDATE jobs SET state = ?, finished_at = ?, error = ?,"
                " result = ? WHERE id = ?",
                (state, time.time(), error,
                 json.dumps(result, sort_keys=True) if result is not None
                 else None,
                 job_id),
            )
            self._append_event(con, job_id, {
                "event": "state", "state": state,
                **({"error": error} if error else {})})
        self.notify()

    def finish(self, job_id: int, result: Dict[str, object]) -> None:
        self._finish(job_id, "done", None, result)

    def fail(self, job_id: int, error: str) -> None:
        self._finish(job_id, "failed", error, None)

    def mark_cancelled(self, job_id: int) -> None:
        self._finish(job_id, "cancelled", None, None)

    def request_cancel(self, job_id: int) -> Optional[str]:
        """Cancel a job; returns its state after the request (or None).

        A ``queued`` job is cancelled outright; a ``running`` job gets
        ``cancel_requested`` set, honoured by the scheduler between
        cell updates; terminal jobs are left alone.
        """
        con = self._db()
        with _txn(con):
            row = con.execute(
                "SELECT state FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
            if row is None:
                return None
            state = row[0]
            if state == "queued":
                con.execute(
                    "UPDATE jobs SET state = 'cancelled', finished_at = ?"
                    " WHERE id = ?",
                    (time.time(), job_id),
                )
                self._append_event(con, job_id,
                                   {"event": "state", "state": "cancelled"})
                state = "cancelled"
            elif state == "running":
                con.execute(
                    "UPDATE jobs SET cancel_requested = 1 WHERE id = ?",
                    (job_id,),
                )
        if state == "cancelled":
            self.notify()
        return state

    def cancel_requested(self, job_id: int) -> bool:
        row = self._db().execute(
            "SELECT cancel_requested FROM jobs WHERE id = ?", (job_id,)
        ).fetchone()
        return bool(row and row[0])

    # -- event log -------------------------------------------------------

    def add_event(self, job_id: int, payload: Dict[str, object]) -> int:
        con = self._db()
        with _txn(con):
            seq = self._append_event(con, job_id, payload)
        self.notify()
        return seq

    @staticmethod
    def _append_event(con: sqlite3.Connection, job_id: int,
                      payload: Dict[str, object]) -> int:
        """Log one event inside the caller's transaction.  A state change
        commits together with its event, so a reader that sees the new
        state and then reads the log finds the event there."""
        seq = con.execute(
            "SELECT COALESCE(MAX(seq), 0) + 1 FROM job_events"
            " WHERE job_id = ?",
            (job_id,),
        ).fetchone()[0]
        con.execute(
            "INSERT INTO job_events (job_id, seq, at, payload)"
            " VALUES (?, ?, ?, ?)",
            (job_id, seq, time.time(), json.dumps(payload, sort_keys=True)),
        )
        return seq

    def events_after(
        self, job_id: int, after: int = 0
    ) -> List[Dict[str, object]]:
        rows = self._db().execute(
            "SELECT seq, at, payload FROM job_events"
            " WHERE job_id = ? AND seq > ? ORDER BY seq",
            (job_id, after),
        ).fetchall()
        return [
            {"seq": seq, "at": at, **json.loads(payload)}
            for seq, at, payload in rows
        ]

    def close(self) -> None:
        con = getattr(self._tls, "con", None)
        if con is not None:
            con.close()
            self._tls.con = None
