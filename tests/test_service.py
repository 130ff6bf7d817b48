"""Tests for sweep-as-a-service: sqlite stores, coordinator, HTTP API.

Covers the :class:`SqliteResultCache` (round trips, LRU caps, one-time
adoption of a legacy ``index.json``, multi-process writers), the
:class:`JobStore` queue (priority + fair-share claim order, concurrent
submitters, crash requeue, cancellation), the :class:`SweepService`
scheduler (byte-identical results, failure capture, restart recovery --
including a SIGKILL'd ``repro serve`` subprocess resuming its queue),
and the HTTP front end with two concurrent submitters.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from _worker_utils import worker_env
from repro.config import SimConfig
from repro.experiments.orchestrator import ResultCache, run_sweep, sweep_product
from repro.experiments.runner import RunResult
from repro.service.api import ServiceAPI
from repro.service.client import ServiceClient, ServiceError
from repro.service.coordinator import SweepService
from repro.service.store import JobStore, SqliteResultCache, open_result_cache
from repro.sim.stats import SimStats

R = 150  # tiny traces: service plumbing, not magnitudes


def fake_result(workload: str = "bc") -> RunResult:
    return RunResult(workload=workload, variant="Base-CSSD", threads=8,
                     stats=SimStats(), config=SimConfig())


def entry_size(tmp_path) -> int:
    probe = SqliteResultCache(tmp_path / "probe")
    probe.put("probe", fake_result())
    return probe.size_bytes()


def dumps(results):
    return [json.dumps(r if isinstance(r, dict) else r.to_dict(),
                       sort_keys=True) for r in results]


# ---------------------------------------------------------------------------
# SqliteResultCache


class TestSqliteResultCache:
    def test_round_trip_and_counters(self, tmp_path):
        store = SqliteResultCache(tmp_path)
        assert store.get("missing") is None
        store.put("k1", fake_result())
        hit = store.get("k1")
        assert hit is not None and hit.workload == "bc"
        stats = store.stats()
        assert stats["index"] == "sqlite"
        assert (stats["hits"], stats["misses"], stats["puts"]) == (1, 1, 1)

    def test_counters_survive_reopen(self, tmp_path):
        SqliteResultCache(tmp_path).put("k1", fake_result())
        store = SqliteResultCache(tmp_path)
        assert store.get("k1") is not None
        stats = store.stats()
        assert stats["puts"] == 1 and stats["hits"] == 1

    def test_cap_evicts_oldest_first(self, tmp_path):
        unit = entry_size(tmp_path)
        store = SqliteResultCache(tmp_path / "c", max_bytes=3 * unit + unit // 2)
        for i in range(5):
            store.put(f"k{i}", fake_result())
        assert {p.stem for p in store.entries()} == {"k2", "k3", "k4"}
        assert store.stats()["evictions"] == 2
        assert store.size_bytes() <= store.max_bytes

    def test_get_refreshes_lru_order(self, tmp_path):
        unit = entry_size(tmp_path)
        store = SqliteResultCache(tmp_path / "c", max_bytes=3 * unit + unit // 2)
        for key in ("k0", "k1", "k2"):
            store.put(key, fake_result())
        assert store.get("k0") is not None
        store.put("k3", fake_result())
        assert {p.stem for p in store.entries()} == {"k0", "k2", "k3"}

    def test_fresh_key_never_self_evicts(self, tmp_path):
        unit = entry_size(tmp_path)
        store = SqliteResultCache(tmp_path / "c", max_bytes=unit // 2)
        store.put("k0", fake_result())
        store.put("k1", fake_result())
        assert [p.stem for p in store.entries()] == ["k1"]

    def test_adopts_legacy_json_index(self, tmp_path):
        legacy = ResultCache(tmp_path)
        legacy.put("old1", fake_result())
        legacy.put("old2", fake_result("ycsb"))
        assert legacy.get("old1") is not None          # hits=1
        assert legacy.get("nope") is None              # misses=1

        store = SqliteResultCache(tmp_path)
        assert store.get("old1").workload == "bc"
        assert store.get("old2").workload == "ycsb"
        stats = store.stats()
        # Adoption preserved the legacy counters, then the two fresh
        # hits above were added on top.
        assert stats["puts"] == 2
        assert stats["hits"] == 1 + 2
        assert stats["misses"] == 1
        assert not (tmp_path / ResultCache.INDEX_NAME).exists()
        assert (tmp_path / SqliteResultCache.MIGRATED_NAME).is_file()

    def test_adoption_happens_once(self, tmp_path):
        legacy = ResultCache(tmp_path)
        legacy.put("old", fake_result())
        SqliteResultCache(tmp_path).get("old")
        # A new legacy index written afterwards must not be re-imported
        # (the sqlite index is authoritative once it exists).
        (tmp_path / ResultCache.INDEX_NAME).write_text("{}")
        store = SqliteResultCache(tmp_path)
        assert store.stats()["puts"] == 1

    def test_open_result_cache_autodetects(self, tmp_path):
        json_dir, sqlite_dir = tmp_path / "j", tmp_path / "s"
        ResultCache(json_dir).put("k", fake_result())
        SqliteResultCache(sqlite_dir).put("k", fake_result())
        assert isinstance(open_result_cache(json_dir), ResultCache)
        assert not isinstance(open_result_cache(json_dir), SqliteResultCache)
        assert isinstance(open_result_cache(sqlite_dir), SqliteResultCache)
        assert isinstance(open_result_cache(tmp_path / "fresh"), ResultCache)
        assert isinstance(
            open_result_cache(tmp_path / "forced", index="sqlite"),
            SqliteResultCache,
        )

    def test_clear(self, tmp_path):
        store = SqliteResultCache(tmp_path)
        store.put("k", fake_result())
        store.clear()
        assert list(store.entries()) == []
        assert store.get("k") is None


def _sqlite_hammer(root: str, worker_id: int, n: int, max_bytes) -> None:
    store = SqliteResultCache(root, max_bytes=max_bytes)
    for i in range(n):
        key = f"w{worker_id}k{i:03d}"
        store.put(key, fake_result())
        store.get(key)
        store.get(f"w{(worker_id + 1) % 4}k{i:03d}")


def _run_sqlite_hammers(root, max_bytes=None, n=20):
    ctx = multiprocessing.get_context("fork")
    procs = [
        ctx.Process(target=_sqlite_hammer, args=(str(root), wid, n, max_bytes))
        for wid in range(4)
    ]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=60)
        assert p.exitcode == 0


class TestSqliteCacheConcurrency:
    def test_threads_putting_one_key_at_once(self, tmp_path):
        """Two service jobs in one process can finish the same cell at
        the same moment; their blob writes must not share a temp file."""
        store = SqliteResultCache(tmp_path)
        errors = []

        def put_many():
            try:
                for _ in range(30):
                    store.put("same", fake_result())
            except OSError as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=put_many) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert all(not t.is_alive() for t in threads)
        assert errors == []
        assert store.get("same").workload == "bc"

    def test_concurrent_writers_uncapped(self, tmp_path):
        _run_sqlite_hammers(tmp_path)
        store = SqliteResultCache(tmp_path)
        assert store.stats()["puts"] == 80
        assert len(list(store.entries())) == 80
        for path in store.entries():
            assert store.get(path.stem) is not None

    def test_concurrent_writers_capped_never_corrupt(self, tmp_path):
        unit = entry_size(tmp_path)
        root = tmp_path / "c"
        _run_sqlite_hammers(root, max_bytes=10 * unit)
        store = SqliteResultCache(root, max_bytes=10 * unit)
        stats = store.stats()
        assert stats["puts"] == 80
        assert store.size_bytes() <= 10 * unit
        # Every surviving index entry must be readable -- no orphans.
        for path in store.entries():
            assert store.get(path.stem) is not None, path.stem


# ---------------------------------------------------------------------------
# JobStore


class TestJobStore:
    def test_submit_get_list_counts(self, tmp_path):
        store = JobStore(tmp_path / "jobs.sqlite3")
        a = store.submit("sweep", {"workloads": ["bc"]}, submitter="alice")
        b = store.submit("report", {}, submitter="bob", priority=3)
        job = store.get(a)
        assert job["kind"] == "sweep" and job["state"] == "queued"
        assert job["spec"] == {"workloads": ["bc"]}
        assert store.get(999) is None
        assert [j["id"] for j in store.list_jobs()] == [a, b]
        assert [j["id"] for j in store.list_jobs(submitter="bob")] == [b]
        assert store.counts()["queued"] == 2

    def test_claim_order_priority_fairshare_fifo(self, tmp_path):
        store = JobStore(tmp_path / "jobs.sqlite3")
        a1 = store.submit("sweep", {}, submitter="alice")
        a2 = store.submit("sweep", {}, submitter="alice")
        b1 = store.submit("sweep", {}, submitter="bob")
        hot = store.submit("sweep", {}, submitter="alice", priority=9)
        # Priority first; then alice and bob alternate (fair share, each
        # claim counts toward its submitter); FIFO breaks the ties.
        assert store.claim_next()["id"] == hot
        assert store.claim_next()["id"] == b1      # bob has 0 started
        assert store.claim_next()["id"] == a1
        assert store.claim_next()["id"] == a2
        assert store.claim_next() is None

    def test_finish_fail_and_events(self, tmp_path):
        store = JobStore(tmp_path / "jobs.sqlite3")
        jid = store.submit("sweep", {})
        store.claim_next()
        store.add_event(jid, {"event": "cell", "workload": "bc"})
        store.add_event(jid, {"event": "cell", "workload": "ycsb"})
        store.finish(jid, {"results": [1, 2]})
        job = store.get(jid)
        assert job["state"] == "done"
        assert job["result"] == {"results": [1, 2]}
        events = store.events_after(jid)
        assert [e.get("workload") for e in events
                if e["event"] == "cell"] == ["bc", "ycsb"]
        assert store.events_after(jid, after=events[-1]["seq"]) == []

        bad = store.submit("sweep", {})
        store.claim_next()
        store.fail(bad, "boom")
        assert store.get(bad)["state"] == "failed"
        assert "boom" in store.get(bad)["error"]

    def test_requeue_running_after_crash(self, tmp_path):
        store = JobStore(tmp_path / "jobs.sqlite3")
        jid = store.submit("sweep", {})
        store.claim_next()
        assert store.get(jid)["state"] == "running"
        store.close()
        # A new process opening the same queue (coordinator restart)
        # finds the orphaned running job and requeues it.
        fresh = JobStore(tmp_path / "jobs.sqlite3")
        assert fresh.requeue_running() == [jid]
        assert fresh.get(jid)["state"] == "queued"
        assert fresh.claim_next()["id"] == jid
        assert fresh.get(jid)["attempts"] == 2

    def test_cancel_queued_and_running(self, tmp_path):
        store = JobStore(tmp_path / "jobs.sqlite3")
        queued = store.submit("sweep", {})
        running = store.submit("sweep", {})
        assert store.request_cancel(queued) == "cancelled"
        assert store.get(queued)["state"] == "cancelled"
        store.claim_next()  # claims `running` (queued one is cancelled)
        assert store.request_cancel(running) == "running"
        assert store.cancel_requested(running)
        store.mark_cancelled(running)
        assert store.get(running)["state"] == "cancelled"
        assert store.request_cancel(999) is None


def _submit_burst(path: str, submitter: str, n: int) -> None:
    store = JobStore(path)
    for i in range(n):
        store.submit("sweep", {"i": i}, submitter=submitter)


class TestJobStoreConcurrency:
    def test_concurrent_submitters_lose_nothing(self, tmp_path):
        path = tmp_path / "jobs.sqlite3"
        ctx = multiprocessing.get_context("fork")
        procs = [
            ctx.Process(target=_submit_burst, args=(str(path), f"user{i}", 25))
            for i in range(4)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        store = JobStore(path)
        jobs = store.list_jobs()
        assert len(jobs) == 100
        assert len({j["id"] for j in jobs}) == 100
        assert store.counts()["queued"] == 100
        # Fair share holds under interleaved submitters too: the first
        # four claims go to four distinct users.
        first_four = {store.claim_next()["submitter"] for _ in range(4)}
        assert first_four == {f"user{i}" for i in range(4)}

    def test_forked_child_frees_no_inherited_connection(self, tmp_path):
        """The local backend forks pool workers while service threads
        hold thread-local connections.  The child must not close them:
        sqlite may be mid-call in a parent thread, holding a mutex the
        close would wait on forever."""
        import gc

        from repro.service import store as store_mod

        store = JobStore(tmp_path / "jobs.sqlite3")
        opened, release = threading.Event(), threading.Event()

        def hold_a_connection():
            store.get(1)  # opens this thread's connection
            opened.set()
            release.wait(30)

        holder = threading.Thread(target=hold_a_connection, daemon=True)
        holder.start()
        try:
            assert opened.wait(10)
            live = len(store_mod._LIVE)
            pid = os.fork()
            if pid == 0:  # the holder thread does not exist here
                gc.collect()
                os._exit(0 if len(store_mod._LIVE) == live else 1)
            _, status = os.waitpid(pid, 0)
        finally:
            release.set()
            holder.join(timeout=10)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_change_notification_loses_no_wakeup(self, tmp_path,
                                                 monkeypatch):
        """Writer threads append events while watcher threads sleep on
        the store's change notification.  A lost wake-up would stall a
        watcher for the (patched) 60 s recheck; a lost counter update
        would leave ``version`` short of the writes."""
        monkeypatch.setattr("repro.service.store.IDLE_RECHECK_S", 60.0)
        store = JobStore(tmp_path / "jobs.sqlite3")
        writers, events = 6, 15
        seen = store.version
        jobs = [store.submit("sweep", {}) for _ in range(writers)]
        started = time.monotonic()
        store.wait_for_change(seen)  # changed since ``seen``: no sleep
        assert time.monotonic() - started < 5
        base = store.version
        total = writers * events

        def write(jid):
            for i in range(events):
                store.add_event(jid, {"event": "note", "i": i})

        def watch(done):
            while True:
                seen = store.version
                if seen - base >= total:
                    done.set()
                    return
                store.wait_for_change(seen)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            done = [threading.Event() for _ in range(4)]
            threads = ([threading.Thread(target=watch, args=(d,), daemon=True)
                        for d in done]
                       + [threading.Thread(target=write, args=(j,), daemon=True)
                          for j in jobs])
            started = time.monotonic()
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert all(not t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert all(d.is_set() for d in done)
        assert time.monotonic() - started < 30
        assert store.version - base == total
        assert all(len(store.events_after(j)) == events for j in jobs)


# ---------------------------------------------------------------------------
# SweepService


def wait_for(store, jid, timeout=120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = store.get(jid)
        if job["state"] in ("done", "failed", "cancelled"):
            return job
        time.sleep(0.05)
    raise AssertionError(f"job {jid} still {job['state']} after {timeout}s")


class TestSweepService:
    def test_sweep_job_matches_run_sweep(self, tmp_path):
        with SweepService(state_dir=tmp_path / "s", cache_dir=tmp_path / "c",
                          jobs=2) as svc:
            jid = svc.submit("sweep", {"workloads": ["ycsb"],
                                       "variants": ["Base-CSSD", "DRAM-Only"],
                                       "records": R})
            job = wait_for(svc.store, jid)
            assert job["state"] == "done", job.get("error")
            payload = job["result"]
            specs = sweep_product(["ycsb"], ["Base-CSSD", "DRAM-Only"],
                                  records_per_thread=R)
            local = run_sweep(specs, jobs=2, cache=False)
            assert dumps(payload["results"]) == dumps(local)
            # The artifact on disk is the same document.
            artifact = svc.artifact_dir(jid) / "results.json"
            assert json.loads(artifact.read_text()) == payload
            # One plan event, then a cell event per cell.
            events = svc.store.events_after(jid)
            assert [e["event"] for e in events if e["event"] == "cell"] \
                == ["cell", "cell"]

    def test_failed_job_records_traceback(self, tmp_path):
        with SweepService(state_dir=tmp_path / "s", cache_dir=tmp_path / "c",
                          jobs=1) as svc:
            jid = svc.submit("sweep", {"workloads": ["no-such-workload"],
                                       "records": R})
            job = wait_for(svc.store, jid)
            assert job["state"] == "failed"
            assert "no-such-workload" in job["error"]

    def test_unknown_kind_rejected(self, tmp_path):
        with SweepService(state_dir=tmp_path / "s", cache_dir=tmp_path / "c",
                          jobs=1) as svc:
            with pytest.raises(ValueError, match="unknown job kind"):
                svc.submit("bogus", {})

    def test_restart_resumes_claimed_job(self, tmp_path):
        # A coordinator claimed the job, then died without finishing
        # it.  Simulate the aftermath directly in the queue...
        pre = JobStore(tmp_path / "s" / "jobs.sqlite3")
        jid = pre.submit("sweep", {"workloads": ["bc"],
                                   "variants": ["Base-CSSD"], "records": R})
        assert pre.claim_next()["id"] == jid
        pre.close()
        # ...then a fresh service on the same state dir must requeue
        # and run it to completion without resubmission.
        with SweepService(state_dir=tmp_path / "s", cache_dir=tmp_path / "c",
                          jobs=1) as svc:
            job = wait_for(svc.store, jid)
            assert job["state"] == "done", job.get("error")
            assert job["attempts"] == 2


# ---------------------------------------------------------------------------
# HTTP API + client


@pytest.fixture
def service(tmp_path):
    svc = SweepService(state_dir=tmp_path / "state",
                       cache_dir=tmp_path / "cache", jobs=2, max_active=2)
    svc.start()
    api = ServiceAPI(svc, port=0)
    api.start()
    client = ServiceClient(api.url)
    client.wait_healthy()
    yield svc, client
    api.close()
    svc.close()


class TestServiceHTTP:
    def test_status_and_health(self, service):
        _, client = service
        status = client.status()
        assert status["jobs"]["queued"] == 0
        assert status["cache"]["index"] == "sqlite"

    def test_error_paths(self, service):
        _, client = service
        with pytest.raises(ServiceError) as err:
            client.job(99)
        assert err.value.status == 404
        with pytest.raises(ServiceError) as err:
            client.submit("bogus", {})
        assert err.value.status == 400
        with pytest.raises(ServiceError) as err:
            client.jobs(state="nope")
        assert err.value.status == 400

    def test_result_of_unfinished_job_conflicts(self, idle_api):
        # No scheduler runs, so the job is never claimed: a running one
        # would wake on the submit and start a full default sweep.
        svc, _, client = idle_api
        jid = svc.store.submit("sweep", {})
        svc.store.request_cancel(jid)
        with pytest.raises(ServiceError) as err:
            client.result(jid)
        assert err.value.status == 409

    def test_concurrent_submitters_byte_identical(self, service):
        """Two submitters race overlapping sweeps over HTTP; both jobs
        complete and every result equals a local run_sweep."""
        _, client = service
        specs = {
            "alice": {"workloads": ["ycsb"],
                      "variants": ["Base-CSSD", "DRAM-Only"], "records": R},
            "bob": {"workloads": ["ycsb", "bc"],
                    "variants": ["Base-CSSD"], "records": R},
        }
        jobs = {}

        def submit(name):
            jobs[name] = client.submit("sweep", specs[name],
                                       submitter=name)["id"]

        threads = [threading.Thread(target=submit, args=(n,)) for n in specs]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert set(jobs) == {"alice", "bob"}

        for name, spec in specs.items():
            final = client.wait(jobs[name], timeout=120)
            assert final["state"] == "done", final.get("error")
            payload = client.result(jobs[name])
            local = run_sweep(
                sweep_product(spec["workloads"], spec["variants"],
                              records_per_thread=R),
                jobs=2, cache=False,
            )
            assert dumps(payload["results"]) == dumps(local)

    def test_event_stream_ends_with_state(self, service):
        _, client = service
        jid = client.submit("sweep", {"workloads": ["bc"],
                                      "variants": ["Base-CSSD"],
                                      "records": R})["id"]
        events = list(client.stream(jid))
        assert events[-1]["event"] == "state"
        assert events[-1]["state"] == "done"
        assert any(e["event"] == "cell" for e in events)
        # The poll endpoint replays the same log (minus the synthetic
        # terminal line the stream appends).
        polled = client.events(jid)
        assert [e["seq"] for e in polled] == [e["seq"] for e in events[:-1]]

    def test_cancel_queued_over_http(self, service):
        svc, client = service
        # Submit through the store with scheduling effectively off by
        # saturating both slots first? Simpler: cancel can race the
        # scheduler, so accept either outcome but require a terminal or
        # flagged state.
        jid = client.submit("sweep", {"workloads": ["bc"],
                                      "variants": ["Base-CSSD"],
                                      "records": R})["id"]
        outcome = client.cancel(jid)
        assert outcome["state"] in ("cancelled", "running", "done")
        final = client.wait(jid, timeout=120)
        assert final["state"] in ("cancelled", "done")


# ---------------------------------------------------------------------------
# repro serve process lifecycle (the acceptance scenario)


def _serve_proc(tmp_path, extra=()):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--http", "127.0.0.1:0",
         "--state-dir", str(tmp_path / "state"),
         "--cache-dir", str(tmp_path / "cache"), "--jobs", "1", *extra],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=worker_env(),
    )
    # On restart the requeue announcement precedes the listen line.
    for line in proc.stdout:
        if "listening on" in line:
            return proc, line.split("listening on ", 1)[1].split()[0]
    raise AssertionError("serve exited without announcing its address")


class TestServeProcess:
    def test_sigkill_restart_resumes_queue(self, tmp_path):
        """SIGKILL the coordinator mid-queue; a restart on the same
        state dir finishes every submitted job without resubmission."""
        proc, url = _serve_proc(tmp_path)
        client = ServiceClient(url)
        try:
            client.wait_healthy()
            ids = [
                client.submit("sweep",
                              {"workloads": ["bc"], "variants": [variant],
                               "records": R})["id"]
                for variant in ("Base-CSSD", "DRAM-Only", "SkyByte-Full")
            ]
            # Let it start working, then kill it without ceremony.
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if any(client.job(i)["state"] != "queued" for i in ids):
                    break
                time.sleep(0.05)
        finally:
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)

        proc2, url2 = _serve_proc(tmp_path)
        try:
            client2 = ServiceClient(url2)
            client2.wait_healthy()
            for jid in ids:
                final = client2.wait(jid, timeout=180)
                assert final["state"] == "done", final.get("error")
            # And the payloads match a local sweep exactly.
            payload = client2.result(ids[0])
            local = run_sweep(
                sweep_product(["bc"], ["Base-CSSD"], records_per_thread=R),
                jobs=1, cache=False,
            )
            assert dumps(payload["results"]) == dumps(local)
        finally:
            proc2.terminate()
            proc2.wait(timeout=10)

    def test_sigint_exits_cleanly(self, tmp_path):
        proc, url = _serve_proc(tmp_path)
        client = ServiceClient(url)
        client.wait_healthy()
        proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=15) == 0


# ---------------------------------------------------------------------------
# Request bodies are bounded before they are read


def _post_with_length(url: str, length: str):
    """POST /api/jobs declaring ``length`` but sending no body."""
    import http.client
    from urllib.parse import urlsplit

    conn = http.client.HTTPConnection(urlsplit(url).netloc, timeout=10)
    try:
        conn.putrequest("POST", "/api/jobs")
        conn.putheader("Content-Type", "application/json")
        conn.putheader("Content-Length", length)
        conn.endheaders()
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


@pytest.fixture
def idle_api(tmp_path, monkeypatch):
    """An HTTP API over a service whose scheduler never starts, so a
    submitted job stays queued; the store's idle recheck is pushed to
    60 s, so anything that returns sooner was woken by an event."""
    monkeypatch.setattr("repro.service.store.IDLE_RECHECK_S", 60.0)
    svc = SweepService(state_dir=tmp_path / "state",
                       cache_dir=tmp_path / "cache", jobs=1)
    api = ServiceAPI(svc, port=0)
    api.start()
    yield svc, api, ServiceClient(api.url)
    api.close()
    svc.close()


class TestRequestBodyLimits:
    def test_non_integer_length_is_400(self, idle_api):
        _, api, _ = idle_api
        status, body = _post_with_length(api.url, "lots")
        assert status == 400
        assert "Content-Length" in body["error"]

    def test_negative_length_is_400_without_blocking(self, idle_api):
        _, api, _ = idle_api
        started = time.monotonic()
        status, _ = _post_with_length(api.url, "-1")
        assert status == 400
        assert time.monotonic() - started < 5

    def test_oversized_body_is_413_before_reading(self, idle_api):
        from repro.service.api import MAX_BODY_BYTES

        svc, api, _ = idle_api
        status, body = _post_with_length(api.url, str(MAX_BODY_BYTES + 1))
        assert status == 413
        assert str(MAX_BODY_BYTES) in body["error"]
        assert svc.store.list_jobs() == []

    def test_bad_event_query_is_400(self, idle_api):
        svc, _, client = idle_api
        jid = svc.store.submit("sweep", {})
        for bad in ("stream=1&timeout=soon", "stream=1&timeout=-1",
                    "stream=1&timeout=nan", "after=abc",
                    "stream=1&after=1.5"):
            with pytest.raises(ServiceError) as err:
                client._json("GET", f"/api/jobs/{jid}/events?{bad}")
            assert err.value.status == 400, bad


# ---------------------------------------------------------------------------
# Scheduling, streams and waits are woken by store changes, not timers


class TestEventDrivenWakeups:
    def test_idle_scheduler_claims_a_submission_at_once(self, tmp_path,
                                                        monkeypatch):
        monkeypatch.setattr("repro.service.store.IDLE_RECHECK_S", 60.0)
        with SweepService(state_dir=tmp_path / "s", cache_dir=tmp_path / "c",
                          jobs=1) as svc:
            time.sleep(0.2)  # let the scheduler go idle on an empty queue
            jid = svc.submit("sweep", {"workloads": ["bc"],
                                       "variants": ["Base-CSSD"],
                                       "records": R})
            job = wait_for(svc.store, jid, timeout=30.0)
            assert job["state"] == "done", job.get("error")
            assert job["started_at"] - job["submitted_at"] < 5.0
            time.sleep(0.2)  # idle again: close() must wake it
            closing = time.monotonic()
        assert time.monotonic() - closing < 5.0

    def test_wait_returns_when_the_stream_ends(self, idle_api):
        svc, _, client = idle_api
        jid = svc.store.submit("sweep", {})
        svc.store.claim_next()
        finisher = threading.Timer(
            0.3, svc.store.finish, args=(jid, {"results": []}))
        finisher.start()
        try:
            started = time.monotonic()
            final = client.wait(jid, timeout=60)
            elapsed = time.monotonic() - started
        finally:
            finisher.join()
        assert final["state"] == "done"
        assert 0.3 <= elapsed < 5.0

    def test_wait_times_out_with_408(self, idle_api):
        svc, _, client = idle_api
        jid = svc.store.submit("sweep", {})  # no scheduler: stays queued
        started = time.monotonic()
        with pytest.raises(ServiceError) as err:
            client.wait(jid, timeout=0.5)
        elapsed = time.monotonic() - started
        assert err.value.status == 408
        assert "queued" in str(err.value)
        assert 0.5 <= elapsed < 5.0

    def test_close_ends_an_open_stream(self, idle_api):
        svc, api, client = idle_api
        jid = svc.store.submit("sweep", {})
        svc.store.add_event(jid, {"event": "note"})
        seen = []
        ended = threading.Event()

        def follow():
            for event in client.stream(jid):
                seen.append(event)
            ended.set()

        reader = threading.Thread(target=follow, daemon=True)
        reader.start()
        deadline = time.monotonic() + 10
        while not seen and time.monotonic() < deadline:
            time.sleep(0.01)
        assert seen, "the stream never delivered the logged event"
        started = time.monotonic()
        api.close()
        assert ended.wait(5.0), "api.close() left the stream open"
        assert time.monotonic() - started < 5.0
