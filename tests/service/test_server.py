"""HTTP surface: start, submit, poll, fetch - plus error statuses."""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
from types import SimpleNamespace

import pytest

from repro.experiments.parallel import ResultCache
from repro.service import adapters
from repro.service import client as client_module
from repro.service import engine as engine_module
from repro.service.adapters import run_job_naive
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import JobState, JobStore
from repro.service.server import ServiceThread
from tests.service.test_adapters import CHEAP_MARGINS


@pytest.fixture
def service(tmp_path):
    with ServiceThread(cache=ResultCache(tmp_path), window_ms=10) as svc:
        yield svc


@pytest.fixture
def client(service):
    return ServiceClient(*service.address)


class TestEndpoints:
    def test_health_and_experiments(self, client):
        assert client.health()
        assert "margins" in client.experiments()

    def test_submit_poll_fetch_roundtrip(self, client):
        job = client.submit("margins", CHEAP_MARGINS)
        assert job["state"] in ("queued", "running")
        artifact = client.wait(job["id"], timeout=300)
        naive = run_job_naive("margins", CHEAP_MARGINS)
        assert json.dumps(artifact, sort_keys=True) == \
            json.dumps(naive, sort_keys=True)
        status = client.status(job["id"])
        assert status["state"] == "done"
        assert status["items"] == 4
        assert any(entry["id"] == job["id"] for entry in client.jobs())

    def test_concurrent_submissions_coalesce(self, client):
        first = client.submit("figure15", {})
        second = client.submit("figure15", {})
        a = client.wait(first["id"], timeout=300)
        b = client.wait(second["id"], timeout=300)
        assert a == b
        status = client.status(second["id"])
        assert status["coalesced"] + status["cache_hits"] == 1
        stats = client.stats()
        assert stats["jobs"] == 2

    def test_result_before_done_is_409(self, client, service):
        job = service.engine.store.create("margins", {})  # never started
        with pytest.raises(ServiceError) as err:
            client.result(job.id)
        assert err.value.status == 409

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServiceError) as err:
            client.status("missing-job")
        assert err.value.status == 404

    def test_bad_experiment_is_400(self, client):
        with pytest.raises(ServiceError) as err:
            client.submit("warp", {})
        assert err.value.status == 400

    @pytest.mark.parametrize("bad", [
        {"reads": -1}, {"write_counts": [-2]}, {"timestep_ps": 0},
        {"timestep_ps": -0.05}, {"settle_ps": -500}, {"pulse_width_ps": -3},
        {"pulse_spacing_ps": -25}])
    def test_out_of_range_margins_params_are_400(self, client, bad):
        """Refused at submit, so no worker is taken for a job that can
        only fail."""
        before = client.stats()["dispatches"]
        with pytest.raises(ServiceError) as err:
            client.submit("margins", dict(CHEAP_MARGINS, **bad))
        assert err.value.status == 400
        assert client.stats()["dispatches"] == before

    def test_malformed_body_is_400(self, client):
        with pytest.raises(ServiceError) as err:
            client.request("POST", "/jobs", {"params": {}})
        assert err.value.status == 400

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServiceError) as err:
            client.request("GET", "/nope")
        assert err.value.status == 404

    def test_method_not_allowed_is_405(self, client):
        with pytest.raises(ServiceError) as err:
            client.request("POST", "/jobs/123")
        assert err.value.status == 405

    def test_negative_content_length_is_400(self, client, service):
        request = (b"POST /jobs HTTP/1.1\r\nHost: test\r\n"
                   b"Content-Length: -5\r\n\r\n")
        reply = b""
        with socket.create_connection(service.address, timeout=30) as sock:
            sock.sendall(request)
            while chunk := sock.recv(4096):  # the server closes after replying
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 400")
        assert b"bad Content-Length" in reply
        assert client.health()

    def test_failed_job_surfaces_error(self, client):
        job = client.submit("figure14", {
            "scale": 0.3, "workloads": ["vvadd"],
            "designs": ["ndro_rf", "hiperrf"], "max_instructions": 10})
        with pytest.raises(ServiceError, match="instruction limit"):
            client.wait(job["id"], timeout=300)


#: The job that holds a full engine's one in-flight slot.
ACCEPTED_PARAMS = {"pattern": [[1, 3]]}


class TestOverload:
    @pytest.fixture
    def held_engine(self, tmp_path, monkeypatch):
        """A service whose one in-flight item holds the engine full until
        ``release`` is set: ``(client, accepted job, release)``."""
        monkeypatch.setattr(engine_module, "MAX_INFLIGHT_ITEMS", 1)
        pulse = adapters.DISPATCHERS["pulse"]
        entered = threading.Event()
        release = threading.Event()

        def held(payloads):
            entered.set()
            release.wait(30)
            return pulse(payloads)

        monkeypatch.setitem(adapters.DISPATCHERS, "pulse", held)
        with ServiceThread(cache=ResultCache(tmp_path)) as svc:
            client = ServiceClient(*svc.address)
            try:
                accepted = client.submit("pulse_rf", ACCEPTED_PARAMS)
                assert entered.wait(30)
                yield client, accepted, release
            finally:
                release.set()

    def test_full_engine_refuses_with_429_until_it_drains(
            self, held_engine):
        """At the in-flight limit a distinct submit gets 429 with
        Retry-After; accepted jobs still complete, and once they have,
        submits are accepted again."""
        client, accepted, release = held_engine
        later_params = {"pattern": [[2, 5]]}
        connection = http.client.HTTPConnection(client.host, client.port,
                                                timeout=30)
        try:
            connection.request("POST", "/jobs", body=json.dumps(
                {"experiment": "pulse_rf", "params": later_params}))
            response = connection.getresponse()
            refusal = json.loads(response.read())
        finally:
            connection.close()
            release.set()
        assert response.status == 429
        assert response.getheader("Retry-After") == "1"
        assert "retry later" in refusal["error"]
        assert client.wait(accepted["id"], timeout=60) == \
            run_job_naive("pulse_rf", ACCEPTED_PARAMS)
        later = client.submit("pulse_rf", later_params)
        assert client.wait(later["id"], timeout=60) == \
            run_job_naive("pulse_rf", later_params)
        stats = client.stats()
        assert stats["refused"] == 1
        assert (stats["jobs"], stats["jobs_done"]) == (2, 2)

    def test_submit_retries_a_refusal_after_retry_after(
            self, held_engine, monkeypatch):
        """Refused once, ``submit`` sleeps ``Retry-After`` and resubmits;
        the engine has drained by then, so it returns the snapshot."""
        client, accepted, release = held_engine
        delays = []

        def sleep(seconds):
            delays.append(seconds)
            release.set()
            deadline = time.monotonic() + 30
            while client.status(accepted["id"])["state"] != "done":
                assert time.monotonic() < deadline, "held job never finished"
                time.sleep(0.01)

        monkeypatch.setattr(client_module, "time", SimpleNamespace(
            sleep=sleep, monotonic=time.monotonic))
        later_params = {"pattern": [[2, 5]]}
        later = client.submit("pulse_rf", later_params)
        assert later["state"] in ("queued", "running", "done")
        assert delays == [1.0]
        monkeypatch.setattr(client_module, "time", time)
        assert client.wait(later["id"], timeout=60) == \
            run_job_naive("pulse_rf", later_params)
        assert client.stats()["refused"] == 1

    def test_persistent_refusal_raises_after_the_retries(
            self, held_engine, monkeypatch):
        client, _, _ = held_engine
        delays = []
        monkeypatch.setattr(client_module, "time", SimpleNamespace(
            sleep=delays.append, monotonic=time.monotonic))
        with pytest.raises(ServiceError) as refused:
            client.submit("pulse_rf", {"pattern": [[2, 5]]})
        assert refused.value.status == 429
        assert refused.value.retry_after == 1.0
        assert delays == [1.0] * client_module.SUBMIT_RETRIES
        assert client.stats()["refused"] == 1 + client_module.SUBMIT_RETRIES


class TestJobStore:
    def test_trim_drops_oldest_terminal(self):
        store = JobStore(max_finished=2)
        done = [store.create("e", {}) for _ in range(3)]
        for job in done:
            job.finish({"ok": True})
        live = store.create("e", {})
        store.create("e", {}).finish({})  # 4th terminal triggers trim
        ids = {job.id for job in store.list()}
        assert live.id in ids
        assert done[0].id not in ids  # oldest terminal went first

    def test_snapshot_is_jsonable(self):
        store = JobStore()
        job = store.create("margins", {"scales": [1.0]})
        job.start()
        job.finish({"x": 1})
        snap = job.snapshot()
        json.dumps(snap)
        assert snap["state"] == JobState.DONE.value
        assert snap["latency_s"] is not None
