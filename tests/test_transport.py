"""LlmPolicy through its default HTTP transport, against a local HTTP server."""

import gc
import json
import threading
import warnings
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from newssim import policy
from newssim.ingest import NewsItem
from newssim.persona import sample_personas

REPLY = "DECISION: SHARE\nREASON: worth a look"
NEWS = NewsItem(news_id="n-1", title="Test headline", body="Body text.", veracity="fake")


class ScriptedHandler(BaseHTTPRequestHandler):
    """Answers each POST with the server's next scripted status (200 once the script ends)."""

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        self.server.seen.append((dict(self.headers), json.loads(body)))
        status = self.server.statuses.pop(0) if self.server.statuses else 200
        if status == 200:
            reply = json.dumps({"choices": [{"message": {"content": REPLY}}]}).encode()
        else:
            reply = b"server error"
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(reply)))
        self.end_headers()
        self.wfile.write(reply)

    def log_message(self, *args):
        pass


@pytest.fixture()
def server(monkeypatch):
    monkeypatch.setenv("no_proxy", "127.0.0.1")
    srv = HTTPServer(("127.0.0.1", 0), ScriptedHandler)
    srv.seen, srv.statuses = [], []
    thread = threading.Thread(target=srv.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    thread.join()


@pytest.fixture()
def sleeps(monkeypatch):
    waits = []
    monkeypatch.setattr(policy.time, "sleep", waits.append)
    return waits


@pytest.fixture(autouse=True)
def no_unclosed_replies():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield
        gc.collect()  # an unclosed reply warns when it is collected
    leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert not leaks, [str(w.message) for w in leaks]


def decide(server, max_retries=3, api_key=None):
    settings = policy.LlmSettings(
        endpoint=f"http://127.0.0.1:{server.server_port}/v1/chat/completions",
        max_retries=max_retries, timeout=10.0,
    )
    llm = policy.LlmPolicy(settings, policy.DecisionCache(), api_key=api_key)
    assert llm.transport is policy._default_transport
    persona = sample_personas(1, rng_seed=3)[0]
    return llm.decide(policy.DecisionRequest(news=NEWS, day=1), persona), llm


def test_request_body_and_bearer_header(server, sleeps):
    out, llm = decide(server, api_key="sk-test")
    assert out.share and out.rationale == "worth a look" and out.source == "llm_live"
    (headers, body), = server.seen
    assert body["model"] == llm.settings.model
    assert body["temperature"] == llm.settings.temperature
    assert body["messages"][0]["role"] == "user"
    assert NEWS.title in body["messages"][0]["content"]
    assert headers["Authorization"] == "Bearer sk-test"
    assert headers["Content-Type"] == "application/json"
    assert llm.network_calls == 1 and sleeps == []


def test_no_authorization_header_without_a_key(server, sleeps, monkeypatch):
    monkeypatch.delenv("NEWSSIM_API_KEY", raising=False)
    decide(server)
    (headers, _), = server.seen
    assert "Authorization" not in headers


def test_server_error_is_retried_then_succeeds(server, sleeps):
    server.statuses = [500]
    out, llm = decide(server)
    assert out.share
    assert len(server.seen) == 2 and llm.network_calls == 2
    assert sleeps == [0.1]


def test_persistent_server_error_raises_policy_error(server, sleeps):
    server.statuses = [500] * 3
    with pytest.raises(policy.PolicyError, match="3 tries"):
        decide(server, max_retries=2)
    assert len(server.seen) == 3
    assert sleeps == [0.1, 0.2]
