"""Mock OpenAI-compatible chat-completions endpoint on 127.0.0.1.

Each reply is a pure function of the prompt (the last message's content):
a SHA-256 of the prompt picks SHARE or IGNORE, a comment when the prompt asks
for one, and, for a small fixed share of prompts, a reply with no DECISION
line. Because a re-ask resends the same prompt, those prompts exhaust the
re-ask budget and taint the run, so the re-ask and taint paths both run.

The server speaks HTTP/1.1 with keep-alive and serves connections from a
fixed pool of handler threads. Latency is simulated with `time.sleep`, so a
waiting request holds a handler thread but no processor. The server counts
requests and the time spent serving them.
"""

from __future__ import annotations

import hashlib
import http.server
import json
import queue
import threading
import time

#: Share of prompts answered without a DECISION line (re-asked, then tainted).
UNPARSEABLE_SHARE = 0.01
#: Share probability for a prompt without, and with, the fact-check notice.
SHARE_PROB = 0.99
SHARE_PROB_REFUTED = 0.5
REFUTATION_MARKER = "fact-checkers"
HANDLER_THREADS = 2

_COMMENTS = (
    "Worth a look.",
    "Is this for real?",
    "Sharing so we can talk about it.",
    "Read before you judge.",
)


def _unit(digest: bytes, offset: int) -> float:
    return int.from_bytes(digest[offset:offset + 8], "big") / 2.0**64


def reply_for(prompt: str) -> str:
    """The reply text for a prompt; the same prompt always gets the same text."""
    digest = hashlib.sha256(prompt.encode("utf-8")).digest()
    if _unit(digest, 0) < UNPARSEABLE_SHARE:
        return "I would rather not say what I would do with this story."
    prob = SHARE_PROB_REFUTED if REFUTATION_MARKER in prompt else SHARE_PROB
    share = _unit(digest, 8) < prob
    lines = [f"DECISION: {'SHARE' if share else 'IGNORE'}"]
    if "COMMENT:" in prompt:
        lines.append(f"COMMENT: {_COMMENTS[digest[16] % len(_COMMENTS)] if share else ''}")
    lines.append(f"REASON: mock reply {digest[:4].hex()}.")
    return "\n".join(lines)


class _Handler(http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # an idle keep-alive connection frees its handler thread after this long
    timeout = 5

    def do_POST(self):  # noqa: N802 - http.server naming
        t0 = time.perf_counter()
        length = int(self.headers.get("Content-Length", "0"))
        payload = json.loads(self.rfile.read(length))
        prompt = payload["messages"][-1]["content"]
        time.sleep(self.server.latency_s)
        body = json.dumps({
            "object": "chat.completion",
            "model": payload.get("model", ""),
            "choices": [{
                "index": 0,
                "message": {"role": "assistant", "content": reply_for(prompt)},
                "finish_reason": "stop",
            }],
        }).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        self.server.count(time.perf_counter() - t0)

    def log_message(self, format, *args):  # noqa: A002 - silence per-request logs
        pass


class MockEndpoint(http.server.HTTPServer):
    """Serves on an ephemeral 127.0.0.1 port with HANDLER_THREADS handler threads.

    Use as a context manager, or call `start()` and `close()`.
    """

    def __init__(self, latency_s: float = 0.002):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.latency_s = latency_s
        self.requests = 0
        self.service_s = 0.0
        self._lock = threading.Lock()
        self._queue: queue.Queue = queue.Queue()
        self._threads = [threading.Thread(target=self._work, daemon=True) for _ in range(HANDLER_THREADS)]
        self._threads.append(threading.Thread(target=self.serve_forever, args=(0.05,),
                                              daemon=True))

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}/v1/chat/completions"

    def count(self, seconds: float) -> None:
        with self._lock:
            self.requests += 1
            self.service_s += seconds

    def counters(self) -> tuple[int, float]:
        with self._lock:
            return self.requests, self.service_s

    def process_request(self, request, client_address):
        self._queue.put((request, client_address))

    def _work(self):
        while True:
            item = self._queue.get()
            if item is None:
                return
            request, client_address = item
            try:
                self.finish_request(request, client_address)
            except Exception:  # noqa: BLE001 - one bad connection must not stop the pool
                self.handle_error(request, client_address)
            finally:
                self.shutdown_request(request)

    def start(self) -> "MockEndpoint":
        for t in self._threads:
            t.start()
        return self

    def close(self) -> None:
        self.shutdown()
        for _ in self._threads[:-1]:
            self._queue.put(None)
        for t in self._threads:
            t.join(timeout=30)
        self.server_close()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.close()
