"""The mock endpoint answers each prompt the same way every time."""

import json
import urllib.request

from endpoint import MockEndpoint, reply_for
from newssim import policy


def _ask(url: str, prompt: str) -> str:
    body = json.dumps({"model": "m", "messages": [{"role": "user", "content": prompt}]})
    req = urllib.request.Request(url, body.encode("utf-8"),
                                 {"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=10) as resp:
        return json.load(resp)["choices"][0]["message"]["content"]


def test_same_prompt_same_reply_over_http():
    with MockEndpoint(latency_s=0.001) as ep:
        first = _ask(ep.url, "prompt one")
        second = _ask(ep.url, "prompt one")
        other = _ask(ep.url, "prompt two")
        requests, service_s = ep.counters()
    assert first == second == reply_for("prompt one")
    assert other == reply_for("prompt two")
    assert requests == 3
    assert service_s >= 3 * 0.001


def test_a_small_share_of_replies_is_unparseable():
    prompts = [f"persona {i}\nCOMMENT: your comment" for i in range(2000)]
    parsed = [policy.parse_response(reply_for(p), want_comment=True)[0] for p in prompts]
    unparseable = sum(share is None for share in parsed)
    assert 0 < unparseable < 0.03 * len(prompts)
    assert sum(share is True for share in parsed) > sum(share is False for share in parsed)
