"""A zero-latency fake caption provider behind the program's HttpTransport.

The program's own ``HttpTransport`` sends each request through a fake
``session`` whose ``post`` serializes the body as the wire would and
answers from a script.  Replies never depend on call order, so outcomes
are the same at any ``--jobs``:

* a primary-prompt request is looked up by its prompt text, which must be
  ``render_prompt(PRIMARY_PROMPT, text)`` for some instance's meme text;
  the instance's ``primary`` entry decides the reply (``ok``, ``refuse``,
  or, in the fault simulation only, ``5xx`` and ``timeout`` -- failing
  the first request -- and ``401`` -- failing every request);
* a fallback-prompt request carries no meme text, so it is looked up by
  its image (the first base64 characters of the data URL), and the image
  template's ``fallback`` entry decides the reply (``ok`` or ``refuse``).
"""

from __future__ import annotations

import json
import threading

KEY_CHARS = 32


def image_key(url: str) -> str:
    """The reply key of a data URL: the first base64 characters."""
    return url.partition(",")[2][:KEY_CHARS]


def ok_body(text: str) -> dict:
    return {"choices": [{"finish_reason": "stop",
                         "message": {"role": "assistant", "content": text}}]}


def refusal_body(kind: str) -> dict:
    if kind == "filter":
        return {"choices": [{"finish_reason": "content_filter",
                             "message": {"role": "assistant", "content": ""}}]}
    return ok_body("I'm sorry, but I can't help with that.")


class _Response:
    __slots__ = ("status_code", "_body")

    def __init__(self, status_code: int, body: dict | None = None):
        self.status_code = status_code
        self._body = body

    def json(self):
        return self._body


class FakeSession:
    """Stands in for ``requests.Session``; counts what crosses the wire."""

    def __init__(self, script: dict, sentinel: str):
        from persuasionkit.captioner import FALLBACK_PROMPT, PRIMARY_PROMPT, render_prompt

        self.templates = script["templates"]
        self.fallback_text = FALLBACK_PROMPT.body
        self.by_prompt = {render_prompt(PRIMARY_PROMPT, inst["text"]): (iid, inst)
                          for iid, inst in script["instances"].items()}
        self.auth = f"Bearer {sentinel}"
        self.lock = threading.Lock()
        self.attempts: dict[str, int] = {}  # primary-prompt requests per instance
        self.stats = {
            "wire_requests": 0, "wire_bytes": 0, "refusals": 0, "http_errors": 0,
            "timeouts": 0, "primary_mismatch": 0, "image_mismatch": 0,
            "auth_mismatch": 0, "unknown_image": 0,
        }

    def post(self, url, json=None, headers=None, timeout=None):
        wire = _dumps(json).encode("utf-8")
        content = json["messages"][0]["content"]
        key = image_key(content[1]["image_url"]["url"])
        prompt = content[0]["text"]
        with self.lock:
            st = self.stats
            st["wire_requests"] += 1
            st["wire_bytes"] += len(wire)
            if (headers or {}).get("Authorization") != self.auth:
                st["auth_mismatch"] += 1
            if prompt == self.fallback_text:
                tpl = self.templates.get(key)
                if tpl is None:
                    st["unknown_image"] += 1
                    return _Response(404)
                if tpl["fallback"] == "ok":
                    return _Response(200, ok_body(tpl["caption"]))
                st["refusals"] += 1
                return _Response(200, refusal_body(tpl["refusal"]))
            found = self.by_prompt.get(prompt)
            if found is None:
                st["primary_mismatch"] += 1
                return _Response(404)
            iid, inst = found
            if inst["image"] != key:
                st["image_mismatch"] += 1
            n = self.attempts[iid] = self.attempts.get(iid, 0) + 1
            kind = inst["primary"]
            if kind == "401" or (kind == "5xx" and n == 1):
                st["http_errors"] += 1
                return _Response(401 if kind == "401" else 503)
            if kind == "timeout" and n == 1:
                st["timeouts"] += 1
                raise TimeoutError("read timed out")
            if kind == "refuse":
                st["refusals"] += 1
                return _Response(200, refusal_body(inst["refusal"]))
            return _Response(200, ok_body(inst["caption"]))

    def retries(self) -> int:
        return sum(n - 1 for n in self.attempts.values())


def _dumps(body) -> str:
    # What requests does with ``json=``: default separators, NaN refused.
    return json.dumps(body, allow_nan=False)


def make_transport(script: dict, sentinel: str):
    """The program's HttpTransport over a FakeSession."""
    from persuasionkit.captioner import HttpTransport, ProviderConfig

    cfg = ProviderConfig(endpoint=script["endpoint"], credential_env=script["credential_env"])
    session = FakeSession(script, sentinel)
    return HttpTransport(cfg, session=session), session
