import base64
import copy
import json
import logging
import os
import random
import sys
import tempfile
import threading
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from persuasionkit import captioner
from persuasionkit.captioner import (
    FALLBACK_PROMPT,
    PRIMARY_PROMPT,
    STATUS_OK_PROMPT1,
    STATUS_OK_PROMPT2,
    STATUS_REFUSED_BOTH,
    STATUS_TRANSPORT_ERROR,
    CaptionOutcome,
    HttpTransport,
    PromptTemplate,
    ProviderConfig,
    TokenBucket,
    TransportError,
    _Clock,
    build_request,
    caption_corpus,
    caption_instance,
    checkpoint_to_captions,
    load_checkpoint,
    render_prompt,
)
from persuasionkit.cli import main
from persuasionkit.corpus import MemeInstance

from mocks import FakeClock, PerInstanceTransport, ScriptedTransport, ok_response, refusal_response

CFG = ProviderConfig(endpoint="https://example.test/v1/chat/completions")


def inst(iid="m1", text="HELLO", image="https://img.test/m1.png", caption=None):
    return MemeInstance(
        id=iid, text=text, image=image, caption=caption,
        caption_source="manual" if caption else None,
    )


# -- templates ---------------------------------------------------------------

def test_render_primary_byte_exact(test_data_dir):
    want = Path(test_data_dir, "prompt_primary_HELLO.txt").read_bytes()
    assert render_prompt(PRIMARY_PROMPT, "HELLO").encode("utf-8") == want


def test_render_fallback_byte_exact(test_data_dir):
    want = Path(test_data_dir, "prompt_fallback.txt").read_bytes()
    # the fallback prompt has no placeholder; it renders unchanged
    assert render_prompt(FALLBACK_PROMPT, "anything").encode("utf-8") == want
    assert "{meme_text}" not in FALLBACK_PROMPT.body


def test_render_empty_and_verbatim():
    rendered = render_prompt(PRIMARY_PROMPT, "")
    assert len(rendered) == len(PRIMARY_PROMPT.body) - len("{meme_text}")
    assert '""' in rendered
    # single-pass: a literal placeholder in the meme text is not re-expanded
    assert render_prompt(PRIMARY_PROMPT, "{meme_text}") == PRIMARY_PROMPT.body


def test_template_validation():
    with pytest.raises(ValueError, match="2"):
        PromptTemplate("x {meme_text} y {meme_text}")
    with pytest.raises(ValueError, match="nonempty"):
        PromptTemplate("")
    PromptTemplate("no placeholder at all")  # allowed: the fallback has none


# -- wire format -------------------------------------------------------------

def test_build_request_shape():
    body = build_request(CFG, "the prompt", "https://img.test/a.png")
    assert body["model"] == "gpt-4-vision-preview"
    (msg,) = body["messages"]
    assert msg["role"] == "user"
    text_part, image_part = msg["content"]
    assert text_part == {"type": "text", "text": "the prompt"}
    assert image_part["image_url"]["url"] == "https://img.test/a.png"
    assert body["max_tokens"] == 300


def test_build_request_local_image(tmp_path):
    raw = b"\x89PNG fake bytes"
    p = tmp_path / "meme.png"
    p.write_bytes(raw)
    body = build_request(CFG, "p", str(p))
    url = body["messages"][0]["content"][1]["image_url"]["url"]
    assert url.startswith("data:image/png;base64,")
    assert base64.b64decode(url.split(",", 1)[1]) == raw


# -- protocol ----------------------------------------------------------------

def test_ok_on_first_prompt():
    t = ScriptedTransport([ok_response("a fine caption")])
    out = caption_instance(inst(), CFG, t, clock=_Clock(lambda: 0.0, lambda s: None))
    assert out.status == STATUS_OK_PROMPT1
    assert out.caption == "a fine caption"
    assert out.attempts == 1
    assert t.prompt_texts() == [render_prompt(PRIMARY_PROMPT, "HELLO")]


@pytest.mark.parametrize("kind", ["filter", "empty", "pattern"])
def test_fallback_after_refusal(kind):
    t = ScriptedTransport([refusal_response(kind), ok_response("second try")])
    out = caption_instance(inst(), CFG, t, clock=_Clock(lambda: 0.0, lambda s: None))
    assert out.status == STATUS_OK_PROMPT2
    assert out.caption == "second try"
    assert out.attempts == 2
    assert t.prompt_texts() == [
        render_prompt(PRIMARY_PROMPT, "HELLO"),
        render_prompt(FALLBACK_PROMPT, "HELLO"),
    ]


def test_refused_both():
    t = ScriptedTransport([refusal_response("filter"), refusal_response("pattern")])
    out = caption_instance(inst(), CFG, t, clock=_Clock(lambda: 0.0, lambda s: None))
    assert out.status == STATUS_REFUSED_BOTH
    assert out.caption is None
    assert out.attempts == 2


def test_transport_retries_then_success():
    clock = FakeClock()
    t = ScriptedTransport(["error", "error", ok_response("ok after retries")])
    out = caption_instance(inst(), CFG, t, clock=_Clock(clock.monotonic, clock.sleep))
    assert out.status == STATUS_OK_PROMPT1
    assert out.attempts == 3
    # backoff 1s then 2s, plus jitter in [0, 0.25] each
    assert 3.0 <= clock.t <= 3.5


def test_transport_gives_up_and_never_retries_refusals():
    clock = FakeClock()
    t = ScriptedTransport(["error", "error", "error", "error"])
    out = caption_instance(inst(), CFG, t, clock=_Clock(clock.monotonic, clock.sleep))
    assert out.status == STATUS_TRANSPORT_ERROR
    assert out.attempts == 4  # 1 + 3 retries, fallback prompt never attempted
    assert len(t.requests) == 4
    # refusals are not retried: exactly one request per prompt
    t2 = ScriptedTransport([refusal_response(), refusal_response()])
    caption_instance(inst(), CFG, t2, clock=_Clock(clock.monotonic, clock.sleep))
    assert len(t2.requests) == 2


def test_give_up_warning_names_the_instance(caplog):
    clock = FakeClock()
    t = PerInstanceTransport({f"https://img.test/{iid}.png": ["error"] * 4
                              for iid in ("m7", "m9")})
    corpus = [inst(iid, f"text {iid}", f"https://img.test/{iid}.png")
              for iid in ("m7", "m8", "m9")]
    with caplog.at_level(logging.WARNING, logger="persuasionkit.captioner"):
        out = caption_corpus(corpus, CFG, t, concurrency=2,
                             clock=_Clock(clock.monotonic, clock.sleep))
    assert {iid: o.status for iid, o in out.items()} == {
        "m7": STATUS_TRANSPORT_ERROR, "m8": STATUS_OK_PROMPT1, "m9": STATUS_TRANSPORT_ERROR}
    warnings = sorted(r.getMessage() for r in caplog.records if r.levelno == logging.WARNING)
    assert warnings == [
        f"instance {iid}: transport gave up after 4 attempts: scripted failure"
        for iid in ("m7", "m9")
    ]


@pytest.mark.parametrize("resp", [
    {"choices": [None]},
    {"choices": ["hi"]},
    {"choices": [{"message": "hi"}]},
    {"choices": [{"message": ["hi"]}]},
    {"choices": [{"message": {"content": 5}}]},
    {"choices": [{"message": {"content": {"text": "hi"}}}]},
    {"choices": [{"message": {"content": [{"type": "text", "text": 5}]}}]},
    {"choices": [{"message": {"content": "bad \ud800 caption"}}]},  # no UTF-8 for it
])
def test_malformed_response_shapes_end_as_transport_error(resp):
    t = ScriptedTransport([resp])
    out = caption_instance(inst(), CFG, t, clock=_Clock(lambda: 0.0, lambda s: None))
    assert out.status == STATUS_TRANSPORT_ERROR
    assert out.caption is None
    assert len(t.requests) == 1  # malformed replies are not retried


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)

_PARTS_RESPONSE = {"choices": [{"finish_reason": "stop", "message": {
    "role": "assistant", "content": [{"type": "text", "text": "a "}, {"type": "text", "text": "caption"}],
}}]}


def _mutate(draw, value):
    """Replace or delete one node of ``value`` (possibly the whole value)."""
    if isinstance(value, (dict, list)) and value and draw(st.booleans()):
        key = draw(st.sampled_from(sorted(value) if isinstance(value, dict) else range(len(value))))
        action = draw(st.sampled_from(("descend", "replace", "delete")))
        if action == "descend":
            value[key] = _mutate(draw, value[key])
        elif action == "replace":
            value[key] = draw(_JSON)
        else:
            del value[key]
        return value
    return draw(_JSON)


@st.composite
def _provider_replies(draw):
    base = draw(st.sampled_from((
        ok_response("a caption"), refusal_response("filter"), refusal_response("empty"),
        refusal_response("pattern"), _PARTS_RESPONSE,
    )))
    return _mutate(draw, copy.deepcopy(base))


@settings(max_examples=100, deadline=None)
@given(st.lists(_provider_replies(), min_size=2, max_size=2))
def test_mutated_provider_json_never_escapes(replies):
    clock = FakeClock()
    out = caption_instance(inst(), CFG, ScriptedTransport(replies),
                           clock=_Clock(clock.monotonic, clock.sleep), rng=random.Random(0))
    assert isinstance(out, CaptionOutcome)
    assert out.status in (STATUS_OK_PROMPT1, STATUS_OK_PROMPT2, STATUS_REFUSED_BOTH,
                          STATUS_TRANSPORT_ERROR)
    assert (out.caption is not None) == (out.status in (STATUS_OK_PROMPT1, STATUS_OK_PROMPT2))


def test_long_caption_is_kept_whole_and_logged(caplog):
    for words, warned in ((200, False), (201, True)):
        text = " ".join(["word"] * words)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="persuasionkit.captioner"):
            out = caption_instance(inst("long"), CFG, ScriptedTransport([ok_response(text)]),
                                   clock=_Clock(lambda: 0.0, lambda s: None))
        assert out.status == STATUS_OK_PROMPT1 and out.caption == text
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert warnings == (["instance long: caption exceeds 200 words (201)"] if warned else [])


def test_instance_without_image_rejected():
    with pytest.raises(ValueError, match="no image"):
        caption_instance(inst(image=None), CFG, ScriptedTransport())


# -- corpus driver -----------------------------------------------------------

def _corpus3():
    return [
        inst("a", "text a", "https://img.test/a.png"),
        inst("b", "text b", "https://img.test/b.png", caption="already here"),
        inst("c", "text c", "https://img.test/c.png"),
    ]


def test_skips_instances_with_existing_captions(tmp_path):
    t = ScriptedTransport()
    out = caption_corpus(
        _corpus3(), CFG, t, checkpoint_path=str(tmp_path / "ck.jsonl"),
        clock=_Clock(lambda: 0.0, lambda s: None),
    )
    assert len(t.requests) == 2
    assert set(out) == {"a", "c"}
    forced = caption_corpus(
        _corpus3(), CFG, ScriptedTransport(), force=True,
        clock=_Clock(lambda: 0.0, lambda s: None),
    )
    assert set(forced) == {"a", "b", "c"}


def test_checkpoint_resume_only_incomplete(tmp_path):
    ck = str(tmp_path / "ck.jsonl")
    corpus = [
        inst("a", "ta", "https://img.test/a.png"),
        inst("b", "tb", "https://img.test/b.png"),
        inst("c", "tc", "https://img.test/c.png"),
        inst("d", "td", "https://img.test/d.png"),
    ]
    # first run: a ok, b refused twice, c dies on transport, d ok
    t1 = PerInstanceTransport({
        "https://img.test/b.png": [refusal_response(), refusal_response()],
        "https://img.test/c.png": ["error", "error", "error", "error"],
    })
    clock = _Clock(FakeClock().monotonic, FakeClock().sleep)
    first = caption_corpus(corpus, CFG, t1, checkpoint_path=ck, clock=clock)
    assert first["a"].status == STATUS_OK_PROMPT1
    assert first["b"].status == STATUS_REFUSED_BOTH
    assert first["c"].status == STATUS_TRANSPORT_ERROR
    assert first["d"].status == STATUS_OK_PROMPT1

    # resume: only c (non-terminal) goes back on the wire
    t2 = PerInstanceTransport({})
    second = caption_corpus(corpus, CFG, t2, checkpoint_path=ck, clock=clock)
    urls = [r["messages"][0]["content"][1]["image_url"]["url"] for r in t2.requests]
    assert urls == ["https://img.test/c.png"]
    assert second["c"].status == STATUS_OK_PROMPT1
    assert second["b"].status == STATUS_REFUSED_BOTH  # carried over, not retried

    # checkpoint is the captions format plus status bookkeeping
    recs = [json.loads(line) for line in Path(ck).read_text(encoding="utf-8").splitlines()]
    assert {"id", "caption", "source", "status", "attempts", "model"} <= set(recs[0])
    caps = checkpoint_to_captions(load_checkpoint(ck))
    assert set(caps) == {"a", "d", "c"}
    assert caps["a"][1] == "external-zero-shot"


@pytest.mark.parametrize("line, problem", [
    ("[1, 2]", "not a JSON object"),
    ('"a string"', "not a JSON object"),
    ("null", "not a JSON object"),
    ('{"status": "ok_prompt1"}', "'id'"),
    ('{"id": "a"}', "'status'"),
    ('{"id": 7, "status": "ok_prompt1"}', "'id'"),
    ('{"id": "a", "status": ["ok_prompt1"]}', "'status'"),
    ('{"id": "a", "status": "ok_prompt1", "attempts": "many"}', "attempts"),
    ('{"id": "a", "status": "ok_prompt1", "attempts": [1]}', "attempts"),
    ('{"id": "a", "status": "done", "caption": "x"}', 'unknown status "done"'),
    ('{"id": "a", "status": "transport_error", "caption": 5}', "caption must be a string"),
    ('{"id": "a", "status": "ok_prompt2", "caption": null}', "must hold a string caption"),
    ('{"id": "a", "status": "ok_prompt1", "caption": "x", "model": null}',
     "model must be a string"),
])
def test_load_checkpoint_rejects_bad_records(tmp_path, line, problem):
    ck = tmp_path / "ck.jsonl"
    good = json.dumps({"id": "z", "status": STATUS_OK_PROMPT1, "caption": "c"})
    ck.write_text(good + "\n\n" + line + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="^checkpoint line 3: ") as exc:
        load_checkpoint(str(ck))
    assert problem in str(exc.value)


def test_rate_limit_schedule():
    clock = FakeClock()
    corpus = [inst(f"i{k}", f"t{k}", f"https://img.test/{k}.png") for k in range(10)]
    caption_corpus(
        corpus, CFG, ScriptedTransport(),
        rate_per_minute=60.0, clock=_Clock(clock.monotonic, clock.sleep),
    )
    # 60/min = 1/s with burst 1: requests at t = 0..9
    assert clock.t >= 9.0


class _TimedTransport(ScriptedTransport):
    """A ScriptedTransport that notes the fake time of every request."""

    def __init__(self, clock: FakeClock, script):
        super().__init__(script)
        self.clock = clock
        self.times: list[float] = []

    def send(self, body: dict) -> dict:
        self.times.append(self.clock.t)
        return super().send(body)


_STEPS = {"ok": ok_response("a caption"), "refusal": refusal_response(), "error": "error"}


@settings(max_examples=60, deadline=None)
@given(script=st.lists(st.sampled_from(sorted(_STEPS)), max_size=30),
       n=st.integers(1, 6), rate=st.sampled_from((15.0, 60.0, 100.0, 600.0)))
def test_rate_limit_spaces_every_wire_request(script, n, rate):
    # The fallback prompt and every transport retry take a token too, so
    # no two wire requests are closer than 60 / rate seconds.
    clock = FakeClock()
    t = _TimedTransport(clock, [_STEPS[step] for step in script])
    corpus = [inst(f"i{k}", f"t{k}", f"https://img.test/{k}.png") for k in range(n)]
    caption_corpus(corpus, CFG, t, rate_per_minute=rate,
                   clock=_Clock(clock.monotonic, clock.sleep))
    interval = 60.0 / rate
    # Fake sleeps add rounded differences, so allow a relative 1e-9.
    assert all(b - a >= interval * (1 - 1e-9) for a, b in zip(t.times, t.times[1:]))


def test_concurrent_run_completes(tmp_path):
    # Every worker count gives the same outcome per id and the same
    # checkpoint lines; one worker writes them in corpus order.
    corpus = [inst(f"i{k}", f"t{k}", f"https://img.test/{k}.png") for k in range(12)]
    script = {
        "https://img.test/1.png": [refusal_response(), ok_response("second")],
        "https://img.test/2.png": [refusal_response("empty"), refusal_response("pattern")],
        "https://img.test/3.png": ["error", ok_response("after a retry")],
        "https://img.test/5.png": ["error"] * 4,
        "https://img.test/8.png": ["error", refusal_response(), "error", "error",
                                   ok_response("late")],
    }
    runs = {}
    for jobs in (1, 2, 4):
        ck = tmp_path / f"ck{jobs}.jsonl"
        out = caption_corpus(corpus, CFG, PerInstanceTransport(script), checkpoint_path=str(ck),
                             concurrency=jobs, clock=_Clock(lambda: 0.0, lambda s: None))
        runs[jobs] = out, ck.read_text(encoding="utf-8").splitlines()
    out, lines = runs[1]
    assert {iid: o.status for iid, o in out.items()} == {
        **{f"i{k}": STATUS_OK_PROMPT1 for k in range(12)},
        "i1": STATUS_OK_PROMPT2, "i2": STATUS_REFUSED_BOTH, "i5": STATUS_TRANSPORT_ERROR,
        "i8": STATUS_OK_PROMPT2,
    }
    assert [json.loads(line)["id"] for line in lines] == [i.id for i in corpus]
    for jobs in (2, 4):
        assert runs[jobs][0] == out
        assert sorted(runs[jobs][1]) == sorted(lines)


class _HeldTransport(ScriptedTransport):
    """Answers a request only once ``release`` is set, and 50 ms later: time
    for the worker that set it to set its stop too."""

    def __init__(self, release: threading.Event):
        super().__init__()
        self.release = release

    def send(self, body: dict) -> dict:
        self.release.wait(10)
        time.sleep(0.05)
        return super().send(body)


def _sent_images(transport) -> list[str]:
    return [req["messages"][0]["content"][1]["image_url"]["url"] for req in transport.requests]


def test_shared_queue_gives_each_meme_to_one_worker(tmp_path):
    # More workers than CPUs and a short switch interval: each meme is
    # taken once, sent once and checkpointed once.
    corpus = [inst(f"i{k}", f"t{k}", f"https://img.test/{k}.png") for k in range(400)]
    t, ck = ScriptedTransport(), tmp_path / "ck.jsonl"
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = caption_corpus(corpus, CFG, t, checkpoint_path=str(ck), concurrency=8,
                             clock=_Clock(lambda: 0.0, lambda s: None))
    finally:
        sys.setswitchinterval(old)
    assert sorted(_sent_images(t)) == sorted(i.image for i in corpus)
    lines = ck.read_text(encoding="utf-8").splitlines()
    assert sorted(json.loads(line)["id"] for line in lines) == sorted(out) == sorted(
        i.id for i in corpus)


@pytest.mark.parametrize("jobs, bad_at", [(1, 5), (2, 0), (4, 0)])
def test_unreadable_image_stops_every_worker(tmp_path, monkeypatch, capsys, jobs, bad_at):
    memes = [{"id": f"m{k}", "text": f"text {k}", "image": f"https://img.test/{k}.png"}
             for k in range(200)]
    bad = tmp_path / "not-an-image"
    bad.mkdir()
    memes[bad_at]["image"] = str(bad)
    corpus, ck = tmp_path / "c.json", tmp_path / "ck.jsonl"
    corpus.write_text(json.dumps(memes), encoding="utf-8")
    argv = ["caption", "--corpus", str(corpus), "--out", str(ck), "--jobs", str(jobs)]
    failed = threading.Event()
    real = captioner.caption_instance

    def noting_failure(*args, **kwargs):
        try:
            return real(*args, **kwargs)
        except OSError:
            failed.set()
            raise

    monkeypatch.setattr(captioner, "caption_instance", noting_failure)
    # With several workers, every request waits until the bad meme has
    # raised, so each other worker is inside a meme when the stop comes.
    transport = ScriptedTransport() if jobs == 1 else _HeldTransport(failed)
    assert main(argv, transport=transport) == 2
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and str(bad) in err and err.count("\n") == 1, err
    text = ck.read_text(encoding="utf-8")
    assert text == "".join(line + "\n" for line in text.splitlines())  # whole lines only
    done = {json.loads(line)["id"] for line in text.splitlines()}
    sent = _sent_images(transport)
    if jobs == 1:
        # One worker takes the memes in corpus order and stops at the bad one.
        assert sent == [m["image"] for m in memes[:bad_at]]
    else:
        # The bound: each of the other jobs - 1 workers finishes the meme it
        # holds and starts no other.
        assert len(sent) <= jobs - 1
    assert sorted(sent) == sorted(m["image"] for m in memes if m["id"] in done)

    del memes[bad_at]
    corpus.write_text(json.dumps(memes), encoding="utf-8")
    rerun = ScriptedTransport()
    assert main(argv, transport=rerun) == 0
    assert sorted(_sent_images(rerun)) == sorted(m["image"] for m in memes
                                                 if m["id"] not in done)


def test_both_prompts_carry_one_read_of_the_image(tmp_path, monkeypatch):
    # A refused primary prompt sends the fallback: both bodies are exactly
    # what build_request makes of the path, and the file is read once.
    p = tmp_path / "meme.png"
    p.write_bytes(b"\x89PNG fake bytes")
    opened = []

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(captioner, "open", counting_open, raising=False)
    t = ScriptedTransport([refusal_response(), ok_response("second")])
    out = caption_instance(inst(image=str(p)), CFG, t, clock=_Clock(lambda: 0.0, lambda s: None))
    assert out.status == STATUS_OK_PROMPT2
    assert opened == [str(p)]
    want = [build_request(CFG, render_prompt(template, "HELLO"), str(p))
            for template in (PRIMARY_PROMPT, FALLBACK_PROMPT)]
    assert [json.dumps(body) for body in t.requests] == [json.dumps(body) for body in want]


def test_token_bucket_validation():
    for rate in (0, -1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="positive and finite"):
            TokenBucket(rate)


class BoundedClock(FakeClock):
    """A FakeClock whose sleep raises after ``limit`` calls, so an acquire
    that keeps sleeping fails the test instead of hanging it."""

    def __init__(self, start: float, limit: int):
        super().__init__()
        self.t = start
        self.limit = limit
        self.sleeps = 0

    def sleep(self, dt: float):
        self.sleeps += 1
        if self.sleeps > self.limit:
            raise RuntimeError(f"acquire slept more than {self.limit} times")
        super().sleep(dt)


@pytest.mark.parametrize("start", [0.0, 0.1, 3.7, 1234.5678, 1e6 + 0.3])
@pytest.mark.parametrize("rate", [600.0, 60.0, 7.0, 1000.0])
def test_token_bucket_finishes_on_exact_fake_clock(start, rate):
    # Exact fake-clock arithmetic once made a refill round to just under
    # one token, after which acquire slept sub-ulp waits forever.
    n = 1000
    clock = BoundedClock(start, limit=n)
    bucket = TokenBucket(rate, _Clock(clock.monotonic, clock.sleep))
    for _ in range(n):
        bucket.acquire()
    assert clock.sleeps == n - 1
    assert clock.t - start == pytest.approx((n - 1) * 60.0 / rate, abs=1e-6)


def test_token_bucket_gives_each_thread_its_own_slot():
    # Time stands still, so every acquire after the first sleeps until the
    # slot it claimed; a lost update would hand two threads the same slot.
    threads, per_thread = 8, 200
    waits, lock = [], threading.Lock()

    def sleep(dt):
        with lock:
            if len(waits) >= threads * per_thread:
                raise RuntimeError("acquire kept sleeping")
            waits.append(dt)

    bucket = TokenBucket(600.0, _Clock(lambda: 0.0, sleep))

    def work():
        for _ in range(per_thread):
            bucket.acquire()

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=work, daemon=True) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in pool)
    want, due = [], 0.0
    for _ in range(threads * per_thread - 1):
        due += bucket.interval
        want.append(due)
    assert sorted(waits) == want


# -- http transport ----------------------------------------------------------

class FakeResponse:
    def __init__(self, code, payload):
        self.status_code = code
        self._payload = payload

    def json(self):
        if isinstance(self._payload, Exception):
            raise self._payload
        return self._payload


class FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers})
        step = self.responses.pop(0)
        if isinstance(step, Exception):
            raise step
        return step


def test_http_transport_attaches_credential(monkeypatch):
    monkeypatch.setenv("PK_TEST_KEY", "sekrit-token-123")
    cfg = ProviderConfig(endpoint="https://example.test/v1", credential_env="PK_TEST_KEY")
    session = FakeSession([FakeResponse(200, ok_response("hi"))])
    out = HttpTransport(cfg, session=session).send({"model": "m"})
    assert out == ok_response("hi")
    assert session.calls[0]["headers"]["Authorization"] == "Bearer sekrit-token-123"


def test_http_transport_errors(monkeypatch):
    cfg = ProviderConfig(endpoint="https://example.test/v1", credential_env="PK_NOPE")
    with pytest.raises(TransportError, match="HTTP 500") as exc:
        HttpTransport(cfg, session=FakeSession([FakeResponse(500, {})])).send({})
    assert exc.value.retryable
    with pytest.raises(TransportError, match="HTTP 401") as exc:
        HttpTransport(cfg, session=FakeSession([FakeResponse(401, {})])).send({})
    assert not exc.value.retryable
    with pytest.raises(TransportError, match="non-JSON"):
        HttpTransport(cfg, session=FakeSession([FakeResponse(200, ValueError("x"))])).send({})
    with pytest.raises(TransportError, match="request failed") as exc:
        HttpTransport(cfg, session=FakeSession([ConnectionError()])).send({})
    assert exc.value.retryable


@settings(max_examples=60)
@given(st.sampled_from([400, 401, 403, 404, 408, 429, 500, 503]) | st.integers(400, 599),
       st.integers(0, 4))
def test_http_error_statuses_retry_only_when_transient(status, retries):
    # Timeouts (408), rate limiting (429) and 5xx can pass; any other 4xx
    # ends the instance after one wire attempt.
    cfg = ProviderConfig(endpoint="https://example.test/v1", credential_env="PK_NOPE")
    session = FakeSession([FakeResponse(status, {})] * (retries + 1))
    clock = FakeClock()
    with mock.patch.object(captioner, "_MAX_TRANSPORT_RETRIES", retries):
        out = caption_instance(inst(), cfg, HttpTransport(cfg, session=session),
                               clock=_Clock(clock.monotonic, clock.sleep))
    transient = status >= 500 or status in (408, 429)
    want = retries + 1 if transient else 1
    assert out.status == STATUS_TRANSPORT_ERROR
    assert out.attempts == len(session.calls) == want
    assert (clock.t > 0) == (transient and retries > 0)


def test_credential_never_leaks(monkeypatch, tmp_path, caplog):
    secret = "super-secret-credential-xyz"
    monkeypatch.setenv("PK_TEST_KEY", secret)
    cfg = ProviderConfig(endpoint="https://example.test/v1", credential_env="PK_TEST_KEY")
    session = FakeSession([FakeResponse(200, ok_response("a caption"))])
    with caplog.at_level(logging.DEBUG):
        HttpTransport(cfg, session=session).send(
            build_request(cfg, "p", "https://img.test/a.png")
        )
    assert secret not in caplog.text
    assert "Bearer ***" in caplog.text

    # checkpoints never carry it either
    ck = str(tmp_path / "ck.jsonl")
    with caplog.at_level(logging.DEBUG):
        caption_corpus(
            [inst()], cfg, ScriptedTransport(), checkpoint_path=ck,
            clock=_Clock(lambda: 0.0, lambda s: None),
        )
    assert secret not in Path(ck).read_text(encoding="utf-8")
    assert secret not in caplog.text


_LINE = st.text(st.characters(blacklist_characters="\n", blacklist_categories=("Cs",)))


@settings(max_examples=80, deadline=None)
@given(lines=st.lists(_LINE, max_size=4), tail=st.none() | _LINE.filter(bool),
       cut=st.integers(1, 40), block=st.integers(1, 9))
@example(lines=[], tail=None, cut=1, block=4)  # an empty file
@example(lines=[], tail="no newline", cut=10, block=4)  # one torn line, nothing kept
@example(lines=["é"], tail="légende ✓", cut=2, block=4)  # cut inside "é"
@example(lines=["légende ✓", "x"], tail=None, cut=1, block=4)  # intact
def test_cut_torn_tail_keeps_whole_lines_and_leaves_an_intact_file_alone(
        lines, tail, cut, block):
    # A block of one byte up to a few, so the scan back crosses blocks.
    intact = b"".join(line.encode("utf-8") + b"\n" for line in lines)
    torn = b"" if tail is None else tail.encode("utf-8")[:cut]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ck.jsonl")
        Path(path).write_bytes(intact + torn)
        os.utime(path, ns=(10**9, 10**9))
        with mock.patch.object(captioner, "_TAIL_BLOCK", block):
            captioner._cut_torn_tail(path)
        assert Path(path).read_bytes() == intact
        if not torn:  # not rewritten, nor truncated to its own length
            assert os.stat(path).st_mtime_ns == 10**9
