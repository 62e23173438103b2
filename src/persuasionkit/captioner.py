"""Remote caption acquisition with a two-prompt refusal fallback.

Protocol per instance: send the primary prompt; on a content-policy
refusal send the fallback prompt once; a second refusal is terminal
(``refused_both``).  Transport failures (network errors, timeouts, HTTP
408, 429 and 5xx) are retried up to 3 times per request with exponential
backoff; any other HTTP 4xx ends the instance after one attempt, since
repeating the request cannot change the answer.  Refusals are never
retried.  Requests use a chat-completions style wire format whose
user message carries a text part and an image part.

The credential is read from an environment variable at send time and is
never written to logs, checkpoints or reports.
"""

from __future__ import annotations

import base64
import fcntl
import json
import logging
import math
import mimetypes
import os
import random
import re
import threading
import time
from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass
from functools import partial

from .baseline import _run_together
from .corpus import MemeInstance, read_int, read_json

__all__ = [
    "PromptTemplate",
    "PRIMARY_PROMPT",
    "FALLBACK_PROMPT",
    "render_prompt",
    "ProviderConfig",
    "TransportError",
    "HttpTransport",
    "CaptionOutcome",
    "STATUS_OK_PROMPT1",
    "STATUS_OK_PROMPT2",
    "STATUS_REFUSED_BOTH",
    "STATUS_TRANSPORT_ERROR",
    "TokenBucket",
    "caption_instance",
    "caption_corpus",
    "load_checkpoint",
    "checkpoint_to_captions",
]

logger = logging.getLogger(__name__)

PLACEHOLDER = "{meme_text}"

STATUS_OK_PROMPT1 = "ok_prompt1"
STATUS_OK_PROMPT2 = "ok_prompt2"
STATUS_REFUSED_BOTH = "refused_both"
STATUS_TRANSPORT_ERROR = "transport_error"

_TERMINAL_STATUSES = {STATUS_OK_PROMPT1, STATUS_OK_PROMPT2, STATUS_REFUSED_BOTH}

CAPTION_SOURCE = "external-zero-shot"

# Responses that start like these are treated as content-policy refusals
# even when the provider reports a normal finish reason.
DEFAULT_REFUSAL_PATTERNS = (
    r"^i'?\s?m sorry",
    r"^i am sorry",
    r"^i apologize",
    r"^i can'?not\b",
    r"^i can'?t\b",
    r"^i won'?t\b",
    r"^i'?\s?m unable\b",
    r"^i am unable\b",
    r"^as an ai\b",
    r"^sorry, but i\b",
)
_REFUSAL_RE = re.compile("|".join(f"(?:{p})" for p in DEFAULT_REFUSAL_PATTERNS),
                         re.IGNORECASE)

# Fixed request settings.  Both prompts ask for at most 200 words; a longer
# caption is kept whole and logged.
_MAX_TOKENS = 300
_MAX_WORDS = 200
_TIMEOUT_S = 60.0
_MAX_TRANSPORT_RETRIES = 3
_BACKOFF_BASE_S = 1.0  # doubles per retry, plus up to 0.25 s of jitter


@dataclass(frozen=True)
class PromptTemplate:
    """A prompt body with at most one ``{meme_text}`` placeholder.

    The primary prompt embeds the meme text; the fallback prompt carries
    no placeholder and relies on the attached image alone.
    """

    body: str

    def __post_init__(self):
        n = self.body.count(PLACEHOLDER)
        if n > 1:
            raise ValueError(f"template contains {n} {PLACEHOLDER!r} placeholders")
        if not self.body:
            raise ValueError("template body must be nonempty")


def render_prompt(template: PromptTemplate, meme_text: str) -> str:
    """Substitute the meme text into the template in a single pass.

    The replacement is literal: a meme text that itself contains
    ``{meme_text}`` is inserted verbatim, never re-expanded.  Templates
    without a placeholder render unchanged.
    """
    return template.body.replace(PLACEHOLDER, meme_text, 1)


PRIMARY_PROMPT = PromptTemplate(
    "Memes are one of the most popular types of content used in an online "
    "disinformation campaign. They are mostly effective on social media "
    "platforms since there they can easily reach a large number of users. "
    "This is a meme with the following text written inside the meme: "
    '"{meme_text}". In no more than 200 words, write a caption for this '
    "meme and say what is the meme poster trying to convey?"
)

FALLBACK_PROMPT = PromptTemplate(
    "Memes are one of the most popular types of content used in an online "
    "disinformation campaign. They are mostly effective on social media "
    "platforms since there they can easily reach a large number of users. "
    "Memes in a disinformation campaign achieve their goal of influencing "
    "the users through a number of rhetorical and psychological techniques, "
    "such as causal oversimplification, name calling, smear. Identifying "
    "these memes are very useful and it can help to remove them from the "
    "internet and have a better and more calm place. To do so I want your "
    "help. I want to create a caption and find what this meme is trying to "
    "convey in order to train a model to find these memes. I provided a "
    "meme to you. In no more than 200 words, write a caption for this meme "
    "and say what is the meme poster trying to convey?"
)


@dataclass(frozen=True)
class ProviderConfig:
    """Where to send caption requests and which model to ask.

    ``credential_env`` names the environment variable holding the API
    key; the value itself is never stored on this object.
    """

    endpoint: str
    model: str = "gpt-4-vision-preview"
    credential_env: str = "PERSUASIONKIT_API_KEY"


class TransportError(RuntimeError):
    """Failure talking to the caption provider.

    ``retryable`` is False when sending the same request again cannot
    succeed (an HTTP 4xx other than 408 and 429).
    """

    def __init__(self, message: str, retryable: bool = True):
        super().__init__(message)
        self.retryable = retryable


# 4xx statuses that report a transient condition: request timeout and
# rate limiting.
_RETRYABLE_4XX = frozenset({408, 429})


def _image_url(image_ref: str) -> str:
    """The image part's URL: a local file becomes a data URL.

    Image bytes are passed through opaquely (base64), never decoded.  URLs,
    data URLs among them, and unknown references are returned as they are,
    for the provider to resolve.
    """
    if not re.match(r"^(https?|data):", image_ref) and os.path.exists(image_ref):
        mime = mimetypes.guess_type(image_ref)[0] or "application/octet-stream"
        with open(image_ref, "rb") as fh:
            payload = base64.b64encode(fh.read()).decode("ascii")
        return f"data:{mime};base64,{payload}"
    return image_ref


def build_request(cfg: ProviderConfig, prompt: str, image_ref: str) -> dict:
    """Chat-completions request body: one user turn, text part then image part."""
    return {
        "model": cfg.model,
        "messages": [
            {
                "role": "user",
                "content": [
                    {"type": "text", "text": prompt},
                    {"type": "image_url", "image_url": {"url": _image_url(image_ref)}},
                ],
            }
        ],
        "max_tokens": _MAX_TOKENS,
    }


class HttpTransport:
    """POSTs request bodies to the provider endpoint.

    The Authorization header is attached here and only here; redacted
    debug logging strips it before anything reaches a log record.
    """

    def __init__(self, cfg: ProviderConfig, session=None):
        self.cfg = cfg
        if session is None:
            import requests

            session = requests.Session()
        self.session = session

    def send(self, body: dict) -> dict:
        headers = {"Content-Type": "application/json"}
        credential = os.environ.get(self.cfg.credential_env)
        if credential:
            headers["Authorization"] = f"Bearer {credential}"
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug(
                "POST %s body=%s auth=%s",
                self.cfg.endpoint,
                json.dumps(body)[:2000],
                "Bearer ***" if credential else "none",
            )
        try:
            resp = self.session.post(
                self.cfg.endpoint,
                json=body,
                headers=headers,
                timeout=_TIMEOUT_S,
            )
        except Exception as exc:
            raise TransportError(f"request failed: {type(exc).__name__}") from None
        status = resp.status_code
        if status >= 400:
            raise TransportError(f"provider returned HTTP {status}",
                                 retryable=status >= 500 or status in _RETRYABLE_4XX)
        try:
            return resp.json()
        except Exception:
            raise TransportError("provider returned non-JSON body") from None


@dataclass(frozen=True)
class CaptionOutcome:
    id: str
    status: str
    caption: str | None
    attempts: int
    model: str


@dataclass
class _Clock:
    """Injectable time source so tests can run on a fake clock."""

    monotonic: Callable[[], float] = time.monotonic
    sleep: Callable[[float], None] = time.sleep


class TokenBucket:
    """Blocking token bucket: ``rate_per_minute`` requests, burst of 1.

    The bucket keeps the time its next token is due rather than a float
    token count.  Each ``acquire`` claims the next slot and sleeps until
    it, once, so a completed sleep always grants the token; a refill that
    rounds to just under one token cannot make it wait again.
    """

    def __init__(self, rate_per_minute: float, clock: _Clock | None = None):
        if not 0 < rate_per_minute < math.inf:
            raise ValueError(f"rate limit must be positive and finite, got {rate_per_minute}")
        self.interval = 60.0 / rate_per_minute
        self.clock = clock or _Clock()
        self.next_due = self.clock.monotonic()
        self._lock = threading.Lock()

    def acquire(self):
        with self._lock:
            now = self.clock.monotonic()
            due = max(self.next_due, now)
            self.next_due = due + self.interval
        if due > now:
            self.clock.sleep(due - now)


def _is_refusal(resp: dict) -> tuple[bool, str]:
    """Classify a provider response; returns (refused, caption_text).

    Raises TransportError for a response without the chat-completions
    shape: a first choice that is an object, whose ``message`` (if any) is
    an object, whose content is text or a list of text parts.  So does
    text that cannot be encoded as UTF-8 (a lone surrogate, which JSON can
    escape), since no checkpoint line could hold it.
    """
    try:
        choice = resp["choices"][0]
    except (KeyError, IndexError, TypeError):
        raise TransportError("malformed provider response: no choices")
    if not isinstance(choice, dict):
        raise TransportError("malformed provider response: choice is not an object")
    finish = choice.get("finish_reason")
    message = choice.get("message") or {}
    if not isinstance(message, dict):
        raise TransportError("malformed provider response: message is not an object")
    content = message.get("content")
    if isinstance(content, list):  # providers may return structured parts
        content = [part.get("text", "") for part in content if isinstance(part, dict)]
        if not all(isinstance(part, str) for part in content):
            raise TransportError("malformed provider response: content part is not text")
        content = "".join(content)
    content = content or ""
    if not isinstance(content, str):
        raise TransportError("malformed provider response: content is not text")
    text = content.strip()
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise TransportError("malformed provider response: content holds a lone surrogate")
    return finish == "content_filter" or not text or bool(_REFUSAL_RE.search(text)), text


def _send_with_retries(
    transport,
    instance_id: str,
    body: dict,
    clock: _Clock,
    rng: random.Random,
    bucket: TokenBucket | None = None,
) -> tuple[dict | None, int]:
    """Returns (response or None, wire attempts used).

    Every attempt, a retry included, first takes a token from ``bucket``.
    The warning on giving up names ``instance_id``.
    """
    attempts = 0
    for trial in range(_MAX_TRANSPORT_RETRIES + 1):
        if bucket is not None:
            bucket.acquire()
        try:
            attempts += 1
            return transport.send(body), attempts
        except TransportError as exc:
            if not exc.retryable or trial == _MAX_TRANSPORT_RETRIES:
                logger.warning("instance %s: transport gave up after %d attempts: %s",
                               instance_id, attempts, exc)
                return None, attempts
            delay = _BACKOFF_BASE_S * (2.0**trial) + rng.uniform(0.0, 0.25)
            logger.info("instance %s: transport error (%s); retrying in %.2fs",
                        instance_id, exc, delay)
            clock.sleep(delay)


def caption_instance(
    inst: MemeInstance,
    cfg: ProviderConfig,
    transport,
    clock: _Clock | None = None,
    rng: random.Random | None = None,
    bucket: TokenBucket | None = None,
) -> CaptionOutcome:
    """Run the two-prompt protocol for one instance.

    Requires an image reference.  A local image is read and encoded once,
    before the first request, and both prompts carry that data URL; an
    unreadable one raises OSError before anything is sent.  The caption is
    logged (not truncated) if it exceeds the prompts' 200-word budget.  Each
    wire request, on either prompt and on every retry, first takes a token
    from ``bucket``.
    """
    if not inst.image:
        raise ValueError(f"instance {inst.id!r} has no image reference")
    clock = clock or _Clock()
    rng = rng or random.Random()
    image = _image_url(inst.image)
    attempts = 0
    for template, ok_status in (
        (PRIMARY_PROMPT, STATUS_OK_PROMPT1),
        (FALLBACK_PROMPT, STATUS_OK_PROMPT2),
    ):
        prompt = render_prompt(template, inst.text)
        body = build_request(cfg, prompt, image)
        resp, used = _send_with_retries(transport, inst.id, body, clock, rng, bucket)
        attempts += used
        if resp is None:
            return CaptionOutcome(inst.id, STATUS_TRANSPORT_ERROR, None, attempts, cfg.model)
        try:
            refused, text = _is_refusal(resp)
        except TransportError as exc:
            logger.warning("instance %s: %s", inst.id, exc)
            return CaptionOutcome(inst.id, STATUS_TRANSPORT_ERROR, None, attempts, cfg.model)
        if refused:
            logger.info("instance %s: refusal on %s", inst.id, ok_status)
            continue
        if len(text.split()) > _MAX_WORDS:
            logger.warning(
                "instance %s: caption exceeds %d words (%d)",
                inst.id,
                _MAX_WORDS,
                len(text.split()),
            )
        return CaptionOutcome(inst.id, ok_status, text, attempts, cfg.model)
    return CaptionOutcome(inst.id, STATUS_REFUSED_BOTH, None, attempts, cfg.model)


# -- checkpointing ---------------------------------------------------------

def _outcome_record(outcome: CaptionOutcome) -> dict:
    return {
        "id": outcome.id,
        "caption": outcome.caption,
        "source": CAPTION_SOURCE,
        "status": outcome.status,
        "attempts": outcome.attempts,
        "model": outcome.model,
    }


# How far back ``_cut_torn_tail`` reads at a time, looking for a newline.
_TAIL_BLOCK = 1 << 16


def _cut_torn_tail(path: str):
    """Drop an unterminated last line, as a crash mid-append leaves it.

    Its id then counts as unfinished and is captioned again.  Reads only
    the last byte of an intact file, and leaves it untouched; of a torn
    one, blocks back from the end to the last newline.
    """
    with open(path, "rb+") as fh:
        end = fh.seek(0, os.SEEK_END)
        if end == 0:
            return
        fh.seek(end - 1)
        if fh.read(1) == b"\n":
            return
        keep = pos = end
        while pos > 0:
            start = max(0, pos - _TAIL_BLOCK)
            fh.seek(start)
            keep = start + fh.read(pos - start).rfind(b"\n") + 1
            if keep > start:
                break
            pos = start
        logger.warning("checkpoint %s: dropping an unterminated last line "
                       "(%d bytes); its id will be captioned again", path, end - keep)
        fh.truncate(keep)


def load_checkpoint(path: str) -> dict[str, CaptionOutcome]:
    """Read a JSONL checkpoint; later records for an id win.

    Raises ValueError naming the line for a line that is not UTF-8 JSON
    (or spells a lone surrogate, see ``read_json``), not an object, or
    holds what ``_outcome_record`` never writes: no string ``id``, a
    ``status`` outside the four statuses, a ``caption`` that is neither a
    string nor null (a string on an ok status), a ``model`` that is not a
    string, or an ``attempts`` that is not an integer.  Lines are split at
    newlines alone.
    """
    out: dict[str, CaptionOutcome] = {}
    if not os.path.exists(path):
        return out
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"checkpoint line {lineno}"
            rec = read_json(line, where)
            if not isinstance(rec, dict):
                raise ValueError(f"{where}: record is not a JSON object")
            for key in ("id", "status"):
                if not isinstance(rec.get(key), str):
                    raise ValueError(f"{where}: record lacks a string {key!r}")
            attempts = read_int(rec.get("attempts", 0), f"{where}: attempts")
            status, caption, model = rec["status"], rec.get("caption"), rec.get("model", "")
            if status not in _TERMINAL_STATUSES and status != STATUS_TRANSPORT_ERROR:
                raise ValueError(f"{where}: unknown status {json.dumps(status)}")
            if caption is not None and not isinstance(caption, str):
                raise ValueError(f"{where}: caption must be a string or null, "
                                 f"not {json.dumps(caption)}")
            if caption is None and status in (STATUS_OK_PROMPT1, STATUS_OK_PROMPT2):
                raise ValueError(f"{where}: an {status} record must hold a string caption")
            if not isinstance(model, str):
                raise ValueError(f"{where}: model must be a string, not {json.dumps(model)}")
            out[rec["id"]] = CaptionOutcome(rec["id"], status, caption, attempts, model)
    return out


def checkpoint_to_captions(
    outcomes: Mapping[str, CaptionOutcome],
) -> dict[str, tuple[str, str]]:
    """Successful outcomes as a captions map suitable for merge_captions."""
    return {
        iid: (o.caption, CAPTION_SOURCE)
        for iid, o in outcomes.items()
        if o.status in (STATUS_OK_PROMPT1, STATUS_OK_PROMPT2)
    }


def caption_corpus(
    corpus: Iterable[MemeInstance],
    cfg: ProviderConfig,
    transport,
    checkpoint_path: str | None = None,
    concurrency: int = 1,
    rate_per_minute: float | None = None,
    force: bool = False,
    clock: _Clock | None = None,
    seed: int = 0,
) -> dict[str, CaptionOutcome]:
    """Caption every image-bearing instance that still needs work.

    Skips instances that already carry a caption (unless ``force``) and
    ids whose checkpointed status is terminal (ok or refused_both), so
    reruns after an interruption issue requests only for incomplete ids.
    The checkpoint is opened for appending and locked with an exclusive
    ``flock`` first, so two runs never write one checkpoint; one that is
    locked already raises ValueError naming it, and is left as it is.  An
    unterminated last checkpoint line, left by a crash mid-append, is
    then cut; a malformed complete line still raises.
    Up to ``concurrency`` worker threads take the instances one at a time
    from one shared queue, in corpus order, and append each outcome to the
    checkpoint as it completes; with one worker the lines follow corpus
    order.  The workers run through :func:`baseline._run_together`: once
    one raises, or Ctrl-C comes, no worker starts another instance, and
    the call raises once the instances in flight are done, so each of
    their outcomes reaches the checkpoint before it is synced to disk and
    closed.  The returned map includes resumed terminal outcomes.

    Raises ValueError, before the checkpoint is touched, for a
    ``concurrency`` below 1 or a rate that is not positive and finite.
    """
    if concurrency < 1:
        raise ValueError(f"concurrency must be at least 1, got {concurrency}")
    clock = clock or _Clock()
    bucket = None if rate_per_minute is None else TokenBucket(rate_per_minute, clock)
    ckpt_fh = open(checkpoint_path, "a", encoding="utf-8") if checkpoint_path else None
    take_lock, write_lock = threading.Lock(), threading.Lock()
    stop = threading.Event()
    results: dict[str, CaptionOutcome] = {}

    def work(queue: Iterator[MemeInstance]):
        while not stop.is_set():
            with take_lock:
                inst = next(queue, None)
            if inst is None:
                return
            outcome = caption_instance(
                inst, cfg, transport, clock=clock, rng=random.Random(f"{seed}:{inst.id}"),
                bucket=bucket,
            )
            with write_lock:
                if ckpt_fh is not None:
                    ckpt_fh.write(json.dumps(_outcome_record(outcome), ensure_ascii=False) + "\n")
                    ckpt_fh.flush()
                results[outcome.id] = outcome

    try:
        if ckpt_fh is not None:
            try:
                fcntl.flock(ckpt_fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                raise ValueError(
                    f"checkpoint {checkpoint_path} is locked by another caption run") from None
            _cut_torn_tail(checkpoint_path)
            for iid, outcome in load_checkpoint(checkpoint_path).items():
                if outcome.status in _TERMINAL_STATUSES:
                    results[iid] = outcome
        todo: list[MemeInstance] = []
        skipped_captioned = 0
        for inst in corpus:
            if not inst.image or inst.id in results:
                continue
            if inst.caption is not None and not force:
                skipped_captioned += 1
                continue
            todo.append(inst)
        if skipped_captioned:
            logger.info("skipping %d instances that already have captions", skipped_captioned)
        queue = iter(todo)  # shared: each meme goes to one worker
        _run_together([partial(work, queue)] * min(concurrency, len(todo)), stop.set)
    finally:
        if ckpt_fh is not None:
            try:
                os.fsync(ckpt_fh.fileno())
            finally:
                ckpt_fh.close()
    return results
