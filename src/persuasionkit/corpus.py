"""Dataset, prediction and caption file I/O.

Every on-disk format is a UTF-8 JSON array of records.  Loaders validate
shape and labels, address errors by record index and id, and never touch
image bytes (the ``image`` field is an opaque reference).
"""

from __future__ import annotations

import json
import logging
import math
import re
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, replace

from .hierarchy import LabelHierarchy

__all__ = [
    "CorpusError",
    "MemeInstance",
    "CAPTION_SOURCES",
    "BINARY_POSITIVE",
    "BINARY_NEGATIVE",
    "load_corpus",
    "dump_corpus",
    "merge_captions",
    "load_predictions",
    "write_predictions",
    "load_binary_predictions",
    "write_binary_predictions",
    "load_captions",
    "write_captions",
    "json_pieces",
    "caption_pieces",
]

logger = logging.getLogger(__name__)

CAPTION_SOURCES = ("external-zero-shot", "external-finetuned", "manual", "none")
BINARY_POSITIVE = "propagandistic"
BINARY_NEGATIVE = "not_propagandistic"


class CorpusError(ValueError):
    """Malformed corpus, prediction or caption file."""


@dataclass(frozen=True)
class MemeInstance:
    """One meme: identifier, overlaid text, optional image ref and caption.

    ``gold`` is None for unlabeled instances and a frozenset of hierarchy
    labels otherwise.  ``caption_source`` says where the caption came from
    and must be present whenever ``caption`` is.
    """

    id: str
    text: str
    image: str | None = None
    gold: frozenset[str] | None = None
    caption: str | None = None
    caption_source: str | None = None
    lang: str | None = None


# The string escaper of ``json.dumps(..., ensure_ascii=False)``: CPython's
# C one when its ``_json`` module is built, as it is by default.
_escape = json.encoder.encode_basestring


def _record_text(rec: dict) -> str:
    """The text of the flat record ``rec`` as an element of an ``indent=2``
    JSON array: ``{`` at the element's indent, one key per line."""
    if not isinstance(rec, dict):
        raise TypeError(f"a record must be a dict, not {type(rec).__name__}")
    if not rec:
        return "{}"
    fields = []
    for key, value in rec.items():
        if isinstance(value, str):
            fields.append(f"{_escape(key)}: {_escape(value)}")
        elif not isinstance(value, list):
            raise TypeError(f"field {key!r} must be a str or a list of str, "
                            f"not {type(value).__name__}")
        elif value:
            fields.append(f"{_escape(key)}: [\n      "
                          + ",\n      ".join(map(_escape, value)) + "\n    ]")
        else:
            fields.append(f"{_escape(key)}: []")
    return "{\n    " + ",\n    ".join(fields) + "\n  }"


def json_pieces(records: Iterable[dict]) -> Iterator[str]:
    """The text of ``json.dumps(records, ensure_ascii=False, indent=2) +
    "\n"`` in pieces, one per record, so a caller may write it without
    holding it whole.

    Each record is a flat dict with str keys, whose values are a str or a
    list of str; every key and string goes through the escaper
    ``json.dumps`` uses, so the bytes are the same.  Anything else (a
    non-dict record, a key or list item that is not a str, any other value
    type) raises TypeError."""
    first = True
    for rec in records:
        yield ("[\n  " if first else ",\n  ") + _record_text(rec)
        first = False
    yield "[]\n" if first else "\n]\n"


# A UTF-16 surrogate spelled as a JSON escape, in either case: what
# ``json.loads`` turns into a str no UTF-8 writer can encode.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")
_SURROGATE = re.compile(r"[\ud800-\udfff]")


def _lone_surrogate(value) -> str | None:
    """The first surrogate code point in the strings (keys too) of the
    parsed JSON ``value``, or None.  An escaped pair parses to one code
    point, so only a lone surrogate is left."""
    stack = [value]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            found = _SURROGATE.search(node)
            if found:
                return found.group()
        elif isinstance(node, dict):
            stack.extend(node)
            stack.extend(node.values())
        elif isinstance(node, list):
            stack.extend(node)
    return None


def read_json(data: str | bytes, what: str):
    """The JSON value in ``data``, bytes decoded strictly as UTF-8: the one
    reader of every JSON input.  Bad UTF-8, a ``json.JSONDecodeError`` (or
    an integer too long to convert), nesting too deep (``RecursionError``)
    and a string holding a lone surrogate escape, which no writer can
    encode (RFC 8259 section 8.2), raise one CorpusError,
    ``"{what}: invalid JSON: ..."``.  The parsed value is searched for a
    lone surrogate only when ``data`` spells a surrogate escape."""
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
        value = json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError: UnicodeDecodeError too
        raise CorpusError(f"{what}: invalid JSON: {exc}") from None
    if _SURROGATE_ESCAPE.search(text):
        lone = _lone_surrogate(value)
        if lone is not None:
            raise CorpusError(f"{what}: invalid JSON: string holds a lone surrogate "
                              f"U+{ord(lone):04X}")
    return value


def _records(data: str | bytes, what: str) -> Iterator[tuple[int, str, dict]]:
    """Yield ``(index, id, record)`` for each record of a JSON array file.

    Raises CorpusError unless the file is an array of objects, each with a
    nonempty string ``id`` not seen before.
    """
    doc = read_json(data, what)
    if not isinstance(doc, list):
        raise CorpusError(f"{what}: expected a top-level array of records")
    seen: set[str] = set()
    for idx, rec in enumerate(doc):
        if not isinstance(rec, dict):
            raise CorpusError(f"{what}: record {idx}: expected an object")
        iid = rec.get("id")
        if not isinstance(iid, str) or not iid:
            raise CorpusError(f"{what}: record {idx}: missing or empty 'id'")
        if iid in seen:
            raise CorpusError(f"{what}: record {idx}: duplicate id {iid!r}")
        seen.add(iid)
        yield idx, iid, rec


def _opt_str(rec: dict, key: str, idx: int, what: str) -> str | None:
    val = rec.get(key)
    if val is None:
        return None
    if not isinstance(val, str):
        raise CorpusError(f"{what}: record {idx}: field {key!r} must be a string")
    return val


def _label_list(rec: dict, key: str, idx: int, what: str) -> list[str] | None:
    val = rec.get(key)
    if val is None:
        return None
    if not isinstance(val, list) or not all(isinstance(x, str) for x in val):
        raise CorpusError(
            f"{what}: record {idx}: field {key!r} must be an array of strings"
        )
    return val


def read_int(value, what: str) -> int:
    """``value`` if it is a JSON integer.  Raises ValueError naming
    ``what`` for a bool, a string, a float (``1.0`` too: ``json`` writes
    an int with no point) or any other JSON value."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, not {json.dumps(value)}")
    return value


def read_number(value, what: str) -> float:
    """``value`` as a float if it is a JSON number.  Raises ValueError
    naming ``what`` for a bool, a string or any other JSON value.  An
    integer too large for a float reads as an infinity, as ``1e400``
    does."""
    if type(value) is float:
        return value
    if type(value) is not int:
        raise ValueError(f"{what} must be a number, not {json.dumps(value)}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def load_corpus(data: str | bytes, hierarchy: LabelHierarchy | None = None) -> list[MemeInstance]:
    """Parse a dataset file into instances.

    When a hierarchy is supplied, gold label sets are validated against it
    and inconsistent sets are closed upward with a logged warning.  Unknown
    fields are ignored; ``lang`` is carried through.  Equal gold sets come
    back as one shared frozenset.
    """
    what = "corpus"
    out: list[MemeInstance] = []
    shared: dict[frozenset[str], frozenset[str]] = {}
    for idx, iid, rec in _records(data, what):
        text_field = rec.get("text", "")
        if not isinstance(text_field, str):
            raise CorpusError(f"{what}: record {idx} ({iid}): 'text' must be a string")
        image = _opt_str(rec, "image", idx, what)
        if not text_field and image is None:
            raise CorpusError(
                f"{what}: record {idx} ({iid}): empty text requires an image reference"
            )
        caption = _opt_str(rec, "caption", idx, what)
        caption_source = _opt_str(rec, "caption_source", idx, what)
        if caption is not None and caption_source is None:
            raise CorpusError(
                f"{what}: record {idx} ({iid}): caption present without caption_source"
            )
        if caption_source is not None and caption_source not in CAPTION_SOURCES:
            raise CorpusError(
                f"{what}: record {idx} ({iid}): caption_source must be one of "
                f"{CAPTION_SOURCES}, got {caption_source!r}"
            )
        labels = _label_list(rec, "labels", idx, what)
        gold: frozenset[str] | None = None
        if labels is not None:
            gold = frozenset(labels)
            if hierarchy is not None:
                try:
                    # The list, so an error names its first bad label in file order.
                    closed = hierarchy.extend(labels)
                except Exception as exc:
                    raise CorpusError(f"{what}: record {idx} ({iid}): {exc}") from None
                if closed != gold:
                    added = sorted(closed - gold)
                    logger.warning(
                        "corpus: record %d (%s): gold labels missing ancestors %s; "
                        "closing upward",
                        idx,
                        iid,
                        added,
                    )
                    gold = closed
            gold = shared.setdefault(gold, gold)
        out.append(
            MemeInstance(
                id=iid,
                text=text_field,
                image=image,
                gold=gold,
                caption=caption,
                caption_source=caption_source,
                lang=_opt_str(rec, "lang", idx, what),
            )
        )
    return out


def dump_corpus(instances: Iterable[MemeInstance]) -> str:
    """Serialize instances back to the dataset format (round-trip exact)."""
    records = []
    for inst in instances:
        rec: dict = {"id": inst.id, "text": inst.text}
        if inst.image is not None:
            rec["image"] = inst.image
        if inst.gold is not None:
            rec["labels"] = sorted(inst.gold)
        if inst.caption is not None:
            rec["caption"] = inst.caption
        if inst.caption_source is not None:
            rec["caption_source"] = inst.caption_source
        if inst.lang is not None:
            rec["lang"] = inst.lang
        records.append(rec)
    return "".join(json_pieces(records))


def merge_captions(
    corpus: Iterable[MemeInstance],
    captions: Mapping[str, tuple[str, str]],
    overwrite: bool = False,
) -> list[MemeInstance]:
    """Attach captions (id -> (caption, source)) onto corpus instances.

    Refuses ids that are not in the corpus, refuses to clobber an existing
    caption unless ``overwrite``, and validates the source value.
    """
    by_id = {inst.id: inst for inst in corpus}
    unknown = sorted(set(captions) - set(by_id))
    if unknown:
        raise CorpusError(f"captions reference unknown instance ids: {unknown[:5]}")
    out: list[MemeInstance] = []
    for inst in by_id.values():
        if inst.id in captions:
            cap, source = captions[inst.id]
            if source not in CAPTION_SOURCES:
                raise CorpusError(
                    f"caption for {inst.id!r}: bad source {source!r}"
                )
            if inst.caption is not None and not overwrite:
                raise CorpusError(
                    f"instance {inst.id!r} already has a caption (use overwrite)"
                )
            inst = replace(inst, caption=cap, caption_source=source)
        out.append(inst)
    return out


def load_predictions(
    data: str | bytes, hierarchy: LabelHierarchy | None = None
) -> dict[str, frozenset[str]]:
    """Parse {id, labels} records into id -> label set.

    Dataset files whose records all carry ``labels`` parse here too, so
    gold can be read from either format.  Labels are validated against the
    hierarchy when one is given; sets are kept as written (scoring closes
    them anyway).  Equal sets come back as one shared frozenset.
    """
    what = "predictions"
    out: dict[str, frozenset[str]] = {}
    shared: dict[frozenset[str], frozenset[str]] = {}
    for idx, iid, rec in _records(data, what):
        labels = _label_list(rec, "labels", idx, what)
        if labels is None:
            raise CorpusError(f"{what}: record {idx} ({iid}): missing 'labels'")
        lset = frozenset(labels)
        lset = shared.setdefault(lset, lset)
        if hierarchy is not None:
            try:
                hierarchy.extend(labels)  # the list: see load_corpus
            except Exception as exc:
                raise CorpusError(f"{what}: record {idx} ({iid}): {exc}") from None
        out[iid] = lset
    return out


def write_predictions(predictions: Mapping[str, Iterable[str]]) -> str:
    return "".join(json_pieces(
        {"id": iid, "labels": sorted(predictions[iid])} for iid in sorted(predictions)
    ))


def load_binary_predictions(data: str | bytes) -> dict[str, bool]:
    """Parse {id, label} records; label is propagandistic/not_propagandistic."""
    what = "binary predictions"
    out: dict[str, bool] = {}
    for idx, iid, rec in _records(data, what):
        label = rec.get("label")
        if label == BINARY_POSITIVE:
            out[iid] = True
        elif label == BINARY_NEGATIVE:
            out[iid] = False
        else:
            raise CorpusError(
                f"{what}: record {idx} ({iid}): label must be "
                f"{BINARY_POSITIVE!r} or {BINARY_NEGATIVE!r}, got {label!r}"
            )
    return out


def write_binary_predictions(predictions: Mapping[str, bool]) -> str:
    return "".join(json_pieces(
        {"id": iid, "label": BINARY_POSITIVE if predictions[iid] else BINARY_NEGATIVE}
        for iid in sorted(predictions)
    ))


def load_captions(data: str | bytes) -> dict[str, tuple[str, str]]:
    """Parse {id, caption, source} records into id -> (caption, source)."""
    what = "captions"
    out: dict[str, tuple[str, str]] = {}
    for idx, iid, rec in _records(data, what):
        cap = rec.get("caption")
        source = rec.get("source")
        if not isinstance(cap, str):
            raise CorpusError(f"{what}: record {idx} ({iid}): missing 'caption'")
        if source not in CAPTION_SOURCES:
            raise CorpusError(
                f"{what}: record {idx} ({iid}): source must be one of "
                f"{CAPTION_SOURCES}, got {source!r}"
            )
        out[iid] = (cap, source)
    return out


def caption_pieces(captions: Mapping[str, tuple[str, str]]) -> Iterator[str]:
    """The text of :func:`write_captions` in pieces (see :func:`json_pieces`),
    one record at a time in id order, built as it is written."""
    return json_pieces(
        {"id": iid, "caption": captions[iid][0], "source": captions[iid][1]}
        for iid in sorted(captions)
    )


def write_captions(captions: Mapping[str, tuple[str, str]]) -> str:
    return "".join(caption_pieces(captions))
