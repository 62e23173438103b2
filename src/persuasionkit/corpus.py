"""Dataset, prediction and caption file I/O.

Every on-disk format is a UTF-8 JSON array of records.  Loaders validate
shape and labels, address errors by record index and id, and never touch
image bytes (the ``image`` field is an opaque reference).
"""

from __future__ import annotations

import json
import logging
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


def _records(text: str, what: str) -> Iterator[tuple[int, str, dict]]:
    """Yield ``(index, id, record)`` for each record of a JSON array file.

    Raises CorpusError unless the file is an array of objects, each with a
    nonempty string ``id`` not seen before.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CorpusError(f"{what}: invalid JSON: {exc}") from None
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


def load_corpus(text: str, hierarchy: LabelHierarchy | None = None) -> list[MemeInstance]:
    """Parse a dataset file into instances.

    When a hierarchy is supplied, gold label sets are validated against it
    and inconsistent sets are closed upward with a logged warning.  Unknown
    fields are ignored; ``lang`` is carried through.
    """
    what = "corpus"
    out: list[MemeInstance] = []
    for idx, iid, rec in _records(text, what):
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
                    closed = hierarchy.extend(gold)
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
    return json.dumps(records, ensure_ascii=False, indent=2) + "\n"


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
    text: str, hierarchy: LabelHierarchy | None = None
) -> dict[str, frozenset[str]]:
    """Parse {id, labels} records into id -> label set.

    Dataset files whose records all carry ``labels`` parse here too, so
    gold can be read from either format.  Labels are validated against the
    hierarchy when one is given; sets are kept as written (scoring closes
    them anyway).
    """
    what = "predictions"
    out: dict[str, frozenset[str]] = {}
    for idx, iid, rec in _records(text, what):
        labels = _label_list(rec, "labels", idx, what)
        if labels is None:
            raise CorpusError(f"{what}: record {idx} ({iid}): missing 'labels'")
        lset = frozenset(labels)
        if hierarchy is not None:
            try:
                hierarchy.extend(lset)
            except Exception as exc:
                raise CorpusError(f"{what}: record {idx} ({iid}): {exc}") from None
        out[iid] = lset
    return out


def write_predictions(predictions: Mapping[str, Iterable[str]]) -> str:
    records = [
        {"id": iid, "labels": sorted(predictions[iid])} for iid in sorted(predictions)
    ]
    return json.dumps(records, ensure_ascii=False, indent=2) + "\n"


def load_binary_predictions(text: str) -> dict[str, bool]:
    """Parse {id, label} records; label is propagandistic/not_propagandistic."""
    what = "binary predictions"
    out: dict[str, bool] = {}
    for idx, iid, rec in _records(text, what):
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
    records = [
        {"id": iid, "label": BINARY_POSITIVE if predictions[iid] else BINARY_NEGATIVE}
        for iid in sorted(predictions)
    ]
    return json.dumps(records, ensure_ascii=False, indent=2) + "\n"


def load_captions(text: str) -> dict[str, tuple[str, str]]:
    """Parse {id, caption, source} records into id -> (caption, source)."""
    what = "captions"
    out: dict[str, tuple[str, str]] = {}
    for idx, iid, rec in _records(text, what):
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


def write_captions(captions: Mapping[str, tuple[str, str]]) -> str:
    records = [
        {"id": iid, "caption": captions[iid][0], "source": captions[iid][1]}
        for iid in sorted(captions)
    ]
    return json.dumps(records, ensure_ascii=False, indent=2) + "\n"
