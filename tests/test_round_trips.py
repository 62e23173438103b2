"""Round trips per file kind: whatever a reader accepts, its writer
writes, and the reader reads back equal.

Each test draws a file whose records mix well-formed fields, missing
fields, fields of the wrong JSON type and unknown fields; a file the
reader refuses is discarded, and any other must survive the writer.
"""

import json
import os
import tempfile

from hypothesis import event, given, settings, strategies as st

from persuasionkit.captioner import (
    STATUS_OK_PROMPT1,
    STATUS_OK_PROMPT2,
    STATUS_REFUSED_BOTH,
    STATUS_TRANSPORT_ERROR,
    _outcome_record,
    load_checkpoint,
)
from persuasionkit.corpus import (
    BINARY_NEGATIVE,
    BINARY_POSITIVE,
    CAPTION_SOURCES,
    CorpusError,
    dump_corpus,
    load_binary_predictions,
    load_captions,
    load_corpus,
    load_predictions,
    write_binary_predictions,
    write_captions,
    write_predictions,
)
from persuasionkit.hierarchy import parse_hierarchy

WORKED = parse_hierarchy("persuasion\nEthos\tpersuasion\nNameCalling\tEthos\nPathos\tpersuasion")

# Astral characters too: an ASCII-only writer spells them as surrogate
# pairs, which the reader must take.
_TEXT = st.text(max_size=8)
_IDS = st.text(min_size=1, max_size=8)
_LABELS = st.lists(st.one_of(st.sampled_from(("Ethos", "NameCalling", "Pathos", "Other")),
                             _TEXT), max_size=4)
_JUNK = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
                  _TEXT, st.lists(_TEXT, max_size=2), st.dictionaries(_TEXT, _TEXT, max_size=2))


@st.composite
def _record(draw, fields: dict, junk: bool) -> dict:
    """A record with each of ``fields`` mostly well-formed, else missing,
    or of any JSON type when ``junk``, and maybe an unknown field."""
    rec = {}
    for name, valid in fields.items():
        kind = draw(st.sampled_from(("valid",) * 4 + ("missing",) + ("junk",) * junk))
        if kind != "missing":
            rec[name] = draw(valid if kind == "valid" else _JUNK)
    if draw(st.booleans()):
        rec["extra"] = draw(_JUNK)
    return rec


@st.composite
def _file(draw, fields: dict):
    """A JSON array of records, as str or as UTF-8 bytes, ASCII-escaped or
    not; in half the files, fields may be of any JSON type."""
    records = st.lists(_record(fields, draw(st.booleans())), max_size=5)
    text = json.dumps(draw(records), ensure_ascii=draw(st.booleans()))
    return text.encode("utf-8") if draw(st.booleans()) else text


def _accepted(read, data):
    """``read(data)``, or None when the reader refuses it."""
    try:
        value = read(data)
    except CorpusError:
        event("refused")
        return None
    event("accepted")
    return value


_CORPUS_FIELDS = {
    "id": _IDS, "text": _TEXT, "image": _TEXT, "labels": _LABELS, "caption": _TEXT,
    "caption_source": st.sampled_from(CAPTION_SOURCES), "lang": _TEXT,
}


@settings(max_examples=200, deadline=None)
@given(_file(_CORPUS_FIELDS), st.sampled_from((None, WORKED)))
def test_a_corpus_the_reader_accepts_round_trips(data, hierarchy):
    corpus = _accepted(lambda d: load_corpus(d, hierarchy), data)
    if corpus is not None:
        assert load_corpus(dump_corpus(corpus), hierarchy) == corpus


@settings(max_examples=200, deadline=None)
@given(_file({"id": _IDS, "labels": _LABELS}), st.sampled_from((None, WORKED)))
def test_predictions_the_reader_accepts_round_trip(data, hierarchy):
    preds = _accepted(lambda d: load_predictions(d, hierarchy), data)
    if preds is not None:
        assert load_predictions(write_predictions(preds), hierarchy) == preds


@settings(max_examples=200, deadline=None)
@given(_file({"id": _IDS, "label": st.sampled_from((BINARY_POSITIVE, BINARY_NEGATIVE))}))
def test_binary_predictions_the_reader_accepts_round_trip(data):
    preds = _accepted(load_binary_predictions, data)
    if preds is not None:
        assert load_binary_predictions(write_binary_predictions(preds)) == preds


@settings(max_examples=200, deadline=None)
@given(_file({"id": _IDS, "caption": _TEXT, "source": st.sampled_from(CAPTION_SOURCES)}))
def test_captions_the_reader_accepts_round_trip(data):
    captions = _accepted(load_captions, data)
    if captions is not None:
        assert load_captions(write_captions(captions)) == captions


_STATUSES = (STATUS_OK_PROMPT1, STATUS_OK_PROMPT2, STATUS_REFUSED_BOTH, STATUS_TRANSPORT_ERROR)
_CHECKPOINT_FIELDS = {
    "id": _IDS, "status": st.sampled_from(_STATUSES), "caption": _TEXT,
    "attempts": st.integers(), "model": _TEXT, "source": _TEXT,
}


@settings(max_examples=200, deadline=None)
@given(st.booleans().flatmap(lambda junk: st.lists(
    st.one_of(_record(_CHECKPOINT_FIELDS, junk), *[_JUNK] * junk), max_size=6)),
       st.booleans(), st.sampled_from(("", " ", "\n")))
def test_checkpoint_lines_the_reader_accepts_round_trip(values, ascii_only, pad):
    # One JSON value a line, blank lines and padding between them; later
    # lines for an id win.  The writer's line is caption_corpus's.
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "first.jsonl"), os.path.join(tmp, "second.jsonl")
        with open(first, "w", encoding="utf-8") as fh:
            fh.writelines(pad + json.dumps(v, ensure_ascii=ascii_only) + pad + "\n"
                          for v in values)
        try:
            outcomes = load_checkpoint(first)
        except ValueError:
            event("refused")
            return
        event("accepted")
        with open(second, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(_outcome_record(o), ensure_ascii=False) + "\n"
                          for o in outcomes.values())
        assert load_checkpoint(second) == outcomes
