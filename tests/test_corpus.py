import json
import logging
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from persuasionkit.corpus import (
    CAPTION_SOURCES,
    CorpusError,
    MemeInstance,
    caption_pieces,
    dump_corpus,
    json_pieces,
    load_binary_predictions,
    load_captions,
    load_corpus,
    load_predictions,
    merge_captions,
    read_int,
    read_json,
    read_number,
    write_binary_predictions,
    write_captions,
    write_predictions,
)
from persuasionkit.hierarchy import parse_hierarchy


@pytest.mark.parametrize("text", ["true", "false", "null", '"7"', "1.9", "1.0", "[1]", "{}"])
def test_read_int_takes_json_integers_only(text):
    assert read_int(json.loads("-7"), "x") == -7
    with pytest.raises(ValueError, match=f"^x must be an integer, not {re.escape(text)}$"):
        read_int(json.loads(text), "x")


@pytest.mark.parametrize("text", ["true", "false", "null", '"7"', '"0.3"', "[1.5]"])
def test_read_number_takes_json_numbers_only(text):
    for number, want in (("2", 2.0), ("-0.5", -0.5), ("1" + "0" * 400, float("inf")),
                         ("-1" + "0" * 400, -float("inf"))):
        got = read_number(json.loads(number), "x")
        assert type(got) is float and got == want
    with pytest.raises(ValueError, match=f"^x must be a number, not {re.escape(text)}$"):
        read_number(json.loads(text), "x")


WORKED = "persuasion\nEthos\tpersuasion\nNameCalling\tEthos\nPathos\tpersuasion"


def test_load_corpus_full_record():
    text = json.dumps(
        [
            {
                "id": "m1",
                "text": "look at THIS clown",
                "image": "memes/m1.png",
                "labels": ["NameCalling", "Ethos"],
                "caption": "a politician mocked as a clown",
                "caption_source": "manual",
                "lang": "en",
            },
            {"id": "m2", "text": "plain meme"},
        ]
    )
    h = parse_hierarchy(WORKED)
    corpus = load_corpus(text, hierarchy=h)
    assert [inst.id for inst in corpus] == ["m1", "m2"]
    m1 = corpus[0]
    assert m1.gold == {"NameCalling", "Ethos"}
    assert m1.caption_source == "manual"
    assert m1.lang == "en"
    assert corpus[1].gold is None and corpus[1].caption is None


def test_gold_autoclose_warns(caplog):
    h = parse_hierarchy(WORKED)
    text = json.dumps([{"id": "m1", "text": "t", "labels": ["NameCalling"]}])
    with caplog.at_level(logging.WARNING):
        corpus = load_corpus(text, hierarchy=h)
    assert corpus[0].gold == {"NameCalling", "Ethos"}
    assert any("closing upward" in r.message for r in caplog.records)


@pytest.mark.parametrize(
    "records, match",
    [
        ([{"text": "x"}], "missing or empty 'id'"),
        ([{"id": "a", "text": "x"}, {"id": "a", "text": "y"}], "duplicate id"),
        ([{"id": "a"}], "empty text requires an image"),
        ([{"id": "a", "text": "x", "labels": "NameCalling"}], "array of strings"),
        ([{"id": "a", "text": "x", "caption": "c"}], "without caption_source"),
        ([{"id": "a", "text": "x", "caption": "c", "caption_source": "vibes"}], "caption_source"),
        ("not an array", "top-level array"),
    ],
)
def test_load_corpus_errors(records, match):
    with pytest.raises(CorpusError, match=match):
        load_corpus(json.dumps(records))


def test_load_corpus_bad_json_and_unknown_label():
    with pytest.raises(CorpusError, match="invalid JSON"):
        load_corpus("[{\"id\": ")
    h = parse_hierarchy(WORKED)
    with pytest.raises(CorpusError, match="record 0 \\(m1\\)"):
        load_corpus(json.dumps([{"id": "m1", "text": "x", "labels": ["Nope"]}]), hierarchy=h)
    with pytest.raises(CorpusError, match="root"):
        load_corpus(json.dumps([{"id": "m1", "text": "x", "labels": ["persuasion"]}]), hierarchy=h)


def _random_instance(rng: random.Random, idx: int) -> MemeInstance:
    labels = None
    if rng.random() < 0.7:
        labels = frozenset(
            x for x in ("Ethos", "NameCalling", "Pathos") if rng.random() < 0.5
        )
    caption = None
    source = None
    if rng.random() < 0.5:
        caption = f"caption {idx} naïve café 日本語 {rng.random():.3f}"
        source = rng.choice(["external-zero-shot", "manual", "none"])
    return MemeInstance(
        id=f"inst-{idx:03d}",
        text=rng.choice(["look at this", "vote NOW", "¡qué héroe!", ""]) or "x",
        image=f"img/{idx}.png" if rng.random() < 0.6 else None,
        gold=labels,
        caption=caption,
        caption_source=source,
        lang=rng.choice([None, "en", "bg", "ar"]),
    )


def test_corpus_round_trip_randomized():
    rng = random.Random(12)
    instances = [_random_instance(rng, i) for i in range(60)]
    again = load_corpus(dump_corpus(instances))
    assert again == instances
    # a second cycle is byte-stable
    assert dump_corpus(again) == dump_corpus(instances)


def test_merge_captions():
    corpus = [
        MemeInstance(id="a", text="t1"),
        MemeInstance(id="b", text="t2", caption="old", caption_source="manual"),
    ]
    merged = merge_captions(corpus, {"a": ("new caption", "external-zero-shot")})
    assert merged[0].caption == "new caption"
    assert merged[0].caption_source == "external-zero-shot"
    assert merged[1].caption == "old"
    with pytest.raises(CorpusError, match="unknown instance ids"):
        merge_captions(corpus, {"zz": ("x", "manual")})
    with pytest.raises(CorpusError, match="already has a caption"):
        merge_captions(corpus, {"b": ("x", "manual")})
    forced = merge_captions(corpus, {"b": ("x", "manual")}, overwrite=True)
    assert forced[1].caption == "x"
    with pytest.raises(CorpusError, match="bad source"):
        merge_captions(corpus, {"a": ("x", "vibes")})


def test_predictions_round_trip():
    h = parse_hierarchy(WORKED)
    rng = random.Random(9)
    preds = {
        f"p{i}": frozenset(
            x for x in ("Ethos", "NameCalling", "Pathos") if rng.random() < 0.5
        )
        for i in range(50)
    }
    again = load_predictions(write_predictions(preds), hierarchy=h)
    assert again == preds
    with pytest.raises(CorpusError, match="missing 'labels'"):
        load_predictions(json.dumps([{"id": "a"}]))
    with pytest.raises(CorpusError, match="record 0"):
        load_predictions(json.dumps([{"id": "a", "labels": ["Nope"]}]), hierarchy=h)


LABELS = ("Ethos", "NameCalling", "Pathos")


def _labeled_records(label_lists) -> str:
    return json.dumps([{"id": f"m{i}", "text": "t", "labels": labels}
                       for i, labels in enumerate(label_lists)])


def _one_object_per_set(sets) -> bool:
    return len({id(s) for s in sets}) == len(set(sets))


@settings(max_examples=60, deadline=None)
@given(label_lists=st.lists(st.lists(st.sampled_from(LABELS), max_size=5), max_size=40),
       with_hierarchy=st.booleans())
def test_readers_hold_each_distinct_label_set_once(label_lists, with_hierarchy):
    # Lists repeat, reorder and duplicate labels; equal sets, as written
    # or as closed, come back as one object.
    h = parse_hierarchy(WORKED) if with_hierarchy else None
    text = _labeled_records(label_lists)
    written = [frozenset(labels) for labels in label_lists]
    preds = list(load_predictions(text, hierarchy=h).values())
    golds = [inst.gold for inst in load_corpus(text, hierarchy=h)]
    assert preds == written
    assert golds == [h.extend(s) if h else s for s in written]
    assert _one_object_per_set(preds) and _one_object_per_set(golds)


def test_5000_records_over_k_label_sets_hold_k_set_objects():
    rng = random.Random(4)
    subsets = [[lab for j, lab in enumerate(LABELS) if mask >> j & 1] for mask in range(8)]
    label_lists = [rng.sample(s, len(s)) for s in rng.choices(subsets, k=5000)]
    text = _labeled_records(label_lists)
    h = parse_hierarchy(WORKED)
    for hierarchy, k_written, k_closed in ((None, 8, 8), (h, 8, 6)):
        preds = load_predictions(text, hierarchy=hierarchy)
        golds = [inst.gold for inst in load_corpus(text, hierarchy=hierarchy)]
        assert len({id(s) for s in preds.values()}) == k_written
        assert len({id(s) for s in golds}) == k_closed


@pytest.mark.parametrize("text,code", [
    ('["\\ud800"]', "D800"),
    ('{"\\uDFFFx": 1}', "DFFF"),
    ('[["ok", "a\\uDc00b"]]', "DC00"),
    ('"\\ude00\\ud83d"', "DE00"),  # a pair the wrong way round
    ('{"k": [1, {"id": "\\ud83d"}]}', "D83D"),
])
def test_read_json_refuses_a_lone_surrogate_escape(text, code):
    for data in (text, text.encode("utf-8")):
        with pytest.raises(CorpusError, match=(
                f"^corpus: invalid JSON: string holds a lone surrogate U\\+{code}$")):
            read_json(data, "corpus")


def test_read_json_takes_a_surrogate_pair_and_an_escaped_backslash():
    text = '["\\ud83d\\ude00", "\\\\ud800", "\\u00e9"]'
    want = ["\U0001f600", "\\ud800", "é"]
    assert read_json(text, "x") == read_json(text.encode("utf-8"), "x") == want


def test_dataset_file_parses_as_gold():
    # a labeled dataset doubles as a gold file: extra fields are ignored
    text = json.dumps([{"id": "m1", "text": "x", "labels": ["Pathos"], "lang": "en"}])
    assert load_predictions(text) == {"m1": frozenset({"Pathos"})}


def test_binary_round_trip():
    rng = random.Random(2)
    preds = {f"b{i}": rng.random() < 0.5 for i in range(50)}
    assert load_binary_predictions(write_binary_predictions(preds)) == preds
    with pytest.raises(CorpusError, match="label must be"):
        load_binary_predictions(json.dumps([{"id": "a", "label": "maybe"}]))


def test_captions_round_trip():
    caps = {
        "a": ("a caption", "external-zero-shot"),
        "b": ("eine Bildunterschrift", "manual"),
    }
    assert load_captions(write_captions(caps)) == caps
    with pytest.raises(CorpusError, match="source must be"):
        load_captions(json.dumps([{"id": "a", "caption": "x", "source": "vibes"}]))
    with pytest.raises(CorpusError, match="missing 'caption'"):
        load_captions(json.dumps([{"id": "a", "source": "manual"}]))


# -- writers against json.dumps ------------------------------------------------

def _dumps(records) -> str:
    """The one-shot reference every JSON array writer must equal."""
    return json.dumps(records, ensure_ascii=False, indent=2) + "\n"


# Text the escaper must get right: quotes, backslashes, every control
# character, U+2028/U+2029, non-ASCII and astral code points, and any other
# code point but a surrogate (no UTF-8 writer can encode a lone one).
_TEXT = st.text(st.one_of(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u2028\u2029é日😀\U0010ffff'),
    st.characters(blacklist_categories=("Cs",)),
))
_RECORD = st.dictionaries(_TEXT, st.one_of(_TEXT, st.lists(_TEXT, max_size=4)), max_size=5)


@settings(max_examples=150, deadline=None)
@given(records=st.lists(_RECORD, max_size=6))
def test_json_pieces_is_json_dumps_one_piece_per_record(records):
    pieces = list(json_pieces(records))
    assert "".join(pieces) == _dumps(records)
    assert len(pieces) == len(records) + 1
    assert "".join(json_pieces(iter(records))) == _dumps(records)


@pytest.mark.parametrize("records", [
    [1], [["x"]], [{"a": 1}], [{"a": None}], [{"a": True}], [{"a": ("x",)}],
    [{"a": {"b": "c"}}], [{"a": ["x", 1]}], [{"a": [["x"]]}], [{1: "x"}], [{"a": "x"}, {None: "y"}],
])
def test_json_pieces_refuses_what_is_not_a_flat_record_of_strings(records):
    with pytest.raises(TypeError):
        "".join(json_pieces(records))


_IDS = st.lists(_TEXT, unique=True, max_size=8).map(sorted)


@settings(max_examples=100, deadline=None)
@given(ids=_IDS, data=st.data())
def test_each_writer_is_json_dumps_of_its_records(ids, data):
    labels = {iid: data.draw(st.lists(_TEXT, max_size=4)) for iid in ids}
    assert write_predictions(labels) == _dumps(
        [{"id": iid, "labels": sorted(labels[iid])} for iid in ids])
    binary = {iid: data.draw(st.booleans()) for iid in ids}
    assert write_binary_predictions(binary) == _dumps(
        [{"id": iid, "label": "propagandistic" if binary[iid] else "not_propagandistic"}
         for iid in ids])
    captions = {iid: (data.draw(_TEXT), data.draw(st.sampled_from(CAPTION_SOURCES)))
                for iid in ids}
    want = _dumps([{"id": iid, "caption": captions[iid][0], "source": captions[iid][1]}
                   for iid in ids])
    assert write_captions(captions) == "".join(caption_pieces(captions)) == want
    optional = st.one_of(st.none(), _TEXT)
    instances = [MemeInstance(
        id=iid, text=data.draw(_TEXT), image=data.draw(optional),
        gold=data.draw(st.one_of(st.none(), st.frozensets(_TEXT, max_size=3))),
        caption=data.draw(optional), caption_source=data.draw(optional),
        lang=data.draw(optional)) for iid in reversed(ids)]
    records = []
    for inst in instances:
        rec = {"id": inst.id, "text": inst.text, "image": inst.image,
               "labels": None if inst.gold is None else sorted(inst.gold),
               "caption": inst.caption, "caption_source": inst.caption_source,
               "lang": inst.lang}
        records.append({key: val for key, val in rec.items() if val is not None})
    assert dump_corpus(instances) == _dumps(records)


class _CountingCaptions(dict):
    """A captions map that counts the ids looked up in it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.looked_up = set()

    def __getitem__(self, key):
        self.looked_up.add(key)
        return super().__getitem__(key)


def test_caption_pieces_builds_each_record_as_it_is_written():
    captions = _CountingCaptions({f"m{i:03d}": (f"caption {i}", "manual") for i in range(50)})
    pieces = caption_pieces(captions)
    first = next(pieces)
    assert captions.looked_up == {"m000"}
    assert "".join([first, *pieces]) == write_captions(captions)
    assert len(captions.looked_up) == 50
