import json
import logging
import random

import pytest

from persuasionkit.corpus import (
    CorpusError,
    MemeInstance,
    dump_corpus,
    load_binary_predictions,
    load_captions,
    load_corpus,
    load_predictions,
    merge_captions,
    write_binary_predictions,
    write_captions,
    write_predictions,
)
from persuasionkit.hierarchy import parse_hierarchy

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
