"""Every file every command reads: read once, hashed as parsed, and refused
by name when it cannot be decoded or parsed.

The fuzz turns one node of a valid input into another JSON type, into
nesting too deep to parse or into a string holding a lone surrogate escape,
or inserts a 0xff byte, and runs the command through ``cli.main``.  The
command either works or exits 1 with one ``error:`` line naming the file,
and then leaves no output behind.
"""

import builtins
import contextlib
import hashlib
import io
import json
import os
import re
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from persuasionkit import cli

from cli_inputs import COMMANDS, command_line, flag_of, input_bytes, write_inputs
from mocks import ScriptedTransport

DEEP = "[" * 100_000 + "]" * 100_000
_DEEP_MARK = "\x00deep\x00"
_LONE_MARK = "\x00lone\x00"

# Values of each type the JSON parser gives, by type; "another JSON type"
# means another of these, so an integer and a float differ.
_VALUES = {
    type(None): st.none(), bool: st.booleans(), int: st.integers(), float: st.floats(),
    str: st.text(max_size=4), list: st.lists(st.integers(-3, 3), max_size=2),
    dict: st.dictionaries(st.text(max_size=2), st.integers(-3, 3), max_size=2),
}


def _nodes(doc, path=()):
    """The path of every node of ``doc``, the root first."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _nodes(value, path + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc[path[0]] = _replaced(doc[path[0]], path[1:], value)
    return doc


@st.composite
def corrupted_json(draw, data: bytes) -> bytes:
    """``data`` with one node turned into a value of another JSON type,
    into deep nesting or into a string holding a lone surrogate escape (in
    either case), or with a 0xff byte inserted."""
    kind = draw(st.sampled_from(["node", "deep", "lone", "byte"]))
    if kind == "byte":
        at = draw(st.integers(0, len(data)))
        return data[:at] + b"\xff" + data[at:]
    doc = json.loads(data)
    path = draw(st.sampled_from(list(_nodes(doc))))
    old = doc
    for key in path:
        old = old[key]
    if kind == "node":
        new = draw(draw(st.sampled_from(
            [values for t, values in _VALUES.items() if t is not type(old)])))
    else:
        new = {"deep": _DEEP_MARK, "lone": _LONE_MARK}[kind]
    text = json.dumps(_replaced(doc, path, new), ensure_ascii=False)
    if kind == "lone":
        escape = format(draw(st.integers(0xD800, 0xDFFF)), draw(st.sampled_from(["04x", "04X"])))
        text = text.replace(json.dumps(_LONE_MARK), f'"lone \\u{escape}"')
    return text.replace(json.dumps(_DEEP_MARK), DEEP).encode("utf-8")


@st.composite
def corrupted(draw, data: bytes, form: str) -> tuple[bytes, int | None]:
    """``data`` corrupted as ``form`` allows, and for a JSONL file the
    number of the line that changed.  Text files get a 0xff byte."""
    if form == "text":
        at = draw(st.integers(0, len(data)))
        return data[:at] + b"\xff" + data[at:], None
    if form == "json":
        return draw(corrupted_json(data)), None
    lines = data.splitlines()
    n = draw(st.integers(0, len(lines) - 1))
    lines[n] = draw(corrupted_json(lines[n]))
    return b"".join(line + b"\n" for line in lines), n + 1


# (command, file key, form): every file each command reads.  No command
# reads a captions file; caption's --corpus carries captions instead.
CASES = [
    ("predict", "model", "json"),
    ("predict", "corpus", "json"),
    ("predict", "hierarchy", "text"),
    ("train", "corpus", "json"),
    ("train", "dev", "json"),
    ("train", "config", "json"),
    ("train", "hierarchy", "text"),
    ("score-hier", "gold", "json"),
    ("score-hier", "pred", "json"),
    ("score-binary", "bin_gold", "json"),
    ("score-binary", "bin_pred", "json"),
    ("caption", "memes", "json"),
    ("caption", "checkpoint", "jsonl"),
    ("caption-eval", "candidates", "text"),
    ("caption-eval", "references", "text"),
]


def _run(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(argv, transport=ScriptedTransport())
    return rc, err.getvalue()


def _assert_refused_by_name(rc, err, named, listing, dirpath):
    """One ``error:`` line, the last, naming ``named``; no file added."""
    assert rc == 1, err
    lines = err.splitlines()
    assert [line for line in lines if line.startswith("error:")] == lines[-1:], err
    assert named in lines[-1], err
    assert sorted(os.listdir(dirpath)) == listing


def _number(v) -> bool:
    return type(v) in (int, float)


def _list_of(check):
    return lambda v: type(v) is list and all(check(x) for x in v)


def _holds_save_model_types(doc) -> bool:
    """Whether ``doc`` holds at each key a JSON type ``save_model`` writes
    there: an integer where it writes one, a number (integer or not) where
    it writes a float."""
    integer, string = (lambda v: type(v) is int), (lambda v: type(v) is str)
    fc = doc["feature_config"]
    return all((
        string(doc["kind"]), integer(doc["format_version"]), _list_of(string)(doc["labels"]),
        type(fc) is dict, integer(fc["dimension"]), _list_of(integer)(fc["word_orders"]),
        _list_of(integer)(fc["char_orders"]), string(fc["mode"]),
        string(doc["hierarchy_fingerprint"]), integer(doc["seed"]),
        _list_of(_number)(doc["bias"]), _list_of(_number)(doc["thresholds"]),
        _list_of(integer)(doc["weight_rows"]), _list_of(_list_of(_number))(doc["weights"]),
    ))


def _holds_a_surrogate(data: bytes, form: str) -> bool:
    """Whether a string of the JSON or JSONL ``data`` parses to one holding
    a surrogate, which no writer can encode."""
    if form == "text":
        return False
    docs = [data] if form == "json" else [line for line in data.splitlines() if line.strip()]
    return any(re.search(r"[\ud800-\udfff]", json.dumps(json.loads(doc), ensure_ascii=False))
               for doc in docs)


@pytest.mark.parametrize("command,key,form", CASES, ids=[f"{c}-{k}" for c, k, _ in CASES])
@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_a_corrupted_input_works_or_is_refused_by_name(command, key, form, data):
    bad, line = data.draw(corrupted(input_bytes()[key], form), label="corrupted")
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_inputs(tmp, {key: bad})
        listing = sorted(os.listdir(tmp))
        rc, err = _run(command_line(command, paths))
        assert rc in (0, 1, 2, 3), err
        if rc == 0:
            assert not _holds_a_surrogate(bad, form)
            if key == "model":
                assert _holds_save_model_types(json.loads(bad))
            return
        if line is not None:
            named = f"error: checkpoint line {line}: "
        elif key == "config" and err.startswith("error: config key "):
            named = "config key"  # a value of the wrong type; its message names the key
        else:
            named = f"error: {flag_of(command, key)} {paths[key]}: "
        _assert_refused_by_name(rc, err, named, listing, tmp)
        with open(paths[key], "rb") as fh:
            assert fh.read() == bad


_BROKEN = {
    "bad-utf8": lambda data: b"\xff" + data,
    "bad-json": lambda data: data[: len(data) // 2],
    "deep": lambda data: DEEP.encode("utf-8"),
}


# A text file has no JSON to break.
_UNPARSABLE = [(c, k, f, b) for c, k, f in CASES for b in _BROKEN
               if f != "text" or b == "bad-utf8"]


@pytest.mark.parametrize("command,key,form,broken", _UNPARSABLE,
                         ids=[f"{c}-{k}-{b}" for c, k, _, b in _UNPARSABLE])
def test_an_unparsable_input_is_refused_by_name(tmp_path, command, key, form, broken):
    data = input_bytes()[key]
    bad = (data.splitlines(keepends=True)[0] + _BROKEN[broken](data.splitlines()[1]) + b"\n"
           if form == "jsonl" else _BROKEN[broken](data))
    paths = write_inputs(str(tmp_path), {key: bad})
    listing = sorted(os.listdir(tmp_path))
    rc, err = _run(command_line(command, paths))
    named = ("error: checkpoint line 2: " if form == "jsonl"
             else f"error: {flag_of(command, key)} {paths[key]}: ")
    _assert_refused_by_name(rc, err, named, listing, tmp_path)
    if form != "text":
        assert "invalid JSON: " in err


@pytest.mark.parametrize("key", ["corpus", "dev"])
@pytest.mark.parametrize("records,problem", [
    ([{"id": "d1", "text": "buy buy bargain"}], "record 0 (d1): no 'labels' to learn from"),
    ([], "no records to learn from"),
])
def test_train_names_a_corpus_it_cannot_learn_from(tmp_path, key, records, problem):
    paths = write_inputs(str(tmp_path), {key: json.dumps(records).encode("utf-8")})
    listing = sorted(os.listdir(tmp_path))
    rc, err = _run(command_line("train", paths))
    named = f"error: {flag_of('train', key)} {paths[key]}: corpus: {problem}"
    _assert_refused_by_name(rc, err, named, listing, tmp_path)


@pytest.mark.parametrize("broken", list(_BROKEN))
def test_a_bad_tune_dev_is_refused_before_descent(tmp_path, monkeypatch, broken):
    paths = write_inputs(str(tmp_path), {"dev": _BROKEN[broken](input_bytes()["dev"])})
    listing = sorted(os.listdir(tmp_path))
    trained = []
    monkeypatch.setattr(cli, "train", lambda *args, **kwargs: trained.append(args))
    rc, err = _run(command_line("train", paths))
    _assert_refused_by_name(rc, err, f"error: --tune-dev {paths['dev']}: ", listing, tmp_path)
    assert trained == []


def test_validate_names_each_unreadable_file_and_checks_the_rest(tmp_path, capsys):
    paths = write_inputs(str(tmp_path), {
        "hierarchy": b"persuasion\n\xff\tpersuasion\n",
        "corpus": b'[{"id": "d1", "text": "\xff"}]',
        "pred": b'[{"id": "d1", "labels": [',
    })
    rc = cli.main(command_line("validate", paths))
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out.splitlines() == [
        f"ERROR: hierarchy: --hierarchy {paths['hierarchy']}: 'utf-8' codec can't decode "
        "byte 0xff in position 11: invalid start byte",
        f"ERROR: corpus: --corpus {paths['corpus']}: corpus: invalid JSON: 'utf-8' codec "
        "can't decode byte 0xff in position 23: invalid start byte",
        "gold: ok (3 instances)",
        f"ERROR: pred: --pred {paths['pred']}: predictions: invalid JSON: Expecting value: "
        "line 1 column 26 (char 25)",
    ]
    assert captured.err == "validation failed with 3 error(s)\n"


def _sha256(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def test_the_manifest_hashes_the_bytes_that_were_parsed(tmp_path, monkeypatch):
    # A corpus rewritten while train runs: the manifest still records the
    # bytes train learned from.
    paths = write_inputs(str(tmp_path))
    real_train = cli.train

    def train_then_rewrite(*args, **kwargs):
        model = real_train(*args, **kwargs)
        with open(paths["corpus"], "wb") as fh:
            fh.write(b"[]\n")
        return model

    monkeypatch.setattr(cli, "train", train_then_rewrite)
    assert _run(command_line("train", paths))[0] == 0
    with open(paths["out"] + ".manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    with open(paths["out"], "rb") as fh:
        model = fh.read()
    inputs = input_bytes()
    assert manifest["inputs"] == {paths[k]: _sha256(inputs[k])
                                  for k in ("hierarchy", "corpus", "dev")}
    assert manifest["outputs"] == {paths["out"]: _sha256(model)}


@pytest.mark.parametrize("command", list(COMMANDS))
def test_each_command_opens_each_input_once(tmp_path, monkeypatch, command):
    paths = write_inputs(str(tmp_path))
    argv = command_line(command, paths)
    opened: list[str] = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        if isinstance(file, str):
            opened.append(os.path.realpath(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    assert _run(argv)[0] == 0
    monkeypatch.undo()
    read = [paths[k] for k in paths if k not in ("out", "checkpoint") and paths[k] in argv]
    assert read
    for path in read:
        assert opened.count(os.path.realpath(path)) == 1, (path, opened)
