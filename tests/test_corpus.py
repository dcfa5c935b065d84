import errno
import json
import re

import pytest
from hypothesis import example, given, settings, strategies as st

import qdecomp.corpus
from qdecomp.corpus import (
    DEFAULT_WH_WORDS,
    Question,
    QuestionCorpus,
    extract_candidate_questions,
    load_corpus,
    open_text,
    read_json,
    read_tsv,
    save_corpus,
    tokenize,
    tokenize_cased,
    tokenize_with_spans,
    write_json,
    write_jsonl,
    write_lines,
    write_tsv,
)

from conftest import make_corpus
from oracles import load_corpus_oracle, tokenize_oracle


def test_tokenize_lowercases_and_splits_punctuation():
    assert tokenize("Who wrote Hamlet?") == ["who", "wrote", "hamlet", "?"]
    assert tokenize("A, b; c!") == ["a", ",", "b", ";", "c", "!"]
    assert tokenize("") == []
    assert tokenize("   ") == []


def test_tokenize_keeps_intra_word_characters():
    # hyphens and digits stay inside tokens
    assert tokenize("spider-man 2") == ["spider-man", "2"]
    assert tokenize("it's") == ["it", "'", "s"]


def test_only_the_space_lowers_to_a_string_with_a_space():
    # tokenize lowers its tokens joined by spaces, then splits at spaces;
    # no token holds a space
    assert [i for i in range(0x110000) if " " in chr(i).lower()] == [0x20]


@pytest.mark.parametrize("text, tokens", [
    ("\u0391\u03a3'\u0391", ["\u03b1\u03c2", "'", "\u03b1"]),
    ("\u03a3\u0391\u03a3.\u03a3", ["\u03c3\u03b1\u03c2", ".", "\u03c3"]),
    ("\u039f\u0394\u03a5\u03a3\u03a3\u0395\u03a5\u03a3?",
     ["\u03bf\u03b4\u03c5\u03c3\u03c3\u03b5\u03c5\u03c2", "?"]),
    ("\u0130stanbul", ["i\u0307stanbul"]),
    ("", []),
    (" \t\n\u3000", []),
])
def test_tokenize_lowers_each_token_on_its_own(text, tokens):
    """Greek final sigma depends on the letters around it, so lowering
    the whole text would differ; İ lowers to two characters."""
    assert tokenize(text) == tokens == tokenize_oracle(text)


@given(st.text(alphabet=st.sampled_from(
    "\u03a3\u0391\u03c3\u0130I i'.?!,;: \t\u00a0\u0345\u00ad\u1e9e\u0149aZ"),
    max_size=40) | st.text(max_size=40))
def test_tokenize_equals_per_token_lowering(text):
    assert tokenize(text) == tokenize_oracle(text)


def test_tokenize_cased_preserves_case():
    assert tokenize_cased("Who wrote Hamlet?") == ["Who", "wrote", "Hamlet", "?"]


def test_tokenize_with_spans_reconstructs_surface():
    text = "Who directed Vertigo, back in 1958?"
    for tok, start, end in tokenize_with_spans(text):
        assert text[start:end] == tok


@given(st.text(max_size=80))
def test_tokenize_with_spans_matches_cased_tokens(text):
    spans = tokenize_with_spans(text)
    assert [t for t, _, _ in spans] == tokenize_cased(text)


def test_question_from_text():
    q = Question.from_text("q1", "What is this?")
    assert q.id == "q1"
    assert q.raw_text == "What is this?"
    assert q.tokens == ("what", "is", "this", "?")


def test_corpus_rejects_duplicate_ids():
    with pytest.raises(ValueError) as got:
        QuestionCorpus(("x", "y", "x"), ("who?", "why?", "what?"))
    assert str(got.value) == "row 2: duplicate question id 'x' (first at row 0)"


def test_corpus_lookup():
    c = make_corpus(["who is a?", "what is b?"])
    assert len(c) == 2
    assert "q00000000" in c
    assert "nope" not in c
    assert c.by_id("q00000001").raw_text == "what is b?"
    assert list(c.ids) == ["q00000000", "q00000001"]


def test_extract_keeps_wh_starts_and_question_marks():
    lines = [
        "Who wrote Hamlet?",          # wh word
        "The cat sat on the mat.",    # neither -> dropped
        "Name the largest planet?",   # ends with ?
        "when was it built",          # wh word, no ?
        "It is done",                 # dropped
    ]
    got = extract_candidate_questions(lines, id_prefix="m")
    assert [q.raw_text for q in got] == [
        "Who wrote Hamlet?",
        "Name the largest planet?",
        "when was it built",
    ]
    assert [q.id for q in got] == ["m00000000", "m00000001", "m00000002"]


def test_extract_dedup_flag():
    lines = ["Who is it?", "Who is it?", "What now?"]
    keep = extract_candidate_questions(lines)
    assert len(keep) == 3
    uniq = extract_candidate_questions(lines, dedup=True)
    assert [q.raw_text for q in uniq] == ["Who is it?", "What now?"]


def test_extract_custom_wh_words():
    lines = ["how does it work", "who did it"]
    c = extract_candidate_questions(lines, wh_words=frozenset({"how"}))
    assert [q.raw_text for q in c] == ["how does it work"]


def test_default_wh_words_are_lowercase():
    assert all(w == w.lower() for w in DEFAULT_WH_WORDS)


def test_corpus_jsonl_round_trip(tmp_path):
    c = make_corpus(["Who wrote Hamlet?", "What is love?"])
    p = tmp_path / "c.jsonl"
    save_corpus(c, p)
    back = load_corpus(p)
    assert [q.id for q in back] == [q.id for q in c]
    assert [q.raw_text for q in back] == [q.raw_text for q in c]
    # stable serialization: keys sorted, no whitespace padding
    first = p.read_text().splitlines()[0]
    assert first == json.dumps(json.loads(first), sort_keys=True, separators=(",", ":"))


# strings JSON must escape or may keep: a quote, a backslash, every control
# character, DEL, the two separators JavaScript treats as line ends, a
# character outside the BMP and non-ASCII letters
_JSON_EDGE_STRINGS = ['"', "\\", *map(chr, range(0x20)), "\x7f", "\u2028",
                      "\u2029", "\U0001f600", "naïve Ωmega 中文"]
_NO_SURROGATES = st.text(st.characters(blacklist_categories=("Cs",)))


@settings(max_examples=200, deadline=None)
@given(records=st.lists(st.tuples(_NO_SURROGATES, _NO_SURROGATES),
                        unique_by=lambda r: r[0]))
@example(records=[(s, s) for s in _JSON_EDGE_STRINGS])
@example(records=[("all", "".join(_JSON_EDGE_STRINGS))])
def test_save_corpus_writes_the_lines_of_write_jsonl(tmp_path_factory,
                                                     records):
    tmp = tmp_path_factory.mktemp("lines")
    save_corpus(QuestionCorpus([i for i, _ in records],
                               [t for _, t in records]), tmp / "corpus.jsonl")
    write_jsonl(({"id": i, "text": t} for i, t in records),
                tmp / "jsonl.jsonl", separators=(",", ":"))
    assert ((tmp / "corpus.jsonl").read_bytes()
            == (tmp / "jsonl.jsonl").read_bytes())


def test_save_corpus_names_the_line_of_a_lone_surrogate(tmp_path):
    src = tmp_path / "in.jsonl"
    src.write_text('{"id": "a", "text": "Who is it?"}\n'
                   '{"id": "zz", "text": "Who is \\ud800?"}\n')
    corpus = load_corpus(src)
    assert corpus.texts[1] == "Who is \ud800?"
    out = tmp_path / "out.jsonl"
    with pytest.raises(ValueError,
                       match=f"^{re.escape(str(out))}:2: .*surrogates"):
        save_corpus(corpus, out)


def test_json_writers_sort_keys_keep_non_ascii_and_refuse_nan(tmp_path):
    doc, lines = tmp_path / "doc.json", tmp_path / "lines.jsonl"
    write_json({"b": "é", "a": [1, 2.5]}, doc, indent=2)
    assert doc.read_text(encoding="utf-8") == \
        '{\n  "a": [\n    1,\n    2.5\n  ],\n  "b": "é"\n}\n'
    write_jsonl([{"b": 1, "a": "中"}, [True]], lines)
    assert lines.read_text(encoding="utf-8") == '{"a": "中", "b": 1}\n[true]\n'
    with pytest.raises(ValueError, match=f"^{re.escape(str(tmp_path / 'nan.json'))}: "):
        write_json({"x": float("nan")}, tmp_path / "nan.json")
    assert not (tmp_path / "nan.json").exists()  # refused before opening
    with pytest.raises(ValueError, match=f"^{re.escape(str(lines))}:2: "):
        write_jsonl([[1.0], [float("inf")]], lines)


class _FailsAtClose:
    """A text file whose close fails as a full disk does, when its buffered
    lines are flushed."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, text):
        return self._fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._fh.close()
        raise OSError(errno.ENOSPC, "No space left on device")


def test_write_lines_names_the_line_being_built_or_written(tmp_path,
                                                           monkeypatch):
    path = tmp_path / "out.txt"
    write_lines(path, ["a", "b é"])
    assert path.read_bytes() == "a\nb é\n".encode("utf-8")

    def lines():
        yield from ("a", "b")
        raise ValueError("cannot build")
    with pytest.raises(ValueError,
                       match=f"^{re.escape(str(path))}:3: cannot build$"):
        write_lines(path, lines())
    # an indented document is written a line at a time
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: "
                                         f"'utf-8' codec can't encode"):
        write_json({"a": 1, "b": "\ud800"}, path, indent=2)
    monkeypatch.setattr(qdecomp.corpus, "open",
                        lambda *args, **kwargs: _FailsAtClose(
                            open(*args, **kwargs)), raising=False)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "
                                         r"\[Errno 28\] No space"):
        write_lines(path, ["a", "b"])


@pytest.mark.parametrize("data, line", [
    (b"a\nb\n\xffc\n", 3),
    (b"a\r\nb\rc\n\xe9d\n", 4),  # CR LF, CR and LF each end one line
    (b"a\n" * 5000 + b"b\xff\n", 5001),  # past the first decoded chunk
    (b"a\n\xe2\x82", 2),  # a character cut short by the end of the file
], ids=["lf", "mixed-ends", "late", "cut-short"])
def test_open_text_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, data,
                                                             line):
    path = tmp_path / "f.txt"
    path.write_bytes(data)
    # the line text mode reads the replacement character on
    with open(path, encoding="utf-8", errors="replace") as fh:
        assert [n for n, text in enumerate(fh, start=1)
                if "\ufffd" in text][0] == line
    with pytest.raises(ValueError,
                       match=f"^{re.escape(str(path))}:{line}: not UTF-8: "):
        with open_text(path) as fh:
            list(fh)


def test_read_json_names_a_malformed_document(tmp_path):
    path = tmp_path / "x.json"
    path.write_text('{"a": [1, 2]}\n')
    assert read_json(path) == {"a": [1, 2]}
    path.write_text('{"a": [1, 2],}\n')
    with pytest.raises(ValueError,
                       match=f"^{re.escape(str(path))}: malformed JSON: "):
        read_json(path)


def test_tsv_fields_lose_their_tabs_and_line_breaks(tmp_path):
    path = tmp_path / "t.tsv"
    write_tsv([("a\tb", "c\nd\re"), ("", "é")], path)
    assert path.read_bytes() == "a b\tc d e\n\té\n".encode("utf-8")
    assert list(read_tsv(path, 2)) == [(1, ["a b", "c d e"]),
                                       (2, ["", "é"])]


def test_read_tsv_skips_blank_lines_and_names_a_short_line(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("a\tb\tc\n\nd\te\tf\ng\th\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:4: "
                                         f"expected 3 columns, got 2$"):
        list(read_tsv(path, 3))
    path.write_text("a\tb\tc\n\nd\te\tf\n", encoding="utf-8")
    assert list(read_tsv(path, 3)) == [(1, ["a", "b", "c"]),
                                       (3, ["d", "e", "f"])]


def test_load_corpus_reports_line_numbers(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"id":"a","text":"who?"}\nnot json\n')
    with pytest.raises(ValueError, match=r":2:"):
        load_corpus(p)


def test_load_corpus_requires_fields(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"id":"a"}\n')
    with pytest.raises(ValueError, match=r":1:"):
        load_corpus(p)


_A = '{"id":"a","text":"Who is A?"}'
_B = '{"id":"b","text":"What is B?"}'


def _record(qid, text):
    return json.dumps({"id": qid, "text": text}, ensure_ascii=False)


CORPUS_CASES = {
    "plain": f"{_A}\n{_B}\n",
    "blank-lines": f"\n{_A}\n\n\n{_B}\n\n",
    "whitespace-lines": f" \t\n{_A}\n   \n{_B}\n\u3000\n",
    "crlf": f"{_A}\r\n{_B}\r\n",
    "lone-cr": f"{_A}\r{_B}\r",
    "crlf-then-malformed": f"{_A}\r\n\r\n{{\"id\":\r\n",
    "space-after-object": f"{_A} \n{_B}\t\n",
    "space-before-object": f"  {_A}\n",
    "no-final-newline": f"{_A}\n{_B}",
    "malformed-last-no-newline": f"{_A}\n{{\"id\":",
    "malformed-last-newline": f"{_A}\n{{\"id\":\n",
    "bom": f"\ufeff{_A}\n{_B}\n",
    "non-ascii": _record("\u00e9", "Qui a \u00e9crit \u00ab Hamlet \u00bb ? "
                         "\u6771\u4eac \U0001f600") + "\n",
    "ascii-escaped": json.dumps({"id": "\u00e9", "text": "\u00c9t\u00e9?"})
    + "\n",
    "final-sigma": _record("s", "\u039f\u0394\u03a5\u03a3\u03a3\u0395\u03a5"
                           "\u03a3?") + "\n"
    + _record("t", "\u0391\u03a3'\u0391") + "\n",
    "escaped-newline": '{"id":"a","text":"line one\\nline two\\r\\u2028"}\n',
    "raw-line-separators": _record("a", "x\u2028y\u2029z\x85w") + "\n"
    + _B + "\n",
    "raw-control-character": '{"id":"a","text":"x\x1cy"}\n',
    "duplicate-keys": '{"id":"a","id":"b","text":"t","text":"u"}\n',
    "extra-fields": '{"id":"a","text":"t","label":"x","n":[1,{"m":null}]}\n',
    "list-value": '["a","t"]\n',
    "string-value": '"a"\n',
    "null-value": "null\n",
    "number-value": f"{_A}\n3\n",
    "missing-id": '{"text":"t"}\n',
    "missing-text": f'{_A}\n{{"id":"c"}}\n',
    "int-id": '{"id":1,"text":"t"}\n',
    "null-text": '{"id":"a","text":null}\n',
    "nan-text": '{"id":"a","text":NaN}\n',
    "huge-int": '{"id":"a","text":"t","n":' + "1" * 5000 + "}\n",
    "split-record": '{"id":"a",\n"text":"t"}\n',
    "two-records-one-line": f"{_A}{_B}\n",
    "two-records-spaced": f"{_A} {_B}\n",
    "trailing-garbage": f"{_A}x\n",
    "empty-object": "{}\n",
    "empty-text": '{"id":"a","text":""}\n',
    "empty": "",
    "only-blank": "\n \n",
    "bad-utf8": f"{_A}\n".encode() + b'{"id":"b","text":"\xff"}\n',
}


def assert_loads_as_oracle(path):
    """load_corpus gives the oracle's ids, texts and tokens, or raises the
    oracle's exception type with its message."""
    try:
        want = load_corpus_oracle(path)
    except ValueError as exc:
        with pytest.raises(type(exc)) as got:
            load_corpus(path)
        assert str(got.value) == str(exc)
        return
    corpus = load_corpus(path)
    assert list(zip(corpus.ids, corpus.texts, corpus.tokens)) == want


@pytest.mark.parametrize("name", sorted(CORPUS_CASES))
def test_load_corpus_equals_per_line_oracle(tmp_path, name):
    data = CORPUS_CASES[name]
    p = tmp_path / "c.jsonl"
    p.write_bytes(data if isinstance(data, bytes) else data.encode("utf-8"))
    assert_loads_as_oracle(p)


_FRAGMENTS = ["", " ", "\t", "{", "}", '"id":', '"text":', ",", '"q"', "1",
              "null", "[", "]", "\\", '"\\n"', "\u2028", "\x85", "\x1c"]


@given(st.lists(st.one_of(
    st.tuples(st.text(max_size=12), st.text(max_size=30), st.booleans()),
    st.lists(st.sampled_from(_FRAGMENTS), max_size=6).map("".join)),
    max_size=6),
    st.lists(st.sampled_from(["\n", "\r\n", "\r", " \n", "\n\n", "\t\r\n"]),
             min_size=6, max_size=6),
    st.booleans())
def test_load_corpus_equals_oracle_on_random_lines(tmp_path_factory, parts,
                                                   ends, final_end):
    """Records (ids made distinct by their position) with random texts,
    either escaping, and runs of JSON fragments, one a line, under random
    line ends."""
    lines = [json.dumps({"id": f"{i}{part[0]}", "text": part[1]},
                        ensure_ascii=part[2])
             if isinstance(part, tuple) else part
             for i, part in enumerate(parts)]
    body = "".join(line + end for line, end in zip(lines, ends))
    if lines and not final_end:
        body = body[:-len(ends[len(lines) - 1])]
    p = tmp_path_factory.mktemp("corpus") / "c.jsonl"
    p.write_bytes(body.encode("utf-8"))
    assert_loads_as_oracle(p)


def test_duplicate_id_names_both_lines(tmp_path):
    p = tmp_path / "c.jsonl"
    p.write_text(f'{_A}\n\n{_B}\n{{"id":"a","text":"again"}}\n',
                 encoding="utf-8")
    with pytest.raises(ValueError) as got:
        load_corpus(p)
    assert str(got.value) == (f"{p}:4: duplicate question id 'a' "
                              f"(first at {p}:1)")


def test_duplicate_id_across_files_names_both_files(tmp_path):
    p, q = tmp_path / "p.jsonl", tmp_path / "q.jsonl"
    p.write_text(f"{_A}\n{_B}\n", encoding="utf-8")
    q.write_text(f'{{"id":"c","text":"t"}}\n{{"id":"b","text":"u"}}\n',
                 encoding="utf-8")
    with pytest.raises(ValueError) as got:
        load_corpus(p, q)
    assert str(got.value) == (f"{q}:2: duplicate question id 'b' "
                              f"(first at {p}:2)")


def test_duplicates_are_found_file_by_file_then_across(tmp_path):
    """A file's own repeated id is reported as soon as that file is read;
    an id repeated across files only after every file parses."""
    own, bad = tmp_path / "own.jsonl", tmp_path / "bad.jsonl"
    own.write_text(f"{_A}\n{_A}\n", encoding="utf-8")
    bad.write_text("not json\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"own\.jsonl:2: duplicate"):
        load_corpus(own, bad)
    first = tmp_path / "first.jsonl"
    first.write_text(f"{_A}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"bad\.jsonl:1: malformed"):
        load_corpus(first, first, bad)
    with pytest.raises(ValueError, match=r"first\.jsonl:1: duplicate"):
        load_corpus(first, first)


def test_load_corpus_of_several_files_keeps_their_order(tmp_path):
    p, q = tmp_path / "p.jsonl", tmp_path / "q.jsonl"
    p.write_text(f"{_B}\n", encoding="utf-8")
    q.write_text(f"{_A}\n", encoding="utf-8")
    corpus = load_corpus(p, q)
    assert corpus.ids == ("b", "a")
    assert corpus.texts == ("What is B?", "Who is A?")


def test_corpus_tokens_are_computed_once_on_first_use(monkeypatch):
    import qdecomp.corpus as corpus_module
    calls = []
    real = corpus_module.tokenize
    monkeypatch.setattr(corpus_module, "tokenize",
                        lambda text: calls.append(text) or real(text))
    c = make_corpus(["Who is A?", "what is B?"])
    assert c.texts == ("Who is A?", "what is B?")
    assert calls == []
    assert c.tokens == (("who", "is", "a", "?"), ("what", "is", "b", "?"))
    assert c.tokens is c.tokens
    assert [q.tokens for q in c] == list(c.tokens)
    assert len(calls) == 2
    assert c.take([1]).ids == ("q00000001",)
    assert len(calls) == 2


def test_corpus_questions_on_demand():
    c = make_corpus(["Who is A?", "what is B?"])
    assert c[1] == Question("q00000001", "what is B?", ("what", "is", "b", "?"))
    assert list(c) == [c[0], c[1]]
    part = c.take([1, 0])
    assert (part.ids, part.texts) == (
        ("q00000001", "q00000000"), ("what is B?", "Who is A?"))
