import pytest

from qdecomp.corpus import Question
from qdecomp.editing import (
    CAPITALIZED_SPAN,
    DATE_YEAR,
    NUMBER,
    detect_entities,
    edit_sub_question_texts,
    split_sub_question_texts,
)


def spans_of(text):
    return [(e.surface, e.entity_type) for e in detect_entities(text)]


def test_detects_years_numbers_and_capitalized_runs():
    got = spans_of("Who played Annie Morton in the 1997 film with 3 awards?")
    assert got == [("Annie Morton", CAPITALIZED_SPAN),
                   ("1997", DATE_YEAR),
                   ("3", NUMBER)]


def test_year_range_bounds():
    assert spans_of("what about 999 and 3000 and 1000 and 2999") == [
        ("999", NUMBER), ("3000", NUMBER),
        ("1000", DATE_YEAR), ("2999", DATE_YEAR)]


def test_numbers_split_by_tokenizer():
    # "," and "." are token boundaries, so each digit group stands alone
    assert spans_of("sold 1,234 units for 9.99 each") == [
        ("1", NUMBER), ("234", NUMBER), ("9", NUMBER), ("99", NUMBER)]


def test_leading_capital_alone_is_not_an_entity():
    # sentence-initial capitalization carries no signal on its own
    assert spans_of("Who wrote this?") == []
    assert spans_of("The Great Gatsby is long") == [("The Great Gatsby", CAPITALIZED_SPAN)]


def test_multiword_capitalized_run_at_start_kept():
    assert spans_of("Terry Richardson took photos") == [("Terry Richardson", CAPITALIZED_SPAN)]


def test_edit_replaces_foreign_entities_with_question_entities():
    q = Question.from_text("q", "Who played Annie Morton for Vogue?")
    subs = ("who played Barack Obama ?", "what is Vogue ?")
    got = edit_sub_question_texts(q, subs)
    assert got[0] == "who played Annie Morton ?"
    assert got[1] == "what is Vogue ?"  # already appears in the question


def test_edit_cycles_through_question_entities():
    q = Question.from_text("q", "Who played Annie Morton for Terry Richardson?")
    subs = ("who met Barack Obama and Jack London ?",)
    got = edit_sub_question_texts(q, subs)
    assert got[0] == "who met Annie Morton and Terry Richardson ?"


def test_edit_cycles_numbers_separately():
    q = Question.from_text("q", "What happened in 1997 to 5 bands?")
    subs = ("what happened in 1823 to 7 groups ?",)
    got = edit_sub_question_texts(q, subs)
    assert got[0] == "what happened in 1997 to 5 groups ?"


def test_edit_without_replacement_pool_keeps_text():
    q = Question.from_text("q", "who wrote that thing?")
    subs = ("who met Barack Obama ?",)
    assert edit_sub_question_texts(q, subs) == ["who met Barack Obama ?"]


def test_edit_is_idempotent():
    q = Question.from_text("q", "Who played Annie Morton in 1997?")
    subs = ("who met Jack London in 1823 ?", "what is 12 ?")
    once = edit_sub_question_texts(q, subs)
    twice = edit_sub_question_texts(q, once)
    assert once == twice


def test_split_sub_question_texts():
    assert split_sub_question_texts("who is x ? what is y ?") == [
        "who is x ?", "what is y ?"]
    assert split_sub_question_texts("who is x ? trailing") == [
        "who is x ?", "trailing"]
    assert split_sub_question_texts("no marks here") == ["no marks here"]
    assert split_sub_question_texts("") == []
