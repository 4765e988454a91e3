import pytest
from hypothesis import given, strategies as st

from monoidkit.words import (
    EMPTY,
    Alphabet,
    EmptyWordError,
    NotSpecialError,
    EmptyRelatorError,
    UnknownLetterError,
    WordError,
    format_word,
    parse_presentation,
    presentation_from_json,
    presentation_to_json,
    primitive_root,
    serialize_presentation,
    validate_special,
)

BICYCLIC = "letters: a b\nrel: a b = 1\n"


def brute_primitive_root(w):
    """Oracle: test every divisor length."""
    n = len(w)
    for d in range(1, n + 1):
        if n % d == 0 and w[:d] * (n // d) == w:
            return w[:d], n // d


def test_parse_bicyclic():
    p = parse_presentation(BICYCLIC)
    assert p.alphabet.letters == ("a", "b")
    assert p.relations == ((("a", "b"), EMPTY),)


def test_parse_single_letter_square():
    p = parse_presentation("letters: a\nrel: a a = 1")
    assert p.relations == ((("a", "a"), EMPTY),)


def test_parse_unknown_letter():
    with pytest.raises(UnknownLetterError):
        parse_presentation("letters: a\nrel: a b = 1")


@pytest.mark.parametrize("letter", ["", "1", "a b", " a", "a\n", "a\xa0b"])
def test_unwritable_letter_rejected(letter):
    # format_word would write the one-letter word as the empty word, or as
    # text that reads back as another word
    with pytest.raises(WordError):
        Alphabet(("x", letter))


def test_generated_letters_are_writable():
    # the fresh letters of the units and right-units presentations, the
    # inverse stable letter of an HNN extension and the renamed letters of
    # a free product are all letters a word can be written with
    from monoidkit.constructions import free_product, hnn_presentation
    from monoidkit.special import compute_delta, right_units_presentation

    ua = compute_delta(validate_special(parse_presentation(BICYCLIC)))
    a = parse_presentation("letters: a")
    alphabets = [
        right_units_presentation(ua)[0].alphabet,
        hnn_presentation(a, [("a",)], [("a",)], {("a",): ("a",)}).alphabet,
        free_product(a, a).alphabet,
    ]
    assert [al.letters for al in alphabets] == [
        ("b1", "z1"), ("a", "t", "t-"), ("a1", "a2")]
    for al in alphabets:
        for letter in al.letters:
            assert format_word((letter,)).split() == [letter] != ["1"]


def test_parse_comments_and_blank_lines():
    p = parse_presentation("# header\nletters: x y\n\nrel: x x = y y y  # c\n")
    assert p.relations == ((("x", "x"), ("y", "y", "y")),)


def test_roundtrip_parse_serialize():
    for text in (
        BICYCLIC,
        "letters: a\nrel: a a = 1\n",
        "letters: x y\nrel: x x = y y y\n",
        "letters: a b c\nrel: a b = 1\nrel: c c c = 1\n",
    ):
        p = parse_presentation(text)
        again = parse_presentation(serialize_presentation(p))
        assert again.alphabet.letters == p.alphabet.letters
        assert again.alphabet.order == p.alphabet.order
        assert again.relations == p.relations


def test_json_roundtrip():
    p = parse_presentation(BICYCLIC)
    q = presentation_from_json(presentation_to_json(p))
    assert q.relations == p.relations
    assert q.alphabet.letters == p.alphabet.letters


def test_json_sides():
    want = parse_presentation("letters: a b\nrel: a b = 1\nrel: b = b\n")
    for relations in (
        [{"lhs": "a b", "rhs": "1"}, {"lhs": "b", "rhs": "b"}],
        [{"lhs": ["a", "b"], "rhs": []}, {"lhs": ["b"], "rhs": "b"}],
        [{"lhs": "a b", "rhs": ["1"]}, {"lhs": ["b"], "rhs": ["b"]}],
    ):
        p = presentation_from_json({"letters": ["a", "b"],
                                    "relations": relations})
        assert p == want
    assert (presentation_from_json({"letters": ["a", "b"]})
            == parse_presentation("letters: a b\n"))


def test_validate_special():
    sp = validate_special(parse_presentation(BICYCLIC))
    assert sp.relators == (("a", "b"),)

    with pytest.raises(NotSpecialError) as e:
        validate_special(parse_presentation("letters: a b\nrel: a b = b a"))
    assert e.value.index == 0

    with pytest.raises(EmptyRelatorError):
        validate_special(parse_presentation("letters: a\nrel: 1 = 1"))


def test_shortlex():
    ab = Alphabet(("a", "b"))
    assert ab.shortlex_less(EMPTY, ("a",))
    assert ab.shortlex_less(("b",), ("a", "a"))
    assert ab.shortlex_less(("a", "b"), ("b", "a"))
    ba = Alphabet(("a", "b"), order=("b", "a"))
    assert ba.shortlex_less(("b", "a"), ("a", "b"))


def test_primitive_root_examples():
    assert primitive_root(("a", "b", "a", "b")) == (("a", "b"), 2)
    assert primitive_root(("a",)) == (("a",), 1)
    assert primitive_root(tuple("aabaab")) == (tuple("aab"), 2)
    with pytest.raises(EmptyWordError):
        primitive_root(EMPTY)


@given(st.text(alphabet="ab", min_size=1, max_size=12))
def test_primitive_root_matches_divisor_oracle(s):
    w = tuple(s)
    p, k = primitive_root(w)
    assert p * k == w
    assert brute_primitive_root(w) == (p, k)
    # p itself is primitive: no proper power decomposition
    q, m = primitive_root(p)
    assert m == 1 and q == p
