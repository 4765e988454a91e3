"""Monoid presentations and words over finite ordered alphabets.

A word is a tuple of letters; letters are printable identifiers (possibly
multi-character), so generated alphabets like ``b1``, ``z3`` are
representable.  The empty tuple is the empty word and is written ``1`` in
the surface syntax.
"""

from __future__ import annotations

from dataclasses import dataclass

Word = tuple[str, ...]

EMPTY: Word = ()


class WordError(Exception):
    pass


class PresentationSyntaxError(WordError):
    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UnknownLetterError(WordError):
    def __init__(self, letter, line=None):
        self.letter = letter
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"unknown letter {letter!r}{where}")


class DuplicateLetterError(WordError):
    def __init__(self, letter):
        self.letter = letter
        super().__init__(f"duplicate letter {letter!r}")


class NotSpecialError(WordError):
    def __init__(self, index):
        self.index = index
        super().__init__(f"relation {index} has a non-empty right-hand side")


class EmptyRelatorError(WordError):
    def __init__(self, index):
        self.index = index
        super().__init__(f"relation {index} has an empty left-hand side")


class EmptyWordError(WordError):
    pass


@dataclass(frozen=True)
class Alphabet:
    """Finite set of distinct letters with a total order used for shortlex."""

    letters: tuple[str, ...]
    order: tuple[str, ...] = None  # defaults to declaration order

    def __post_init__(self):
        if self.order is None:
            object.__setattr__(self, "order", self.letters)
        seen = set()
        for a in self.letters:
            if not isinstance(a, str):
                raise WordError(f"letter {a!r} is not a string")
            # words are written as letters joined by spaces, 1 for the
            # empty word, so these letters would read back as other words
            if a.split() != [a] or a == "1":
                raise WordError(f"letter {a!r} cannot be written in a word")
            if a in seen:
                raise DuplicateLetterError(a)
            seen.add(a)
        if sorted(self.order) != sorted(self.letters):
            raise WordError("order must be a permutation of the letters")
        object.__setattr__(self, "_rank", {a: i for i, a in enumerate(self.order)})

    def __contains__(self, letter):
        return letter in self._rank

    def rank(self, letter):
        return self._rank[letter]

    def shortlex_key(self, w: Word):
        return (len(w), tuple(self._rank[a] for a in w))

    def shortlex_less(self, u: Word, v: Word) -> bool:
        return self.shortlex_key(u) < self.shortlex_key(v)

    def check_word(self, w: Word, line=None):
        for a in w:
            if not isinstance(a, str) or a not in self._rank:
                raise UnknownLetterError(a, line)

    def words_of_length(self, n: int):
        """All words of exactly length n, in lexicographic (order) sequence."""
        if n == 0:
            yield EMPTY
            return
        for prefix in self.words_of_length(n - 1):
            for a in self.order:
                yield prefix + (a,)


@dataclass(frozen=True)
class Presentation:
    alphabet: Alphabet
    relations: tuple[tuple[Word, Word], ...]

    def __post_init__(self):
        for lhs, rhs in self.relations:
            self.alphabet.check_word(lhs)
            self.alphabet.check_word(rhs)


def longest_side(p: Presentation) -> int:
    """The longest side of a relation of p, the depth of the detour a
    relation can take outside a ball; 0 without relations."""
    return max((len(w) for rel in p.relations for w in rel), default=0)


@dataclass(frozen=True)
class SpecialPresentation:
    """A presentation in which every relation reads w = 1."""

    base: Presentation
    relators: tuple[Word, ...]

    @property
    def alphabet(self):
        return self.base.alphabet


def format_word(w: Word) -> str:
    return " ".join(w) if w else "1"


def parse_word_tokens(tokens, alphabet: Alphabet = None, line=None) -> Word:
    if tokens == ["1"]:
        return EMPTY
    w = tuple(tokens)
    if alphabet is not None:
        alphabet.check_word(w, line)
    return w


def parse_presentation(text: str, order=None) -> Presentation:
    """Parse the line-oriented presentation format.

    Line 1 (after comments): ``letters:`` followed by identifiers.
    Each following line: ``rel: <word> = <word>`` with ``1`` for the empty
    word.  ``#`` starts a comment.
    """
    alphabet = None
    relations = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if alphabet is None:
            if not line.startswith("letters:"):
                raise PresentationSyntaxError(
                    "expected 'letters:' declaration", lineno)
            letters = tuple(line[len("letters:"):].split())
            alphabet = Alphabet(letters, tuple(order) if order else None)
            continue
        if not line.startswith("rel:"):
            raise PresentationSyntaxError("expected 'rel:' line", lineno)
        body = line[len("rel:"):]
        if body.count("=") != 1:
            raise PresentationSyntaxError(
                "relation must contain exactly one '='", lineno)
        lhs_text, rhs_text = body.split("=")
        lhs_tokens = lhs_text.split()
        rhs_tokens = rhs_text.split()
        if not lhs_tokens or not rhs_tokens:
            raise PresentationSyntaxError(
                "both sides of a relation must be non-empty "
                "(write '1' for the empty word)", lineno)
        lhs = parse_word_tokens(lhs_tokens, alphabet, lineno)
        rhs = parse_word_tokens(rhs_tokens, alphabet, lineno)
        relations.append((lhs, rhs))
    if alphabet is None:
        raise PresentationSyntaxError("missing 'letters:' declaration")
    return Presentation(alphabet, tuple(relations))


def serialize_presentation(p: Presentation) -> str:
    lines = ["letters: " + " ".join(p.alphabet.letters)]
    for lhs, rhs in p.relations:
        lines.append(f"rel: {format_word(lhs)} = {format_word(rhs)}")
    return "\n".join(lines) + "\n"


def presentation_to_json(p: Presentation) -> dict:
    return {
        "letters": list(p.alphabet.letters),
        "relations": [
            {"lhs": list(lhs), "rhs": list(rhs)} for lhs, rhs in p.relations
        ],
    }


def json_checked(value, kind, what):
    """value if it is a kind (dict, list or str), else a WordError."""
    if not isinstance(value, kind):
        raise WordError(f"{what} must be a JSON {kind.__name__}")
    return value


def json_field(data, key, kind=object):
    """data[key], which must be present and a kind, else a WordError."""
    if key not in data:
        raise WordError(f"missing field {key!r}")
    return json_checked(data[key], kind, key)


class Columns(dict):
    """Artifact rows as columns: key -> its scalar value in each row."""


def presentation_from_json(data: dict) -> Presentation:
    """Read ``{"letters": [...], "relations": [{"lhs": ..., "rhs": ...}]}``.

    A side is a list of letters or a space-separated string, ``1`` for the
    empty word; missing ``relations`` means none.
    """
    json_checked(data, dict, "a presentation")
    alphabet = Alphabet(tuple(json_field(data, "letters", list)))

    def side(s):
        return parse_word_tokens(s.split() if isinstance(s, str) else
                                 json_checked(s, list, "a side"), alphabet)

    relations = tuple(
        (side(json_field(json_checked(r, dict, "a relation"), "lhs")),
         side(json_field(r, "rhs")))
        for r in json_checked(data.get("relations", []), list, "relations"))
    return Presentation(alphabet, relations)


def validate_special(p: Presentation) -> SpecialPresentation:
    relators = []
    for i, (lhs, rhs) in enumerate(p.relations):
        if rhs != EMPTY:
            raise NotSpecialError(i)
        if lhs == EMPTY:
            raise EmptyRelatorError(i)
        relators.append(lhs)
    return SpecialPresentation(p, tuple(relators))


def primitive_root(w: Word) -> tuple[Word, int]:
    """Decompose w = p**k with p primitive and k maximal.

    Uniqueness of the decomposition is classical (Lyndon-Schutzenberger);
    we take the smallest period whose length divides |w|.
    """
    if not w:
        raise EmptyWordError("the empty word has no primitive root")
    n = len(w)
    for d in range(1, n + 1):
        if n % d == 0 and w[:d] * (n // d) == w:
            return w[:d], n // d
    raise AssertionError("unreachable: every word is a power of itself")


class UnionFind:
    """Union-find over 0..n-1; every class is rooted at its least member."""

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x, y):
        self.union_all(((x, y),))

    def union_all(self, pairs):
        """union(x, y) for each pair (x, y), in one loop."""
        parent = self.parent
        for x, y in pairs:
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            while parent[y] != y:
                parent[y] = y = parent[parent[y]]
            if x < y:
                parent[y] = x
            else:
                parent[x] = y

    def classes(self):
        """class_of (element -> class id) and the classes (class id ->
        ascending members), numbered by least member in one pass: a parent
        is never above its child, so it is numbered first."""
        class_of = []
        classes = []
        for x, p in enumerate(self.parent):
            if p == x:
                class_of.append(len(classes))
                classes.append([x])
            else:
                c = class_of[p]
                class_of.append(c)
                classes[c].append(x)
        return class_of, classes
