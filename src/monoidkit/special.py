"""Analysis of special presentations (every relation reads w = 1):
invertibility certificates, minimal invertible words, the units and
right-units presentations, lazy normalization, and transversal
factorization.

The relators are split into invertible pieces by Adjan's overlap
splitting, with no search; for one relator the pieces are exactly the
minimal invertible words.  The rest of the pipeline is Unknown-tolerant:
invertibility of a word is semi-decidable, so searches prove or give up,
and anything left uncertain is surfaced in the diagnostics instead of
being guessed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .words import (
    EMPTY,
    Alphabet,
    Presentation,
    SpecialPresentation,
    UnionFind,
    Word,
    WordError,
    format_word,
    longest_side,
    primitive_root,
)
from .rewriting import (
    COMPLETE,
    DEFAULT_BUDGET,
    Budget,
    BudgetExhausted,
    RewriteSystem,
    Verdict,
    _ball_with_parents,
    _witness_path,
    equal_words,
    knuth_bendix,
    normalize,
    orient_system,
)


class SpecialAnalysisError(WordError):
    pass


class NotOneRelatorError(SpecialAnalysisError):
    pass


class UnitsNotCompletedError(SpecialAnalysisError):
    pass


class NonCertifiedDeltaError(SpecialAnalysisError):
    pass


class NotIrreducibleError(SpecialAnalysisError):
    pass


class AnalysisInvariantError(Exception):
    """An internal invariant of the analysis failed.  This is a bug, not
    bad input, so it is neither a WordError nor an input error of the CLI."""


@dataclass
class InvertibilityCertificate:
    word: Word
    right_inverse: Word
    left_inverse: Word
    # each trace is a word sequence from the product down to the empty word
    right_trace: list = None
    left_trace: list = None


def _unit_ball(sp: SpecialPresentation, max_len: int, budget: Budget):
    """Words provably equal to the empty word, with BFS parents for traces."""
    try:
        return _ball_with_parents(sp.base, EMPTY, max_len, budget), True
    except BudgetExhausted as e:
        return e.partial, False


def _invertible_in(ball_parents, max_len: int) -> set:
    """The words of length 1 to max_len that are a prefix and a suffix of
    words of the unit ball: those that certify_invertible certifies from it."""
    heads = {b[:max_len] for b in ball_parents}
    tails = {b[-max_len:] for b in ball_parents}
    return ({h[:k] for h in heads for k in range(1, len(h) + 1)}
            & {t[-k:] for t in tails for k in range(1, len(t) + 1)})


def certify_invertible(sp: SpecialPresentation, u: Word,
                       budget_limit=DEFAULT_BUDGET, system=None) -> Verdict:
    """Search for a right inverse v (uv = 1) and a left inverse v' (v'u = 1)
    inside a budgeted ball around the empty word.

    Refuted is only possible when a completed rewriting system for the monoid
    is supplied: if the normal form of u begins with a letter that no rule's
    left side begins with, right multiplication can never erase it, so u has
    no right inverse (symmetrically for the last letter and left inverses).
    """
    budget = Budget(budget_limit)
    cap = 2 * len(u) + 2 * longest_side(sp.base)
    parents, _ = _unit_ball(sp, cap, budget)
    # the shortest inverses, ties to the first word in (len(w), w) order,
    # which compares letter names as Python strings, not by
    # alphabet.shortlex_key; kept so that certificates stay byte-identical
    ball = sorted(parents, key=lambda w: (len(w), w))
    n = len(u)
    right = next((w for w in ball if w[:n] == u), None)
    left = next((w for w in ball if w[len(w) - n:] == u), None)
    if right is not None and left is not None:
        return Verdict("proven", [InvertibilityCertificate(
            u, right[n:], left[:len(left) - n],
            _witness_path(parents, right)[::-1],
            _witness_path(parents, left)[::-1])], budget.spent)
    if system is not None and system.status == COMPLETE:
        nf = normalize(system, u)
        if nf != EMPTY and _dead_letter(system, nf):
            return Verdict("refuted", None, budget.spent)
    return Verdict("unknown", None, budget.spent)


def _dead_letter(system: RewriteSystem, nf: Word) -> bool:
    """An irreducible word keeps its first letter under right multiplication
    unless some rule's lhs starts with it, and keeps its last letter under
    left multiplication unless some lhs ends with it."""
    first_live = any(r.lhs[:1] == nf[:1] for r in system.rules)
    last_live = any(r.lhs[-1:] == nf[-1:] for r in system.rules)
    return not first_live or not last_live


def adjan_factorization(relators, budget_limit=DEFAULT_BUDGET):
    """The invertible pieces of the relators of <A | R=1>, by Adjan's
    overlap splitting.  Returns one tuple of pieces per relator, in order,
    and the set of invertible words the splitting found.

    The set starts as R, since each r = 1 is a unit, and grows by three
    rules, each sound in any monoid:
    - overlap: a non-empty proper prefix p of a member u = px that is also
      a suffix of a member v = yp is invertible, since p(x u^-1) = 1 and
      (v^-1 y)p = 1;
    - cut: cutting an invertible prefix p off a member u = px leaves the
      unit x = p^-1 u, and cutting an invertible suffix p off u = xp leaves
      x = u p^-1;
    - delete: removing one occurrence of a relator r from a member u = xry
      leaves the unit xy = u, since r = 1.  It skips a member whose letters
      are all members: what it leaves is made of those letters, and cuts
      no relator finer than they do.
    No rule makes a word longer, so the set is finite, but delete can make
    it exponential (3^20 words from (aabb)^20 when ab = 1).  So a member
    that is not a factor of a relator costs its length in budget steps;
    past the budget such words are left out and BudgetExhausted
    carries (pieces, set).  The pieces of a relator are its shortest
    prefixes in the set, one after another; each rest is a factor of the
    relator, so a member by the cut rule, and this never sticks.  For one
    relator delete never fires and nothing is charged, and Adjan's theorem
    (Trudy MIAN 85, 1966; see Zhang, Math. Proc. Camb. Phil. Soc. 112,
    1992) says the pieces are the minimal invertible words.  With several
    relators they need not be minimal."""
    budget = Budget(budget_limit)
    free = {r[i:j] for r in relators for j in range(len(r) + 1)
            for i in range(j)}
    todo = list(dict.fromkeys(relators))
    found, by_head, by_tail, truncated = set(todo), {}, {}, False

    def add(u):
        nonlocal truncated
        if u not in found and (u in free or budget.spend(len(u))):
            found.add(u)
            todo.append(u)
        elif u not in found:
            truncated = True

    # each member is taken once: cut it off the members it begins or ends,
    # delete each relator from it, and index it by its heads and tails
    while todo:
        u = todo.pop()
        for v in by_head.get(u, ()):
            add(v[len(u):])
        for v in by_tail.get(u, ()):
            add(v[:len(v) - len(u)])
        for s in () if all((a,) in found for a in u) else relators:
            for i in range(len(u) - len(s) + 1 if len(s) < len(u) else 0):
                if u[i:i + len(s)] == s:
                    add(u[:i] + u[i + len(s):])
        for k in range(1, len(u)):
            head, tail = u[:k], u[k:]
            if head not in by_head and head in by_tail:
                add(head)
            by_head.setdefault(head, []).append(u)
            if tail not in by_tail and tail in by_head:
                add(tail)
            by_tail.setdefault(tail, []).append(u)
            if head in found:
                add(tail)
            if tail in found:
                add(head)
    factors = []
    for rest in relators:
        pieces = []
        while rest:
            k = next(k for k in range(1, len(rest) + 1) if rest[:k] in found)
            pieces.append(rest[:k])
            rest = rest[k:]
        factors.append(tuple(pieces))
    if truncated:
        raise BudgetExhausted((tuple(factors), found))
    return tuple(factors), found


@dataclass
class UnitsAnalysis:
    sp: SpecialPresentation
    factors: tuple = ()            # per relator, its pieces in order
    delta: tuple = ()              # sorted minimal invertible words
    partition: tuple = ()          # classes of delta, each sorted
    representatives: tuple = ()    # shortlex-least member per class
    b_alphabet: Alphabet = None    # fresh letters b1..bm
    t0: tuple = ()                 # relations over B, all of the form (s, 1)
    units_system: RewriteSystem = None
    units_completed: bool = False
    I: tuple = ()                  # non-empty prefixes of delta words
    I0: tuple = ()
    diagnostics: list = field(default_factory=list)
    certified: bool = True

    def delta_at(self, w: Word, i: int) -> Word | None:
        """The delta word that occurs in w at position i, or None.  Delta is
        a prefix code, so at most one matches and parsing is deterministic."""
        for d in self.delta:
            if w[i:i + len(d)] == d:
                return d
        return None

    def phi(self, w: Word) -> Word:
        """Block-map image of a Delta*-word; None for any other word."""
        out = []
        i = 0
        while i < len(w):
            hit = self.delta_at(w, i)
            if hit is None:
                return None
            out.append(self._phi[hit])
            i += len(hit)
        return tuple(out)


def _flag(ua: UnitsAnalysis, kind, **details):
    ua.diagnostics.append({"kind": kind, **details})


def compute_delta(sp: SpecialPresentation,
                  budget_limit=DEFAULT_BUDGET) -> UnitsAnalysis:
    """Minimal invertible words and their partition by equality in M.

    The relators are split into invertible pieces by adjan_factorization.
    The candidates are all words up to the minimum relator length that are
    invertible, indecomposable, and provably equal to some piece.  A word
    is invertible if the splitting found it or if it is both a prefix and a
    suffix of words of one unit ball: the two sets of cut prefixes and
    suffixes are intersected, with no certificate built.  A piece outside
    delta, a search that ran out of budget, or a relator that does not
    parse over delta is listed in diagnostics and marks the analysis
    non-certified.
    """
    ua = UnitsAnalysis(sp)
    alphabet = sp.alphabet
    try:
        ua.factors, found = adjan_factorization(sp.relators, budget_limit)
    except BudgetExhausted as e:
        ua.factors, found = e.partial
        _flag(ua, "relator_splitting_truncated")
        ua.certified = False

    min_len = min((len(r) for r in sp.relators), default=0)
    budget = Budget(budget_limit)
    cap = 2 * min_len + 2 * longest_side(sp.base)
    ball, closed = _unit_ball(sp, cap, budget)
    if not closed:
        _flag(ua, "unit_ball_truncated", cap=cap, spent=budget.spent)
        ua.certified = False

    delta = set()
    pieces = sorted({f for fl in ua.factors for f in fl},
                    key=alphabet.shortlex_key)
    # the candidates' prefixes are candidates, and no other word is asked
    invertible = found | _invertible_in(ball, min_len)
    for c in sorted(invertible, key=alphabet.shortlex_key):
        if len(c) > min_len or any(
                c[:k] in invertible for k in range(1, len(c))):
            continue  # too long to be a candidate, or decomposable
        if any(equal_words(sp.base, c, f, budget_limit).proven
               for f in pieces):
            delta.add(c)
    ua.delta = tuple(sorted(delta, key=alphabet.shortlex_key))

    for f in pieces:
        if f not in delta:
            _flag(ua, "minimal_factor_outside_delta", word=format_word(f))
            ua.certified = False
    for u in ua.delta:
        for v in ua.delta:
            if u != v and v[:len(u)] == u:
                raise AnalysisInvariantError(
                    f"delta is not a prefix code: {format_word(u)} prefixes "
                    f"{format_word(v)}")

    # partition by provable equality
    uf = UnionFind(len(ua.delta))
    for i, u in enumerate(ua.delta):
        for j in range(i + 1, len(ua.delta)):
            if uf.find(i) != uf.find(j) and equal_words(
                    sp.base, u, ua.delta[j], budget_limit).proven:
                uf.union(i, j)
    parts = sorted(
        (sorted((ua.delta[i] for i in c), key=alphabet.shortlex_key)
         for c in uf.classes()[1]),
        key=lambda c: alphabet.shortlex_key(c[0]))
    ua.partition = tuple(tuple(c) for c in parts)
    ua.representatives = tuple(c[0] for c in ua.partition)

    letters = tuple(f"b{j + 1}" for j in range(len(ua.partition)))
    ua.b_alphabet = Alphabet(letters)
    ua._phi = {d: letters[j] for j, cls in enumerate(ua.partition) for d in cls}
    ua._rep = dict(zip(letters, ua.representatives))

    t0 = set()
    for rel in sp.relators:
        image = ua.phi(rel)
        if image is None:
            _flag(ua, "relator_not_delta_parseable", relator=format_word(rel))
            ua.certified = False
            continue
        for k in range(len(image)):
            t0.add(image[k:] + image[:k])
    ua.t0 = tuple(
        (s, EMPTY) for s in sorted(t0, key=ua.b_alphabet.shortlex_key))

    result = knuth_bendix(
        orient_system(units_presentation(ua)), budget_limit)
    ua.units_system = result.system
    ua.units_completed = result.completed
    if not result.completed:
        _flag(ua, "units_completion_partial", steps=result.steps)
    compute_I_I0(ua)
    return ua


def units_presentation(ua: UnitsAnalysis) -> Presentation:
    """The group of units, presented over B by all cyclic permutations of
    the relator images (each set equal to 1)."""
    return Presentation(ua.b_alphabet, ua.t0)


def torsion_flag(sp: SpecialPresentation) -> dict:
    """For a one-relator presentation w = 1 with w = p^k (p primitive), the
    group of units has torsion exactly when k > 1."""
    if len(sp.relators) != 1:
        raise NotOneRelatorError(
            f"expected exactly one relator, got {len(sp.relators)}")
    _, k = primitive_root(sp.relators[0])
    return {"k": k, "torsion": k > 1}


def compute_I_I0(ua: UnitsAnalysis):
    """I: non-empty prefixes of delta words.  I0: members of I \\ I^2 that
    are irreducible under normalize_special.

    A certified I0 needs the completed units system; otherwise raw
    membership in I \\ I^2 is reported and flagged approximate.  The
    expectation that I0 meets each delta class exactly once is checked and
    flagged, not enforced."""
    alphabet = ua.sp.alphabet
    I = {d[:k] for d in ua.delta for k in range(1, len(d) + 1)}
    ua.I = tuple(sorted(I, key=alphabet.shortlex_key))
    ua._prefixes = {}       # the trie of delta: a node per word of I
    for d in ua.delta:
        node = ua._prefixes
        for a in d:
            node = node.setdefault(a, {})

    def in_I_star_square(w):
        return any(w[:k] in I and w[k:] in I for k in range(1, len(w)))

    base = [w for w in ua.I if not in_I_star_square(w)]
    if ua.units_completed and ua.certified:
        I0 = [w for w in base if normalize_special(ua, w) == w]
    else:
        I0 = base
        _flag(ua, "I0_approximate")
    ua.I0 = tuple(sorted(I0, key=alphabet.shortlex_key))

    for j, cls in enumerate(ua.partition):
        count = sum(1 for w in ua.I0 if w in cls)
        if count != 1:
            _flag(ua, "I0_delta_class_mismatch", class_index=j + 1,
                  count=count)


def right_units_presentation(ua: UnitsAnalysis) -> tuple[Presentation, dict]:
    """The right units: free product of the units group with a free monoid
    on Z, where Z matches the I0 words that are not class representatives.

    Returns the presentation over B plus Z and the map from z-letters to the
    words they stand for."""
    alphabet = ua.sp.alphabet
    reps = set(ua.representatives)
    z_words = [w for w in ua.I0 if w not in reps]
    z_words.sort(key=alphabet.shortlex_key)
    z_letters = tuple(f"z{j + 1}" for j in range(len(z_words)))
    letters = ua.b_alphabet.letters + z_letters
    pres = Presentation(Alphabet(letters), ua.t0)
    return pres, dict(zip(z_letters, (tuple(w) for w in z_words)))


def _delta_runs(ua: UnitsAnalysis, w: Word):
    """Maximal runs of consecutive delta-word occurrences, greedily parsed.
    Greedy parsing is exact because delta is a prefix code."""
    runs = []
    i = 0
    n = len(w)
    while i < n:
        start = i
        blocks = []
        while i < n and (hit := ua.delta_at(w, i)) is not None:
            blocks.append(hit)
            i += len(hit)
        if blocks:
            runs.append((start, i, blocks))
        else:
            i += 1
    return runs


def normalize_special(ua: UnitsAnalysis, w: Word) -> Word:
    """Reduce w using the relation set induced by the units group: each
    maximal delta-block is mapped through phi, normalized over B, and mapped
    back via the class representatives.  A replacement is kept only when it
    is shortlex-smaller, and the scan repeats to a fixed point."""
    if ua.units_system is None or ua.units_system.status != COMPLETE:
        raise UnitsNotCompletedError("units system is not completed")
    if not ua.certified:
        raise NonCertifiedDeltaError(
            "delta analysis carries unresolved diagnostics")
    alphabet = ua.sp.alphabet
    changed = True
    while changed:
        changed = False
        for start, end, blocks in _delta_runs(ua, w):
            image = tuple(ua._phi[d] for d in blocks)
            nf = normalize(ua.units_system, image)
            if nf == image:
                continue
            back = EMPTY
            for b in nf:
                back = back + ua._rep[b]
            candidate = w[:start] + back + w[end:]
            if alphabet.shortlex_less(candidate, w):
                w = candidate
                changed = True
                break
    return w


@dataclass(frozen=True)
class TransversalFactorization:
    w_part: Word
    u_part: Word


def transversal_factor(ua: UnitsAnalysis, v: Word) -> TransversalFactorization:
    """Unique splitting v = w.t where t is the longest suffix of v lying in
    I*; then w has no suffix in I."""
    if normalize_special(ua, v) != v:
        raise NotIrreducibleError(format_word(v))
    n = len(v)
    in_istar = [False] * (n + 1)
    in_istar[n] = True
    for i in range(n - 1, -1, -1):
        # I is prefix-closed: the walk stops at the first v[i:j + 1] not in I
        node = ua._prefixes
        for j in range(i, n):
            node = node.get(v[j])
            if node is None or in_istar[j + 1]:
                in_istar[i] = node is not None
                break
    cut = next(i for i in range(n + 1) if in_istar[i])
    return TransversalFactorization(v[:cut], v[cut:])
