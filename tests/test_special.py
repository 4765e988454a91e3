import itertools

import pytest
from hypothesis import given, settings, strategies as st

from monoidkit import special
from monoidkit.words import EMPTY, parse_presentation, validate_special
from monoidkit.rewriting import (
    DEFAULT_BUDGET,
    Budget,
    BudgetExhausted,
    Verdict,
    _witness_path,
    equal_words,
    knuth_bendix,
    orient_system,
)
from monoidkit.special import (
    InvertibilityCertificate,
    NonCertifiedDeltaError,
    NotIrreducibleError,
    NotOneRelatorError,
    UnitsNotCompletedError,
    _unit_ball,
    adjan_factorization,
    certify_invertible,
    compute_delta,
    compute_I_I0,
    normalize_special,
    right_units_presentation,
    torsion_flag,
    transversal_factor,
    units_presentation,
)


def sp(text):
    return validate_special(parse_presentation(text))


BICYCLIC = sp("letters: a b\nrel: a b = 1")
INVOLUTION = sp("letters: a\nrel: a a = 1")
SQUARED = sp("letters: a b\nrel: a b a b = 1")
FREE = sp("letters: a b")


def w(s):
    return tuple(s)


@pytest.fixture(scope="module")
def ua_bicyclic():
    return compute_delta(BICYCLIC)


@pytest.fixture(scope="module")
def ua_involution():
    return compute_delta(INVOLUTION)


@pytest.fixture(scope="module")
def ua_squared():
    return compute_delta(SQUARED)


def test_certify_invertible_involution():
    v = certify_invertible(INVOLUTION, w("a"))
    assert v.proven
    cert = v.witness[0]
    assert cert.right_inverse == w("a") and cert.left_inverse == w("a")
    # both traces land on a word provably equal to 1
    assert cert.right_trace[0] == cert.word + cert.right_inverse
    assert cert.right_trace[-1] == EMPTY
    assert cert.left_trace[0] == cert.left_inverse + cert.word


def test_certify_invertible_bicyclic_relator():
    v = certify_invertible(BICYCLIC, w("ab"))
    assert v.proven
    cert = v.witness[0]
    assert cert.right_inverse == EMPTY and cert.left_inverse == EMPTY


def test_certify_invertible_tiny_budget_unknown():
    v = certify_invertible(BICYCLIC, w("a"), budget_limit=1)
    assert v.value == "unknown"


def test_certify_invertible_no_left_inverse_unknown():
    # "a" in the bicyclic monoid has a right inverse only; without a
    # refutation procedure this stays unknown
    v = certify_invertible(BICYCLIC, w("a"))
    assert v.value == "unknown"


def test_certify_refuted_with_completed_system():
    sb = knuth_bendix(orient_system(BICYCLIC.base)).system
    # "b" starts with a letter no rule lhs starts with: no right inverse
    assert certify_invertible(BICYCLIC, w("b"), system=sb).refuted
    # "a" ends with a letter no rule lhs ends with: no left inverse
    assert certify_invertible(BICYCLIC, w("a"), system=sb).refuted
    s = knuth_bendix(orient_system(INVOLUTION.base)).system
    assert certify_invertible(INVOLUTION, w("aaa"), system=s).proven


def indecomposable_factorization(sp, v, budget_limit=DEFAULT_BUDGET):
    """The former per-prefix search, kept as the oracle for the splitting of
    several relators: split v by repeatedly removing the shortest prefix
    that certifies invertible.  Raises BudgetExhausted (carrying the stuck
    position and the factors found so far) if some suffix has no
    certifiable prefix."""
    factors = []
    pos = 0
    rest = v
    while rest:
        split = next((k for k in range(1, len(rest) + 1) if certify_invertible(
            sp, rest[:k], budget_limit).proven), None)
        if split is None:
            raise BudgetExhausted({"position": pos, "factors": factors})
        factors.append(rest[:split])
        rest = rest[split:]
        pos += split
    return factors


def test_indecomposable_factorization():
    assert indecomposable_factorization(INVOLUTION, w("aa")) == [w("a"), w("a")]
    assert indecomposable_factorization(BICYCLIC, w("ab")) == [w("ab")]
    assert indecomposable_factorization(SQUARED, w("abab")) == [w("ab"), w("ab")]


def test_indecomposable_factorization_stuck():
    with pytest.raises(BudgetExhausted) as e:
        indecomposable_factorization(BICYCLIC, w("ba"))
    assert e.value.partial["position"] == 0


@pytest.mark.parametrize("relator, pieces", [
    ("aaba", ["a", "a", "b", "a"]),
    ("abab", ["ab", "ab"]),
    ("ab", ["ab"]),
    ("aa", ["a", "a"]),
    ("abbbaab", ["a", "b", "b", "b", "a", "a", "b"]),
])
def test_adjan_factorization_pinned(relator, pieces):
    (got,), found = adjan_factorization((w(relator),))
    assert got == tuple(map(w, pieces))
    assert set(got) <= found and w(relator) in found


def test_adjan_splits_every_overlap():
    # aaba: the border a is invertible, so are the cuts aba and aab, their
    # overlap ab, and the cuts of those: b, ba and aa
    _, found = adjan_factorization((w("aaba"),))
    assert found == set(map(w, ["aaba", "a", "aba", "aab", "ab", "b", "ba",
                                "aa"]))


def _relators(max_size):
    return st.integers(2, 3).flatmap(lambda k: st.tuples(
        st.just("abc"[:k]),
        st.text(alphabet="abc"[:k], min_size=1, max_size=max_size)))


@settings(max_examples=150, deadline=None)
@given(_relators(9))
def test_adjan_pieces_agree_with_unit_balls(case):
    # every prefix that a unit ball proves invertible ends at a piece
    # boundary, so the ball is never finer; every piece certifies in the
    # first closed ball that is long enough to hold its proof, and none is
    # refuted where the monoid has a finite complete system
    letters, relator = case
    p = _special(letters, [relator])
    r = w(relator)
    (pieces,), _ = adjan_factorization((r,))
    assert sum(pieces, EMPTY) == r
    ends = set(itertools.accumulate(map(len, pieces)))
    for k in range(1, len(r) + 1):
        if certify_invertible(p, r[:k], 3000).proven:
            assert k in ends, (relator, k, pieces)
    system = knuth_bendix(orient_system(p.base), 3000).system
    for piece in set(pieces):
        assert not certify_invertible(p, piece, 1, system).refuted
        for m in range(2, 9):
            ball, closed = _unit_ball(p, 2 * len(piece) + m * len(r),
                                      Budget(5000))
            if not closed or _certify_by_sort_and_scan(piece, ball):
                break
        else:
            pytest.fail(f"{piece} of {relator} never certifies")


@settings(max_examples=40, deadline=None)
@given(_relators(9), st.integers(1, 3000))
def test_one_relator_delta_never_sticks(case, budget):
    # every piece is invertible and indecomposable, so it lands in delta
    # and the relator parses, at any budget; nothing is deleted, so the
    # splitting is never cut short
    letters, relator = case
    ua = compute_delta(_special(letters, [relator]), budget)
    assert ua.factors == adjan_factorization((w(relator),))[0]
    assert set(ua.factors[0]) <= set(ua.delta)
    kinds = {d["kind"] for d in ua.diagnostics}
    assert not kinds & {"relator_factorization_stuck",
                        "relator_splitting_truncated",
                        "minimal_factor_outside_delta",
                        "relator_not_delta_parseable"}


def _cuts(factors):
    return set(itertools.accumulate(map(len, factors)))


def test_splitting_is_sound_and_never_coarser_than_the_ball_loop():
    # all 435 pairs of distinct {a,b}-words of length 1-4: no piece is
    # refuted where the monoid has a finite complete system, and wherever
    # the per-prefix ball loop does not stick, each of its cuts is a cut of
    # the splitting
    words = [w(x) for n in range(1, 5) for x in map(
        "".join, itertools.product("ab", repeat=n))]
    pairs = list(itertools.combinations(words, 2))
    assert len(pairs) == 435
    for pair in pairs:
        p = _special("ab", pair)
        factors, _ = adjan_factorization(pair)
        system = knuth_bendix(orient_system(p.base), 3000).system
        for r, pieces in zip(pair, factors):
            assert sum(pieces, EMPTY) == r
            for piece in set(pieces):
                assert not certify_invertible(p, piece, 1, system).refuted
        try:
            loop = [indecomposable_factorization(p, r, 3000) for r in pair]
        except BudgetExhausted:
            continue
        for oracle, pieces in zip(loop, factors):
            assert _cuts(oracle) <= _cuts(pieces), (pair, oracle, pieces)


def test_delete_splits_a_relator_inside_another():
    # ba occurs in bbbaa but not as a border; deleting it leaves the unit
    # bba, cutting ba off bba leaves b, and cutting b off ba leaves a
    factors, found = adjan_factorization((w("bbbaa"), w("ba")))
    assert factors == (tuple(map(w, "bbbaa")), (w("b"), w("a")))
    assert w("bba") in found


def test_splitting_of_one_letter_relators_stays_in_budget():
    # a and b are invertible from the start, so nothing is deleted from
    # (ab)^20, which would reach every subsequence of it, about F(42) words;
    # the cuts alone split every relator into letters, well inside budget
    rels = tuple(map(w, ["a", "b", "ab" * 20]))
    factors, found = adjan_factorization(rels, 1000)
    assert factors == ((w("a"),), (w("b"),), tuple(map(w, "ab" * 20)))
    free = {r[i:j] for r in rels for j in range(41) for i in range(j)}
    assert found <= free
    ua = compute_delta(_special("ab", ["a", "b", "ab" * 20]), 1000)
    assert ua.delta == (w("a"), w("b"))
    assert {"kind": "relator_splitting_truncated"} not in ua.diagnostics


def test_splitting_that_keeps_deleting_stays_in_budget():
    # ab = 1 gives the bicyclic monoid, where no letter is invertible, and
    # deleting ab from (aabb)^20 reaches 3^20 words; past the budget the
    # splitting stops deleting, and every relator still splits, since each
    # rest is a factor of its relator
    rels = tuple(map(w, ["ab", "aabb" * 20]))
    with pytest.raises(BudgetExhausted) as e:
        adjan_factorization(rels, 1000)
    factors, found = e.value.partial
    assert factors == ((w("ab"),), (w("aabb"),) * 20)
    free = {r[i:j] for r in rels for j in range(81) for i in range(j)}
    assert 0 < len(found - free) <= 1000
    ua = compute_delta(_special("ab", ["ab", "aabb" * 20]), 1000)
    assert not ua.certified
    assert ua.diagnostics[0] == {"kind": "relator_splitting_truncated"}


def unskipped_splitting(relators):
    """Adjan's three rules to a fixed point, rescanning every pair of
    members each pass and deleting relators from every member, even one
    whose letters are all invertible: the oracle for the skip."""
    found = set(relators)
    while True:
        new = set()
        for u in found:
            for v in found:
                new.update(u[:k] for k in range(1, min(len(u), len(v)))
                           if v[len(v) - k:] == u[:k])
                if len(u) < len(v) and v[:len(u)] == u:
                    new.add(v[len(u):])
                if len(u) < len(v) and v[len(v) - len(u):] == u:
                    new.add(v[:len(v) - len(u)])
            for s in relators:
                for i in range(len(u) - len(s) + 1 if len(s) < len(u) else 0):
                    if u[i:i + len(s)] == s:
                        new.add(u[:i] + u[i + len(s):])
        if new <= found:
            break
        found |= new
    factors = []
    for rest in relators:
        pieces = []
        while rest:
            k = min(k for k in range(1, len(rest) + 1) if rest[:k] in found)
            pieces.append(rest[:k])
            rest = rest[k:]
        factors.append(tuple(pieces))
    return tuple(factors)


def test_skipping_invertible_words_keeps_the_pieces():
    # the 435 pairs of the ball-loop test, and (ab)^4 with a = b = 1, whose
    # unskipped set holds every subsequence of (ab)^4
    words = [w(x) for n in range(1, 5) for x in map(
        "".join, itertools.product("ab", repeat=n))]
    cases = list(itertools.combinations(words, 2))
    assert len(cases) == 435
    cases.append(tuple(map(w, ["a", "b", "abababab"])))
    # b is invertible but d and a are not: dadbba must still lose its b
    cases.append(tuple(map(w, ["b", "dadbba"])))
    for relators in cases:
        assert adjan_factorization(relators)[0] == unskipped_splitting(
            relators), relators


@settings(max_examples=150, deadline=None)
@given(st.lists(st.text(alphabet="abc", min_size=1, max_size=7),
                min_size=2, max_size=3))
def test_skipping_invertible_words_keeps_random_pieces(relators):
    rels = tuple(map(w, relators))
    assert adjan_factorization(rels)[0] == unskipped_splitting(rels)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text(alphabet="abc", min_size=1, max_size=8),
                min_size=2, max_size=4), st.integers(0, 200))
def test_truncated_splitting_is_coarser_and_never_sticks(relators, budget):
    # the set at a small budget is part of the full set, so each of its
    # cuts is a cut of the full splitting
    rels = tuple(map(w, relators))
    full, _ = adjan_factorization(rels)
    try:
        factors, _ = adjan_factorization(rels, budget)
    except BudgetExhausted as e:
        factors, _ = e.partial
    for r, pieces, finer in zip(rels, factors, full):
        assert sum(pieces, EMPTY) == r
        assert _cuts(pieces) <= _cuts(finer)


def test_delta_of_aaba_and_cc_is_certified():
    # the ball loop found only a and c: b = a^-3 needs a longer ball
    ua = compute_delta(_special("abc", ["aaba", "cc"]))
    assert ua.delta == (w("a"), w("b"), w("c"))
    assert ua.certified and ua.diagnostics == []


def test_non_certified_delta_refuses_normal_forms():
    # at budget 3 the unit ball truncates, but the units still complete
    ua = compute_delta(BICYCLIC, 3)
    assert not ua.certified and ua.units_completed
    with pytest.raises(NonCertifiedDeltaError):
        normalize_special(ua, w("ab"))
    with pytest.raises(NonCertifiedDeltaError):
        transversal_factor(ua, w("b"))


@pytest.mark.parametrize("relators", [["b", "cbaca", "cbcaa"],
                                      ["a", "bbcca", "bacbc"]])
def test_factors_outside_delta_flagged_in_shortlex_order(relators):
    # the flags used to follow the set order of the factors, which changes
    # with the string hash seed from one process to the next
    p = _special("abc", relators)
    flagged = [d["word"] for d in compute_delta(p, 2000).diagnostics
               if d["kind"] == "minimal_factor_outside_delta"]
    words = [tuple(f.split()) for f in flagged]
    assert len(words) == 3
    assert words == sorted(words, key=p.alphabet.shortlex_key)


def test_delta_of_aaba_is_certified():
    # the unit ball alone certifies a but not b = a^-3; the splitting does
    ua = compute_delta(sp("letters: a b\nrel: a a b a = 1"))
    assert ua.delta == (w("a"), w("b"))
    assert ua.factors == ((w("a"), w("a"), w("b"), w("a")),)
    assert ua.certified and ua.diagnostics == []


def test_delta_bicyclic(ua_bicyclic):
    ua = ua_bicyclic
    assert ua.delta == (w("ab"),)
    assert ua.partition == ((w("ab"),),)
    assert ua.factors == ((w("ab"),),)
    assert ua.certified


def test_delta_involution(ua_involution):
    assert ua_involution.delta == (w("a"),)
    assert ua_involution.factors == ((w("a"), w("a")),)


def test_delta_squared(ua_squared):
    ua = ua_squared
    assert ua.delta == (w("ab"),)
    assert ua.factors == ((w("ab"), w("ab")),)


def test_delta_prefix_code(ua_bicyclic, ua_involution, ua_squared):
    for ua in (ua_bicyclic, ua_involution, ua_squared):
        for u in ua.delta:
            for v in ua.delta:
                assert u == v or v[:len(u)] != u


def test_factor_concatenation(ua_bicyclic, ua_involution, ua_squared):
    for ua in (ua_bicyclic, ua_involution, ua_squared):
        for rel, factors in zip(ua.sp.relators, ua.factors):
            assert sum(factors, EMPTY) == rel
            for f in factors:
                assert f in ua.delta


def test_units_presentations(ua_bicyclic, ua_involution, ua_squared):
    p = units_presentation(ua_bicyclic)
    assert p.alphabet.letters == ("b1",)
    assert p.relations == ((("b1",), EMPTY),)

    p = units_presentation(ua_involution)
    assert p.relations == ((("b1", "b1"), EMPTY),)

    p = units_presentation(ua_squared)
    assert p.relations == ((("b1", "b1"), EMPTY),)
    assert ua_squared.units_completed


def test_torsion_flag():
    assert torsion_flag(BICYCLIC) == {"k": 1, "torsion": False}
    assert torsion_flag(SQUARED) == {"k": 2, "torsion": True}
    assert torsion_flag(INVOLUTION) == {"k": 2, "torsion": True}
    two = sp("letters: a b\nrel: a b = 1\nrel: b a = 1")
    with pytest.raises(NotOneRelatorError):
        torsion_flag(two)


def test_I_I0(ua_bicyclic, ua_involution):
    assert ua_bicyclic.I == (w("a"), w("ab"))
    assert ua_bicyclic.I0 == (w("a"),)
    assert ua_involution.I == (w("a"),)
    assert ua_involution.I0 == (w("a"),)


def test_I0_class_mismatch_flagged(ua_bicyclic):
    # I0 misses the delta class entirely here; the analysis flags it
    kinds = [d["kind"] for d in ua_bicyclic.diagnostics]
    assert "I0_delta_class_mismatch" in kinds


def test_right_units(ua_bicyclic, ua_involution):
    pres, zmap = right_units_presentation(ua_bicyclic)
    assert pres.alphabet.letters == ("b1", "z1")
    assert zmap == {"z1": w("a")}

    pres, zmap = right_units_presentation(ua_involution)
    assert pres.alphabet.letters == ("b1",)
    assert zmap == {}


def test_right_units_free_monoid():
    ua = compute_delta(FREE)
    assert ua.delta == ()
    pres, zmap = right_units_presentation(ua)
    assert pres.alphabet.letters == ()
    assert zmap == {}


def test_normalize_special(ua_bicyclic, ua_involution):
    assert normalize_special(ua_bicyclic, w("aabb")) == EMPTY
    assert normalize_special(ua_bicyclic, w("ba")) == w("ba")
    assert normalize_special(ua_bicyclic, w("abab")) == EMPTY
    assert normalize_special(ua_involution, w("aaa")) == w("a")


def test_normalize_special_matches_oracle(ua_bicyclic):
    # the normal form stays in the congruence class of the input
    for word in (w("aabb"), w("baab"), w("abab"), w("bab")):
        nf = normalize_special(ua_bicyclic, word)
        assert equal_words(BICYCLIC.base, word, nf).proven


def test_normalize_special_requires_completion(ua_bicyclic):
    from dataclasses import replace
    import copy

    broken = copy.copy(ua_bicyclic)
    broken.units_system = None
    with pytest.raises(UnitsNotCompletedError):
        normalize_special(broken, w("ab"))


def test_transversal_factor(ua_bicyclic):
    f = transversal_factor(ua_bicyclic, w("baa"))
    assert f.w_part == w("b") and f.u_part == w("aa")
    f = transversal_factor(ua_bicyclic, w("bb"))
    assert f.w_part == w("bb") and f.u_part == EMPTY
    f = transversal_factor(ua_bicyclic, EMPTY)
    assert f.w_part == EMPTY and f.u_part == EMPTY
    with pytest.raises(NotIrreducibleError):
        transversal_factor(ua_bicyclic, w("ab"))


def test_transversal_factor_unique(ua_bicyclic):
    # brute force: the returned split is the only one with u-part in I* and
    # w-part having no suffix in I
    ua = ua_bicyclic
    I = set(ua.I)

    def in_istar(word):
        if not word:
            return True
        return any(word[:k] in I and in_istar(word[k:])
                   for k in range(1, len(word) + 1))

    for word in (w("baa"), w("bb"), w("bba"), w("aa")):
        if normalize_special(ua, word) != word:
            continue
        got = transversal_factor(ua, word)
        valid = []
        for cut in range(len(word) + 1):
            wp, up = word[:cut], word[cut:]
            if in_istar(up) and not any(
                    wp[len(wp) - k:] in I for k in range(1, len(wp) + 1)):
                valid.append((wp, up))
        assert valid == [(got.w_part, got.u_part)]


def _transversal_by_full_scan(ua, v):
    """The former scan, kept as the oracle for transversal_factor: every
    slice v[i:j] is tested against I, with no bound on its length."""
    I = set(ua.I)
    n = len(v)
    in_istar = [False] * (n + 1)
    in_istar[n] = True
    for i in range(n - 1, -1, -1):
        in_istar[i] = any(
            v[i:j] in I and in_istar[j] for j in range(i + 1, n + 1))
    cut = next(i for i in range(n + 1) if in_istar[i])
    return special.TransversalFactorization(v[:cut], v[cut:])


@pytest.fixture(scope="module")
def certified_analyses(ua_bicyclic, ua_involution, ua_squared):
    extra = [compute_delta(sp(f"letters: a b\nrel: {r} = 1"))
             for r in ("a a b a", "a b b", "a a b b")]
    return [ua for ua in (ua_bicyclic, ua_involution, ua_squared, *extra)
            if ua.certified and ua.units_completed]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5), st.text(alphabet="ab", max_size=14))
def test_transversal_factor_matches_full_scan(certified_analyses, pick,
                                              text):
    ua = certified_analyses[pick % len(certified_analyses)]
    letters = ua.sp.alphabet.letters
    v = normalize_special(ua, tuple(letters[0] if c == "a" else letters[-1]
                                    for c in text))
    assert transversal_factor(ua, v) == _transversal_by_full_scan(ua, v)


def test_transversal_factor_on_a_long_path():
    # <a, b | b = 1>: I = {b}, and irreducible words are powers of a
    ua = compute_delta(sp("letters: a b\nrel: b = 1"))
    v = w("a") * 3000
    assert transversal_factor(ua, v) == special.TransversalFactorization(
        v, EMPTY)


def test_irreducible_concat_stays_irreducible(ua_bicyclic, ua_involution):
    # products of a transversal word and an irreducible word are irreducible
    for ua in (ua_bicyclic, ua_involution):
        alphabet = ua.sp.alphabet
        words = []
        for n in range(0, 4):
            words.extend(alphabet.words_of_length(n))
        irr = [v for v in words if normalize_special(ua, v) == v]
        trans = [v for v in irr if transversal_factor(ua, v).u_part == EMPTY]
        for t in trans:
            for u in irr:
                if len(t) + len(u) <= 6:
                    assert normalize_special(ua, t + u) == t + u, (t, u)


# The R-order and the loop generators it gives, kept as oracles: the program
# itself reads neither.


def r_order_leq(ua, m, n):
    """m lies below n in the right-divisibility preorder exactly when the
    transversal part of n is a prefix of the transversal part of m."""
    wm = transversal_factor(ua, normalize_special(ua, m)).w_part
    wn = transversal_factor(ua, normalize_special(ua, n)).w_part
    if wm[:len(wn)] == wn:
        return Verdict("proven", [wm, wn], 0)
    return Verdict("refuted", [wm, wn], 0)


def loop_generators(ua, a):
    """Words w in I with [w] and [w.a] in the same R-class; these generate
    {m : m R ma} as a left ideal."""
    ua.sp.alphabet.check_word((a,))
    out = set()
    for w in ua.I:
        wa = w + (a,)
        if (r_order_leq(ua, w, wa).proven
                and r_order_leq(ua, wa, w).proven):
            out.add(w)
    return out


def test_r_order(ua_bicyclic):
    assert r_order_leq(ua_bicyclic, w("bb"), w("b")).proven
    assert r_order_leq(ua_bicyclic, w("b"), w("bb")).refuted
    assert r_order_leq(ua_bicyclic, w("ba"), w("ba")).proven


def test_loop_generators(ua_bicyclic):
    assert loop_generators(ua_bicyclic, "a") == {w("a"), w("ab")}
    assert loop_generators(ua_bicyclic, "b") == {w("a")}


def test_loop_generators_free_monoid():
    ua = compute_delta(FREE)
    assert loop_generators(ua, "a") == set()


def _certify_by_sort_and_scan(u, ball_parents):
    """The former per-candidate search, kept as the oracle for
    certify_invertible: sort the whole ball and scan it for the first word
    with prefix u and the first with suffix u."""
    right = left = None
    for w in sorted(ball_parents, key=lambda x: (len(x), x)):
        if right is None and w[:len(u)] == u:
            right = w[len(u):]
            right_trace = _witness_path(ball_parents, w)[::-1]
        if left is None and len(w) >= len(u) and w[len(w) - len(u):] == u:
            left = w[:len(w) - len(u)]
            left_trace = _witness_path(ball_parents, w)[::-1]
        if right is not None and left is not None:
            return InvertibilityCertificate(u, right, left, right_trace, left_trace)
    return None


def _special(letters, relators):
    return sp(f"letters: {' '.join(letters)}\n" + "".join(
        f"rel: {' '.join(r)} = 1\n" for r in relators))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.text(alphabet="abc", min_size=1, max_size=6),
                min_size=1, max_size=2),
       st.integers(min_value=1, max_value=5000))
def test_certify_invertible_matches_sort_and_scan(relators, budget):
    # small budgets truncate the ball; the one sorted scan must agree there
    # too, on the verdict and on the whole certificate
    p = _special("abc", relators)
    min_len = min(map(len, relators))
    longest = max(map(len, relators))
    for n in range(min_len + 1):
        # certify_invertible's own ball: the same cap and budget
        ball, _ = _unit_ball(p, 2 * n + 2 * longest, Budget(budget))
        for u in p.alphabet.words_of_length(n):
            expected = _certify_by_sort_and_scan(u, ball)
            got = certify_invertible(p, u, budget)
            assert got.value == ("proven" if expected else "unknown")
            assert got.witness == (expected and [expected])
    # compute_delta's two-set test answers without certificates, on the
    # last ball, whose cap is compute_delta's
    in_ball = special._invertible_in(ball, min_len)
    assert all(0 < len(u) <= min_len for u in in_ball)
    for n in range(1, min_len + 1):
        for u in p.alphabet.words_of_length(n):
            assert (u in in_ball) == (
                _certify_by_sort_and_scan(u, ball) is not None)


def _invertible_by_sort_and_scan(ball_parents, max_len):
    """The oracle for special._invertible_in: every word of length 1 to
    max_len over the ball's letters that the sort-and-scan search certifies
    (a prefix of a ball word uses only those letters)."""
    letters = sorted({a for b in ball_parents for a in b})
    return {u for n in range(1, max_len + 1)
            for u in itertools.product(letters, repeat=n)
            if _certify_by_sort_and_scan(u, ball_parents)}


def test_compute_delta_matches_sort_and_scan(monkeypatch):
    # compute_delta's two-set test against the per-candidate search, on the
    # candidate ball of every relator over {a, b} of length 1 to 6; at
    # budget 3000 some of those balls close and some are cut short
    def summary(ua):
        return (ua.delta, ua.partition, ua.factors, ua.diagnostics,
                ua.certified)

    two_sets = special._invertible_in
    balls = []

    def checked(ball_parents, max_len):
        want = _invertible_by_sort_and_scan(ball_parents, max_len)
        assert two_sets(ball_parents, max_len) == want
        balls.append(max_len)
        return want

    closed = set()
    for n in range(1, 7):
        for rel in FREE.alphabet.words_of_length(n):
            p = _special("ab", [rel])
            got = summary(compute_delta(p, 3000))
            closed.add(not any(d["kind"] == "unit_ball_truncated"
                               for d in got[3]))
            with monkeypatch.context() as m:
                m.setattr(special, "_invertible_in", checked)
                assert got == summary(compute_delta(p, 3000)), rel
    assert len(balls) == 126 and closed == {True, False}
