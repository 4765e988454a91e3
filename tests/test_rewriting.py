import weakref
from collections import deque

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from monoidkit import rewriting
from monoidkit.words import EMPTY, Alphabet, Presentation, parse_presentation
from monoidkit.rewriting import (
    COMPLETE,
    ORIENTED,
    PARTIAL,
    Budget,
    BudgetExhausted,
    CompletionResult,
    RewriteRule,
    RewriteSystem,
    _ball_with_parents,
    _interreduce,
    _rule,
    critical_pairs,
    equal_words,
    extension_solver,
    knuth_bendix,
    normalize,
    orient_system,
)

BICYCLIC = parse_presentation("letters: a b\nrel: a b = 1")
INVOLUTION = parse_presentation("letters: a\nrel: a a = 1")
AMALGAM = parse_presentation("letters: x y\nrel: y y y = x x")


def w(s):
    return tuple(s)


def system(p):
    return orient_system(p)


def reduce_once(s, word):
    """Rewrite the leftmost redex once, lowest rank first, or None if word
    is irreducible."""
    hit = s._index.leftmost(word)
    if hit is None:
        return None
    pos, rank = hit
    rule = s._index.rules[rank]
    return word[:pos] + rule.rhs + word[pos + len(rule.lhs):]


def irreducible_words(s, max_len):
    """All irreducible words of length <= max_len, shortlex order.  Each
    length extends the irreducible words one shorter by every letter."""
    index = s._index
    out, level = [], [EMPTY]
    for n in range(max_len + 1):
        if n:
            longer = (u + (a,) for u in level for a in s.alphabet.order)
            # u is irreducible, so any redex of v ends at its last letter
            level = [v for v in longer
                     if index.leftmost(v, max(0, n - index.longest)) is None]
        out.extend(level)
    return out


def test_reduce_once_leftmost():
    s = system(BICYCLIC)
    assert reduce_once(s, w("baab")) == w("ba")
    assert reduce_once(s, w("ba")) is None
    s2 = system(INVOLUTION)
    assert reduce_once(s2, w("aaa")) == w("a")


def test_normalize():
    s = system(BICYCLIC)
    assert normalize(s, w("babab")) == w("b")
    assert normalize(s, EMPTY) == EMPTY
    assert normalize(system(INVOLUTION), w("aaaa")) == EMPTY


def test_normalize_idempotent():
    s = system(BICYCLIC)
    for word in (w("babab"), w("aabb"), w("bbbaaa")):
        nf = normalize(s, word)
        assert normalize(s, nf) == nf


def test_critical_pairs_bicyclic_empty():
    assert list(critical_pairs(system(BICYCLIC))) == []


def test_critical_pairs_involution():
    pairs = [(l, r) for l, r, _ in critical_pairs(system(INVOLUTION))]
    assert pairs == [(w("a"), w("a"))]


def test_critical_pairs_amalgam():
    # overlaps of yyy with itself at suffix lengths 1 and 2
    pairs = [(l, r) for l, r, _ in critical_pairs(system(AMALGAM))]
    assert (w("xxy"), w("yxx")) in pairs
    assert (w("xxyy"), w("yyxx")) in pairs
    assert len(pairs) == 2


def test_knuth_bendix_trivial_cases():
    for p in (BICYCLIC, INVOLUTION):
        res = knuth_bendix(system(p))
        assert res.completed
        assert res.system.status == COMPLETE
        assert [(r.lhs, r.rhs) for r in res.system.rules] == [
            (p.relations[0][0], EMPTY)
        ]


def test_knuth_bendix_amalgam_sound():
    res = knuth_bendix(system(AMALGAM), budget_limit=10000)
    # terminates either way; every emitted rule must hold in the monoid
    for rule in res.system.rules:
        v = equal_words(AMALGAM, rule.lhs, rule.rhs, budget_limit=200000)
        assert v.proven, (rule, v.value)
    if res.completed:
        s = res.system
        assert normalize(s, w("yyy")) == normalize(s, w("xx"))


def congruence_ball(p, w, max_len, budget_limit):
    """BFS closure of {w} under both directions of every relation, capped at
    max_len: the brute-force oracle over _ball_with_parents.  Raises
    BudgetExhausted, carrying the partial word set, if the step budget runs
    out before the ball is closed."""
    try:
        parents = _ball_with_parents(p, w, max_len, Budget(budget_limit))
    except BudgetExhausted as e:
        raise BudgetExhausted(set(e.partial)) from None
    return set(parents)


def test_congruence_ball_bicyclic():
    ball = congruence_ball(BICYCLIC, w("ab"), 4, 10**5)
    assert ball == {w("ab"), EMPTY, w("abab"), w("aabb")}


def test_congruence_ball_involution():
    ball = congruence_ball(INVOLUTION, w("a"), 3, 10**5)
    assert ball == {w("a"), w("aaa")}


def test_congruence_ball_budget_zero():
    with pytest.raises(BudgetExhausted) as e:
        congruence_ball(BICYCLIC, w("ab"), 2, 0)
    assert e.value.partial == {w("ab")}


def test_equal_words_proven_and_witness():
    v = equal_words(BICYCLIC, w("ab"), EMPTY, budget_limit=10**5)
    assert v.proven
    # replaying the witness: consecutive entries differ by one relation step
    trace = v.witness
    assert trace[0] == w("ab") and trace[-1] == EMPTY
    for a, b in zip(trace, trace[1:]):
        assert _one_step_related(BICYCLIC, a, b)


def _one_step_related(p, a, b):
    for lhs, rhs in p.relations:
        for x, y in ((lhs, rhs), (rhs, lhs)):
            for pos in range(len(a) - len(x) + 1):
                if a[pos:pos + len(x)] == x and a[:pos] + y + a[pos + len(x):] == b:
                    return True
    return False


def test_equal_words_refuted_needs_completion():
    res = knuth_bendix(system(BICYCLIC))
    v = equal_words(res.system, w("ba"), EMPTY)
    assert v.refuted


def test_equal_words_unknown_on_tiny_budget():
    v = equal_words(AMALGAM, w("xyx"), w("yxy"), budget_limit=3)
    assert v.value == "unknown"


def test_bicyclic_irreducible_count():
    # normal forms b^i a^j with i + j <= n: (n+1)(n+2)/2 of them
    s = knuth_bendix(system(BICYCLIC)).system
    for n in range(9):
        words = [u for u in irreducible_words(s, n)]
        assert len(words) == (n + 1) * (n + 2) // 2
        for word in words:
            assert w("ab") not in [word[i:i + 2] for i in range(len(word))]


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="ab", max_size=8))
def test_normalize_matches_oracle_class(s):
    sys_c = knuth_bendix(system(BICYCLIC)).system
    word = tuple(s)
    nf = normalize(sys_c, word)
    # the normal form is congruent to the input per the oracle
    assert equal_words(BICYCLIC, word, nf, budget_limit=10**5).proven


def test_shortlex_decrease_under_rewrite():
    s = system(AMALGAM)
    word = w("yyyyy")
    seen = [word]
    while True:
        nxt = reduce_once(s, seen[-1])
        if nxt is None:
            break
        assert s.alphabet.shortlex_less(nxt, seen[-1])
        seen.append(nxt)


# ---------------------------------------------------------------------------
# The scan-based engine the rule-trie index replaced, kept as the oracle:
# every rule is tried at every position, the search restarts at position 0
# after each rewrite, critical pairs come from an all-pairs slice loop, and
# interreduction normalizes each rule against a fresh system of the others.


def oracle_find_leftmost(rules, word):
    n = len(word)
    for pos in range(n):
        for ri, rule in enumerate(rules):
            ln = len(rule.lhs)
            if pos + ln <= n and word[pos:pos + ln] == rule.lhs:
                return pos, ri
    return None


def oracle_reduce_once(s, word, budget=None):
    hit = oracle_find_leftmost(s.rules, word)
    if hit is None:
        return None
    pos, ri = hit
    rule = s.rules[ri]
    if budget is not None and not budget.spend():
        raise BudgetExhausted(word)
    return word[:pos] + rule.rhs + word[pos + len(rule.lhs):]


def oracle_normalize_trace(s, word, budget=None):
    trace = [word]
    while True:
        nxt = oracle_reduce_once(s, trace[-1], budget)
        if nxt is None:
            return trace
        trace.append(nxt)


def normalize_trace(s, word, budget=None):
    """Every word normalize passes through, word first."""
    trace = [word]
    normalize(s, word, budget, trace)
    return trace


def oracle_normalize(s, word, budget=None):
    return oracle_normalize_trace(s, word, budget)[-1]


def oracle_critical_pairs(s):
    out = []
    rules = s.rules
    for i, r1 in enumerate(rules):
        for j, r2 in enumerate(rules):
            l1, l2 = r1.lhs, r2.lhs
            found = []
            for k in range(1, min(len(l1), len(l2))):
                if l1[len(l1) - k:] == l2[:k]:
                    left = r1.rhs + l2[k:]
                    right = l1[:len(l1) - k] + r2.rhs
                    found.append((len(l1) - k, ("overlap", i, j, len(l1) - k),
                                  left, right))
            if i != j and len(l2) <= len(l1):
                for p in range(len(l1) - len(l2) + 1):
                    if l1[p:p + len(l2)] == l2:
                        left = r1.rhs
                        right = l1[:p] + r2.rhs + l1[p + len(l2):]
                        found.append((p, ("contain", i, j, p), left, right))
            for _, prov, left, right in sorted(found, key=lambda t: t[0]):
                out.append((left, right, prov))
    return out


def oracle_interreduce(alphabet, rules):
    work = list(rules)
    changed = True
    while changed:
        changed = False
        work.sort(key=lambda r: alphabet.shortlex_key(r.lhs))
        for idx, rule in enumerate(work):
            others = RewriteSystem(
                alphabet, tuple(work[:idx] + work[idx + 1:]), ORIENTED)
            lhs = oracle_normalize(others, rule.lhs)
            rhs = oracle_normalize(others, rule.rhs)
            if lhs == rule.lhs and rhs == rule.rhs:
                continue
            del work[idx]
            if lhs != rhs:
                if alphabet.shortlex_less(lhs, rhs):
                    lhs, rhs = rhs, lhs
                new_rule = RewriteRule(lhs, rhs)
                if new_rule not in work:
                    work.append(new_rule)
            changed = True
            break
    work.sort(key=lambda r: alphabet.shortlex_key(r.lhs))
    seen, final = set(), []
    for r in work:
        if r not in seen:
            seen.add(r)
            final.append(r)
    return final


def oracle_knuth_bendix(s, budget_limit):
    budget = Budget(budget_limit)
    alphabet = s.alphabet
    rules = oracle_interreduce(alphabet, s.rules)
    while True:
        current = RewriteSystem(alphabet, tuple(rules), ORIENTED)
        added = False
        for left, right, _prov in oracle_critical_pairs(current):
            if not budget.spend():
                return CompletionResult(
                    RewriteSystem(alphabet, tuple(rules), PARTIAL),
                    False, budget.spent)
            try:
                u = oracle_normalize(current, left, budget)
                v = oracle_normalize(current, right, budget)
            except BudgetExhausted:
                return CompletionResult(
                    RewriteSystem(alphabet, tuple(rules), PARTIAL),
                    False, budget.spent)
            if u == v:
                continue
            if alphabet.shortlex_less(u, v):
                u, v = v, u
            rules = oracle_interreduce(alphabet, rules + [RewriteRule(u, v)])
            added = True
            break
        if not added:
            return CompletionResult(
                RewriteSystem(alphabet, tuple(rules), COMPLETE),
                True, budget.spent)


def words_over(letters, min_size, max_size):
    return st.lists(st.sampled_from(letters), min_size=min_size,
                    max_size=max_size).map(tuple)


def oracle_ball_with_parents(p, w, max_len, budget):
    """The former ball search, kept as the oracle for _ball_with_parents:
    one charge per match, each word built before the cap is tested."""
    parents = {w: None}
    queue = deque([w])
    while queue:
        cur = queue.popleft()
        for lhs, rhs in p.relations:
            for a, b in ((lhs, rhs), (rhs, lhs)):
                la = len(a)
                for pos in range(len(cur) - la + 1):
                    if cur[pos:pos + la] != a:
                        continue
                    if not budget.spend():
                        raise BudgetExhausted(parents)
                    nxt = cur[:pos] + b + cur[pos + la:]
                    if len(nxt) > max_len or nxt in parents:
                        continue
                    parents[nxt] = cur
                    queue.append(nxt)
    return parents


@st.composite
def presentations_and_words(draw):
    """Presentations over 1 to 3 letters, special ones (every rhs empty),
    ones with equal-length relations and ones with empty sides on either
    side, and a start word."""
    letters = draw(st.sampled_from(["a", "ab", "abc"]))
    kind = draw(st.sampled_from(["special", "equal", "any"]))
    relations = []
    for _ in range(draw(st.integers(1, 3))):
        lhs = draw(words_over(letters, 0 if kind == "any" else 1, 5))
        rhs = (EMPTY if kind == "special" else
               draw(words_over(letters, len(lhs), len(lhs))) if kind == "equal"
               else draw(words_over(letters, 0, 5)))
        relations.append((lhs, rhs))
    return (Presentation(Alphabet(tuple(letters)), tuple(relations)),
            draw(words_over(letters, 0, 6)))


def _ball_outcome(search, p, word, max_len, limit):
    budget = Budget(limit)
    try:
        parents, closed = search(p, word, max_len, budget), True
    except BudgetExhausted as e:
        parents, closed = e.partial, False
    return list(parents.items()), closed, budget.spent


@example((Presentation(Alphabet(("a", "b")), ((w("ab"), EMPTY),)), EMPTY),
         4, 7)
@example((Presentation(Alphabet(("a",)), ((EMPTY, EMPTY),)), w("aa")), 2, 5)
@settings(max_examples=300, deadline=None)
@given(presentations_and_words(), st.integers(0, 9),
       st.one_of(st.integers(0, 60), st.integers(0, 3000)))
def test_ball_with_parents_matches_per_match_oracle(case, max_len, limit):
    # small budgets cut most searches short; the partial ball, its order and
    # the steps spent must be those of one charge per match
    p, word = case
    assert (_ball_outcome(_ball_with_parents, p, word, max_len, limit)
            == _ball_outcome(oracle_ball_with_parents, p, word, max_len, limit))


class CountingBudget(Budget):
    def __init__(self, limit):
        super().__init__(limit)
        self.calls = 0

    def spend(self, n=1):
        self.calls += 1
        return super().spend(n)


def test_ball_with_parents_charges_each_word_once():
    # the unit ball of ababbab at cap 14: 25 words, whose 365 matches are
    # paid by 25 charges; a charge per match would make 365
    p = parse_presentation("letters: a b\nrel: a b a b b a b = 1")
    budget = CountingBudget(10**6)
    parents = _ball_with_parents(p, EMPTY, 14, budget)
    assert (len(parents), budget.calls, budget.spent) == (25, 25, 365)


@st.composite
def raw_systems(draw):
    """Oriented raw rule lists over 2 or 3 letters, left sides of length 1
    to 5, with duplicate left sides (other right sides) and left sides
    inside other left sides mixed in."""
    letters = draw(st.sampled_from(["ab", "abc"]))
    lhss = draw(st.lists(words_over(letters, 1, 5), min_size=1, max_size=6))
    pairs = [(lhs, draw(words_over(letters, 0, len(lhs)))) for lhs in lhss]
    for lhs in draw(st.lists(st.sampled_from(lhss), max_size=2)):
        pairs.append((lhs, draw(words_over(letters, 0, len(lhs)))))
    for lhs in draw(st.lists(st.sampled_from(lhss), max_size=2)):
        i = draw(st.integers(0, len(lhs) - 1))
        j = draw(st.integers(i + 1, len(lhs)))
        pairs.append((lhs[i:j], draw(words_over(letters, 0, j - i))))
    pairs = draw(st.permutations(pairs))
    return orient_system(Presentation(Alphabet(tuple(letters)), tuple(pairs)))


def raw(letters, *rules):
    return orient_system(Presentation(
        Alphabet(tuple(letters)), tuple((w(u), w(v)) for u, v in rules)))


@st.composite
def systems_and_words(draw):
    s = draw(raw_systems())
    return s, draw(words_over(s.alphabet.letters, 0, 12))


def _outcome(run, s, word, limit):
    """What a budgeted run returns or where it stops, and what it charged."""
    budget = Budget(limit)
    try:
        result = ("done", run(s, word, budget))
    except BudgetExhausted as e:
        result = ("exhausted", e.partial)
    return result, budget.spent


# after rewriting c at position 2 the longest lhs a a b starts at 0
@example((raw("abc", ("aab", "b"), ("c", "b")), w("aac")), 10)
# duplicate left sides: the lower rule index wins
@example((raw("ab", ("ab", "a"), ("ab", "b")), w("bab")), 10)
@settings(max_examples=300, deadline=None)
@given(systems_and_words(), st.integers(0, 40))
def test_normalize_matches_scan_oracle(case, limit):
    s, word = case
    assert reduce_once(s, word) == oracle_reduce_once(s, word)
    for budget in (limit, 10**4):
        assert (_outcome(normalize, s, word, budget)
                == _outcome(oracle_normalize, s, word, budget))
        assert (_outcome(normalize_trace, s, word, budget)
                == _outcome(oracle_normalize_trace, s, word, budget))


@settings(max_examples=300, deadline=None)
@given(raw_systems())
def test_critical_pairs_and_interreduce_match_scan_oracle(s):
    assert list(critical_pairs(s)) == oracle_critical_pairs(s)
    assert list(_interreduce(s.alphabet, s.rules).rules) == oracle_interreduce(
        s.alphabet, s.rules)


@settings(max_examples=100, deadline=None)
@given(raw_systems())
def test_irreducible_words_match_scan_oracle(s):
    want = [u for n in range(6) for u in s.alphabet.words_of_length(n)
            if oracle_find_leftmost(s.rules, u) is None]
    assert irreducible_words(s, 5) == want


def trie_shape(node, position):
    """A trie node and all below it, with each rank read as a position."""
    children, ending, below = node
    return ({a: trie_shape(child, position) for a, child in children.items()},
            sorted(map(position.__getitem__, ending)),
            sorted(map(position.__getitem__, below)))


@settings(max_examples=100, deadline=None)
@given(raw_systems(), st.data())
def test_live_index_matches_a_fresh_one(s, data):
    """After rules enter and leave a completion's index in any order, it
    holds the trie of a fresh index over the surviving rules, sorted as
    interreduction sorts them (shortlex by lhs, then entry order), with no
    node kept by a rule that left; and it gives that index's leftmost
    answers, with and without skip, and its critical pairs."""
    assume(s.rules)
    alphabet = s.alphabet
    live, entered = rewriting._LiveIndex(alphabet), []
    steps = st.integers(0, 2 * len(s.rules) - 1)
    for k in data.draw(st.lists(steps, max_size=16)):
        alive = [rank for rank, _ in entered if rank in live.rules]
        if k < len(s.rules) or not alive:
            rule = s.rules[k % len(s.rules)]
            entered.append((live.enter(rule), rule))
        else:
            live.leave(alive[k % len(alive)])
    survivors = [rule for rank, rule in entered if rank in live.rules]
    got = live.system()
    want = RewriteSystem(alphabet, tuple(sorted(
        survivors, key=lambda r: alphabet.shortlex_key(r.lhs))), ORIENTED)
    assert got.rules == want.rules
    at = {rank: j for j, rank in enumerate(live.order)}
    assert trie_shape(live.root, at) == trie_shape(
        want._index.root, range(len(want.rules)))
    assert list(critical_pairs(got)) == list(critical_pairs(want))
    for word in data.draw(st.lists(words_over(alphabet.letters, 0, 8),
                                   max_size=2)):
        for start in range(len(word) + 1):
            for j in [None, *range(len(want.rules))]:
                hit = live.leftmost(word, start,
                                    None if j is None else live.order[j])
                assert (hit and (hit[0], at[hit[1]])) == want._index.leftmost(
                    word, start, j)


@st.composite
def relation_systems(draw):
    """Oriented relations u = v with u of length 2 to 5 and v of length 1
    to 5, which interreduce less and often never complete."""
    letters = draw(st.sampled_from(["ab", "abc"]))
    rels = draw(st.lists(st.tuples(words_over(letters, 2, 5),
                                   words_over(letters, 1, 5)),
                         min_size=1, max_size=3))
    return orient_system(Presentation(Alphabet(tuple(letters)), tuple(rels)))


def coxeter_sn(n):
    """S_n as the Coxeter group on the path s_1 .. s_{n-1}."""
    g = "abcdefg"[:n - 1]
    rels = [(a + a, "") for a in g]
    for i, a in enumerate(g):
        for j, b in enumerate(g[i + 1:], i + 1):
            rels.append((a + b + a, b + a + b) if j == i + 1 else (a + b, b + a))
    return raw(g, *rels)


# positive Artin monoids A2, B2, G2 and A3, at budgets that run out while
# a join is replayed, part of its charge still fitting
@example(raw("ab", ("aba", "bab")), 1564)
@example(raw("ab", ("abab", "baba")), 1563)
@example(raw("ab", ("ababab", "bababa")), 1567)
@example(raw("abc", ("aba", "bab"), ("bcb", "cbc"), ("ac", "ca")), 1558)
@example(coxeter_sn(4), 10**4)
@example(coxeter_sn(5), 10**4)
@example(raw("ab", ("aba", "bab")), 600)
# a new rule's lhs turns up in the words of a join made before it
@example(raw("ab", ("aaba", "")), 48)
@settings(max_examples=80, deadline=None)
@given(st.one_of(raw_systems(), relation_systems()), st.integers(1, 3000))
def test_knuth_bendix_matches_scan_oracle(s, limit):
    got, want = knuth_bendix(s, limit), oracle_knuth_bendix(s, limit)
    assert got.system == want.system
    assert (got.completed, got.steps) == (want.completed, want.steps)


@example(raw("abc", ("cbc", ""), ("cab", "b")), 750)
@example(raw("ab", ("baab", ""), ("aa", "bbb")), 643)
@settings(max_examples=60, deadline=None)
@given(st.one_of(raw_systems(), relation_systems()), st.integers(1, 1000))
def test_knuth_bendix_survives_reused_ids(s, limit):
    """A rule that leaves frees its id for a new rule.  Here each freed id
    is the next one handed out, so anything keyed by rule ids (joins were,
    before they were keyed by ranks, which are never given twice) would be
    found again for the rule that took the id."""
    free, ids, fresh = [], {}, iter(range(10**9))

    def reusing_id(rule):
        key = id(rule)
        if key not in ids:
            ids[key] = free.pop() if free else next(fresh)
            weakref.finalize(rule, lambda: free.append(ids.pop(key)))
        return ids[key]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(rewriting, "id", reusing_id, raising=False)
        got = knuth_bendix(s, limit)
    want = oracle_knuth_bendix(s, limit)
    assert got.system == want.system
    assert (got.completed, got.steps) == (want.completed, want.steps)


@st.composite
def interreduced_and_one_more(draw):
    """An interreduced rule set and one more rule, whose lhs is often cut
    out of a side of a rule in the set, so that it reduces that rule."""
    s = draw(raw_systems())
    alphabet = s.alphabet
    rules = _interreduce(alphabet, s.rules).rules
    sides = [r.lhs for r in rules] + [r.rhs for r in rules if r.rhs]
    if sides and draw(st.booleans()):
        side = draw(st.sampled_from(sides))
        i = draw(st.integers(0, len(side) - 1))
        u = side[i:draw(st.integers(i + 1, len(side)))]
    else:
        u = draw(words_over(alphabet.letters, 1, 5))
    v = draw(words_over(alphabet.letters, 0, 5))
    assume(u != v)
    return alphabet, rules, _rule(alphabet, u, v)


@settings(max_examples=300, deadline=None)
@given(interreduced_and_one_more())
def test_interreduce_known_rules_matches_scan_oracle(case):
    alphabet, rules, new = case
    # the live-index path of knuth_bendix: the new rule enters the index of
    # the interreduced set
    got = _interreduce(alphabet, (new,), _interreduce(alphabet, rules)._index)
    assert list(got.rules) == oracle_interreduce(alphabet, rules + (new,))


@settings(max_examples=300, deadline=None)
@given(st.integers(-3, 30), st.lists(st.integers(0, 12), max_size=6))
def test_spend_n_is_n_single_charges(limit, charges):
    bulk, single = Budget(limit), Budget(limit)
    for n in charges:
        fits = all([single.spend() for _ in range(n)])
        assert bulk.spend(n) == fits
        assert bulk.spent == single.spent


def test_equal_words_witness_is_both_traces():
    s = knuth_bendix(system(BICYCLIC)).system
    u, v = w("aabb"), w("abab")
    verdict = equal_words(s, u, v, budget_limit=10)
    assert verdict.proven
    assert verdict.witness == (oracle_normalize_trace(s, u)
                               + oracle_normalize_trace(s, v)[::-1])
    assert verdict.budget_spent == 4
    with pytest.raises(BudgetExhausted) as e:
        equal_words(s, u, v, budget_limit=3)
    assert e.value.partial == w("ab")


def test_one_trie_per_cayley_homology_job(tmp_path, monkeypatch):
    """A completion result shares the trie of the system it completed, so one
    round of the cayley-homology benchmark workload (44 jobs, each completing
    a one-relator presentation once) builds one trie per job, not two."""
    import os

    from monoidkit import rewriting

    monkeypatch.syspath_prepend(os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench"))
    import workloads

    jobs = workloads.build("cayley-homology", 1, str(tmp_path))
    builds = []
    init = rewriting._Index.__init__

    def counting_init(self, rules):
        builds.append(len(rules))
        init(self, rules)

    monkeypatch.setattr(rewriting._Index, "__init__", counting_init)
    for job in jobs:
        assert job.run()[0] == 0
    assert len(jobs) == 44
    assert len(builds) == 44


def _arcs_of_ball(s, radius):
    """Each vertex u (a normal form) of the normal-form ball of the given
    radius times each letter a, as u + (a,)."""
    level, seen = [EMPTY], {EMPTY}
    for _ in range(radius):
        words = [u + (a,) for u in level for a in s.alphabet.letters]
        yield from words
        level = [v for v in dict.fromkeys(normalize(s, x) for x in words)
                 if v not in seen]
        seen.update(level)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(words_over("ab", 0, 4), words_over("ab", 0, 4)),
                min_size=1, max_size=2), st.integers(1, 4))
# completion adds a rule whose lhs is longer than every relation side
@example([(w("baa"), w("aa")), (w("bba"), w("bbb"))], 4)
@example([(w("abb"), w("a")), (w("bab"), w("aba"))], 4)
def test_extension_solver_matches_normalize_on_complete_systems(
        relations, radius):
    p = Presentation(Alphabet(("a", "b")), tuple(relations))
    result = knuth_bendix(orient_system(p), 2000)
    assume(result.completed)
    solve = extension_solver(result.system)
    for x in _arcs_of_ball(result.system, radius):
        assert solve(x) == normalize(result.system, x)


@settings(max_examples=200, deadline=None)
@given(raw_systems(), st.integers(1, 3))
# b is an lhs and a suffix of the lhs a b: the walk passes its end
@example(raw("ab", ("ab", "a"), ("b", "")), 2)
def test_extension_solver_matches_normalize_on_raw_systems(s, radius):
    """On any oriented system, also one whose left sides are suffixes of
    one another, the arc's answer is normalize's."""
    solve = extension_solver(s)
    for x in _arcs_of_ball(s, radius):
        assert solve(x) == normalize(s, x)


def test_extension_solver_rewrites_only_reducible_arcs(monkeypatch):
    """The arcs of the bicyclic ball of radius 6: only those with the lhs
    b a as suffix reach normalize, each once, from two letters before the
    end; the others are their own normal forms."""
    s = knuth_bendix(orient_system(BICYCLIC)).system
    calls = []
    real = rewriting.normalize

    def counted(system, word, start=0):
        calls.append((word, start))
        return real(system, word, start=start)

    solve = extension_solver(s)
    arcs = list(_arcs_of_ball(s, 6))
    monkeypatch.setattr(rewriting, "normalize", counted)
    assert [solve(x) for x in arcs] == [real(s, x) for x in arcs]
    reducible = [x for x in arcs if real(s, x) != x]
    assert calls == [(x, len(x) - 2) for x in reducible]
    assert 0 < len(reducible) < len(arcs)


def rejoining_knuth_bendix(s, budget_limit=10**6):
    """Completion that joins every critical pair again after each new rule
    and tests every rule in each interreduction: the steps and results that
    knuth_bendix must replay.  It calls through the module, so that a
    test can count the calls."""
    budget = Budget(budget_limit)
    alphabet = s.alphabet
    current = rewriting._interreduce(alphabet, s.rules)
    try:
        while True:
            for left, right, _prov in critical_pairs(current):
                if not budget.spend():
                    raise BudgetExhausted(current)
                u = rewriting.normalize(current, left, budget)
                v = rewriting.normalize(current, right, budget)
                if u != v:
                    break
            else:
                return CompletionResult(
                    current.with_status(COMPLETE), True, budget.spent)
            current = rewriting._interreduce(
                alphabet, current.rules + (_rule(alphabet, u, v),))
    except BudgetExhausted:
        return CompletionResult(
            current.with_status(PARTIAL), False, budget.spent)


def test_complete_round_replays_joins(tmp_path, monkeypatch):
    """One round of the complete benchmark workload (seed 1) makes 13,328
    normalizations, and 12,022 rewrites of a rule side in interreduction,
    when every pair is joined again and every rule is tested again;
    replaying joins and re-testing only touched rules must cut them below
    2,300 and 1,000 and leave every artifact as it was."""
    import os

    from monoidkit import cli

    monkeypatch.syspath_prepend(os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench"))
    import workloads

    jobs = workloads.build("complete", 1, str(tmp_path))
    counts = {"normalize": 0, "rewrites": 0, "depth": 0}
    normalize, interreduce, rewrite = (
        rewriting.normalize, rewriting._interreduce, rewriting._rewrite)

    def counting_normalize(*args):
        counts["normalize"] += 1
        return normalize(*args)

    def counting_interreduce(*args):
        counts["depth"] += 1
        try:
            return interreduce(*args)
        finally:
            counts["depth"] -= 1

    def counting_rewrite(*args, **kwargs):
        if counts["depth"]:
            counts["rewrites"] += 1
        return rewrite(*args, **kwargs)

    def round_counts(run_all):
        counts.update(normalize=0, rewrites=0)
        return run_all(), counts["normalize"], counts["rewrites"]

    monkeypatch.setattr(rewriting, "normalize", counting_normalize)
    monkeypatch.setattr(rewriting, "_interreduce", counting_interreduce)
    monkeypatch.setattr(rewriting, "_rewrite", counting_rewrite)
    with monkeypatch.context() as m:
        m.setattr(cli, "knuth_bendix", rejoining_knuth_bendix)
        want, *rejoined = round_counts(lambda: [job.run() for job in jobs])
    got, *replayed = round_counts(lambda: [job.run() for job in jobs])
    assert len(jobs) == 24
    assert got == want
    assert rejoined == [13328, 12022]
    assert replayed[0] <= 2300 and replayed[1] <= 1000


def test_completion_result_keeps_the_trie():
    done = knuth_bendix(orient_system(BICYCLIC))
    partial = knuth_bendix(orient_system(
        parse_presentation("letters: a b\nrel: a b a = b a b")), 50)
    for result, status in ((done, COMPLETE), (partial, PARTIAL)):
        assert result.system.status == status
        assert "_index" in vars(result.system)
        again = RewriteSystem(result.system.alphabet, result.system.rules,
                              status)
        assert again == result.system
        for w in [(), ("b", "a", "b"), ("a", "b", "a", "b", "b")]:
            assert normalize(result.system, w) == normalize(again, w)


def test_index_work_tracks_entering_rules(tmp_path, monkeypatch):
    """Each rule's lhs goes into the trie once, when the rule enters.  One
    round of the complete benchmark workload (seed 1) makes 465 rules with
    6,862 lhs letters, and the trie takes exactly those letters; building a
    fresh trie for each interreduction round took 81,573."""
    import os

    monkeypatch.syspath_prepend(os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench"))
    import workloads

    jobs = workloads.build("complete", 1, str(tmp_path))
    made, inserted = [], []
    rule, add = rewriting._rule, rewriting._Index.add

    def counting_rule(*args):
        made.append(rule(*args))
        return made[-1]

    def counting_add(self, rank, r):
        inserted.append(r)
        add(self, rank, r)

    monkeypatch.setattr(rewriting, "_rule", counting_rule)
    monkeypatch.setattr(rewriting._Index, "add", counting_add)
    for job in jobs:
        job.run()
    entering = [r for r in made if r.lhs != r.rhs]
    assert sorted(map(id, inserted)) == sorted(map(id, entering))
    assert len(entering) == 465
    assert sum(len(r.lhs) for r in inserted) == 6862
