"""String rewriting over words: reduction, critical pairs, budgeted
Knuth-Bendix completion, and three-valued word equality.

The reduction order is always shortlex over the alphabet order.  All
searches are budgeted; one rule application or one critical-pair join
attempt costs one step, so results are machine independent.  Rewriting,
critical pairs, interreduction and irreducible words all look redexes up
in one trie over the rule left sides, built once per rule set;
completion runs on the system, and so the trie, that interreduction made,
and its result shares that trie.  Completion replays the joins it made
before and interreduction re-tests only the rules a new rule can reduce,
with the steps, charges and results of doing all the work again.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .words import EMPTY, Alphabet, Presentation, Word

RAW = "raw"
ORIENTED = "oriented"
COMPLETE = "complete"
PARTIAL = "partial"

DEFAULT_BUDGET = 10**6


class RewritingError(Exception):
    pass


class UnorientedSystemError(RewritingError):
    pass


class BudgetExhausted(RewritingError):
    """Carries whatever partial result the search had produced."""

    def __init__(self, partial):
        self.partial = partial
        super().__init__("search budget exhausted")


class Budget:
    def __init__(self, limit=DEFAULT_BUDGET):
        self.limit = limit
        self.spent = 0

    def spend(self, n=1) -> bool:
        """Charge n steps as n single charges would: each fits while spent
        is below the limit, and the answer is False when fewer than n fit."""
        if self.spent + n <= self.limit:
            self.spent += n
            return True
        self.spent = max(self.spent, self.limit)
        return not n


@dataclass(frozen=True)
class RewriteRule:
    lhs: Word
    rhs: Word


@dataclass(frozen=True)
class RewriteSystem:
    alphabet: Alphabet
    rules: tuple[RewriteRule, ...]
    status: str = RAW

    def require_oriented(self):
        if self.status not in (ORIENTED, COMPLETE, PARTIAL):
            raise UnorientedSystemError(f"system has status {self.status!r}")

    @cached_property
    def _index(self):
        return _Index(self.rules)

    def with_status(self, status: str) -> "RewriteSystem":
        """The same rules under another status, sharing this system's trie."""
        out = RewriteSystem(self.alphabet, self.rules, status)
        out.__dict__["_index"] = self._index  # where cached_property keeps it
        return out


class _Index:
    """Trie over the rule left sides (all non-empty, as orient_system makes
    them).  A node is [children, ending, below]: children by letter, then
    the indices of the rules whose lhs ends at the node and of those whose
    lhs passes strictly below it, both ascending."""

    def __init__(self, rules):
        self.root = [{}, [], []]
        self.longest = 0
        for ri, rule in enumerate(rules):
            node = self.root
            for a in rule.lhs:
                child = node[0].get(a)
                if child is None:
                    child = node[0][a] = [{}, [], []]
                node[2].append(ri)
                node = child
            node[1].append(ri)
            self.longest = max(self.longest, len(rule.lhs))

    def leftmost(self, w: Word, start=0, skip=None):
        """(position, rule index) of the leftmost redex at or after start,
        lowest rule index first, ignoring rule skip; None if there is none."""
        root = self.root[0]
        n = len(w)
        for pos in range(start, n):
            node = root.get(w[pos])
            if node is None:
                continue
            hit = None
            i = pos + 1
            while True:
                children, ending, _ = node
                if ending:
                    # ascending, so the first index other than skip is lowest
                    for ri in ending:
                        if ri != skip:
                            if hit is None or ri < hit:
                                hit = ri
                            break
                if i == n:
                    break
                node = children.get(w[i])
                if node is None:
                    break
                i += 1
            if hit is not None:
                return pos, hit
        return None


@dataclass
class Verdict:
    value: str  # "proven" | "refuted" | "unknown"
    witness: list = None
    budget_spent: int = 0

    @property
    def proven(self):
        return self.value == "proven"

    @property
    def refuted(self):
        return self.value == "refuted"

    def to_json(self):
        out = {"verdict": self.value, "steps": self.budget_spent}
        if self.witness is not None:
            out["witness"] = [" ".join(w) if w else "1" for w in self.witness]
        return out


@dataclass
class CompletionResult:
    system: RewriteSystem
    completed: bool
    steps: int


def _rule(alphabet: Alphabet, u: Word, v: Word) -> RewriteRule:
    """u = v as a shortlex-decreasing rule."""
    if alphabet.shortlex_less(u, v):
        return RewriteRule(v, u)
    return RewriteRule(u, v)


def orient_system(source, alphabet: Alphabet = None) -> RewriteSystem:
    """Orient a presentation (or raw rule list) into shortlex-decreasing rules."""
    if isinstance(source, Presentation):
        alphabet = source.alphabet
        pairs = list(source.relations)
    else:
        pairs = [(r.lhs, r.rhs) for r in source]
    rules = tuple(_rule(alphabet, u, v) for u, v in pairs if u != v)
    return RewriteSystem(alphabet, rules, ORIENTED)


def _rewrite(s: RewriteSystem, w: Word, budget: Budget = None,
             trace: list = None, skip=None) -> Word:
    """Rewrite the leftmost redex, lowest rule index first, to a fixed point,
    one budget step per rewrite, never applying rule skip; each new word is
    appended to trace."""
    index = s._index
    back = index.longest - 1
    pos = 0
    while True:
        hit = index.leftmost(w, pos, skip)
        if hit is None:
            return w
        pos, ri = hit
        if budget is not None and not budget.spend():
            raise BudgetExhausted(w)
        rule = s.rules[ri]
        w = w[:pos] + rule.rhs + w[pos + len(rule.lhs):]
        if trace is not None:
            trace.append(w)
        # a redex starting further left would lie in the unchanged prefix
        pos = max(0, pos - back)


def reduce_once(s: RewriteSystem, w: Word, budget: Budget = None):
    """Apply the leftmost-lowest-index rule once, or None if w is irreducible."""
    s.require_oriented()
    hit = s._index.leftmost(w)
    if hit is None:
        return None
    pos, ri = hit
    rule = s.rules[ri]
    if budget is not None and not budget.spend():
        raise BudgetExhausted(w)
    return w[:pos] + rule.rhs + w[pos + len(rule.lhs):]


def normalize(s: RewriteSystem, w: Word, budget: Budget = None,
              trace: list = None) -> Word:
    """Reduce to a fixed point, appending each new word to trace.
    Terminates: every rule is shortlex-decreasing."""
    s.require_oriented()
    return _rewrite(s, w, budget, trace)


def normalize_trace(s: RewriteSystem, w: Word, budget: Budget = None) -> list[Word]:
    """Every word normalize passes through, w first and the normal form last;
    raises BudgetExhausted like normalize."""
    s.require_oriented()
    trace = [w]
    _rewrite(s, w, budget, trace)
    return trace


def critical_pairs(s: RewriteSystem):
    """All overlap and containment critical pairs, one-step reduced both ways,
    generated by rule_i, then rule_j, then position.

    Each entry is (left, right, provenance) where provenance is
    (kind, rule_i, rule_j, position) and position is the start of rule_j's
    lhs inside the superposition word.
    """
    s.require_oriented()
    rules = s.rules
    root = s._index.root
    for i, r1 in enumerate(rules):
        l1 = r1.lhs
        found = []
        for p in range(len(l1)):
            node = root
            for a in l1[p:]:
                node = node[0].get(a)
                if node is None:
                    break
                # containment: l2 = l1[p:p + len(l2)] (distinct rules)
                for j in node[1]:
                    if j != i:
                        l2 = rules[j].lhs
                        found.append((j, p, "contain", r1.rhs,
                                      l1[:p] + rules[j].rhs + l1[p + len(l2):]))
            else:
                # proper overlap: the suffix l1[p:] is a proper prefix of l2
                if p:
                    for j in node[2]:
                        l2 = rules[j].lhs
                        found.append((j, p, "overlap",
                                      r1.rhs + l2[len(l1) - p:],
                                      l1[:p] + rules[j].rhs))
        found.sort(key=lambda t: (t[0], t[1]))
        for j, p, kind, left, right in found:
            yield left, right, (kind, i, j, p)


def _encoder(alphabet: Alphabet):
    """Words as text, one character per letter, so that a factor test is a
    substring test; no letter is "\0", which separates words."""
    code = {a: chr(alphabet.rank(a) + 1) for a in alphabet.letters}
    return lambda w: "".join(map(code.__getitem__, w))


def _interreduce(alphabet: Alphabet, rules, clean=()) -> RewriteSystem:
    """Canonical interreduced rule set: no lhs/rhs reducible by another rule.

    Each round indexes the sorted rules once and reduces the first reducible
    rule through that index, skipping the rule itself (which keeps the order
    of the others); the system of the round that changes nothing is
    returned, its index ready for completion.  The rules of clean (by
    identity) are known irreducible by the others; rules leaving reduce
    nothing, so a known rule is tested again only after a rule whose lhs
    occurs in its sides enters, and each round still reduces the first
    reducible rule in sorted order."""
    encode = _encoder(alphabet)

    def sides(r):
        return encode(r.lhs) + "\0" + encode(r.rhs)

    work = list(rules)
    known = {id(r): sides(r) for r in clean}
    entered = [r for r in work if id(r) not in known]
    while True:
        for new in entered:
            lhs = encode(new.lhs)
            known = {k: text for k, text in known.items() if lhs not in text}
        entered = ()
        # shortlex: the text of a word orders as its letters' ranks
        work.sort(key=lambda r: (len(r.lhs), encode(r.lhs)))
        system = RewriteSystem(alphabet, tuple(work), ORIENTED)
        for idx, rule in enumerate(work):
            if id(rule) in known:
                continue
            lhs = _rewrite(system, rule.lhs, skip=idx)
            rhs = _rewrite(system, rule.rhs, skip=idx)
            if lhs == rule.lhs and rhs == rule.rhs:
                known[id(rule)] = sides(rule)
                continue
            del work[idx]
            new_rule = _rule(alphabet, lhs, rhs)
            if lhs != rhs and new_rule not in work:
                work.append(new_rule)
                entered = (new_rule,)
            break
        else:
            return system


def knuth_bendix(s: RewriteSystem, budget_limit=DEFAULT_BUDGET) -> CompletionResult:
    """Budgeted completion.  Every added rule is a consequence of the input,
    so the congruence is preserved whether or not completion finishes.

    A pair joined in an earlier round is replayed: its charge, 1 + its
    rewrites, is spent at once and nothing is normalized.  The replay is
    exact.  In an interreduced system no lhs is a factor of another, so at
    most one redex starts at any position and the leftmost one does not
    depend on the rule order; a join therefore passes through the same
    words, with the same charges, unless a rule that entered or left since
    has its lhs in one of them.  A rule that left was reduced, or replaced
    by one with the same lhs, and interreduction never makes a reducible
    word irreducible; so its lhs holds the lhs of a rule that entered, and
    only those are tested.  Joins are keyed by their two rules' ids and the
    position.  After each interreduction the entries that fail the test go,
    and so do those of rules that left, so an id reused by a new rule finds
    nothing."""
    s.require_oriented()
    budget = Budget(budget_limit)
    alphabet = s.alphabet
    encode = _encoder(alphabet)
    current = _interreduce(alphabet, s.rules)
    joins = {}  # (id(rule_i), id(rule_j), position) -> (trace text, charge)
    try:
        while True:
            rules = current.rules
            for left, right, (_, i, j, p) in critical_pairs(current):
                key = (id(rules[i]), id(rules[j]), p)
                join = joins.get(key)
                # a replay charges the whole join, a new join its attempt
                if not budget.spend(join[1] if join else 1):
                    raise BudgetExhausted(current)
                if join:
                    continue
                trace = [left]
                u = normalize(current, left, budget, trace)
                trace.append(right)
                v = normalize(current, right, budget, trace)
                if u != v:
                    break
                joins[key] = ("\0".join(map(encode, trace)), len(trace) - 1)
            else:
                return CompletionResult(
                    current.with_status(COMPLETE), True, budget.spent)
            current = _interreduce(
                alphabet, rules + (_rule(alphabet, u, v),), rules)
            old, live = set(map(id, rules)), set(map(id, current.rules))
            entered = [encode(r.lhs) for r in current.rules
                       if id(r) not in old]
            joins = {key: join for key, join in joins.items()
                     if key[0] in live and key[1] in live
                     and not any(lhs in join[0] for lhs in entered)}
    except BudgetExhausted:
        return CompletionResult(
            current.with_status(PARTIAL), False, budget.spent)


def _ball_with_parents(p: Presentation, w: Word, max_len: int, budget: Budget):
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


def _witness_path(parents, target):
    path = []
    cur = target
    while cur is not None:
        path.append(cur)
        cur = parents[cur]
    path.reverse()
    return path


def default_ball_cap(p: Presentation, u: Word, v: Word) -> int:
    longest = 1
    for lhs, rhs in p.relations:
        longest = max(longest, len(lhs), len(rhs))
    return max(len(u), len(v)) + 2 * longest


def equal_words(ctx, u: Word, v: Word, budget_limit=DEFAULT_BUDGET,
                max_len: int = None) -> Verdict:
    """Three-valued word equality.

    With a completed RewriteSystem, compares normal forms (may refute).
    With a Presentation, runs a budgeted congruence-ball search from u and
    answers proven or unknown; budget exhaustion never refutes.
    """
    if isinstance(ctx, RewriteSystem):
        if ctx.status == COMPLETE:
            budget = Budget(budget_limit)
            tu, tv = [u], [v]
            nu = _rewrite(ctx, u, budget, tu)
            nv = _rewrite(ctx, v, budget, tv)
            if nu == nv:
                return Verdict("proven", tu + tv[::-1], budget.spent)
            return Verdict("refuted", [nu, nv], budget.spent)
        raise UnorientedSystemError(
            "equal_words needs a completed system or a presentation")

    p: Presentation = ctx
    if u == v:
        return Verdict("proven", [u], 0)
    cap = max_len if max_len is not None else default_ball_cap(p, u, v)
    budget = Budget(budget_limit)
    try:
        parents = _ball_with_parents(p, u, cap, budget)
    except BudgetExhausted as e:
        parents = e.partial
    if v in parents:
        return Verdict("proven", _witness_path(parents, v), budget.spent)
    # the ball may be closed under the cap, but equality could still need
    # longer intermediate words, so absence proves nothing
    return Verdict("unknown", None, budget.spent)


def irreducible_words(s: RewriteSystem, max_len: int):
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
