"""String rewriting over words: reduction, critical pairs, budgeted
Knuth-Bendix completion, and three-valued word equality.

The reduction order is always shortlex over the alphabet order.  All
searches are budgeted; one rule application or one critical-pair join
attempt costs one step, so results are machine independent.  Redexes are
looked up in a trie over the rule left sides.  A fixed system builds it
once; a completion keeps one for its whole run and its result, inserting
a rule's lhs, and encoding its sides, once, when the rule enters, and
deleting it when the rule leaves.  Completion replays the joins it made
before and interreduction re-tests only the rules a new rule can reduce,
with the steps, charges and results of doing all the work again.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .words import Alphabet, Presentation, Word, format_word, longest_side

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
    the ranks of the rules whose lhs ends at the node and of those whose lhs
    passes strictly below it, both ascending.  rules maps each rank to its
    rule, and order lists the ranks as the system lists its rules.  A fixed
    system ranks a rule by its position, so leftmost, which takes the lowest
    rank among the rules matching at one position, takes the lowest index."""

    def __init__(self, rules):
        self.root, self.rules, self.order = [{}, [], []], {}, range(len(rules))
        self.longest = 0  # never less than the longest lhs
        for rank, rule in enumerate(rules):
            self.add(rank, rule)

    def add(self, rank, rule):
        node = self.root
        for a in rule.lhs:
            insort(node[2], rank)
            child = node[0].get(a)
            if child is None:
                child = node[0][a] = [{}, [], []]
            node = child
        insort(node[1], rank)
        self.rules[rank] = rule
        self.longest = max(self.longest, len(rule.lhs))

    def leftmost(self, w: Word, start=0, skip=None):
        """(position, rank) of the leftmost redex at or after start, lowest
        rank first, ignoring the rule of rank skip; None if there is none."""
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
                    # ascending, so the first rank other than skip is lowest
                    for rank in ending:
                        if rank != skip:
                            if hit is None or rank < hit:
                                hit = rank
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


class _LiveIndex(_Index):
    """The index of one completion.  A rule enters under the rank
    len(lhs) << 32 | serial, serial counting the rules before it, and text
    maps the rank to the rule's sides, encoded once, then.  keys lists
    (len(lhs), lhs text, rank) of the live rules ascending, as the stable
    sort of interreduction orders them, and leftmost answers as on that
    order ranked by position: the rules matching at one position have
    nested left sides, so a shorter lhs comes first, and rules of one length
    share their lhs and keep their entry order."""

    def __init__(self, alphabet: Alphabet):
        super().__init__(())
        # words as text, one character per letter, so that a factor test is
        # a substring test; no letter is "\0", which separates words
        code = {a: chr(alphabet.rank(a) + 1) for a in alphabet.letters}
        self.encode = lambda w: "".join(map(code.__getitem__, w))
        self.alphabet, self.serial, self.keys, self.text = alphabet, 0, [], {}

    def key(self, rank):
        return rank >> 32, self.text[rank][:rank >> 32], rank

    def enter(self, rule) -> int:
        lhs = self.encode(rule.lhs)
        rank = len(lhs) << 32 | self.serial
        self.serial += 1
        self.add(rank, rule)
        self.text[rank] = lhs + "\0" + self.encode(rule.rhs)
        insort(self.keys, self.key(rank))
        return rank

    def leave(self, rank):
        """Delete the rule, and the trie nodes that only its lhs kept."""
        del self.keys[bisect_left(self.keys, self.key(rank))]
        del self.text[rank]
        lhs = self.rules.pop(rank).lhs
        path = [self.root]
        for a in lhs:
            below = path[-1][2]
            del below[bisect_left(below, rank)]
            path.append(path[-1][0][a])
        path[-1][1].remove(rank)
        for k in range(len(lhs), 0, -1):
            if path[k][0] or path[k][1]:
                break
            del path[k - 1][0][lhs[k - 1]]

    def system(self) -> RewriteSystem:
        self.order = [key[2] for key in self.keys]
        out = RewriteSystem(self.alphabet, tuple(
            map(self.rules.__getitem__, self.order)), ORIENTED)
        out.__dict__["_index"] = self
        return out


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
            out["witness"] = list(map(format_word, self.witness))
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


def orient_system(p: Presentation) -> RewriteSystem:
    """Orient a presentation into shortlex-decreasing rules."""
    rules = tuple(_rule(p.alphabet, u, v) for u, v in p.relations if u != v)
    return RewriteSystem(p.alphabet, rules, ORIENTED)


def _rewrite(index: _Index, w: Word, budget: Budget = None,
             trace: list = None, skip=None, pos=0) -> Word:
    """Rewrite the leftmost redex, lowest rank first, to a fixed point,
    one budget step per rewrite, never applying the rule of rank skip; each
    new word is appended to trace.  No redex may start before pos."""
    back = index.longest - 1
    while True:
        hit = index.leftmost(w, pos, skip)
        if hit is None:
            return w
        pos, rank = hit
        if budget is not None and not budget.spend():
            raise BudgetExhausted(w)
        rule = index.rules[rank]
        w = w[:pos] + rule.rhs + w[pos + len(rule.lhs):]
        if trace is not None:
            trace.append(w)
        # a redex starting further left would lie in the unchanged prefix
        pos = max(0, pos - back)


def normalize(s: RewriteSystem, w: Word, budget: Budget = None,
              trace: list = None, start=0) -> Word:
    """Reduce w, where no redex starts before start, to a fixed point,
    appending each new word to trace.  Terminates: rules shortlex-decrease."""
    s.require_oriented()
    return _rewrite(s._index, w, budget, trace, pos=start)


def extension_solver(s: RewriteSystem):
    """w -> normalize(s, w) for a w whose prefix w[:-1] is irreducible, as
    a Cayley ball's vertex times a letter.  A redex of w ends at its last
    letter or lies in that prefix, which has none: so w is irreducible, and
    on a complete s its own normal form, iff no lhs is a suffix of it.  A
    trie of the reversed left sides, built once and walked from the last
    letter, tests this; only a w with an lhs suffix is rewritten."""
    s.require_oriented()
    trie = {}               # letter -> child; None -> True at an lhs end
    for rule in s.rules:
        node = trie
        for a in reversed(rule.lhs):
            node = node.setdefault(a, {})
        node[None] = True

    def solve(w: Word) -> Word:
        node = trie
        for a in reversed(w):
            node = node.get(a)
            if node is None:
                return w
            if None in node:
                return normalize(s, w, start=max(0, len(w) - s._index.longest))
        return w

    return solve


def critical_pairs(s: RewriteSystem):
    """All overlap and containment critical pairs, one-step reduced both ways,
    generated by rule_i, then rule_j, then position.

    Each entry is (left, right, provenance) where provenance is
    (kind, rule_i, rule_j, position) and position is the start of rule_j's
    lhs inside the superposition word.
    """
    s.require_oriented()
    rules = s.rules
    index = s._index
    at = {rank: j for j, rank in enumerate(index.order)}  # rank -> position
    for i, r1 in enumerate(rules):
        l1 = r1.lhs
        found = []
        for p in range(len(l1)):
            node = index.root
            for a in l1[p:]:
                node = node[0].get(a)
                if node is None:
                    break
                # containment: l2 = l1[p:p + len(l2)] (distinct rules)
                for j in map(at.__getitem__, node[1]):
                    if j != i:
                        l2 = rules[j].lhs
                        found.append((j, p, "contain", r1.rhs,
                                      l1[:p] + rules[j].rhs + l1[p + len(l2):]))
            else:
                # proper overlap: the suffix l1[p:] is a proper prefix of l2
                if p:
                    for j in map(at.__getitem__, node[2]):
                        l2 = rules[j].lhs
                        found.append((j, p, "overlap",
                                      r1.rhs + l2[len(l1) - p:],
                                      l1[:p] + rules[j].rhs))
        found.sort(key=lambda t: (t[0], t[1]))
        for j, p, kind, left, right in found:
            yield left, right, (kind, i, j, p)


def _interreduce(alphabet: Alphabet, rules,
                 index: _LiveIndex = None) -> RewriteSystem:
    """Canonical interreduced rule set: no lhs/rhs reducible by another rule.

    The rules enter index (the live index of an earlier call) or a new one.
    The rules already in the index are known irreducible by each other;
    rules leaving reduce nothing, so such a rule is tested again only after
    a rule whose lhs occurs in its sides enters.  Each round reduces the
    first reducible rule in key order through the index, skipping the rule
    itself; the system of the round that changes nothing shares the index."""
    index = index or _LiveIndex(alphabet)
    entered = list(map(index.enter, rules))
    dirty = set(entered)
    while True:
        for new in entered:
            lhs = index.key(new)[1]
            dirty.update(r for r, text in index.text.items() if lhs in text)
        entered = ()
        for rank in sorted(dirty, key=index.key):
            rule = index.rules[rank]
            lhs = _rewrite(index, rule.lhs, skip=rank)
            rhs = _rewrite(index, rule.rhs, skip=rank)
            dirty.discard(rank)
            if lhs == rule.lhs and rhs == rule.rhs:
                continue
            index.leave(rank)
            # both sides are irreducible by the remaining rules, so none of
            # them has the new rule's lhs: the new rule duplicates none
            if lhs != rhs:
                entered = (index.enter(_rule(alphabet, lhs, rhs)),)
                dirty.update(entered)
            break
        else:
            return index.system()


def knuth_bendix(s: RewriteSystem, budget_limit=DEFAULT_BUDGET) -> CompletionResult:
    """Budgeted completion.  Every added rule is a consequence of the input,
    so the congruence is preserved whether or not completion finishes.  All
    rounds share one live index, which interreduction changes in place.

    A pair joined in an earlier round is replayed: its charge, 1 + its
    rewrites, is spent at once and nothing is normalized.  The replay is
    exact.  In an interreduced system no lhs is a factor of another, so at
    most one redex starts at any position and the leftmost one does not
    depend on the rule order; a join therefore passes through the same
    words, with the same charges, unless a rule that entered or left since
    has its lhs in one of them.  A rule that left was reduced, or replaced
    by one with the same lhs, and interreduction never makes a reducible
    word irreducible; so its lhs holds the lhs of a rule that entered, and
    only those are tested.  Joins are keyed by their two rules' ranks and
    the position.  After each interreduction the entries that fail the
    test go, and so do those of rules that left; no rank is given twice."""
    s.require_oriented()
    budget = Budget(budget_limit)
    alphabet = s.alphabet
    current = _interreduce(alphabet, s.rules)
    index = current._index
    joins = {}  # (rank_i, rank_j, position) -> (trace text, charge)
    try:
        while True:
            order = index.order
            for left, right, (_, i, j, p) in critical_pairs(current):
                key = (order[i], order[j], p)
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
                joins[key] = ("\0".join(map(index.encode, trace)),
                              len(trace) - 1)
            else:
                return CompletionResult(
                    current.with_status(COMPLETE), True, budget.spent)
            old = set(index.order)
            current = _interreduce(
                alphabet, (_rule(alphabet, u, v),), index)
            entered = [index.key(rank)[1] for rank in index.order
                       if rank not in old]
            joins = {key: join for key, join in joins.items()
                     if key[0] in index.rules and key[1] in index.rules
                     and not any(lhs in join[0] for lhs in entered)}
    except BudgetExhausted:
        return CompletionResult(
            current.with_status(PARTIAL), False, budget.spent)


def _ball_with_parents(p: Presentation, w: Word, max_len: int, budget: Budget):
    """BFS from w under both moves of every relation, keeping the words up
    to max_len with the word each was first reached from.  Each match costs
    a step, even one whose word would pass max_len and is never built.  One
    charge per word pays for all its matches and equals a charge per match
    in (relation, direction, position) order: if not all fit, exactly those
    paid for are applied, so the partial ball that BudgetExhausted carries,
    its order and budget.spent are those of per-match charges."""
    moves = [(a, a and a[0], b, len(a), len(b) - len(a))
             for lhs, rhs in p.relations for a, b in ((lhs, rhs), (rhs, lhs))]
    parents = {w: None}
    queue = deque([w])
    while queue:
        cur = queue.popleft()
        n = len(cur)
        hits = [[i for i in range(n - la + 1)
                 if cur[i] == a0 and cur[i:i + la] == a]
                if la else range(n + 1) for a, a0, _, la, _ in moves]
        total = sum(map(len, hits))
        before, fits = budget.spent, budget.spend(total)
        paid = total if fits else budget.spent - before
        for (_, _, b, la, grow), at in zip(moves, hits):
            if n + grow <= max_len:
                for i in at[:max(paid, 0)]:
                    nxt = cur[:i] + b + cur[i + la:]
                    if nxt not in parents:
                        parents[nxt] = cur
                        queue.append(nxt)
            paid -= len(at)
        if not fits:
            raise BudgetExhausted(parents)
    return parents


def _witness_path(parents, target):
    path = [target]
    while parents[path[-1]] is not None:
        path.append(parents[path[-1]])
    return path[::-1]


def equal_words(ctx, u: Word, v: Word, budget_limit=DEFAULT_BUDGET) -> Verdict:
    """Three-valued word equality.

    With a completed RewriteSystem, compares normal forms (may refute).
    With a Presentation, runs a budgeted congruence-ball search from u and
    answers proven or unknown; budget exhaustion never refutes.
    """
    if isinstance(ctx, RewriteSystem):
        if ctx.status == COMPLETE:
            budget = Budget(budget_limit)
            tu, tv = [u], [v]
            nu = _rewrite(ctx._index, u, budget, tu)
            nv = _rewrite(ctx._index, v, budget, tv)
            if nu == nv:
                return Verdict("proven", tu + tv[::-1], budget.spent)
            return Verdict("refuted", [nu, nv], budget.spent)
        raise UnorientedSystemError(
            "equal_words needs a completed system or a presentation")

    p: Presentation = ctx
    if u == v:
        return Verdict("proven", [u], 0)
    cap = max(len(u), len(v)) + 2 * max(1, longest_side(p))
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
