"""Independent checks of monoidkit outputs.

Nothing here imports monoidkit: every check recomputes what it needs with
its own small algorithms (substring BFS, permutation maps, congruence BFS,
rank modulo a prime, a one-rule rewriter) or tests a property the method
must have.  A check returns quietly on a correct output and raises
CheckFailed otherwise.

Words are tuples of letter names, as in monoidkit.
"""

from __future__ import annotations

from collections import deque

PRIME = (1 << 61) - 1


class CheckFailed(Exception):
    """A wrong output."""


class KnownFault(Exception):
    """A failure with a known cause in the program, counted as failed."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


def parse_word(text):
    return () if text == "1" else tuple(text.split())


# ---------------------------------------------------------------------------
# words and rewriting


def primitive_root_exponent(word):
    """The k with word = p^k and p primitive: the smallest period d with
    d | n gives k = n / d."""
    n = len(word)
    for d in range(1, n + 1):
        if n % d == 0 and all(word[i] == word[i % d] for i in range(n)):
            return n // d
    raise CheckFailed("empty relator")


def irreducible_words(lhs_list, letters, limit):
    """BFS over words none of whose factors is a rule left side.  Every
    prefix of an irreducible word is irreducible, so extending the
    irreducible words by one letter at a time finds them all."""
    lhs_list = [tuple(l) for l in lhs_list]
    found = [()]
    frontier = [()]
    while frontier:
        nxt = []
        for w in frontier:
            for a in letters:
                v = w + (a,)
                if any(v[len(v) - len(l):] == l for l in lhs_list):
                    continue
                found.append(v)
                nxt.append(v)
                require(len(found) <= limit,
                        f"more than {limit} irreducible words")
        frontier = nxt
    return found


def congruence_class_contains(relations, start, target, max_len, limit):
    """BFS from start under both directions of every relation, through
    words of length at most max_len; True once target is reached."""
    start, target = tuple(start), tuple(target)
    if start == target:
        return True
    moves = []
    for lhs, rhs in relations:
        moves.append((tuple(lhs), tuple(rhs)))
        moves.append((tuple(rhs), tuple(lhs)))
    seen = {start}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for a, b in moves:
            la = len(a)
            for pos in range(len(cur) - la + 1):
                if cur[pos:pos + la] != a:
                    continue
                nxt = cur[:pos] + b + cur[pos + la:]
                if len(nxt) > max_len or nxt in seen:
                    continue
                if nxt == target:
                    return True
                seen.add(nxt)
                require(len(seen) <= limit,
                        f"congruence BFS passed {limit} words")
                queue.append(nxt)
    return False


def rewrite_to_normal_form(rules, word):
    """Leftmost rewriting with a complete system given as (lhs, rhs)
    pairs; every rule must shorten the word or keep its length."""
    word = tuple(word)
    changed = True
    while changed:
        changed = False
        for pos in range(len(word)):
            for lhs, rhs in rules:
                if word[pos:pos + len(lhs)] == lhs:
                    word = word[:pos] + rhs + word[pos + len(lhs):]
                    changed = True
                    break
            if changed:
                break
    return word


# ---------------------------------------------------------------------------
# linear algebra modulo a prime


def parse_triplets(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    rows, cols, nnz = (int(x) for x in lines[0].split())
    require(len(lines) == nnz + 1, "triplet count does not match header")
    entries = {}
    for ln in lines[1:]:
        r, c, v = (int(x) for x in ln.split())
        require(0 <= r < rows and 0 <= c < cols, "triplet out of range")
        entries[r, c] = v
    return rows, cols, entries


def rank_mod_p(rows, cols, entries, p=PRIME):
    """Rank over GF(p) by sparse Gaussian elimination on columns, taking
    the pivot column with the fewest non-zeros first."""
    by_col = {}
    for (r, c), v in entries.items():
        v %= p
        if v:
            by_col.setdefault(c, {})[r] = v
    pivots = {}            # pivot row -> reduced column holding it
    rank = 0
    for c in sorted(by_col, key=lambda c: len(by_col[c])):
        col = dict(by_col[c])
        while col:
            r = min(col)
            if r not in pivots:
                inv = pow(col[r], p - 2, p)
                pivots[r] = {k: v * inv % p for k, v in col.items()}
                rank += 1
                break
            f = col[r]
            for k, v in pivots[r].items():
                nv = (col.get(k, 0) - f * v) % p
                if nv:
                    col[k] = nv
                else:
                    col.pop(k, None)
    return rank


# ---------------------------------------------------------------------------
# complete


def permutation_group_order(generators, limit):
    """Order of the group generated by permutations given as tuples."""
    identity = tuple(range(len(next(iter(generators)))))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in generators:
                q = tuple(g[i] for i in p)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
                    require(len(seen) <= limit, "permutation group too large")
        frontier = nxt
    return len(seen)


def check_coxeter_completion(payload, rc, perms):
    """A completed system for a finite Coxeter group given with a faithful
    permutation image of each generator: the irreducible words are exactly
    as many as the group's elements and map bijectively onto them."""
    require(rc == 0 and payload["completed"], "completion did not finish")
    order = permutation_group_order(list(perms.values()), 10**5)
    lhs_list = [parse_word(r["lhs"]) for r in payload["rules"]]
    words = irreducible_words(lhs_list, sorted(perms), 10 * order)
    require(len(words) == order,
            f"{len(words)} irreducible words for a group of order {order}")
    images = set()
    for w in words:
        p = tuple(range(len(next(iter(perms.values())))))
        for a in w:
            p = tuple(perms[a][i] for i in p)
        images.add(p)
    require(len(images) == len(words),
            "two irreducible words name the same group element")


def check_homogeneous_completion(payload, rc, relations, limit=200000):
    """A partial or complete system for a length-preserving presentation:
    every rule joins two words of equal length in one congruence class."""
    require(rc in (0, 3), f"exit code {rc}")
    require(payload["completed"] == (rc == 0), "exit code and status disagree")
    require(payload["rules"], "no rules")
    for rule in payload["rules"]:
        lhs, rhs = parse_word(rule["lhs"]), parse_word(rule["rhs"])
        require(len(lhs) == len(rhs), f"rule {rule} changes length")
        require(congruence_class_contains(relations, lhs, rhs, len(lhs),
                                          limit),
                f"rule {rule} is not a consequence")


# ---------------------------------------------------------------------------
# special


def check_special_analysis(payload, rc, relator, limit=200000):
    require(rc == 0, f"exit code {rc}")
    relator = tuple(relator)
    k = primitive_root_exponent(relator)
    require(payload["torsion"] == {"k": k, "torsion": k > 1},
            "torsion flag differs from the primitive root")
    delta = [parse_word(d) for d in payload["delta"]]
    require(len(set(delta)) == len(delta), "delta repeats a word")
    for u in delta:
        require(u, "delta holds the empty word")
        for v in delta:
            require(u == v or v[:len(u)] != u,
                    f"delta is not a prefix code: {u} prefixes {v}")
    if payload["certified"]:
        rest = relator
        while rest:
            hit = [d for d in delta if rest[:len(d)] == d]
            require(hit, "certified relator does not parse as a delta word")
            rest = rest[len(hit[0]):]
    classes = [[parse_word(d) for d in cls] for cls in payload["partition"]]
    require(sorted(w for cls in classes for w in cls) == sorted(delta),
            "partition does not cover delta")
    relations = [(relator, ())]
    for cls in classes:
        for other in cls[1:]:
            cap = max(len(cls[0]), len(other)) + 2 * len(relator)
            require(congruence_class_contains(relations, cls[0], other, cap,
                                              limit),
                    f"{cls[0]} and {other} are not shown equal")


def classify_check_tree(payload, rc, radius, margin):
    """A check-tree run on a one-relator monoid.  The Cayley graph of a
    one-relator special monoid condenses to a rooted tree with unique
    entrances, so a clean run exits 0 with no violation.  Violations whose
    entering vertex lies outside the interior (its normal form, a shortest
    representative, is longer than radius - margin) come from components
    the program should have set aside as partial: KnownFault."""
    require(rc in (0, 1), f"exit code {rc}")
    require(payload["is_tree"]["verdict"] in ("proven", "unknown"),
            "the condensation is refuted as a tree")
    violations = payload["entrance_violations"]
    require((rc == 1) == bool(violations), "exit code and violations disagree")
    if not violations:
        return
    for v in violations:
        require(v["kind"] == "entrance_not_transversal",
                f"unexpected violation {v['kind']}")
        require(len(parse_word(v["label"])) > radius - margin,
                f"violation at interior vertex {v['label']}")
    raise KnownFault(f"{len(violations)} spurious entrance violations")


# ---------------------------------------------------------------------------
# cayley-homology


def betti_numbers(chain_payload):
    rows1, cols1, b1 = parse_triplets(chain_payload["boundary1"])
    rows2, cols2, b2 = parse_triplets(chain_payload["boundary2"])
    require(cols1 == rows2, "boundary shapes do not chain")
    r1 = rank_mod_p(rows1, cols1, b1)
    r2 = rank_mod_p(rows2, cols2, b2)
    return [rows1 - r1, cols1 - r1 - r2, cols2 - r2]


def check_homology(hom_payload, hom_rc, chain_payload, chain_rc, relator):
    require(hom_rc == 0 and chain_rc == 0, "non-zero exit code")
    require(chain_payload["composite_zero"], "boundary composite is not zero")
    betti = [h["betti"] for h in hom_payload["homology"]]
    require(betti == betti_numbers(chain_payload),
            f"betti numbers {betti} differ from the ranks modulo a prime")
    require(betti[0] == 1, "betti_0 is not 1")
    require(hom_payload["exactness"]["total_defect"] == 0, "exactness defect")
    power = primitive_root_exponent(tuple(relator)) > 1
    require((betti[2] > 0) == power,
            "betti_2 is non-zero exactly when the relator is a proper power")


# ---------------------------------------------------------------------------
# tensor


def check_op_normal_forms(nfs, rules):
    """nfs maps each word to its Otto-Pride normal form; two words have
    the same normal form exactly when the complete one-rule system for the
    extension rewrites them to the same word."""
    by_nf, by_word = {}, {}
    for w, nf in nfs.items():
        by_nf.setdefault(nf, set()).add(w)
        by_word.setdefault(rewrite_to_normal_form(rules, w), set()).add(w)
    require(sorted(map(sorted, by_nf.values()))
            == sorted(map(sorted, by_word.values())),
            "normal forms and rewriting disagree on equality")


def check_op_products(triples, rules):
    """triples holds (x, y, z, (xy)z, x(yz), xy) as words: the product is
    associative and xy equals the concatenation in the extension."""
    for x, y, z, left, right, xy in triples:
        require(left == right,
                f"op_multiply is not associative on {x},{y},{z}")
        require(rewrite_to_normal_form(rules, xy)
                == rewrite_to_normal_form(rules, x + y),
                f"product of {x} and {y} is wrong")


def interior_forest(graph):
    """Acyclicity of the interior subgraph, by a union-find of its own."""
    interior = {v["id"] for v in graph["vertices"] if v["interior"]}
    parent = {v: v for v in interior}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in graph["edges"]:
        if not (e["interior"] and e["tail"] in interior
                and e["head"] in interior):
            continue
        a, b = find(e["tail"]), find(e["head"])
        if a == b:
            return False
        parent[a] = b
    return True


def check_bass_serre(payload, rc):
    require(rc == 0, f"exit code {rc}")
    require(payload["forest_by_search"] and payload["forest_by_rank"],
            "the interior Bass-Serre graph is not a forest")
    require(interior_forest(payload), "the interior graph has a cycle")
    require(any(v["interior"] for v in payload["vertices"]),
            "no interior vertex")


def check_derivations(payload, rc):
    require(rc == 0, f"exit code {rc}")
    for key in ("derivation", "beta"):
        require(payload[key]["passed"] and not payload[key]["failures"],
                f"{key} check failed")
    require(payload["derivation"]["checked"] > 0, "no derivation checked")
