"""Command line front end.

Every subcommand reads files or flags, writes one deterministic primary
artifact (JSON or DOT) to --out or stdout, and reports problems as JSON
diagnostics on stderr.  Exit codes: 0 success, 1 verification failure,
2 input error, 3 budget exhausted (partial artifacts are still written).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii

from .words import (
    Columns,
    WordError,
    format_word,
    json_checked,
    json_field,
    longest_side,
    parse_presentation,
    parse_word_tokens,
    presentation_from_json,
    presentation_to_json,
    validate_special,
)
from .rewriting import (
    DEFAULT_BUDGET,
    Budget,
    BudgetExhausted,
    RewritingError,
    equal_words,
    extension_solver,
    knuth_bendix,
    normalize,
    orient_system,
)
from .special import (
    compute_delta,
    right_units_presentation,
    torsion_flag,
    units_presentation,
)
from .cayley import (
    CayleyError,
    cayley_ball,
    cayley_complex_chain,
    check_rooted_tree,
    check_unique_entrance,
    condensation_matches_hasse,
    contract_tree,
    relator_cells,
    scc_condense,
)
from .homology import HomologyError, chain_homology, exactness_check
from .constructions import (
    AmalgamSpec,
    ConstructionError,
    IncompleteSystemError,
    OttoPrideSpec,
    amalgam_context,
    amalgam_derivation,
    amalgam_presentation,
    bass_serre_ball_amalgam,
    bass_serre_ball_op,
    bass_serre_forest_bi,
    check_beta_section,
    check_derivation_wellformed,
    completed_solver,
    free_product,
    hnn_presentation,
    op_context,
    op_derivation,
    op_forest_derivation,
    otto_pride_presentation,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3

# what a bad input raises; any other exception is a bug and not exit 2.
# SpecialAnalysisError and ConstructionError are WordErrors.
INPUT_ERRORS = (WordError, RewritingError, CayleyError, HomologyError,
                OSError, json.JSONDecodeError, UnicodeDecodeError)


def _diag(kind, **details):
    sys.stderr.write(json.dumps({"kind": kind, **details}, sort_keys=True)
                     + "\n")


def _emit(args, text):
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


# how json.dumps writes each scalar type an artifact carries
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__,
            bool: {True: "true", False: "false"}.__getitem__,
            type(None): lambda _: "null"}


def _json_text(o, newline="\n"):
    """json.dumps(o, sort_keys=True, indent=2) for dicts with str keys,
    lists, tuples, str, int, bool, None and Columns (as their rows),
    without the stdlib's slow pure-Python encoder for indented text."""
    scalar = _SCALARS.get(type(o))
    if scalar:
        return scalar(o)
    if type(o) is Columns:
        return _records_text(o, newline) or _json_text(
            [dict(zip(o, row)) for row in zip(*o.values())], newline)
    inner = newline + "  "
    items = []
    if isinstance(o, dict):
        for k in sorted(o):     # a key that is no str raises TypeError
            scalar = _SCALARS.get(type(o[k]))
            items.append(encode_basestring_ascii(k) + ": " + (
                scalar(o[k]) if scalar else _json_text(o[k], inner)))
        brackets = "{}"
    elif isinstance(o, (list, tuple)):
        # from 8 dicts of one key set on, writing by columns is faster
        keys = len(o) >= 8 and type(o[0]) is dict and o[0].keys()
        if keys and all(type(r) is dict and r.keys() == keys for r in o):
            text = _records_text({k: [r[k] for r in o] for k in keys}, newline)
            if text:
                return text
        for v in o:
            scalar = _SCALARS.get(type(v))
            items.append(scalar(v) if scalar else _json_text(v, inner))
        brackets = "[]"
    else:
        raise TypeError(f"not an artifact value: {type(o).__name__}")
    if not items:
        return brackets
    return (brackets[0] + inner + ("," + inner).join(items) + newline
            + brackets[1])


def _records_text(columns, newline):
    """_json_text of the records given as columns (key -> values): one join
    of their pieces, per row each key and then its value; None when a value
    is no scalar.  A key that is no str raises TypeError, as elsewhere."""
    keys = sorted(columns)
    rows, step = len(columns[keys[0]]), 2 * len(keys)
    if not rows:
        return "[]"
    inner, field = newline + "  ", newline + "    "
    pieces = [None] * (rows * step)
    for i, column in enumerate(map(columns.__getitem__, keys)):
        kinds = set(map(type, column))
        if not kinds <= _SCALARS.keys():
            return None
        key = field + encode_basestring_ascii(keys[i]) + ": "
        pieces[2 * i::step] = [
            ("," if i else inner + "}," + inner + "{") + key] * rows
        pieces[2 * i + 1::step] = (
            map(_SCALARS[kinds.pop()], column) if len(kinds) == 1
            else [_SCALARS[type(v)](v) for v in column])
    pieces[0] = "{" + field + encode_basestring_ascii(keys[0]) + ": "
    return "[" + inner + "".join(pieces) + inner + "}" + newline + "]"


def _emit_json(args, payload):
    _emit(args, _json_text(payload) + "\n")


def _load_presentation(path, order=None):
    with open(path) as f:
        return parse_presentation(f.read(), order=order)


def _word(s):
    return parse_word_tokens(json_checked(s, str, "a word").split())


def _unknowns(where, verdict):
    if verdict.value != "unknown":
        return []
    return [{"where": where, "verdict": "unknown",
             "budget_spent": verdict.budget_spent}]


# ---------------------------------------------------------------------------
# construction spec files


def _words(data, key):
    return tuple(_word(g) for g in json_field(data, key))


def _word_map(data, key, read_key=_word):
    return {read_key(k): _word(v) for k, v in json_field(data, key).items()}


def _free_product_spec(data):
    return (presentation_from_json(json_field(data, "m1")),
            presentation_from_json(json_field(data, "m2")))


def _amalgam_spec(data):
    return AmalgamSpec(*_free_product_spec(data),
                       presentation_from_json(json_field(data, "w")),
                       _word_map(data, "f1", str), _word_map(data, "f2", str))


def _op_spec(data):
    basis = data.get("free_basis")
    return OttoPrideSpec(
        presentation_from_json(json_field(data, "m")),
        _words(data, "a_gens"), _word_map(data, "phi"),
        free_basis=tuple(_word(c) for c in basis) if basis else None,
        stable_letter=data.get("stable_letter", "t"))


def _hnn_spec(data):
    """The arguments of hnn_presentation, in order."""
    return (presentation_from_json(json_field(data, "m")),
            _words(data, "a_gens"), _words(data, "b_gens"),
            _word_map(data, "phi"), data.get("stable_letter", "t"))


SPEC_READERS = {"free-product": _free_product_spec, "amalgam": _amalgam_spec,
                "otto-pride": _op_spec, "hnn": _hnn_spec}
# the JSON type of each spec field that is no presentation (words are
# strings, checked by _word)
SPEC_FIELDS = {"a_gens": list, "b_gens": list, "free_basis": list,
               "phi": dict, "f1": dict, "f2": dict, "stable_letter": str}


def _load_spec(args):
    """The --spec file read as the spec of --kind.  A file that names
    another kind is an input error; one that names none is taken as
    --kind."""
    with open(args.spec) as f:
        data = json_checked(json.load(f), dict, "a spec file")
    kind = data.get("kind", args.kind)
    if kind != args.kind:
        raise ConstructionError(
            f"spec file kind {kind!r} does not match --kind {args.kind!r}")
    for key, shape in SPEC_FIELDS.items():   # an absent field is fine
        json_checked(data.get(key, shape()), shape, key)
    return SPEC_READERS[kind](data)


# ---------------------------------------------------------------------------
# subcommands


def cmd_parse(args):
    p = _load_presentation(args.presentation)
    payload = {"presentation": presentation_to_json(p)}
    try:
        sp = validate_special(p)
        payload["special"] = True
        payload["relators"] = [format_word(r) for r in sp.relators]
    except WordError:
        payload["special"] = False
    _emit_json(args, payload)
    return EXIT_OK


def cmd_complete(args):
    p = _load_presentation(args.presentation, args.order)
    result = knuth_bendix(orient_system(p), args.budget)
    payload = {
        "completed": result.completed,
        "steps": result.steps,
        "rules": [{"lhs": format_word(r.lhs), "rhs": format_word(r.rhs)}
                  for r in result.system.rules],
    }
    _emit_json(args, payload)
    if not result.completed:
        _diag("budget_exhausted", steps=result.steps)
        return EXIT_BUDGET
    return EXIT_OK


def cmd_rewrite(args):
    system = orient_system(_load_presentation(args.system, args.order))
    word = _word(args.word)
    system.alphabet.check_word(word)
    trace = [word]
    try:
        normalize(system, word, Budget(args.budget), trace)
    except BudgetExhausted as e:
        _emit_json(args, {"input": format_word(word),
                          "partial": format_word(e.partial)})
        _diag("budget_exhausted")
        return EXIT_BUDGET
    _emit_json(args, {
        "input": format_word(word),
        "normal_form": format_word(trace[-1]),
        "trace": [format_word(w) for w in trace],
    })
    return EXIT_OK


def cmd_equal(args):
    p = _load_presentation(args.presentation, args.order)
    u, v = _word(args.u), _word(args.v)
    p.alphabet.check_word(u)
    p.alphabet.check_word(v)
    result = knuth_bendix(orient_system(p), args.budget)
    ctx = result.system if result.completed else p
    verdict = equal_words(ctx, u, v, args.budget)
    payload = verdict.to_json()
    payload["unknowns"] = _unknowns("equal", verdict)
    _emit_json(args, payload)
    if verdict.proven:
        return EXIT_OK
    if verdict.refuted:
        return EXIT_VERIFY
    return EXIT_BUDGET


def cmd_analyze_special(args):
    sp = validate_special(_load_presentation(args.presentation, args.order))
    ua = compute_delta(sp, budget_limit=args.budget)
    units = units_presentation(ua)
    right, zmap = right_units_presentation(ua)
    payload = {
        "delta": [format_word(d) for d in ua.delta],
        "partition": [[format_word(d) for d in cls] for cls in ua.partition],
        "units": presentation_to_json(units),
        "units_completed": ua.units_completed,
        "right_units": {
            "presentation": presentation_to_json(right),
            "zmap": {z: format_word(w) for z, w in sorted(zmap.items())},
        },
        "I": [format_word(w) for w in ua.I],
        "I0": [format_word(w) for w in ua.I0],
        "torsion": torsion_flag(sp) if len(sp.relators) == 1 else None,
        "certified": ua.certified,
        "diagnostics": ua.diagnostics,
    }
    if args.emit != "all":
        keep = {"units": ["units", "units_completed"],
                "right-units": ["right_units"],
                "delta": ["delta", "partition"]}[args.emit]
        payload = {k: payload[k] for k in keep + ["diagnostics", "certified"]}
    _emit_json(args, payload)
    return EXIT_OK


def _ball_from_args(args, p, margin=None):
    # one call per word, so no memo; only arcs with an lhs suffix rewrite
    solver = extension_solver(completed_solver(p, args.budget)[1])
    margin = margin if margin is not None else longest_side(p)
    return cayley_ball(solver, p.alphabet, args.radius, margin)


def cmd_cayley(args):
    p = _load_presentation(args.presentation, args.order)
    g = _ball_from_args(args, p, args.margin)
    if args.format == "dot":
        _emit(args, g.to_dot())
    else:
        _emit_json(args, g.to_json())
    return EXIT_OK


def cmd_condense(args):
    p = _load_presentation(args.presentation, args.order)
    g = _ball_from_args(args, p)
    rep = scc_condense(g)
    check_rooted_tree(rep)
    _emit_json(args, rep.to_json())
    return EXIT_OK


def cmd_check_tree(args):
    p = _load_presentation(args.presentation, args.order)
    g = _ball_from_args(args, p)
    rep = scc_condense(g)
    verdict = check_rooted_tree(rep)
    try:
        sp = validate_special(p)
    except WordError:
        sp = None
    ua = None
    if sp is not None and len(sp.relators) == 1:
        ua = compute_delta(sp, budget_limit=args.budget)
        if not ua.certified:
            ua = None
    violations = check_unique_entrance(g, rep, ua)
    payload = {
        "is_tree": {"verdict": verdict.value,
                    "edges": [list(e) for e in verdict.witness or []]},
        "entrance_violations": violations,
        "unknowns": _unknowns("check-tree", verdict),
    }
    if ua is not None:
        payload["condensation_matches_hasse"] = \
            condensation_matches_hasse(ua, g, rep)
    _emit_json(args, payload)
    if verdict.refuted or violations:
        return EXIT_VERIFY
    return EXIT_OK


def cmd_construct(args):
    spec = _load_spec(args)
    diagnostics = []
    if args.kind == "free-product":
        p = free_product(*spec)
    elif args.kind == "amalgam":
        p = amalgam_presentation(spec, args.budget)
        diagnostics = spec.diagnostics
    elif args.kind == "otto-pride":
        p = otto_pride_presentation(spec)
    else:
        p = hnn_presentation(*spec)
    _emit_json(args, {"kind": args.kind,
                      "presentation": presentation_to_json(p),
                      "diagnostics": diagnostics})
    return EXIT_OK


def _bass_serre_context(args):
    context = amalgam_context if args.kind == "amalgam" else op_context
    return context(_load_spec(args), args.budget)


def _bass_serre_graph(args, ctx):
    build = (bass_serre_forest_bi if args.forest
             else bass_serre_ball_amalgam if args.kind == "amalgam"
             else bass_serre_ball_op)
    return build(ctx, args.radius, args.budget, args.margin)


def cmd_bass_serre(args):
    ctx = _bass_serre_context(args)
    g = _bass_serre_graph(args, ctx)
    if args.format == "dot":
        _emit(args, g.to_dot())
    elif args.format == "matrix":
        _emit(args, g.boundary_matrix().to_triplets())
    else:
        payload = g.to_json()
        payload["forest_by_search"] = g.forest_by_search()
        payload["forest_by_rank"] = g.forest_by_rank()
        _emit_json(args, payload)
    if g.truncated:
        _diag("budget_exhausted", detail="a ball of the graph is truncated")
        return EXIT_BUDGET
    return EXIT_OK


def cmd_chain(args):
    sp = validate_special(_load_presentation(args.presentation, args.order))
    g = _ball_from_args(args, sp.base)
    export = cayley_complex_chain(sp, g)
    _emit_json(args, {
        "boundary1": export.boundary1.to_triplets(),
        "boundary2": export.boundary2.to_triplets(),
        "augmentation": export.augmentation.to_triplets(),
        "cell_base_vertices": list(export.cell_base_vertices),
        "skipped": export.skipped,
        "composite_zero": export.boundary1.composes_to_zero(
            export.boundary2),
    })
    return EXIT_OK


def cmd_homology(args):
    sp = validate_special(_load_presentation(args.presentation, args.order))
    g = _ball_from_args(args, sp.base)
    augmentation, d1, d2 = contract_tree(g, relator_cells(sp, g)[0])
    homology = chain_homology([d1, d2])
    exact = exactness_check(homology, d1, augmentation)
    _emit_json(args, {"homology": homology, "exactness": exact})
    if exact["total_defect"] != 0:
        return EXIT_VERIFY
    return EXIT_OK


def cmd_verify_derivations(args):
    import random
    if args.forest and args.kind != "otto-pride":
        raise ConstructionError(
            "verify-derivations --forest needs --kind otto-pride")
    ctx = _bass_serre_context(args)
    g = _bass_serre_graph(args, ctx)
    derivation = {"amalgam": amalgam_derivation,
                  "otto_pride": op_derivation,
                  "otto_pride_forest": op_forest_derivation}[g.kind]
    d = derivation(ctx, g.edge_ball)
    sample_radius = max(1, args.radius - 1)
    ball = cayley_ball(ctx.solver, ctx.presentation.alphabet,
                       sample_radius, 0).vertices
    rng = random.Random(args.seed)
    samples = [(rng.choice(ball), rng.choice(ball))
               for _ in range(args.samples)]
    deriv = check_derivation_wellformed(
        d, list(ctx.presentation.relations), samples, g.truncated)
    beta = check_beta_section(g, d)
    _emit_json(args, {"derivation": deriv, "beta": beta,
                      "seed": args.seed, "samples": args.samples})
    if g.truncated:
        _diag("budget_exhausted", detail="a ball of the graph is truncated")
        return EXIT_BUDGET
    if not (deriv["passed"] and beta["passed"]):
        return EXIT_VERIFY
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _nonnegative(text):
    if (value := int(text)) < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


@functools.cache
def build_parser():
    """The argument parser, built on the first call and reused by every
    later one in the process; each parse fills a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="monoidkit",
        description="combinatorial structure of finitely presented monoids")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, source="--presentation", order=True,
            budget=True, radius=False, formats=None, kinds=None):
        # source is the input file flag; --order orders the alphabet of a
        # presentation file, so only commands that compute with one take it
        p = sub.add_parser(name)
        p.set_defaults(handler=handler)
        p.add_argument(source, required=True)
        p.add_argument("--out")
        if order:
            p.add_argument("--order", type=lambda s: s.split(","))
        if budget:
            p.add_argument("--budget", type=_nonnegative,
                           default=DEFAULT_BUDGET)
        if radius:
            p.add_argument("--radius", type=_nonnegative, required=True)
        if formats:
            p.add_argument("--format", choices=formats, default="json")
        if kinds:
            p.add_argument("--kind", required=True, choices=kinds)
        return p

    bass_serre_kinds = ("amalgam", "otto-pride")
    add("parse", cmd_parse, order=False, budget=False)
    add("complete", cmd_complete)
    p = add("rewrite", cmd_rewrite, source="--system")
    p.add_argument("--word", required=True)
    p = add("equal", cmd_equal)
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)
    p = add("analyze-special", cmd_analyze_special)
    p.add_argument("--emit", choices=("units", "right-units", "delta", "all"),
                   default="all")
    p = add("cayley", cmd_cayley, radius=True, formats=("json", "dot"))
    p.add_argument("--margin", type=_nonnegative)
    add("condense", cmd_condense, radius=True)
    add("check-tree", cmd_check_tree, radius=True)
    add("construct", cmd_construct, source="--spec", order=False,
        kinds=tuple(SPEC_READERS))
    p = add("bass-serre", cmd_bass_serre, source="--spec", order=False,
            radius=True, formats=("json", "dot", "matrix"),
            kinds=bass_serre_kinds)
    p.add_argument("--margin", type=_nonnegative)
    p.add_argument("--forest", action="store_true")
    add("chain", cmd_chain, radius=True)
    add("homology", cmd_homology, radius=True)
    p = add("verify-derivations", cmd_verify_derivations, source="--spec",
            order=False, radius=True, kinds=bass_serre_kinds)
    p.add_argument("--margin", type=_nonnegative)
    p.add_argument("--forest", action="store_true")
    p.add_argument("--samples", type=_nonnegative, default=200)
    p.add_argument("--seed", type=int, default=0)
    return parser


def run(args) -> int:
    try:
        return args.handler(args)
    except (BudgetExhausted, IncompleteSystemError) as e:
        _diag("budget_exhausted", detail=str(e))
        return EXIT_BUDGET
    except INPUT_ERRORS as e:
        _diag("input_error", error=type(e).__name__, detail=str(e))
        return EXIT_INPUT


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
