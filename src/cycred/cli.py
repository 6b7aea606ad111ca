"""Command-line front end.

Every subcommand reads words in one of the two syntaxes from cycred.syntax
(compact by default, spaced via --syntax spaced --alphabet ...) and writes
either labeled human-readable lines or, with --json, one structured document
with deterministic key order and no volatile fields, so identical
invocations produce byte-identical output.

Exit codes: 0 on success, 1 when a precondition or validation fails, 2 on
word-syntax, file-format, or I/O failure.  The collapse subcommand also
exits 1 when the operation list ends on a non-trivial element.
"""

import argparse
import json
import sys

from .words import Alphabet, Word, cyclic_shift_between, inverse
from .reduction import (POLICIES, _decompose, cancel_any_order, cyc_product,
                        cyc_reduce, reduce, reduced_product)
from .structure import classify_shirv, puzo_witness
from .identities import (Deletion, ExchangeA, ExchangeB, HElement,
                         collapse_schedule, execute, psi)
from .latin import find_stabilizing_conjugator, latin_pairs
from . import closure as closure_mod
from .syntax import (COMPACT_ALPHABET, WordSyntaxError, _compact_names,
                     _spaced_names, format_compact, format_spaced, parse_compact,
                     parse_spaced)


class _MalformedFile(Exception):
    """A file argument whose content does not parse or is inconsistent."""


class _Ctx:
    def __init__(self, syntax, alphabet):
        self.syntax = syntax
        self.alphabet = alphabet

    def parse(self, text, alphabet=None):
        ab = alphabet if alphabet is not None else self.alphabet
        if self.syntax == "compact":
            return parse_compact(text, ab)
        return parse_spaced(text, ab)

    def fmt(self, w):
        if self.syntax == "compact":
            return format_compact(w)
        return format_spaced(w)


def _trace_doc(trace):
    return {"original_length": trace.original_length,
            "events": [[e.left_pos, e.right_pos, e.kind] for e in trace.events]}


def _trace_lines(trace):
    out = ["events: %d" % len(trace.events)]
    for e in trace.events:
        out.append("  cancel %d %d (%s)" % (e.left_pos, e.right_pos, e.kind))
    return out


def _identity_doc(ctx, h):
    return [[ctx.fmt(a), ctx.fmt(r)] for a, r in h.terms]


def _cmd_reduce(ctx, args):
    w = ctx.parse(args.word)
    red, trace = reduce(w)
    doc = {"command": "reduce", "input": ctx.fmt(w), "reduced": ctx.fmt(red),
           "trace": _trace_doc(trace)}
    lines = ["reduced: %s" % ctx.fmt(red)] + _trace_lines(trace)
    return doc, lines, 0


def _cmd_cycreduce(ctx, args):
    w = ctx.parse(args.word)
    dec, trace = cyc_reduce(w)
    doc = {"command": "cycreduce", "input": ctx.fmt(w),
           "core": ctx.fmt(dec.core), "conjugator": ctx.fmt(dec.conjugator),
           "trace": _trace_doc(trace)}
    lines = ["core: %s" % ctx.fmt(dec.core),
             "conjugator: %s" % ctx.fmt(dec.conjugator)] + _trace_lines(trace)
    return doc, lines, 0


def _cmd_prod(ctx, args):
    u, v = ctx.parse(args.u), ctx.parse(args.v)
    p = reduced_product(u, v)
    doc = {"command": "prod", "u": ctx.fmt(u), "v": ctx.fmt(v),
           "product": ctx.fmt(p)}
    return doc, [ctx.fmt(p)], 0


def _cmd_cprod(ctx, args):
    u, v = ctx.parse(args.u), ctx.parse(args.v)
    p = cyc_product(u, v)
    doc = {"command": "cprod", "u": ctx.fmt(u), "v": ctx.fmt(v),
           "product": ctx.fmt(p)}
    return doc, [ctx.fmt(p)], 0


def _cmd_classify(ctx, args):
    u, v = ctx.parse(args.u), ctx.parse(args.v)
    case = classify_shirv(u, v)
    fields = {k: ctx.fmt(val) for k, val in case._asdict().items() if k != "case"}
    doc = {"command": "classify", "u": ctx.fmt(u), "v": ctx.fmt(v),
           "case": case.case, "fields": fields}
    lines = ["case: %d" % case.case]
    lines += ["%s: %s" % (k, fields[k]) for k in fields]
    return doc, lines, 0


def _cmd_puzo(ctx, args):
    u, v = ctx.parse(args.u), ctx.parse(args.v)
    rep = puzo_witness(u, v)
    sched = collapse_schedule(rep.collapse_input)
    ci = rep.collapse_input
    uv, vu = ctx.fmt(cyc_product(u, v)), ctx.fmt(cyc_product(v, u))
    doc = {"command": "puzo", "u": ctx.fmt(u), "v": ctx.fmt(v),
           "case": rep.case, "shift": rep.shift,
           "uv_product": uv, "vu_product": vu,
           "perm_terms": sorted(rep.perm_terms),
           "identity": _identity_doc(ctx, rep.identity),
           "uv_trace": _trace_doc(rep.uv_trace),
           "vu_trace": _trace_doc(rep.vu_trace),
           "collapse_input": {"alpha": ctx.fmt(ci.alpha), "beta": ctx.fmt(ci.beta),
                              "gamma": ctx.fmt(ci.gamma), "delta": ctx.fmt(ci.delta),
                              "u": ctx.fmt(ci.u), "v": ctx.fmt(ci.v),
                              "p": ctx.fmt(ci.p), "q": ctx.fmt(ci.q), "n": ci.n},
           "collapse_schedule_length": len(sched)}
    lines = ["case: %d" % rep.case,
             "shift: %d" % rep.shift,
             "u*v: %s" % uv,
             "v*u: %s" % vu,
             "perm terms: %s" % ",".join(str(i) for i in sorted(rep.perm_terms)),
             "identity: %s" % " ".join("(%s, %s)" % (ctx.fmt(a), ctx.fmt(r))
                                       for a, r in rep.identity.terms),
             "collapse schedule length: %d" % len(sched)]
    return doc, lines, 0


def _cmd_anyorder(ctx, args):
    w = ctx.parse(args.word)
    chooser = args.policy if args.seed is None else args.seed
    if chooser is None:
        chooser = POLICIES[0]
    result, trace = cancel_any_order(w, chooser)
    core = _decompose(w).core
    offset = cyclic_shift_between(result, core)
    doc = {"command": "anyorder", "input": ctx.fmt(w), "result": ctx.fmt(result),
           "offset": offset, "trace": _trace_doc(trace),
           "chooser": str(chooser)}
    lines = ["result: %s" % ctx.fmt(result), "offset: %s" % offset]
    return doc, lines, 0


def _cmd_latin(ctx, args):
    u, w = ctx.parse(args.u), ctx.parse(args.w)
    pairs = latin_pairs(u, w, args.count)
    s = find_stabilizing_conjugator(inverse(u), w)
    doc = {"command": "latin", "u": ctx.fmt(u), "w": ctx.fmt(w),
           "count": args.count, "s": ctx.fmt(s),
           "pairs": [{"n": p.n, "v": ctx.fmt(p.v), "v_prime": ctx.fmt(p.v_prime)}
                     for p in pairs]}
    lines = ["s: %s" % ctx.fmt(s)]
    lines += ["n=%d: v=%s v'=%s" % (p.n, ctx.fmt(p.v), ctx.fmt(p.v_prime))
              for p in pairs]
    return doc, lines, 0


_OP_TYPES = {"exchangeA": lambda e: ExchangeA(_op_pos(e)),
             "exchangeB": lambda e: ExchangeB(_op_pos(e)),
             "deletion": lambda e: Deletion(_op_pos(e), e.get("kind", "general"))}


def _op_pos(entry):
    pos = entry.get("pos")
    if isinstance(pos, bool) or not isinstance(pos, int):
        raise _MalformedFile("op entry needs an integer pos, got %r" % (pos,))
    return pos


def _cmd_collapse(ctx, args):
    try:
        with open(args.file, "r", encoding="utf-8") as f:
            data = json.load(f)
    except UnicodeDecodeError as exc:
        raise _MalformedFile(exc) from None
    if not isinstance(data, dict) or not isinstance(data.get("terms"), list) \
            or not isinstance(data.get("ops"), list):
        raise _MalformedFile("collapse file must be an object with terms and "
                             "ops lists")
    terms = []
    for entry in data["terms"]:
        if not isinstance(entry, list) or len(entry) != 2 \
                or not all(isinstance(t, str) for t in entry):
            raise _MalformedFile("each term must be a [conjugator, relator] "
                                 "pair of words, got %r" % (entry,))
        terms.append((ctx.parse(entry[0]), ctx.parse(entry[1])))
    ops = []
    for entry in data["ops"]:
        if not isinstance(entry, dict) or not isinstance(entry.get("type"), str) \
                or entry["type"] not in _OP_TYPES:
            raise _MalformedFile("bad op entry %r" % (entry,))
        ops.append(_OP_TYPES[entry["type"]](entry))
    h = HElement(terms, alphabet=ctx.alphabet)
    start_psi = psi(h)
    final = execute(h, ops)
    doc = {"command": "collapse", "initial_psi": ctx.fmt(start_psi),
           "ops_applied": len(ops), "trivial": final.is_trivial,
           "final_terms": _identity_doc(ctx, final)}
    lines = ["initial psi: %s" % ctx.fmt(start_psi),
             "ops applied: %d" % len(ops),
             "trivial: %s" % ("yes" if final.is_trivial else "no")]
    if not final.is_trivial:
        lines.append("final terms: %s"
                     % " ".join("(%s, %s)" % (ctx.fmt(a), ctx.fmt(r))
                                for a, r in final.terms))
    return doc, lines, 0 if final.is_trivial else 1


def _read_relators(ctx, path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = list(f)
    except UnicodeDecodeError as exc:
        raise _MalformedFile(exc) from None
    out = []
    for ln in lines:
        ln = ln.strip()
        if ln and not ln.startswith("#"):
            out.append(ctx.parse(ln))
    return out


def _cmd_closure(ctx, args):
    relators = _read_relators(ctx, args.relators)
    cfg = closure_mod.ClosureConfig(args.maxlen, args.rounds,
                                    include_inverses=not args.no_inverses)
    state = closure_mod.run(closure_mod.seed(relators, cfg))
    closure_mod.save(state, args.out)
    doc = {"command": "closure", "relator_count": len(relators),
           "member_count": len(state.members), "rounds_done": state.rounds_done,
           "saturated": state.saturated, "out": args.out}
    lines = ["members: %d" % len(state.members),
             "rounds: %d" % state.rounds_done,
             "saturated: %s" % ("yes" if state.saturated else "no"),
             "saved: %s" % args.out]
    return doc, lines, 0


def _cmd_closure_query(ctx, args):
    try:
        state = closure_mod.load(args.set)
    except ValueError as exc:  # load checks only the file, so it is malformed
        raise _MalformedFile(exc) from None
    w = ctx.parse(args.word, alphabet=state.alphabet)
    res = closure_mod.contains(state, w)
    doc = {"command": "closure-query", "word": ctx.fmt(w),
           "found": res.found, "over_cap": res.over_cap}
    lines = ["found: %s" % ("yes" if res.found else "no")]
    if res.over_cap:
        lines.append("note: query is longer than the enumeration cap")
    return doc, lines, 0


_HANDLERS = {"reduce": _cmd_reduce, "cycreduce": _cmd_cycreduce,
             "prod": _cmd_prod, "cprod": _cmd_cprod,
             "classify": _cmd_classify, "puzo": _cmd_puzo,
             "anyorder": _cmd_anyorder, "latin": _cmd_latin,
             "collapse": _cmd_collapse, "closure": _cmd_closure,
             "closure-query": _cmd_closure_query}


def build_parser():
    p = argparse.ArgumentParser(
        prog="cycred",
        description="reduced and cyclically reduced products of free-group "
                    "words, with cancellation witnesses")
    p.add_argument("--syntax", choices=("compact", "spaced"), default="compact",
                   help="word syntax (default compact: a-z letters, uppercase "
                        "for inverses, 1 for the empty word)")
    p.add_argument("--alphabet",
                   help="comma-separated generator names; required for spaced "
                        "syntax, optional restriction for compact")
    p.add_argument("--json", action="store_true",
                   help="emit one machine-readable document")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("reduce", help="reduced form with its trace")
    sp.add_argument("word")
    sp = sub.add_parser("cycreduce", help="cyclically reduced form, conjugator, trace")
    sp.add_argument("word")
    sp = sub.add_parser("prod", help="reduced product of two words")
    sp.add_argument("u")
    sp.add_argument("v")
    sp = sub.add_parser("cprod", help="cyclically reduced product of two words")
    sp.add_argument("u")
    sp.add_argument("v")
    sp = sub.add_parser("classify", help="cancellation case of a product, with witness")
    sp.add_argument("u")
    sp.add_argument("v")
    sp = sub.add_parser("puzo", help="rotation report for u*v vs v*u")
    sp.add_argument("u")
    sp.add_argument("v")
    sp = sub.add_parser("anyorder", help="free cancellation in a chosen order")
    sp.add_argument("word")
    g = sp.add_mutually_exclusive_group()
    g.add_argument("--policy", choices=POLICIES)
    g.add_argument("--seed", type=int)
    sp = sub.add_parser("latin", help="stabilized product family solving u*v = w-core")
    sp.add_argument("u")
    sp.add_argument("w")
    sp.add_argument("--count", type=int, default=1)
    sp = sub.add_parser("collapse", help="apply an operation list to an element")
    sp.add_argument("--file", required=True)
    sp = sub.add_parser("closure", help="enumerate the product-and-rotation closure")
    sp.add_argument("--relators", required=True)
    sp.add_argument("--maxlen", type=int, required=True)
    sp.add_argument("--rounds", type=int, required=True)
    sp.add_argument("--no-inverses", action="store_true")
    sp.add_argument("--out", required=True)
    sp = sub.add_parser("closure-query", help="membership in a saved closure set")
    sp.add_argument("--set", required=True)
    sp.add_argument("word")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.syntax == "spaced" and not args.alphabet:
        parser.error("--alphabet is required with --syntax spaced")
    if args.alphabet is not None:
        try:
            alphabet = Alphabet(*[t for t in args.alphabet.split(",") if t])
            if args.syntax == "spaced":
                _spaced_names(alphabet)
            if args.syntax == "compact" or args.command == "closure":
                _compact_names(alphabet)  # closure files spell words compactly
        except ValueError as exc:
            parser.error(str(exc))
    else:
        alphabet = COMPACT_ALPHABET
    ctx = _Ctx(args.syntax, alphabet)
    try:
        doc, lines, code = _HANDLERS[args.command](ctx, args)
    except (WordSyntaxError, json.JSONDecodeError, OSError, _MalformedFile) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(doc, sort_keys=True))
    else:
        for ln in lines:
            print(ln)
    return code


if __name__ == "__main__":
    sys.exit(main())
