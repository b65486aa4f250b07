"""Command-line front end.

Exit codes: 0 success, 1 domain error (parse/type/guard), 2 verification
failure (a relation Failed, an inequality verdict, an invariant breach).
`main` returns the code for every input, `-h` included, and is the one
place that prints a result: `_dispatch` hands it each subcommand's code,
JSON payload and text.  All randomness is seeded and the seed in force is
printed.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Iterable, Optional

from .boxes import BoxError, Cursor, IdcalcError, read_box
from .evaluation import eval_term, instantiate
from .polynomials import (Orientation, PolyError, format_polyfun, format_rat, parse_polyfun,
                          polyfun_to_json, read_polyfun)
from .prederiv import (PreDerivError, apply as pd_apply, canonical_direction,
                       eval_smooth, format_prederiv, parse_prederiv,
                       smooth_kernel_test)
from .relations import TRIALS, check_all, reports_to_json
from .terms import _NAME, Term, classify, format_term, max_augment, parse_term, signature
from .words import _TRIALS, Equal, NotEqual, _normalize_steps, parse_word, word_eq

def _read_defs(path: Optional[str], sep: str, read: Callable[[Cursor], object],
               error: type[IdcalcError]) -> dict:
    """A definitions file: one `name <sep> value` per line, the name an opaque
    name; blank lines and lines starting with # are skipped.  An error names
    the file, the line and the offset in it."""
    if not path:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path, or not UTF-8
        reason = getattr(exc, "strerror", None) or exc
        raise IdcalcError(f"cannot read {path!r}: {reason}") from None
    defs = {}
    for number, line in enumerate(lines, 1):
        if line.strip() and not line.lstrip().startswith("#"):
            cur = Cursor(line, f"{path!r} line {number}", error)
            name = cur.take(_NAME)
            if name is None or not cur.eat(sep):
                raise cur.fail(f"expected a name, then {sep!r}", cur.pos)
            defs[name[0]] = cur.whole(read, "trailing input after the definition")
    return defs


def _write_text(path: str, chunks: Iterable[str]) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        reason = getattr(exc, "strerror", None) or exc
        raise IdcalcError(f"cannot write {path!r}: {reason}") from None


def _term_text(arg: str) -> str:
    if arg == "-":
        return sys.stdin.read()
    return arg


def _term_arg(args: argparse.Namespace) -> Term:
    """The term argument (- reads stdin), parsed against the --env file."""
    return parse_term(_term_text(args.term), _read_defs(args.env, ":", read_box, BoxError))


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str):  # a usage error exits 1, with one line
        raise IdcalcError(message)


def main(argv: Optional[list[str]] = None) -> int:
    parser = _ArgumentParser(
        prog="idcalc",
        description="Exact symbolic kernel: operator words, expression terms, "
                    "relation checking, pre-derivations, and the sphere demo.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_term_cmd(name: str, help_: str):
        c = sub.add_parser(name, help=help_)
        c.add_argument("term", help="term text, or - for stdin")
        c.add_argument("--env", help="opaque declarations file (name : box)")
        c.add_argument("--json", action="store_true")
        return c

    add_term_cmd("parse", "parse a term and print its normal text form")
    add_term_cmd("typecheck", "infer the signature of a term")

    nw = sub.add_parser("normalize-word", help="canonical form of an operator word")
    nw.add_argument("word")
    nw.add_argument("--json", action="store_true")

    we = sub.add_parser("word-eq", help="decide equality of two operator words")
    we.add_argument("word1")
    we.add_argument("word2")
    we.add_argument("--trials", type=int, default=_TRIALS)
    we.add_argument("--seed", type=int, default=0)
    we.add_argument("--json", action="store_true")

    add_term_cmd("normalize-term", "fully right-associated form of a term")

    ev = add_term_cmd("eval", "evaluate a term to an exact polynomial function")
    ev.add_argument("--inst", help="instantiation file (name = polyfun)")
    ev.add_argument("--permissive", action="store_true")

    cr = sub.add_parser("check-relations", help="run the relation catalogue")
    cr.add_argument("--trials", type=int, default=TRIALS)
    cr.add_argument("--seed", type=int, default=0)
    cr.add_argument("--rules", nargs="+", help="subset of rule ids")
    cr.add_argument("--orientation", choices=[o.value for o in Orientation],
                    default=Orientation.UPPER.value)
    cr.add_argument("--report", help="write the JSON report here")
    cr.add_argument("--json", action="store_true")

    pd = sub.add_parser("prederiv", help="pre-derivation queries")
    pd.add_argument("prederiv", help="pre-derivation text, or - for stdin")
    pd.add_argument("--eval-smooth", action="store_true",
                    help="classical tangent vector")
    pd.add_argument("--apply", metavar="POLYFUN",
                    help="apply to a scalar polynomial function")
    pd.add_argument("--kernel", action="store_true",
                    help="smooth-kernel membership")
    pd.add_argument("--canonical", action="store_true",
                    help="canonical direction of a single-summand pre-derivation")
    pd.add_argument("--json", action="store_true")

    cs = sub.add_parser("comb-sphere", help="grid sweep of the combing field")
    cs.add_argument("--grid", type=int, default=200)
    cs.add_argument("--eps", type=float, default=0.1)
    cs.add_argument("--out", help="CSV output path (default stdout)")

    argv = sys.argv[1:] if argv is None else argv
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit:  # the help action printed the usage; error() raises
            return 0
        if [] in vars(args).values():  # argparse strikes a value "--", leaving []
            raise IdcalcError("'--' cannot be an argument's value")
        code, payload, text = _dispatch(args)
    except IdcalcError as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        # the tokens, not the parsed args, so usage errors honour --json (or --js)
        if any(len(tok) > 2 and "--json".startswith(tok) for tok in argv):
            print(json.dumps(payload), file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1
    if payload is not None:
        print(json.dumps(payload, indent=2) if args.json else text)
        if payload.get("partial") and not args.json:  # eval's note follows its result
            sys.stdout.flush()  # even in one file that both streams write, unbuffered or not
            print("partial: a composition's range was not certified inside its outer "
                  "domain", file=sys.stderr)
    return code


def _dispatch(args: argparse.Namespace) -> tuple[int, Optional[dict], str]:
    """A subcommand's exit code, JSON payload and text; `main` prints one of
    the two.  comb-sphere writes its own output and returns no payload."""
    if args.command in ("parse", "normalize-term"):
        t = _term_arg(args)
        t = max_augment(t) if args.command == "normalize-term" else t
        return 0, {"term": format_term(t)}, format_term(t)

    if args.command == "typecheck":
        t = _term_arg(args)
        sig = signature(t)
        frag = classify(t)
        return (0, {"domain": str(sig.dom), "cod_dim": sig.cod_dim, "fragment": frag},
                f"dom {sig.dom}  cod R^{sig.cod_dim}  fragment {frag}")

    if args.command == "normalize-word":
        w, steps = _normalize_steps(parse_word(args.word))
        return 0, {"word": str(w), "steps": steps}, str(w)

    if args.command == "word-eq":
        verdict = word_eq(parse_word(args.word1), parse_word(args.word2),
                          trials=args.trials, seed=args.seed)
        if isinstance(verdict, Equal):
            return 0, {"verdict": "Equal"}, "Equal"
        if isinstance(verdict, NotEqual):
            witness = format_polyfun(verdict.witness)
            return 2, {"verdict": "NotEqual", "witness": witness}, f"NotEqual (witness {witness})"
        return 2, {"verdict": "Unknown"}, "Unknown"

    if args.command == "eval":
        t = _term_arg(args)
        inst = _read_defs(args.inst, "=", read_polyfun, PolyError)
        f = eval_term(instantiate(t, inst) if inst else t, permissive=args.permissive)
        return 0, {**polyfun_to_json(f), "partial": f.is_partial}, format_polyfun(f)

    if args.command == "check-relations":
        orientation = Orientation(args.orientation)
        reports = check_all(args.trials, args.seed, orientation, args.rules)
        failed = [r for r in reports if r.verdict != "Verified"]
        report_path = args.report or ("relation_report.json" if failed else None)
        report = reports_to_json(reports)
        lines = [f"seed={args.seed} trials={args.trials} orientation={orientation.value}"]
        lines.extend(r.line() for r in reports)
        if report_path:
            _write_text(report_path, [report])
            lines.append(f"report written to {report_path}")
        payload = {"seed": args.seed, "trials": args.trials,
                   "orientation": orientation.value, "reports": json.loads(report),
                   "report": report_path}
        return (2 if failed else 0), payload, "\n".join(lines)

    if args.command == "prederiv":
        dv = parse_prederiv(_term_text(args.prederiv))
        payload: dict = {"prederiv": format_prederiv(dv)}
        lines = []
        if args.eval_smooth or not (args.apply or args.kernel or args.canonical):
            vec = [format_rat(c) for c in eval_smooth(dv)]
            payload["eval_smooth"] = vec
            lines.append("eval-smooth (" + ", ".join(vec) + ")")
        if args.apply:
            germs = pd_apply(dv, parse_polyfun(args.apply))
            payload["apply"] = [format_polyfun(g) for g in germs]
            lines.extend(["apply " + g for g in payload["apply"]] or ["apply none"])
        if args.kernel:
            ok = smooth_kernel_test(dv)
            payload["kernel"] = ok
            lines.append(f"kernel {ok}")
        if args.canonical:
            if len(dv.summands) != 1:
                raise PreDerivError("canonical direction needs exactly one summand")
            core, u = dv.summands[0]
            vec = [format_rat(c) for c in canonical_direction(core, u)]
            payload["canonical"] = vec
            lines.append("canonical (" + ", ".join(vec) + ")")
        return 0, payload, "\n".join(lines)

    # comb-sphere, the one subcommand left: argparse requires a subcommand
    from .sphere import comb_grid, grid_csv
    data = comb_grid(2, args.grid, args.eps)
    if args.out:
        _write_text(args.out, grid_csv(data))
    else:
        sys.stdout.writelines(grid_csv(data))
    print(f"vanishing-radius={data['vanishing_radius']:.4f} "
          f"min-certificate={data['min_certificate']:.3e} "
          f"grid={args.grid} eps={args.eps}", file=sys.stderr)
    return 0, None, ""


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
