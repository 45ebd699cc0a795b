"""Command-line front end.

Commands: compute (single invariants), verify (claim registry sweeps),
search (bounded realization search), family (construct + predict + check).
JSON output is stable: keys sorted, arrays sorted. Exit codes: 0 success,
1 library/usage error, 2 argparse usage error, 3 budget exceeded,
4 falsified claim or failed match.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import time

from . import __version__
from .budget import Budget, check_element
from .errors import BudgetExceeded, SemigroupError
from .factorization import P0, P1, PINF, delta_of_sorted_set, delta_set_of_semigroup, factored_value, length_set
from .semigroup import apery_set, contains, frobenius, make_semigroup

# every annotation here is a string, so pathlib loads only where a command
# has a cache directory
TYPE_CHECKING = False
if TYPE_CHECKING:
    from pathlib import Path

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BUDGET = 3
EXIT_FALSIFIED = 4


def _parse_p(text: str):
    if text in ("inf", "oo"):
        return PINF
    if text == "0":
        return P0
    if text == "1":
        return P1
    raise ValueError(f"p must be 0, 1 or inf, got {text!r}")


def _p_name(p) -> str:
    return "inf" if p == PINF else str(p)


def _parse_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo, hi = (int(t) for t in text.split("..", 1))
    else:
        lo = hi = int(text)
    if lo > hi:
        raise ValueError(f"range {text!r} is reversed")
    return lo, hi


def _parse_gens(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.replace(" ", "").split(",") if t)


def _budget(args) -> Budget | None:
    """None leaves every engine its own per-norm default."""
    return None if args.budget_elements is None else Budget(max_element=args.budget_elements)


def _budget_echo(budget: Budget | None) -> dict:
    return {"defaults": True} if budget is None else {"max_element": budget.max_element}


# ---------------------------------------------------------------------------
# cache


def _cache_dir(args) -> Path | None:
    where = args.cache_dir or os.environ.get("SGDELTA_CACHE_DIR")
    if not where:
        return None
    from pathlib import Path

    return Path(where)


def _cache_key(args) -> str:
    """Hashes the arguments that can change a result together with the
    package source, so an entry written by other code is a miss. --p has a
    default, so it is hashed only where the computation reads it."""
    import hashlib
    from pathlib import Path

    unread = ("func", "format", "threads", "cache_dir")
    if args.what not in ("lengths", "delta", "delta-semigroup"):
        unread += ("p",)
    read = {k: v for k, v in vars(args).items() if k not in unread}
    digest = hashlib.sha256(json.dumps(read, sort_keys=True).encode())
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cache_get(cdir: Path | None, key: str):
    """The stored payload, or None on a miss. An unreadable entry is a miss,
    so the result is recomputed and the entry overwritten."""
    if cdir is None:
        return None
    try:
        doc = json.loads((cdir / f"{key}.json").read_text())
    except (OSError, ValueError):
        return None
    return doc if isinstance(doc, dict) and "result" in doc else None


def _cache_put(cdir: Path | None, key: str, value: dict) -> None:
    """Writes a per-process temp file and renames it over the entry, so no
    reader ever sees a partly written entry. A cache that cannot be written
    costs the entry, not the result: one line goes to stderr."""
    if cdir is None:
        return
    tmp = cdir / f"{key}.{os.getpid()}.tmp"
    try:
        cdir.mkdir(parents=True, exist_ok=True)
        tmp.write_text(json.dumps(value, sort_keys=True))
        os.replace(tmp, cdir / f"{key}.json")
    except OSError as e:
        print(f"sgdelta: result not cached: {e}", file=sys.stderr)
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# commands


def _cmd_compute(args) -> tuple[dict, int]:
    gens = _parse_gens(args.gens)
    what = args.what
    budget = _budget(args)
    # as in verify, a flag the computation does not read is refused
    if what in ("membership", "lengths", "delta"):
        if args.x is None:
            raise ValueError(f"{what} needs --x")
        check_element(args.x, budget)
    elif args.x is not None:
        raise ValueError(f"{what} does not read x (--x)")
    elif budget is not None and what in ("apery", "frobenius", "betti", "presentation"):
        raise ValueError(f"{what} does not read budget (--budget-elements)")
    if what == "apery" and args.m is None:
        raise ValueError("apery needs --m")
    elif what != "apery" and args.m is not None:
        raise ValueError(f"{what} does not read m (--m)")

    cdir = _cache_dir(args)
    key = _cache_key(args) if cdir else None
    cached = _cache_get(cdir, key)
    if cached is not None:
        return {**cached, "cached": True}, EXIT_OK

    s = make_semigroup(gens)
    result: dict = {"generators": list(s.generators)}
    if s.removed:
        result["removed"] = list(s.removed)
    payload = {"result": result}

    if what == "membership":
        result["x"] = args.x
        result["member"] = contains(s, args.x)
    elif what == "apery":
        t = apery_set(s, args.m)
        result["modulus"] = t.modulus
        result["entries"] = list(t.entries)
    elif what == "frobenius":
        result["frobenius"] = frobenius(s)
    elif what == "betti":
        from .presentation import betti_elements

        result["betti"] = betti_elements(s)
    elif what == "presentation":
        from .presentation import minimal_presentation

        pres = minimal_presentation(s)
        result["betti"] = list(pres.betti)
        result["trades"] = [
            {"element": factored_value(s, t.left), "left": list(t.left), "right": list(t.right)}
            for t in pres.trades
        ]
    elif what in ("lengths", "delta"):
        p = _parse_p(args.p)
        ls = length_set(s, args.x, p)
        result["x"] = args.x
        result["p"] = _p_name(p)
        result["lengths"] = list(ls.values)
        if what == "delta":
            result["delta"] = list(delta_of_sorted_set(ls.values).values)
    elif what == "delta-semigroup":
        p = _parse_p(args.p)
        result["p"] = _p_name(p)
        if p == P0:
            from .zero import delta0_semigroup, delta0_stability_bound

            d = delta0_semigroup(s, budget=budget)
            result["delta"] = list(d.values)
            result["stability_bound"] = delta0_stability_bound(s)
        elif p == PINF:
            from .infinity import delta_inf_semigroup

            d, cert = delta_inf_semigroup(s, budget=budget)
            result["delta"] = list(d.values)
            payload["certificate"] = cert._asdict()
        else:
            raise ValueError("delta-semigroup supports p = 0 and p = inf")
    else:
        raise ValueError(f"unknown computation {what!r}")

    _cache_put(cdir, key, payload)
    return payload, EXIT_OK


def _cmd_verify(args) -> tuple[dict, int]:
    from .verification import run_all, run_claim

    params = {
        "quick": args.quick,
        "extended": args.extended,
        "workers": args.threads,
        "budget": _budget(args),
        "m_range": _parse_range(args.m) if args.m else None,
        "k_range": _parse_range(args.k) if args.k else None,
        "x_range": _parse_range(args.x) if args.x else None,
        "max_gen": args.max_gen,
        "gens": _parse_gens(args.gens) if args.gens else None,
    }

    if args.claim == "all":
        instances = run_all(**params)
    else:
        instances = run_claim(args.claim, **params)
    rows = [
        {"claim": i.claim, "instance": i.label, "status": i.status, "detail": i.detail}
        for i in instances
    ]
    summary = {
        st: sum(1 for i in instances if i.status == st)
        for st in ("pass", "fail", "report", "budget")
    }
    code = EXIT_FALSIFIED if summary["fail"] else EXIT_OK
    return {"result": {"instances": rows, "summary": summary}}, code


def _cmd_search(args) -> tuple[dict, int]:
    from .search import search_delta

    p = _parse_p(args.p)
    report = search_delta(
        _parse_gens(args.target),
        p,
        max_dim=args.max_dim,
        max_gen=args.max_gen,
        budget=_budget(args),
        workers=args.threads,
        max_seconds=args.budget_seconds,
    )
    result = {
        "target": list(report.target),
        "p": _p_name(p),
        "max_dim": report.max_dim,
        "max_gen": report.max_gen,
        "tested": report.tested,
        "hits": [list(h) for h in report.hits],
        "skipped": [{"generators": list(g), "reason": r} for g, r in report.skipped],
        "exhausted": report.exhausted,
    }
    return {"result": result}, EXIT_OK


def _cmd_family(args) -> tuple[dict, int]:
    from .families import construct_family, parse_family, predicted_delta

    spec = parse_family(args.spec)
    s = construct_family(spec)
    ps = [P0, PINF] if args.p == "both" else [_parse_p(args.p)]
    checks = {}
    worst = EXIT_OK
    for p in ps:
        pred = predicted_delta(spec, p)
        entry: dict = {"predicted": pred.describe() if pred else "unspecified"}
        try:
            computed = delta_set_of_semigroup(s, p, _budget(args))
            entry["computed"] = list(computed.values)
            if pred is not None:
                entry["match"] = pred.matches(computed)
                if not entry["match"]:
                    worst = EXIT_FALSIFIED
        except BudgetExceeded as e:
            entry["status"] = "budget"
            entry["detail"] = str(e)
        checks[_p_name(p)] = entry
    result = {
        "family": spec.text(),
        "generators": list(s.generators),
        "checks": checks,
    }
    return {"result": result}, worst


# ---------------------------------------------------------------------------
# output


def _csv_lines(command: str, envelope: dict) -> list[str]:
    res = envelope.get("result", {})
    lines = ["x,invariant,value"]
    if command == "verify":
        lines = ["instance,claim,status,detail"]
        for row in res["instances"]:
            detail = row["detail"].replace(",", ";")
            lines.append(f"{row['instance'].replace(',', ';')},{row['claim']},{row['status']},{detail}")
        return lines
    if command == "search":
        lines = ["generators,status"]
        for h in res["hits"]:
            lines.append(f"{';'.join(map(str, h))},hit")
        for srow in res["skipped"]:
            lines.append(f"{';'.join(map(str, srow['generators']))},budget")
        return lines
    if command == "family":
        lines = ["p,predicted,computed,match"]
        for p, entry in sorted(res["checks"].items()):
            lines.append(
                f"{p},{entry['predicted'].replace(',', ';')},"
                f"{';'.join(map(str, entry.get('computed', [])))},{entry.get('match', '')}"
            )
        return lines
    x = res.get("x", "")
    for key in ("member", "frobenius", "modulus", "stability_bound"):
        if key in res:
            lines.append(f"{x},{key},{res[key]}")
    for key in ("entries", "betti", "lengths", "delta"):
        if key in res:
            lines.append(f"{x},{key},{';'.join(map(str, res[key]))}")
    return lines


def _render(args, command: str, envelope: dict, started: float) -> str:
    envelope = dict(envelope)
    out = {
        "command": command,
        "input": {k: v for k, v in vars(args).items() if k not in ("func", "format") and v is not None},
        "result": envelope.get("result"),
        "timing": {"seconds": round(time.monotonic() - started, 6), "cached": envelope.get("cached", False)},
        "budget": _budget_echo(_budget(args)),
    }
    if "certificate" in envelope:
        out["certificate"] = envelope["certificate"]
    if args.format == "csv":
        return "\n".join(_csv_lines(command, envelope))
    return json.dumps(out, sort_keys=True, default=str)


class _Formatter(argparse.HelpFormatter):
    """argparse's help formatter at the width it picks itself, the terminal
    columns minus 2, read as `shutil.get_terminal_size` reads them: COLUMNS,
    then the terminal of stdout, else 80. argparse imports shutil for that,
    and with it bz2 and lzma, in every command; every parser builds this
    formatter, its own -h included."""

    def __init__(self, prog, indent_increment=2, max_help_position=24, width=None):
        if width is None:
            try:
                width = int(os.environ["COLUMNS"])
            except (KeyError, ValueError):
                width = 0
            if width <= 0:
                try:
                    width = os.get_terminal_size(sys.__stdout__.fileno()).columns or 80
                except (AttributeError, ValueError, OSError):
                    width = 80
            width -= 2
        super().__init__(prog, indent_increment, max_help_position, width)


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False, formatter_class=_Formatter)
    shared.add_argument("--format", choices=("json", "csv"), default="json")
    shared.add_argument("--budget-elements", type=int, default=None)
    shared.add_argument("--threads", type=int, default=1)

    top = argparse.ArgumentParser(prog="sgdelta", description=__doc__, formatter_class=_Formatter)
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compute", parents=[shared], formatter_class=_Formatter, help="compute one invariant")
    c.add_argument("--gens", required=True, help="comma-separated generators")
    c.add_argument(
        "what",
        choices=(
            "membership",
            "apery",
            "frobenius",
            "betti",
            "presentation",
            "lengths",
            "delta",
            "delta-semigroup",
        ),
    )
    c.add_argument("--x", type=int, default=None)
    c.add_argument("--m", type=int, default=None)
    c.add_argument("--p", default="inf")
    c.add_argument("--cache-dir", default=None, help="result cache; SGDELTA_CACHE_DIR when unset")
    c.set_defaults(func=_cmd_compute)

    v = sub.add_parser("verify", parents=[shared], formatter_class=_Formatter, help="run registered claims")
    v.add_argument("claim", help="claim id or 'all'")
    v.add_argument("--quick", action="store_true")
    v.add_argument("--extended", action="store_true")
    v.add_argument("--list", action="store_true", dest="list_claims")
    v.add_argument("--m", default=None, help="range lo..hi")
    v.add_argument("--k", default=None, help="range lo..hi")
    v.add_argument("--x", default=None, help="range lo..hi")
    v.add_argument("--max-gen", type=int, default=None)
    v.add_argument("--gens", default=None)
    v.set_defaults(func=_cmd_verify)

    se = sub.add_parser("search", parents=[shared], formatter_class=_Formatter, help="bounded realization search")
    se.add_argument("--target", required=True, help="comma-separated delta values")
    se.add_argument("--p", required=True, help="0 or inf")
    se.add_argument("--max-dim", type=int, default=3)
    se.add_argument("--max-gen", type=int, required=True)
    se.add_argument("--budget-seconds", type=float, default=None, help="start no batch after S seconds")
    se.set_defaults(func=_cmd_search)

    f = sub.add_parser("family", parents=[shared], formatter_class=_Formatter, help="construct, predict and check")
    f.add_argument("spec", help="e.g. geometric:a=2,b=3,k=3")
    f.add_argument("--p", default="both", help="0, inf or both")
    f.set_defaults(func=_cmd_family)
    return top


def main(argv=None) -> int:
    printed = io.StringIO()
    try:
        with contextlib.redirect_stdout(printed):
            args = build_parser().parse_args(argv)
    except SystemExit:
        # argparse has written --help or --version into `printed`; a usage
        # error went to stderr and exits as argparse says
        if not _emit(printed.getvalue()):
            return EXIT_ERROR
        raise
    text, code = _run(args)
    return code if _emit(text + "\n") else EXIT_ERROR


def _emit(text: str) -> bool:
    """Writes text to stdout and flushes it; False when the reader is gone."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()  # piped stdout is block-buffered, so a closed reader shows up here
    except BrokenPipeError:
        # point stdout at devnull so the exit-time flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return False
    return True


def _run(args) -> tuple[str, int]:
    """The text to print and the exit code of one parsed command line."""
    started = time.monotonic()
    try:
        if args.threads < 1:
            raise ValueError(f"--threads must be at least 1, got {args.threads}")
        if args.budget_elements is not None and args.budget_elements < 0:
            raise ValueError(f"--budget-elements must be nonnegative, got {args.budget_elements}")
        if getattr(args, "list_claims", False):
            from .verification import CLAIMS

            rows = {cid: {"summary": c.summary, "kind": c.kind} for cid, c in CLAIMS.items()}
            return json.dumps(rows, sort_keys=True), EXIT_OK
        envelope, code = args.func(args)
    except (SemigroupError, ValueError) as e:
        error = {"code": getattr(e, "code", "invalid-argument"), "message": str(e)}
        code = EXIT_BUDGET if isinstance(e, BudgetExceeded) else EXIT_ERROR
        return json.dumps({"command": args.command, "error": error}), code
    return _render(args, args.command, envelope, started), code


if __name__ == "__main__":
    sys.exit(main())
