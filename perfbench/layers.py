"""Traced replay: the workload's queries in one process, timed per layer.

Spans are recorded from this file only: `Tracer.patch` replaces the public
functions listed in `SPANS` by timing wrappers in every loaded `sgdelta`
module, so calls between modules (search -> zero, verification -> infinity)
are seen too, and restores them afterwards. A span's self time is its
duration minus the spans nested in it.

To split a query into stages, each query gets a fresh NumericalSemigroup and
the public functions are called in stage order. Each stage caches its
result on the instance, so a later call pays only for its own stage. For a
theorem-backed Delta_inf query, `infinity_length_set(s, H)` with
H = start + (W + 1) * period builds the min-max tables, and the following
`delta_inf_semigroup(s)` pays only for the sweep, the periodicity check and
the union. Likewise `delta0_stability_bound` builds the 0-norm cones before
`delta0_semigroup` runs the union pass. Inside `search` and `verify` the
stages cannot be split from outside, so there the min-max tables count
towards `infinity.sweep_s` (theorem-backed certificates) or
`infinity.empirical_s` (empirical ones, and budget overruns of the
empirical search); `infinity.empirical_share` is the second over both.
`infinity.table_bytes` is the largest k * (H + 1) * 8 of one certificate,
computed, not measured.

`PER_LAYER` lists every metric with the end-to-end metric and workload it
should move. Metrics of a layer a workload never calls read 0.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import count
from operator import itemgetter
from time import perf_counter

import sgdelta as sg
from sgdelta import verification
from sgdelta.cli import build_parser
from workloads import CLAIM_IDS, matches, query_key

# metric -> (unit, better, the end-to-end metric and workload it should move)
PER_LAYER = {
    "cli.pass_s": ("s", "lower", "corpus_s: the untraced pass of the traced run, next to trace.replay_s"),
    "trace.replay_s": ("s", "lower", "corpus_s: the traced replay; minus (cli.pass_s - cli.overhead_s) it is the tracing overhead"),
    "cli.overhead_s": ("s", "lower", "setup_s and corpus_s everywhere, most on elements-and-zero"),
    "semigroup.make_s": ("s", "lower", "corpus_s on registry-search"),
    "semigroup.instances": ("count", "lower", "corpus_s on registry-search"),
    "infinity.structure_s": ("s", "lower", "corpus_s on inf-theorem"),
    "infinity.tables_s": ("s", "lower", "corpus_s on inf-theorem (its k=5 member) and peak_rss_mb"),
    "infinity.table_bytes": ("computed_bytes", "lower", "peak_rss_mb on inf-theorem"),
    "infinity.sweep_s": ("s", "lower", "corpus_s on inf-theorem; nothing on elements-and-zero"),
    "infinity.elements_swept": ("count", "lower", "corpus_s on inf-theorem"),
    "infinity.sweep_us_per_element": ("us", "lower", "corpus_s on inf-theorem"),
    "infinity.empirical_s": ("s", "lower", "corpus_s on registry-search"),
    "infinity.empirical_share": ("ratio", "lower", "corpus_s on registry-search"),
    "factorization.enumerate_s": ("s", "lower", "corpus_s on elements-and-zero"),
    "factorization.factorizations": ("count", "lower", "corpus_s on elements-and-zero"),
    "factorization.factorizations_per_s": ("1/s", "higher", "corpus_s on elements-and-zero"),
    "zero.cones_s": ("s", "lower", "corpus_s on elements-and-zero and registry-search"),
    "zero.union_s": ("s", "lower", "corpus_s on elements-and-zero and registry-search"),
    "zero.supports": ("count", "lower", "corpus_s on elements-and-zero and registry-search"),
    "zero.elements_scanned": ("count", "lower", "corpus_s on elements-and-zero and registry-search"),
    "verification.instances": ("count", "higher", "corpus_s on registry-search"),
    **{f"verification.claim_s.{cid}": ("s", "lower", "corpus_s on registry-search") for cid in CLAIM_IDS},
    "search.s": ("s", "lower", "corpus_s on registry-search"),
    "search.tested": ("count", "higher", "corpus_s on registry-search"),
    "search.decided_share": ("ratio", "higher", "corpus_s on registry-search"),
}

# (module, public function, span name); every enumeration entry point shares
# one span name, and self time keeps nested calls from counting twice
SPANS = (
    ("sgdelta.semigroup", "make_semigroup", "semigroup.make"),
    ("sgdelta.infinity", "structure_constants", "infinity.structure"),
    ("sgdelta.infinity", "infinity_length_set", "infinity.tables"),
    ("sgdelta.infinity", "delta_inf_semigroup", "infinity.delta_inf"),
    ("sgdelta.factorization", "length_set", "factorization.enumerate"),
    ("sgdelta.factorization", "delta_set_of_element", "factorization.enumerate"),
    ("sgdelta.factorization", "enumerate_factorizations", "factorization.enumerate"),
    ("sgdelta.zero", "delta0_stability_bound", "zero.cones"),
    ("sgdelta.zero", "delta0_semigroup", "zero.union"),
    ("sgdelta.search", "search_delta", "search"),
)


@dataclass
class Span:
    total: float = 0.0
    self: float = 0.0
    calls: int = 0


class Tracer:
    """Spans and counters kept in memory for one replay."""

    def __init__(self):
        self.spans: dict[str, Span] = defaultdict(Span)
        self.counts: Counter = Counter()
        self.table_bytes = 0
        self._open: list[float] = []  # time covered by children, per open span
        self._originals: dict[str, object] = {}
        self._counters: list[count] = []
        self._saved: list[tuple[object, str, object]] = []

    def _record(self, name: str, dur: float, child: float) -> None:
        sp = self.spans[name]
        sp.total += dur
        sp.self += dur - child
        sp.calls += 1
        if self._open:
            self._open[-1] += dur

    def timed(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._open.append(0.0)
            t0 = perf_counter()
            outcome = None
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except Exception as e:
                outcome = e
                raise
            finally:
                dur = perf_counter() - t0
                child = tracer._open.pop()
                tracer._record(tracer.observe(name, args, outcome), dur, child)

        return wrapper

    def counting(self, fn):
        """Wraps a generator function so that the items it yields are
        counted at C speed; `yielded` reads the total."""
        counters = self._counters

        def wrapper(*args, **kwargs):
            c = count()
            counters.append(c)
            return map(itemgetter(0), zip(fn(*args, **kwargs), c))

        return wrapper

    def yielded(self) -> int:
        return sum(next(c) for c in self._counters)

    def observe(self, name: str, args, outcome) -> str:
        """Counters read off a finished call; returns the span name."""
        if name == "infinity.delta_inf":
            if isinstance(outcome, tuple) and outcome[1].mode == "theorem-backed":
                cert = outcome[1]
                horizon = cert.start + (cert.window_periods + 1) * cert.period
                self.counts["infinity.elements_swept"] += horizon + 1
                self.table_bytes = max(self.table_bytes, args[0].embedding_dim * (horizon + 1) * 8)
                return "infinity.sweep"
            return "infinity.empirical"  # an empirical certificate, or its budget overrun
        if name == "zero.union":
            s = args[0]
            self.counts["zero.supports"] += 2 ** s.embedding_dim - 1
            if isinstance(outcome, sg.DeltaSet):
                self.counts["zero.elements_scanned"] += self._originals["delta0_stability_bound"](s) + 1
        elif name == "search" and isinstance(outcome, sg.SearchReport):
            self.counts["search.tested"] += outcome.tested
            self.counts["search.skipped"] += len(outcome.skipped)
        return name

    def patch(self) -> None:
        for modname, attr, span in SPANS + (("sgdelta.factorization", "iter_factorizations", None),):
            orig = getattr(importlib.import_module(modname), attr)
            self._originals[attr] = orig
            wrapped = self.counting(orig) if span is None else self.timed(span, orig)
            for name, mod in list(sys.modules.items()):
                if (name == "sgdelta" or name.startswith("sgdelta.")) and getattr(mod, attr, None) is orig:
                    self._saved.append((mod, attr, orig))
                    setattr(mod, attr, wrapped)

    def restore(self) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()


@dataclass
class Replay:
    tracer: Tracer
    wall_s: float = 0.0
    claim_s: dict[str, float] = field(default_factory=dict)
    instances: int = 0
    attempted: int = 0
    failed: int = 0
    mismatches: list[str] = field(default_factory=list)


def _p(text: str):
    return {"0": sg.P0, "1": sg.P1, "inf": sg.PINF}[text]


def _compute(args, cli_env: dict | None) -> dict:
    s = sg.make_semigroup(tuple(int(t) for t in args.gens.split(",")))
    result: dict = {"generators": list(s.generators)}
    if s.removed:
        result["removed"] = list(s.removed)
    out = {"result": result}
    p = _p(args.p)
    result["p"] = args.p
    if args.what in ("lengths", "delta"):
        result["x"] = args.x
        result["lengths"] = list(sg.length_set(s, args.x, p).values)
        if args.what == "delta":
            result["delta"] = list(sg.delta_set_of_element(s, args.x, p).values)
    elif args.what == "delta-semigroup" and p == sg.P0:
        result["stability_bound"] = sg.delta0_stability_bound(s)  # the cones
        result["delta"] = list(sg.delta0_semigroup(s).values)  # the union pass
    elif args.what == "delta-semigroup" and p == sg.PINF:
        sg.structure_constants(s)
        cert = (cli_env or {}).get("certificate") or {}
        if cert.get("mode") == "theorem-backed":
            horizon = cert["start"] + (cert["window_periods"] + 1) * cert["period"]
            sg.infinity_length_set(s, horizon)  # the min-max tables
        d, c = sg.delta_inf_semigroup(s)  # sweep, periodicity check, union
        result["delta"] = list(d.values)
        out["certificate"] = {
            "start": c.start,
            "period": c.period,
            "window_periods": c.window_periods,
            "mode": c.mode,
            "union_horizon": c.union_horizon,
        }
    else:
        raise ValueError(f"no traced replay for compute {args.what} --p {args.p}")
    return out


def _family(args) -> dict:
    spec = sg.parse_family(args.spec)
    s = sg.construct_family(spec)
    checks = {}
    for name in ("0", "inf") if args.p == "both" else (args.p,):
        p = _p(name)
        pred = sg.predicted_delta(spec, p)
        entry: dict = {"predicted": pred.describe() if pred else "unspecified"}
        try:
            if p == sg.P0:
                sg.delta0_stability_bound(s)
                computed = sg.delta0_semigroup(s)
            else:
                computed = sg.delta_inf_semigroup(s)[0]
            entry["computed"] = list(computed.values)
            if pred is not None:
                entry["match"] = pred.matches(computed)
        except sg.BudgetExceeded as e:
            entry["status"] = "budget"
            entry["detail"] = str(e)
        checks[name] = entry
    return {"result": {"family": spec.text(), "generators": list(s.generators), "checks": checks}}


def _verify(args, rep: Replay) -> dict:
    ids = list(verification.CLAIMS) if args.claim == "all" else [args.claim]
    instances = []
    for cid in ids:
        t0 = perf_counter()
        got = verification.run_claim(cid, quick=args.quick, extended=args.extended, workers=1, budget=None)
        rep.claim_s[cid] = rep.claim_s.get(cid, 0.0) + perf_counter() - t0
        instances += got
    rep.instances += len(instances)
    rows = [{"claim": i.claim, "instance": i.label, "status": i.status, "detail": i.detail} for i in instances]
    summary = {st: sum(1 for i in instances if i.status == st) for st in ("pass", "fail", "report", "budget")}
    return {"result": {"instances": rows, "summary": summary}}


def _search(args) -> dict:
    budget = sg.Budget(max_element=args.budget_elements) if args.budget_elements else None
    target = tuple(int(t) for t in args.target.split(","))
    report = sg.search_delta(target, _p(args.p), max_dim=args.max_dim, max_gen=args.max_gen, budget=budget, workers=1)
    return {
        "result": {
            "target": list(report.target),
            "p": args.p,
            "max_dim": report.max_dim,
            "max_gen": report.max_gen,
            "tested": report.tested,
            "hits": [list(h) for h in report.hits],
            "skipped": [{"generators": list(g), "reason": r} for g, r in report.skipped],
            "exhausted": report.exhausted,
        }
    }


def _replay_one(argv: list[str], cli_env: dict | None, rep: Replay) -> dict:
    args = build_parser().parse_args(argv + ["--threads", "1"])
    if args.command == "compute":
        return _compute(args, cli_env)
    if args.command == "family":
        return _family(args)
    if args.command == "verify":
        return _verify(args, rep)
    if args.command == "search":
        return _search(args)
    raise ValueError(f"no traced replay for {args.command}")


def replay(order: list[list[str]], cli_outputs: dict) -> Replay:
    """Replays `order` in this process and checks each output against the
    CLI output of the same query, by the rule `expected.json` is checked by."""
    tracer = Tracer()
    rep = Replay(tracer)
    tracer.patch()
    try:
        t0 = perf_counter()
        for argv in order:
            cli_env = cli_outputs.get(query_key(argv))
            got = json.loads(json.dumps(_replay_one(argv, cli_env, rep), default=str))
            rep.attempted += 1
            if cli_env is None or not all(matches(got[part], cli_env.get(part)) for part in got):
                rep.failed += 1
                rep.mismatches.append(query_key(argv))
        rep.wall_s = perf_counter() - t0
    finally:
        tracer.restore()
    return rep


def per_layer_metrics(rep: Replay, cli_runs) -> dict:
    """Per-layer metrics from the replay and the untraced pass `cli_runs`."""
    cli_pass_s = sum(r.wall_s for r in cli_runs)
    t = rep.tracer
    sp = t.spans
    c = t.counts
    factorizations = t.yielded()
    envelope_s = sum((r.envelope() or {}).get("timing", {}).get("seconds", 0.0) for r in cli_runs)
    sweep_s = sp["infinity.sweep"].self
    empirical_s = sp["infinity.empirical"].self
    enumerate_s = sp["factorization.enumerate"].self
    tested = c["search.tested"]
    values = {
        "cli.pass_s": cli_pass_s,
        "trace.replay_s": rep.wall_s,
        "cli.overhead_s": cli_pass_s - envelope_s,
        "semigroup.make_s": sp["semigroup.make"].self,
        "semigroup.instances": sp["semigroup.make"].calls,
        "infinity.structure_s": sp["infinity.structure"].self,
        "infinity.tables_s": sp["infinity.tables"].self,
        "infinity.table_bytes": t.table_bytes,
        "infinity.sweep_s": sweep_s,
        "infinity.elements_swept": c["infinity.elements_swept"],
        "infinity.sweep_us_per_element": 1e6 * sweep_s / c["infinity.elements_swept"] if c["infinity.elements_swept"] else 0.0,
        "infinity.empirical_s": empirical_s,
        "infinity.empirical_share": empirical_s / (sweep_s + empirical_s) if sweep_s + empirical_s else 0.0,
        "factorization.enumerate_s": enumerate_s,
        "factorization.factorizations": factorizations,
        "factorization.factorizations_per_s": factorizations / enumerate_s if enumerate_s else 0.0,
        "zero.cones_s": sp["zero.cones"].self,
        "zero.union_s": sp["zero.union"].self,
        "zero.supports": c["zero.supports"],
        "zero.elements_scanned": c["zero.elements_scanned"],
        "verification.instances": rep.instances,
        **{f"verification.claim_s.{cid}": rep.claim_s.get(cid, 0.0) for cid in CLAIM_IDS},
        "search.s": sp["search"].total,
        "search.tested": tested,
        "search.decided_share": (tested - c["search.skipped"]) / tested if tested else 0.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, (unit, _, _) in PER_LAYER.items()}
