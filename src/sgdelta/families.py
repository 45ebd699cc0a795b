"""Constructors for the analyzed semigroup families plus their predicted
delta sets, the max-embedding-dimension test, and a general gluing verifier.

Canonical text form, used by the CLI: ``variant:key=value,key=value`` where a
bare token continues the previous value list, e.g. ``supersymmetric:p=5,3,2``
or ``interval:k=3,seeds=5,7``. Only ``p``, ``gens`` and ``seeds`` take a
list; a second value of any other key, or a key given twice, is an error.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .arith import INT64_MAX, ConeTable, ceil_div, is_prime, next_prime
from .errors import InvalidGenerators, PeriodOverflow
from .factorization import P0, PINF, DeltaSet
from .semigroup import NumericalSemigroup, make_semigroup

_PARAM_ORDER = {
    "geometric": ("a", "b", "k"),
    "supersymmetric": ("p",),
    "arithmetic": ("a", "d", "k"),
    "generalized_arithmetic": ("a", "h", "d", "k"),
    "med_check": ("gens",),
    "three_gap": ("m",),
    "interval": ("k", "seeds"),
    "gaps": ("k",),
}


class FamilySpec(namedtuple("FamilySpec", "variant params")):
    """params: (name, value) pairs in parameter order."""

    __slots__ = ()

    def param(self, name: str):
        for k, v in self.params:
            if k == name:
                return v
        raise ValueError(f"{self.variant} needs parameter {name!r}")

    def has(self, name: str) -> bool:
        return any(k == name for k, _ in self.params)

    def text(self) -> str:
        """Canonical text form; `family` stores params in parameter order."""
        parts = [f"{k}=" + (",".join(map(str, v)) if isinstance(v, tuple) else str(v)) for k, v in self.params]
        return f"{self.variant}:" + ",".join(parts)


def family(variant: str, **kw) -> FamilySpec:
    if variant not in _PARAM_ORDER:
        raise ValueError(f"unknown family variant {variant!r}")
    params = []
    for key in _PARAM_ORDER[variant]:
        if key in kw:
            v = kw.pop(key)
            params.append((key, tuple(v) if isinstance(v, (tuple, list)) else int(v)))
    if kw:
        raise ValueError(f"unexpected parameters {sorted(kw)} for {variant}")
    return FamilySpec(variant, tuple(params))


def parse_family(text: str) -> FamilySpec:
    variant, _, rest = text.partition(":")
    raw: dict[str, list[int]] = {}
    current = None
    for tok in [t for t in rest.split(",") if t]:
        if "=" in tok:
            current, v = tok.split("=", 1)
            if current in raw:
                raise ValueError(f"{variant} parameter {current!r} given twice")
            raw[current] = [int(v)]
        elif current is not None:
            raw[current].append(int(tok))
        else:
            raise ValueError(f"cannot parse family parameter {tok!r}")
    for k, v in raw.items():
        if len(v) > 1 and k not in ("p", "gens", "seeds"):
            raise ValueError(f"{variant} parameter {k!r} takes one value, got {len(v)}")
    kw = {k: (tuple(v) if k in ("p", "gens", "seeds") else v[0]) for k, v in raw.items()}
    return family(variant, **kw)


class GluingStep(namedtuple("GluingStep", "scale base_gens new_gen result_gens")):
    """One link of a construction chain: result = scale * span(base) + <new>."""

    __slots__ = ()


def verify_gluing(scale: int, gens: tuple[int, ...], new: int) -> bool:
    """Gluing predicate for scale * span(gens) + <new>: span(gens) must be a
    numerical semigroup (gcd 1) that contains new without new being one of
    its minimal generators, scale must be at least 2 (scale = 1 would make
    new redundant) and the two multipliers must be coprime."""
    if scale < 2 or math.gcd(scale, new) != 1:
        return False
    cone = ConeTable.build(gens)
    return cone.gcd == 1 and new not in cone.gens and cone.contains(new)


def _checked(gens, what: str) -> NumericalSemigroup:
    s = make_semigroup(gens)
    if s.removed:
        raise InvalidGenerators(f"{what} produced a non-minimal generating set {tuple(gens)}")
    return s


def _interval_seeds(spec: FamilySpec) -> tuple[int, int]:
    """The spec's two seeds, checked to be distinct primes above k; by
    default the two least primes above k."""
    k = spec.param("k")
    if not spec.has("seeds"):
        p1 = next_prime(k)
        return p1, next_prime(p1)
    seeds = spec.param("seeds")
    if len(seeds) != 2:
        raise ValueError(f"interval needs exactly 2 seeds, got {len(seeds)}")
    p1, p2 = seeds
    if p1 == p2 or not (is_prime(p1) and is_prime(p2)) or min(p1, p2) <= k:
        raise InvalidGenerators(f"seeds must be distinct primes above k={k}")
    return seeds


def _interval_chain(k: int, seeds: tuple[int, int]) -> list[GluingStep]:
    gens = tuple(sorted(seeds))
    steps = []
    for i in range(3, k + 1):
        new = (k + 1 - i) * gens[0] + sum(gens[1:])
        scale = next_prime(new)
        nxt = tuple(sorted([scale * g for g in gens] + [new]))
        if any(g > INT64_MAX for g in nxt):
            raise PeriodOverflow(f"interval chain overflows 64 bits at stage {i}")
        steps.append(GluingStep(scale, gens, new, nxt))
        gens = nxt
    return steps


def _gaps_chain(k: int) -> list[GluingStep]:
    gens = (2, 3)
    steps = []
    for i in range(3, k + 1):
        new = 2 * gens[-2] + gens[-1]
        nxt = tuple(sorted([2 * g for g in gens] + [new]))
        steps.append(GluingStep(2, gens, new, nxt))
        gens = nxt
    new = sum(gens)
    final = tuple(sorted([2 * g for g in gens] + [new]))
    if any(g > INT64_MAX for g in final):
        raise PeriodOverflow(f"gaps chain overflows 64 bits at k={k}")
    steps.append(GluingStep(2, gens, new, final))
    return steps


def family_chain(spec: FamilySpec) -> list[GluingStep]:
    """The gluing chain behind an interval or gaps construction."""
    if spec.variant == "interval":
        return _interval_chain(spec.param("k"), _interval_seeds(spec))
    if spec.variant == "gaps":
        return _gaps_chain(spec.param("k"))
    raise ValueError(f"{spec.variant} is not a chained construction")


def construct_family(spec: FamilySpec) -> NumericalSemigroup:
    v = spec.variant
    if v == "geometric":
        a, b, k = spec.param("a"), spec.param("b"), spec.param("k")
        if not (2 <= a < b) or math.gcd(a, b) != 1 or k < 2:
            raise InvalidGenerators("geometric needs 2 <= a < b coprime and k >= 2")
        return _checked([a ** (k - i) * b ** (i - 1) for i in range(1, k + 1)], "geometric")
    if v == "supersymmetric":
        ps = spec.param("p")
        if len(ps) < 2 or any(q < 2 for q in ps) or any(x <= y for x, y in zip(ps, ps[1:])):
            raise InvalidGenerators("supersymmetric needs decreasing factors >= 2")
        if any(math.gcd(x, y) != 1 for i, x in enumerate(ps) for y in ps[i + 1 :]):
            raise InvalidGenerators("supersymmetric factors must be pairwise coprime")
        t = math.prod(ps)
        return _checked([t // q for q in ps], "supersymmetric")
    if v == "arithmetic":
        a, d, k = spec.param("a"), spec.param("d"), spec.param("k")
        if not (2 <= k < a) or d < 1 or math.gcd(a, d) != 1:
            raise InvalidGenerators("arithmetic needs 2 <= k < a and gcd(a, d) = 1")
        return _checked([a + i * d for i in range(k + 1)], "arithmetic")
    if v == "generalized_arithmetic":
        a, h, d, k = (spec.param(n) for n in ("a", "h", "d", "k"))
        if h < 1 or not (2 <= k < a) or d < 1 or math.gcd(a, d) != 1:
            raise InvalidGenerators("generalized arithmetic needs h >= 1, 2 <= k < a, gcd(a, d) = 1")
        return _checked([a] + [a * h + i * d for i in range(1, k + 1)], "generalized arithmetic")
    if v == "med_check":
        s = make_semigroup(spec.param("gens"))
        if not is_max_embedding_dimension(s):
            raise InvalidGenerators(f"{s} is not of maximal embedding dimension (need m >= 3)")
        return s
    if v == "three_gap":
        m = spec.param("m")
        if m < 3:
            raise InvalidGenerators("three_gap needs m >= 3")
        return _checked([3, 3 * m + 1, 3 * m + 2], "three_gap")
    if v == "interval":
        k = spec.param("k")
        if k < 2:
            raise InvalidGenerators("interval needs k >= 2")
        if k == 2:
            return _checked(sorted(_interval_seeds(spec)), "interval")
        return _checked(family_chain(spec)[-1].result_gens, "interval")
    if v == "gaps":
        k = spec.param("k")
        if k < 3:
            raise InvalidGenerators("gaps needs k >= 3")
        return _checked(family_chain(spec)[-1].result_gens, "gaps")
    raise ValueError(f"unknown family variant {v!r}")


def is_max_embedding_dimension(s: NumericalSemigroup) -> bool:
    """Embedding dimension equals the multiplicity, which must be >= 3."""
    return s.multiplicity >= 3 and s.embedding_dim == s.multiplicity


class DeltaPrediction(
    namedtuple("DeltaPrediction", "exact required window_low window_high", defaults=(None, (), None, None))
):
    """Either an exact predicted delta set or a window constraint (the gaps
    family pins the delta set only inside [ceil(7k/8), k])."""

    __slots__ = ()

    def matches(self, computed: DeltaSet) -> bool:
        if self.exact is not None:
            return computed == self.exact
        got = computed.as_set()
        if not set(self.required) <= got:
            return False
        # the window constrains only values inside it; for small parameters
        # the window may not reach every required value
        window = {v for v in got if self.window_low <= v <= self.window_high}
        return window == {v for v in self.required if self.window_low <= v <= self.window_high}

    def describe(self) -> str:
        if self.exact is not None:
            return f"= {list(self.exact.values)}"
        return (
            f"contains {list(self.required)} and meets [{self.window_low}, "
            f"{self.window_high}] in exactly that set"
        )


def _exact(vals) -> DeltaPrediction:
    return DeltaPrediction(exact=DeltaSet.from_iterable(vals))


def predicted_delta(spec: FamilySpec, p) -> DeltaPrediction | None:
    """Predicted delta set for (family, norm), or None when no covered
    statement applies."""
    v = spec.variant
    if p == PINF:
        if v == "geometric":
            return _exact(range(1, spec.param("b") + 1))
        if v == "supersymmetric":
            return _exact(range(1, spec.param("p")[0] + 1))
        if v == "arithmetic" or (v == "generalized_arithmetic" and spec.param("h") == 1):
            a, d, k = spec.param("a"), spec.param("d"), spec.param("k")
            q = (a - 1) // k
            return _exact(range(1, q + d + 2))
        if v == "three_gap":
            m = spec.param("m")
            return _exact(set(range(1, m + 2)) | {2 * m, 2 * m + 1})
        return None
    if p == P0:
        if v in ("geometric", "supersymmetric"):
            return _exact([1])
        if v in ("three_gap", "med_check", "arithmetic", "generalized_arithmetic"):
            return _exact([1, 2])
        if v == "interval":
            return _exact(range(1, max(spec.param("k") - 1, 1) + 1))
        if v == "gaps":
            k = spec.param("k")
            return DeltaPrediction(
                required=(k - 1, k), window_low=ceil_div(7 * k, 8), window_high=k
            )
        return None
    raise ValueError(f"p must be 0 or inf, got {p!r}")
