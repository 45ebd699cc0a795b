"""Seeded randomized cross-checks between independent computation routes."""

import math
import random

import sgdelta as sg
from sgdelta.infinity import _get_engine
from sgdelta.zero import support_length_set

from _oracles import full_mask_deltas


def random_semigroups(seed, count, dims, top):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        k = rng.choice(dims)
        gens = sorted(rng.sample(range(2, top), k))
        g = 0
        for a in gens:
            g = math.gcd(g, a)
        if g != 1:
            continue
        try:
            s = sg.make_semigroup(gens)
        except sg.SemigroupError:
            continue
        if s.generators == tuple(gens):
            out.append(s)
    return out


def test_engine_routes_agree_on_random_instances():
    rng = random.Random(4)
    for s in random_semigroups(1, 60, [2, 3, 3, 4], 40):
        hi = rng.randint(40, 240)
        eng = _get_engine(s, hi)
        for x in rng.sample(range(hi + 1), 8):
            zs = sg.enumerate_factorizations(s, x)
            brute = tuple(sorted({max(z) for z in zs})) if zs else ()
            assert tuple(eng.lengths(x)) == brute, (s, x)
            i = rng.randint(1, s.embedding_dim)
            dom = tuple(sorted({max(z) for z in zs if z[i - 1] == max(z)}))
            assert tuple(eng.dominant_values(x, i)) == dom, (s, x, i)
            sizes = tuple(sorted({sum(1 for c in z if c) for z in zs}))
            assert support_length_set(s, x) == sizes, (s, x)
            if zs:
                assert sg.length_set(s, x, sg.P1).values == tuple(sorted({sum(z) for z in zs})), (s, x)


def test_delta0_engine_on_random_instances():
    for s in random_semigroups(2, 40, [2, 3, 4], 30):
        x0 = sg.delta0_stability_bound(s)
        if x0 > 30000:
            continue
        d = sg.delta0_semigroup(s)
        assert d == sg.delta0_union_brute(s, x0 + 2 * s.generators[-1]), s
        if s.embedding_dim == 3:
            assert sg.delta0_3gen(s) == d, s


def test_delta_inf_certificates_on_random_instances():
    budget = sg.Budget(max_element=30_000)
    wide = sg.Budget(max_element=90_000)
    done = 0
    for s in random_semigroups(3, 14, [2, 3], 13):
        try:
            d2, c2 = sg.delta_inf_semigroup(s, window_periods=2, budget=budget)
        except sg.BudgetExceeded:
            continue
        done += 1
        r3 = sg.delta_inf_semigroup(s, window_periods=3, budget=wide)
        assert d2 == r3[0], s
        # the cached sweep gives a fresh instance's answers in either order
        assert r3 == sg.delta_inf_semigroup(sg.make_semigroup(s.generators), window_periods=3, budget=wide), s
        rev = sg.make_semigroup(s.generators)
        assert sg.delta_inf_semigroup(rev, window_periods=3, budget=wide) == r3, s
        assert sg.delta_inf_semigroup(rev, window_periods=2, budget=budget) == (d2, c2), s
        eng = _get_engine(s, c2.union_horizon + c2.period)
        seen = set()
        for x in range(c2.union_horizon + c2.period + 1):
            dt = full_mask_deltas(eng, x)
            if dt:
                seen.update(dt)
        assert seen == d2.as_set(), s
    assert done >= 6
