import random
from itertools import combinations

from oracles import brute_exchange_violation
from troplin import kernels


def random_basis_family(rng, n):
    m = rng.randint(1, n)
    all_masks = [
        sum(1 << (e - 1) for e in combo)
        for combo in combinations(range(1, n + 1), m)
    ]
    count = rng.randint(1, len(all_masks))
    return rng.sample(all_masks, count), n


def elements(mask):
    return frozenset(k + 1 for k in range(mask.bit_length()) if mask >> k & 1)


def test_exchange_violation_matches_brute_force():
    rng = random.Random(1234)
    violating = 0
    for _ in range(400):
        masks, n = random_basis_family(rng, rng.randint(2, 7))
        bad = brute_exchange_violation(elements(mk) for mk in masks)
        found = kernels.exchange_violation(masks, n)
        if found is None:
            assert not bad, (masks, n)
            continue
        violating += 1
        amask, bmask, a = found
        assert (elements(amask), elements(bmask), a) in bad, (masks, n, found)
    assert 0 < violating < 400  # both outcomes are exercised
