"""Bitmask kernels: the basis-exchange scan and transversal basis enumeration.

Subsets of [n] are n-bit ints; bit k stands for element k+1.  The
transversal search runs its definition as written, trying every bijection:
through `matroid.transversal` it is the reference that `troplin selftest`
and the tests compare `tau`'s support against, on no production path.
"""

from itertools import combinations, permutations

# perfbench records this and refuses to compare runs whose backends differ.
BACKEND = "python"


def exchange_violation(masks, n):
    """First failure of the basis-exchange axiom among the given bitmasks.

    For every ordered pair (A, B) and every a in A\\B there must be some
    b in B\\A with A - a + b again in the list.  Returns (A_mask, B_mask, a)
    for the first failing triple (a is a 1-based element), or None.
    """
    basis_set = set(masks)
    for amask in masks:
        for bmask in masks:
            if amask == bmask:
                continue
            cand = bmask & ~amask
            diff = amask & ~bmask
            while diff:
                abit = diff & -diff
                diff ^= abit
                left = amask ^ abit
                c = cand
                found = False
                while c:
                    bbit = c & -c
                    c ^= bbit
                    if (left | bbit) in basis_set:
                        found = True
                        break
                if not found:
                    return (amask, bmask, abit.bit_length())
    return None


def transversal_basis_masks(n, m, b_mask, slot_elems, slot_masks):
    """Bases of the principal transversal structure rooted at B.

    ``slot_elems`` lists the elements outside B (ascending) and
    ``slot_masks[k]`` is the bitmask of elements of B that slot_elems[k] may
    be matched to.  An m-subset A qualifies iff some bijection from A\\B
    onto B\\A sends each element into its slot mask (elements of A∩B
    represent themselves).  Returns the qualifying masks in lexicographic
    subset order.
    """
    slot_of = dict(zip(slot_elems, slot_masks))
    out = []
    for combo in combinations(range(1, n + 1), m):
        amask = sum(1 << (e - 1) for e in combo)
        need = [slot_of[e] for e in combo if e in slot_of]
        free = [1 << k for k in range(n) if (b_mask & ~amask) >> k & 1]
        if any(all(s & b for s, b in zip(need, perm)) for perm in permutations(free)):
            out.append(amask)
    return out
