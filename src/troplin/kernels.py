"""Bitmask kernels: the basis-exchange scan and transversal basis enumeration.

Subsets of [n] are n-bit ints; bit k stands for element k+1.
"""

from itertools import combinations

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


def _admits_matching(amask, b_mask, slot_index, slot_masks):
    """Perfect matching of A\\B into B\\A along the allowed slot masks."""
    free = b_mask & ~amask
    adj = []
    need = amask & ~b_mask
    while need:
        bit = need & -need
        need ^= bit
        a = slot_masks[slot_index[bit.bit_length()]] & free
        if a == 0:
            return False
        adj.append(a)

    matched_right = {}  # right bit -> left index
    seen = 0

    def augment(u):
        nonlocal seen
        avail = adj[u] & ~seen
        while avail:
            bit = avail & -avail
            avail ^= bit
            seen |= bit
            w = matched_right.get(bit)
            if w is None or augment(w):
                matched_right[bit] = u
                return True
        return False

    for u in range(len(adj)):
        seen = 0
        if not augment(u):
            return False
    return True


def transversal_basis_masks(n, m, b_mask, slot_elems, slot_masks):
    """Bases of the principal transversal structure rooted at B.

    ``slot_elems`` lists the elements outside B (ascending) and
    ``slot_masks[k]`` is the bitmask of elements of B that slot_elems[k] may
    be matched to.  An m-subset A qualifies iff A\\B admits a system of
    distinct representatives inside B\\A (elements of A∩B represent
    themselves).  Returns the qualifying masks in lexicographic subset order.
    """
    slot_index = {e: k for k, e in enumerate(slot_elems)}
    out = []
    for combo in combinations(range(1, n + 1), m):
        amask = 0
        for e in combo:
            amask |= 1 << (e - 1)
        if _admits_matching(amask, b_mask, slot_index, slot_masks):
            out.append(amask)
    return out
