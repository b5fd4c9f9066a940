"""The unpruned canonical search: the tests' reference for combinatorial types.

The package prunes its search tree by the automorphisms it finds.  The
tests check its canonical encodings against this search, which visits every
discrete leaf of the same tree and keeps the least code.  Both share only
the colour refinement ``_refine``.
"""

from collections import Counter

from pencilfiber.arrangement import _refine


def canonical_encoding(triples):
    """Least relabelled encoding of a set of triples over the lines they cover.

    Search tree: refine, then branch by individualizing each vertex of the
    first non-singleton cell.  Every discrete leaf is a relabelling chosen
    by incidence alone, so the minimum over all leaves is canonical.
    """
    index = {v: n for n, v in enumerate(sorted({v for t in triples for v in t}))}
    triples = [tuple(index[v] for v in t) for t in triples]
    incident = [[] for _ in index]
    for a, b, c in triples:
        incident[a].append((b, c))
        incident[b].append((a, c))
        incident[c].append((a, b))
    best = None
    stack = [[0] * len(index)]
    while stack:
        colour = _refine(stack.pop(), incident)
        target = min((c for c, n in Counter(colour).items() if n > 1), default=None)
        if target is None:
            code = tuple(sorted(tuple(sorted(colour[v] for v in t)) for t in triples))
            if best is None or code < best:
                best = code
            continue
        for v, c in enumerate(colour):
            if c == target:
                # v keeps the front of its cell; the rest of the cell follows it
                stack.append([2 * d + (d == target and u != v) for u, d in enumerate(colour)])
    return best
