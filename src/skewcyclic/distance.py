"""Free distance (exact state-graph search plus a brute-force oracle) and
the generalized Singleton and Griesmer bounds."""

from __future__ import annotations

import heapq
import itertools
from typing import NamedTuple

from .convolutional import PolyMatrix
from .errors import (
    BadParameters,
    EnumerationCapExceeded,
    NotMinimal,
    NotRightInvertible,
    StateCapExceeded,
)
from .fields import NEG_INF, Poly
from .packed import _repunit, _word_ops

# free_distance refuses a state graph of more than this many states, q^delta
DEFAULT_STATE_CAP = 2 ** 16


def weight(v) -> int:
    """Total number of nonzero field coefficients in a polynomial vector."""
    return sum(sum(1 for c in p.codes if c) for p in v)


def singleton_bound(n: int, k: int, delta: int) -> int:
    """(n-k)(floor(delta/k)+1) + delta + 1."""
    if k < 1 or n <= k or delta < 0:
        raise BadParameters("need 1 <= k < n and delta >= 0")
    return (n - k) * (delta // k + 1) + delta + 1


def griesmer_bound(n: int, k: int, delta: int, m: int, q: int) -> int:
    """Largest d' <= S(n,k,delta) passing the block-Griesmer sums for every
    truncation level.

    The level-i condition is sum_{l=0}^{k(m+i)-delta-1} ceil(d'/q^l) <= n(m+i)
    for all integers i >= 0.  Each term is nondecreasing in d', so the d'
    that pass are closed downward and d' is found by bisection over [1, S].
    Forney indices of maximum m and sum delta have m <= delta <= k*m, so
    delta = 0 forces m = 0; other data describe no code, and are refused
    before any level is summed.
    """
    if k < 1 or n <= k or delta < 0 or m < 0 or q < 2:
        raise BadParameters("need 1 <= k < n, delta >= 0, m >= 0, q >= 2")
    if not m <= delta <= k * m:
        raise BadParameters(
            "Forney indices of maximum m and sum delta need m <= delta <= k*m"
        )
    lo, hi = 1, singleton_bound(n, k, delta)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _griesmer_ok(n, k, delta, m, q, mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


def _griesmer_ok(n, k, delta, m, q, d) -> bool:
    """Whether d passes every level.  Only the terms with q^l < d are
    summed, as every later term is 1.  Past the first level that has all of
    them, each level adds k to the sum and n > k to the bound, so that
    level decides the rest."""
    head, power = [], 1
    while power < d:
        head.append(-(-d // power))
        power *= q
    # m <= delta <= k*m, so no level has fewer than 0 terms
    for i in itertools.count():
        terms = k * (m + i) - delta
        if sum(head[:terms]) + max(terms - len(head), 0) > n * (m + i):
            return False
        if terms >= len(head):
            return True


class DistanceReport(NamedTuple):
    distance: int
    witness: tuple  # minimal-weight codeword, n polynomials in z
    singleton: int
    griesmer: int
    attains: str  # "singleton" | "griesmer" | "below"

    def as_dict(self):
        return {
            "distance": self.distance,
            "singleton": self.singleton,
            "griesmer": self.griesmer,
            "attains": self.attains,
            "witness": [p.to_str("z") for p in self.witness],
        }


def _coefficient_tables(G: PolyMatrix, pack):
    """Row degrees of G, and rows[i][j][c]: the z^j coefficient vector of
    row i scaled by the field element with code c, as a packed word."""
    mul = G.field._mul
    degs = [max(d, 0) for d in G.row_degrees()]  # a zero row has degree -inf
    rows = []
    for entries, deg in zip(G.entries, degs):
        coeffs = [
            [e.codes[j] if j < len(e.codes) else 0 for e in entries]
            for j in range(deg + 1)
        ]
        rows.append([[pack([scale[x] for x in v]) for scale in mul] for v in coeffs])
    return rows, degs


def free_distance(G: PolyMatrix, state_cap: int = DEFAULT_STATE_CAP) -> DistanceReport:
    """Exact free distance via shortest nontrivial zero-to-zero path in the
    controller-form state graph of the minimal encoder.

    A state is the base-q number whose digits are the input registers, row
    0's newest first, then row 1's, and so on; input blocks are numbered in
    `itertools.product` order, so the zero state and the zero block are 0.

    The graph is F-linear: scaling a state and an input block by c != 0
    scales the successor and the emitted word, so it keeps the edge
    weight, and the q - 1 nonzero multiples of a state share one distance.
    Dijkstra runs over these classes, (q^delta - 1)/(q - 1) of them besides
    the zero state, each named by its member whose most significant nonzero
    digit is 1.  A state's whole fan of q^k edges is weighed and tested
    against cached distances of its successors in one packed step.

    The witness is the one that Dijkstra over every state records, relaxing
    every edge in turn: it keeps the first edge into a state t, in the
    order the search settles states and then in input order, of weight
    dist[t] - dist[s].  That order reads the final distances alone, so the
    excursion is rebuilt backwards from the zero state without parent
    pointers.  At distance w, the heads of edges from lighter states are in
    the heap when the level starts, and the head of an edge of weight 0
    joins it when the tail, its zero parent, pops.  So y settles before z
    iff settle_key(y, w) < settle_key(z, w): walking up y's chain of zero
    parents, y and each state larger than every one kept before, root first.
    """
    field = G.field
    k, n = G.shape
    q = field.q
    # the cap precedes the column reduction below; a zero row (degree -inf) first
    row_degrees = G.row_degrees()
    if NEG_INF in row_degrees:
        raise NotRightInvertible("free distance needs a right-invertible matrix")
    _check_cap(q, sum(row_degrees), state_cap, StateCapExceeded, "q^delta")
    if not G.is_right_invertible():
        raise NotRightInvertible("free distance needs a right-invertible matrix")
    if not G.is_minimal():
        raise NotMinimal("state realization needs a minimal generator matrix")
    pack, add, word_weight, S, block_weights = _word_ops(field, n)
    rows, degs = _coefficient_tables(G, pack)
    delta = sum(degs)
    nstates = q ** delta
    inputs = list(itertools.product(range(q), repeat=k))
    # place value of each register digit; the newest one of row i is first[i]
    radix = [q ** (delta - 1 - f) for f in range(delta)]
    first = [sum(degs[:i]) for i in range(k)]
    place = [
        sum(c * radix[first[i]] for i, c in enumerate(a) if degs[i]) for a in inputs
    ]
    # the inputs of one place reach one successor: they differ only in the
    # rows of degree 0
    inputs_at = {}
    for a, pl in enumerate(place):
        inputs_at.setdefault(pl, []).append(a)
    inp_out = []
    for a in inputs:
        y = 0
        for i, c in enumerate(a):
            y = add(y, rows[i][0][c])
        inp_out.append(y)
    # by linearity, one register digit at a time (most significant first):
    # out[s] is the word the registers of s emit, shift[s] is s with every
    # register moved one step older, so the next state is shift[s] + place[a]
    out, shift = [0], [0]
    for i in range(k):
        for j in range(1, degs[i] + 1):
            moved = radix[first[i] + j] if j < degs[i] else 0
            out = [add(y, t) for y in out for t in rows[i][j]]
            shift = [s + c * moved for s in shift for c in range(q)]
    weights = block_weights(inp_out)
    name = _class_names(field, delta)

    # Dijkstra over classes; a path must leave the zero state with a nonzero
    # input block and ends on its first return to the zero state.  The heap
    # key w * nstates + s pops in (w, s) order.  The message e_i is the
    # codeword g_i, so d_free < lim and no path of weight >= lim matters:
    # dist starts at lim, and dist[0] is the lightest return to the zero
    # state so far.  Field a (S bits) of packed[t] caches the distance of
    # the class of t + place[a]; it is never below it, but stays high when
    # the class improves through another of its states.  So for t =
    # shift[s] one packed subtraction flags every input a with w + weight
    # below its field, the improving inputs among them, and each flagged
    # field is set to the class distance, with the fields of the inputs of
    # its place.  No field borrows from the next: S >= 8n bits, and no term
    # passes lim + n <= n(delta + 2) + 1.
    lim = min(weight(row) for row in G.entries) + 1
    dist = [lim] * nstates  # only the entries of class names are read
    one = _repunit(len(inputs), S)  # bit 0 of every field
    H = one << (S - 1)
    ramp = [(w + 1) * one for w in range(lim)]  # w + 1 in every field
    field_mask = (1 << S) - 1
    packed = [lim * one] * nstates  # only the entries t = shift[s] are read
    siblings = [sum(1 << (b * S) for b in inputs_at[pl]) for pl in place]
    heap = [0]
    while heap:
        w, s = divmod(heapq.heappop(heap), nstates)
        if w > dist[s]:
            continue
        if w >= dist[0]:
            break
        sh = shift[s]
        counts = weights(out[s])
        tally = counts + ramp[w]
        cache = packed[sh]
        flags = ((cache | H) - tally) & H
        if not s:
            flags &= ~(1 << S - 1)  # the zero block does not leave the zero state
        while flags:
            ai = (flags & -flags).bit_length() // S - 1
            cand = w + (counts >> ai * S & field_mask)
            t = name[sh + place[ai]]
            if cand < dist[t]:
                dist[t] = cand
                if t:
                    heapq.heappush(heap, cand * nstates + t)
            else:
                cand = dist[t]  # the field was stale
            cache -= ((cache >> ai * S & field_mask) - cand) * siblings[ai]
            flags &= (cache | H) - tally  # ai, and a sibling, must now beat it
        packed[sh] = cache
    best = dist[0]
    if best == lim:
        raise AssertionError("the state graph has no path back to the zero state")

    # The search settles the zero state and every state s with dist[s] <
    # best, and no other.  An edge into the zero state from s != 0 emits a
    # nonzero combination of the rows of the high-order coefficient matrix,
    # so weighs >= 1; an edge (s, a) into t with dist[s] + weight = dist[t]
    # <= best therefore starts at a settled state.  Without its newest
    # digits (head), t is shift[s] for s = (t - head) * q + tail, any
    # oldest digits tail, and the inputs are those of place head.
    newest = [first[i] for i in range(k) if degs[i]]
    tails = [0]
    for i in range(k):
        if degs[i]:
            oldest = radix[first[i] + degs[i] - 1]
            tails = [x + c * oldest for x in tails for c in range(q)]

    def edges_into(t):
        """The edges (dist[s], s, a) into t, least first; never the zero
        block from the zero state, which starts at distance 0."""
        head = sum(t // radix[f] % q * radix[f] for f in newest)
        base = (t - head) * q
        return sorted(
            (dist[name[s]] if s else 0, s, a)
            for s in [base + tail for tail in tails]
            for a in inputs_at[head]
            if s or a
        )

    def emits(s, a):
        return word_weight(add(out[s], inp_out[a]))

    def zero_parent(y, w):
        """The state whose edge of weight 0 set dist[y] = w, or None when an
        edge from a lighter state did.  At most one state has an edge of
        weight 0 into y: the difference of two would have one into the zero
        state."""
        edges = edges_into(y)
        zero = (s for ds, s, a in edges if ds == w and not add(out[s], inp_out[a]))
        x = next(zero, None)
        if x is not None and any(ds + emits(s, a) == w for ds, s, a in edges if ds < w):
            return None  # a lighter state reached y first
        return x

    def settle_key(y, w):
        """The settling order of y among the states of distance w."""
        kept = [y]
        x = zero_parent(y, w)
        while x is not None:
            if x > kept[-1]:
                kept.append(x)
            x = zero_parent(x, w)
        return kept[::-1]

    blocks = []
    t, d = 0, best
    while True:
        # the first edge (s, a) into t of weight d - dist[s] that the search
        # relaxes: s of least distance w and, among those, the least s,
        # unless s joined the heap late, behind an edge of weight 0
        edges = edges_into(t)
        tight = (e for e in edges if e[0] + emits(e[1], e[2]) == d)
        w, s, a = next(tight, (None, None, None))
        if s is None:
            raise AssertionError("no edge into a witness state attains its distance")
        if any(e[0] == w and e[1] != s for e in edges) and zero_parent(s, w) is not None:
            # each state's least tight input comes first, and min keeps it
            level = [e for e in edges if e[0] == w and e[1] != s and w + emits(e[1], e[2]) == d]
            w, s, a = min([(w, s, a)] + level, key=lambda e: settle_key(e[1], w))
        blocks.append(inputs[a])
        if not s:
            break
        t, d = s, w
    blocks.reverse()
    witness = _witness_from_inputs(G, blocks)
    if weight(witness) != best:
        raise AssertionError("witness weight differs from the free distance")
    return _report(G, best, witness, q)


def _class_names(field, delta: int):
    """name[s]: the state s (delta base-q digits) scaled by the inverse of
    its most significant nonzero digit, the name of its class of nonzero
    multiples; over GF(2) every class is one state."""
    q = field.q
    if q == 2:
        return list(range(2 ** delta))  # a list indexes faster than a range
    mul, inv = field._mul, field._inv
    names = [0]
    scaled = [[0] for _ in range(q)]  # scaled[c][s] = c * s, digit by digit
    top = 1
    for level in range(delta):
        # the states d * top + s, s < top, most significant digit d
        names += [top + x for d in range(1, q) for x in scaled[inv[d]]]
        if level < delta - 1:
            scaled = [[0]] + [
                [r + x for r in [m * top for m in mul[c]] for x in scaled[c]]
                for c in range(1, q)
            ]
        top *= q
    return names


def _witness_from_inputs(G: PolyMatrix, blocks):
    """Encode an input block sequence into the codeword u(z)G(z)."""
    field = G.field
    k = G.nrows
    u = [Poly(field, [blk[i] for blk in blocks]) for i in range(k)]
    um = PolyMatrix(field, [u])
    return tuple((um * G).entries[0])


def _report(G, d, witness, q):
    k, n = G.shape
    degs = G.row_degrees()
    delta, m = sum(degs), max(degs)
    s = singleton_bound(n, k, delta)
    g = griesmer_bound(n, k, delta, m, q)
    attains = "singleton" if d == s else ("griesmer" if d == g else "below")
    return DistanceReport(
        distance=d, witness=witness, singleton=s, griesmer=g, attains=attains
    )


def _check_cap(q: int, x: int, cap: int, error, name: str):
    """Raise `error` when q^x exceeds `cap`.  As q >= 2, x > log2(cap)
    settles it before q^x is built."""
    if x > cap.bit_length() or q ** x > cap:
        raise error(f"{name} = {q}^{x} exceeds the cap {cap}")


def free_distance_bruteforce(
    G: PolyMatrix, max_message_degree: int, cap: int = 2 ** 24
) -> int:
    """Min weight of uG over nonzero messages u with deg u <= D.

    Exhaustive over message space (so an upper bound on the free distance,
    exact once D is large enough), implemented as a scan over the times
    t = 0..D that keeps one layer per time: each pending word, what the
    blocks chosen before t still emit from t on, with the least weight
    emitted before t.  Two prefixes that leave the same pending word have
    the same continuations, of the same added weight, so only the lighter
    one is expanded; the pending word is a linear image of the last
    deg g_i blocks of each row i, so a layer holds at most q^(sum of row
    degrees) entries.  A prefix whose pending word is 0 may end its
    message there, and any later block only adds weight, so it lowers the
    best weight and is not carried.  Shifting a message down in time keeps
    its weight, so only messages with a nonzero block at time 0 are
    scanned; a nonzero scalar c keeps the weight and degree of cu, so that
    block is scanned only with its last nonzero symbol 1.  Each entry tests
    its whole fan of q^k blocks against the best weight so far in one
    packed step, and expands only the blocks that stay below it.
    """
    field = G.field
    k, n = G.shape
    q = field.q
    D = max_message_degree
    if D < 0:
        raise BadParameters("the message degree bound D must be >= 0")
    _check_cap(q, k * (D + 1), cap, EnumerationCapExceeded, "q^(k(D+1))")
    m = max(max(d, 0) for d in G.row_degrees())  # a zero row has degree -inf
    pack, add, word_weight, S, block_weights = _word_ops(field, n, m + 1)
    rows, degs = _coefficient_tables(G, pack)
    inputs = list(itertools.product(range(q), repeat=k))

    # span[a]: the output of input block a, its block j emitted j steps later
    span = []
    for a in inputs:
        acc = 0
        for i, c in enumerate(a):
            for j in range(degs[i] + 1):
                acc = add(acc, rows[i][j][c] << (j * S))
        span.append(acc)
    first = (1 << S) - 1  # the block emitted now
    weights = block_weights([y & first for y in span])
    one = _repunit(len(inputs), S)  # bit 0 of every field
    H = one << (S - 1)
    # limits[v] - weights(...) keeps the top bit of field a iff the weight
    # in it is at most v; a weight is at most n, so v stops at n
    limits = [v * one + H for v in range(n + 1)]
    # the top bits of the blocks whose last nonzero symbol is 1, which
    # start a message
    starts = sum(
        1 << (a * S + S - 1)
        for a, blk in enumerate(inputs)
        if [c for c in blk if c][-1:] == [1]
    )
    # each row e_i G is scanned at any D >= 0, so the answer is at most the
    # least row weight; input block e_i has index q^(k-1-i)
    best = min(word_weight(span[q ** i]) for i in range(k)) + 1
    layer = {0: 0}  # pending word -> least weight emitted before t
    for t in range(D + 1):
        top_bits = H if t else starts
        nxt = {}
        for pending, partial in layer.items():
            if partial >= best:
                continue
            counts = weights(pending & first)
            # the blocks a with partial + weight < best, in increasing
            # order; best may drop while they are expanded, so each is
            # checked again
            flags = (limits[min(best - partial - 1, n)] - counts) & top_bits
            while flags:
                bit = flags & -flags
                flags ^= bit
                a = bit.bit_length() // S - 1
                w = partial + (counts >> a * S & first)
                if w >= best:
                    continue
                after = add(pending, span[a]) >> S
                if not after:
                    best = w  # the message ends here
                elif nxt.get(after, best) > w:
                    nxt[after] = w
        layer = nxt
    return min([best] + [w + word_weight(y) for y, w in layer.items()])
