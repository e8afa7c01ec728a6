"""Free distance (exact state-graph search plus a brute-force oracle) and
the generalized Singleton and Griesmer bounds."""

from __future__ import annotations

import heapq
import itertools
import operator
from dataclasses import dataclass

from .convolutional import PolyMatrix
from .errors import (
    BadParameters,
    EnumerationCapExceeded,
    NotMinimal,
    NotRightInvertible,
    StateCapExceeded,
)
from .fields import NEG_INF, Poly


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
    for all integers i >= 0; once q^(k(m+i)-delta-1) >= d' each further level
    adds k ones on the left and n on the right, so checking one level past
    that point settles the rest.
    """
    if k < 1 or n <= k or delta < 0 or m < 0 or q < 2:
        raise BadParameters("need 1 <= k < n, delta >= 0, m >= 0, q >= 2")
    cap = singleton_bound(n, k, delta)
    for d in range(cap, 0, -1):
        if _griesmer_ok(n, k, delta, m, q, d):
            return d
    return 1


def _griesmer_ok(n, k, delta, m, q, d) -> bool:
    """Whether d passes every level; stops one level past q^top >= d."""
    settled = False
    i = 0
    while True:
        top = k * (m + i) - delta - 1
        if top >= 0:
            lhs, power = 0, 1
            for _ in range(top + 1):
                lhs += -(-d // power)
                power *= q
            if lhs > n * (m + i):
                return False
            if settled:
                return True
            settled = power // q >= d
        i += 1


@dataclass(frozen=True)
class DistanceReport:
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


def _repunit(count: int, width: int) -> int:
    """The int with bit 0 of each of `count` fields of `width` bits set."""
    return ((1 << count * width) - 1) // ((1 << width) - 1)


def _word_ops(field, n: int, blocks: int = 1):
    """Arithmetic on words of `field` symbols, each word packed in one int.

    A symbol is the e base-p digits of its field code (see `fields`), each
    digit in b bits: b = 1 for p = 2, else the smallest b with
    p <= 2^(b-1), so that a digit sum, even plus 2^(b-1) - p, stays inside
    its b bits.  Symbol j takes bits [j*W, (j+1)*W): W is a power-of-two
    number of bytes, with room for the e*b digit bits and for a count up
    to n.  A block is n symbols, or S = n*W bits.

    Returns `pack` (a sequence of codes to a word), `add` (the symbol-wise
    field sum of two words of up to `blocks` blocks), `weight` (the number
    of nonzero symbols of such a word), S, and `block_weights`: given a
    table `words` of one-block words it returns `weights(base)`, which
    weighs every base + words[a] at once and packs the weights into one
    int, weight(base + words[a]) in bits [a*S, (a+1)*S) (a count up to n,
    so below 2^W; every other bit is 0).
    """
    p, e = field.p, field.deg
    b = 1 if p == 2 else (p - 1).bit_length() + 1
    used = e * b
    nbytes = 1
    while 8 * nbytes < max(used, n.bit_length()):
        nbytes *= 2
    W = 8 * nbytes
    S = n * W
    spread = [
        sum((c // p ** i % p) << (i * b) for i in range(e)) for c in range(field.q)
    ]

    def pack(codes) -> int:
        return sum(spread[c] << (j * W) for j, c in enumerate(codes))

    def adder(symbols: int):
        if p == 2:
            return operator.xor
        top = b - 1
        digits = _repunit(e, b) * _repunit(symbols, W)
        # per digit: 2^(b-1) - p, and the top bit, which t + C sets iff t >= p
        C = ((1 << top) - p) * digits
        H = (1 << top) * digits

        def add(x: int, y: int) -> int:
            t = x + y
            return t - (((t + C) & H) >> top) * p

        return add

    # OR each symbol's e*b digit bits into its bit 0; the shifts add up to
    # e*b - 1 < W, so no symbol reads a bit of the next one
    shifts = []
    covered = 1
    while covered < used:
        shifts.append(min(covered, used - covered))
        covered += shifts[-1]
    low = _repunit(n, W)
    lows = _repunit(n * blocks, W)

    def weight(x: int) -> int:
        for s in shifts:
            x |= x >> s
        return (x & lows).bit_count()

    def block_weights(words):
        # slot a (S bits) of one wide int holds base + words[a]; after the
        # fold, x & bits keeps bit 0 of each nonzero symbol, and times low,
        # symbol n-1 of slot a sums exactly the n bits of slot a (a W-bit
        # field holds a count up to n, so nothing carries out of it); moved
        # down n-1 symbols, each count sits at the bottom of its slot, and
        # the mask clears the partial sums above it (and those that the
        # top slot spills into one more slot)
        slots = len(words)
        rep = _repunit(slots, S)
        table = sum(y << (a * S) for a, y in enumerate(words))
        add_all = adder(n * slots)
        bits = low * rep
        counts = ((1 << W) - 1) * rep
        down = (n - 1) * W

        def weights(base: int) -> int:
            x = add_all(base * rep, table)
            for s in shifts:
                x |= x >> s
            return ((x & bits) * low >> down) & counts

        return weights

    return pack, adder(n * blocks), weight, S, block_weights


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


def free_distance(G: PolyMatrix, state_cap: int = 2 ** 16) -> DistanceReport:
    """Exact free distance via shortest nontrivial zero-to-zero path in the
    controller-form state graph of the minimal encoder.

    A state is the base-q number whose digits are the input registers, row
    0's newest first, then row 1's, and so on; input blocks are numbered in
    `itertools.product` order, so the zero state and the zero block are 0.
    A state's whole fan of q^k edges is weighed and tested against the
    distances of its successors in one packed step, and only the edges that
    improve one are visited, in input order; the result, witness included,
    is that of relaxing every edge in turn.
    """
    field = G.field
    k, n = G.shape
    q = field.q
    # the cap precedes the minors and gcds below; a zero row (degree -inf) first
    row_degrees = G.row_degrees()
    if NEG_INF in row_degrees:
        raise NotRightInvertible("free distance needs a right-invertible matrix")
    _check_cap(q, sum(row_degrees), state_cap, StateCapExceeded, "q^delta")
    if not G.is_right_invertible():
        raise NotRightInvertible("free distance needs a right-invertible matrix")
    if not G.is_minimal():
        raise NotMinimal("state realization needs a minimal generator matrix")
    pack, add, _, S, block_weights = _word_ops(field, n)
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

    # Dijkstra over states; a path must leave the zero state with a nonzero
    # input block and ends on its first return to the zero state.  The heap
    # key w * nstates + s pops in (w, s) order.  The message e_i is the
    # codeword g_i, so d_free < lim and no path of weight >= lim matters:
    # dist starts at lim, dist[0] is the lightest return to the zero state
    # so far and parent[0] its closing edge.  Field a (S bits) of packed[t]
    # holds dist[t + place[a]], so for t = shift[s] one packed subtraction
    # flags every input a with w + weight < the dist of its successor.  No
    # field borrows from the next: S >= 8n bits, and no term passes
    # lim + n <= n(delta + 2) + 1.
    lim = min(weight(row) for row in G.entries) + 1
    dist = [lim] * nstates
    parent = [None] * nstates
    one = _repunit(len(inputs), S)  # bit 0 of every field
    H = one << (S - 1)
    ramp = [(w + 1) * one for w in range(lim)]  # w + 1 in every field
    field_mask = (1 << S) - 1
    packed = [lim * one] * nstates  # only the entries t = shift[s] are read
    # the fields of the inputs that share a place, so reach one successor:
    # they differ only in the rows of degree 0
    fields_of = {}
    for a, pl in enumerate(place):
        fields_of[pl] = fields_of.get(pl, 0) | 1 << (a * S)
    siblings = [fields_of[pl] for pl in place]
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
        flags = ((packed[sh] | H) - tally) & H
        if not s:
            flags &= ~(1 << S - 1)  # the zero block does not leave the zero state
        while flags:
            bit = flags & -flags
            flags ^= bit
            ai = bit.bit_length() // S - 1
            cand = w + (counts >> ai * S & field_mask)
            ns = sh + place[ai]
            packed[sh] -= (dist[ns] - cand) * siblings[ai]
            flags &= (packed[sh] | H) - tally  # a sibling must now beat cand
            dist[ns] = cand
            parent[ns] = (s, ai)
            if ns:
                heapq.heappush(heap, cand * nstates + ns)
    if parent[0] is None:
        raise AssertionError("the state graph has no path back to the zero state")
    best = dist[0]
    # reconstruct the input block sequence of the optimal excursion
    s, ai = parent[0]
    blocks = [inputs[ai]]
    while s:
        s, ai = parent[s]
        blocks.append(inputs[ai])
    blocks.reverse()
    witness = _witness_from_inputs(G, blocks)
    if weight(witness) != best:
        raise AssertionError("witness weight differs from the free distance")
    return _report(G, best, witness, q)


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
    exact once D is large enough), implemented as a depth-first scan over
    input blocks in time order with sound weight pruning: emitted blocks
    only ever add weight, and shifting a message down in time preserves
    weight, so only messages with a nonzero block at time 0 are scanned.
    A nonzero scalar c keeps the weight and degree of cu, so the block at
    time 0 is scanned only with its last nonzero symbol 1.  A scan node
    tests its whole fan of q^k blocks against its own best weight so far in
    one packed step, and visits only the blocks that stay below it.
    """
    field = G.field
    k, n = G.shape
    q = field.q
    D = max_message_degree
    if D < 0:
        raise BadParameters("the message degree bound D must be >= 0")
    _check_cap(q, k * (D + 1), cap, EnumerationCapExceeded, "q^(k(D+1))")
    m = max(max(d, 0) for d in G.row_degrees())  # a zero row has degree -inf
    pack, add, weight, S, block_weights = _word_ops(field, n, m + 1)
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
    best = n * (D + m + 1) + 1  # above the weight of every codeword scanned

    def dfs(t, pending, partial):
        """Scan time t on; `pending` is what the blocks before t still emit,
        from time t on, and `partial` the weight they emitted before t."""
        nonlocal best
        if t > D:
            best = min(best, partial + weight(pending))
            return
        counts = weights(pending & first)
        # the blocks a with partial + weight < best, in increasing order;
        # best may drop while they are scanned, so each is checked again
        flags = (limits[min(best - partial - 1, n)] - counts) & (H if t else starts)
        while flags:
            bit = flags & -flags
            flags ^= bit
            a = bit.bit_length() // S - 1
            w = partial + (counts >> a * S & first)
            if w < best:
                dfs(t + 1, add(pending, span[a]) >> S, w)

    dfs(0, 0, 0)
    return best
