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
from .fields import Poly


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
    i = 0
    while True:
        top = k * (m + i) - delta - 1
        if top >= 0:
            lhs = 0
            power = 1
            for _ in range(top + 1):
                lhs += -(-d // power)
                power *= q
            if lhs > n * (m + i):
                return False
            if power // q >= d:
                # stabilized: verify one extra level, then done
                top2 = k * (m + i + 1) - delta - 1
                lhs2 = 0
                power = 1
                for _ in range(top2 + 1):
                    lhs2 += -(-d // power)
                    power *= q
                return lhs2 <= n * (m + i + 1)
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


def _word_ops(field, n: int):
    """Arithmetic on words of n symbols of `field`, each word packed in one int.

    A symbol is the e base-p digits of its field code (see `fields`), each
    digit in b bits: b = 1 for p = 2, else the smallest b with
    p <= 2^(b-1), so that a digit sum, even plus 2^(b-1) - p, stays inside
    its b bits.  Symbol j takes bits [j*W, (j+1)*W) with W = e*b.  Returns
    `pack` (a sequence of n codes to a word), `add` (the symbol-wise field
    sum of two words) and `weight` (the number of nonzero symbols).
    """
    p, e = field.p, field.deg
    b = 1 if p == 2 else (p - 1).bit_length() + 1
    W = e * b
    spread = [
        sum((c // p ** i % p) << (i * b) for i in range(e)) for c in range(field.q)
    ]

    def pack(codes) -> int:
        return sum(spread[c] << (j * W) for j, c in enumerate(codes))

    if p == 2:
        add = operator.xor
    else:
        top = b - 1
        # per digit: 2^(b-1) - p, and the top bit, which t + C sets iff t >= p
        C = sum(((1 << top) - p) << (i * b) for i in range(e * n))
        H = sum(1 << (i * b + top) for i in range(e * n))

        def add(x: int, y: int) -> int:
            t = x + y
            return t - (((t + C) & H) >> top) * p

    # OR each symbol's W bits into its bit 0; the shifts add up to exactly
    # W - 1, so no symbol reads a bit of the next one
    shifts = []
    covered = 1
    while covered < W:
        shifts.append(min(covered, W - covered))
        covered += shifts[-1]
    low = sum(1 << (j * W) for j in range(n))

    def weight(x: int) -> int:
        for s in shifts:
            x |= x >> s
        return (x & low).bit_count()

    return pack, add, weight


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
    """
    field = G.field
    if not G.is_right_invertible():
        raise NotRightInvertible("free distance needs a right-invertible matrix")
    if not G.is_minimal():
        raise NotMinimal("state realization needs a minimal generator matrix")
    k, n = G.shape
    q = field.q
    # a right-invertible G has no zero row, so every row degree is an int
    nstates = q ** sum(G.row_degrees())
    if nstates > state_cap:
        raise StateCapExceeded(f"q^delta = {nstates} exceeds the cap {state_cap}")
    pack, add, word_weight = _word_ops(field, n)
    rows, degs = _coefficient_tables(G, pack)
    delta = sum(degs)
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
    edges = list(zip(inp_out, place, range(len(inputs))))

    # Dijkstra over states; a path must leave the zero state with a nonzero
    # input block and ends on its first return to the zero state.  The heap
    # key w * nstates + s pops in (w, s) order.
    unreached = n * nstates + 1  # a shortest path has at most nstates edges
    dist = [unreached] * nstates
    parent = [None] * nstates
    heap = [0]
    best = None
    best_final = None  # (last state, last input) of the closing edge
    while heap:
        w, s = divmod(heapq.heappop(heap), nstates)
        if w > dist[s]:
            continue
        if best is not None and w >= best:
            break
        base, sh = out[s], shift[s]
        for y, pl, ai in edges if s else edges[1:]:
            cand = w + word_weight(add(base, y))
            ns = sh + pl
            if ns == 0:
                if best is None or cand < best:
                    best, best_final = cand, (s, ai)
            elif cand < dist[ns]:
                dist[ns] = cand
                parent[ns] = (s, ai)
                heapq.heappush(heap, cand * nstates + ns)
    if best is None:
        raise AssertionError("the state graph has no path back to the zero state")
    # reconstruct the input block sequence of the optimal excursion
    s, ai = best_final
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


def free_distance_bruteforce(
    G: PolyMatrix, max_message_degree: int, cap: int = 2 ** 24
) -> int:
    """Min weight of uG over nonzero messages u with deg u <= D.

    Exhaustive over message space (so an upper bound on the free distance,
    exact once D is large enough), implemented as a depth-first scan over
    input blocks in time order with sound weight pruning: emitted blocks
    only ever add weight, and shifting a message down in time preserves
    weight, so only messages with a nonzero block at time 0 are scanned.
    """
    field = G.field
    k, n = G.shape
    q = field.q
    D = max_message_degree
    if q ** (k * (D + 1)) > cap:
        raise EnumerationCapExceeded(
            f"q^(k(D+1)) = {q**(k*(D+1))} exceeds the cap {cap}"
        )
    pack, add, word_weight = _word_ops(field, n)
    rows, degs = _coefficient_tables(G, pack)
    m = max(degs) if degs else 0
    inputs = list(itertools.product(range(q), repeat=k))

    # contrib[j][a]: the output word of input block a placed j steps in the past
    contrib = []
    for j in range(m + 1):
        table = []
        for a in inputs:
            acc = 0
            for i, c in enumerate(a):
                if c and j <= degs[i]:
                    acc = add(acc, rows[i][j][c])
            table.append(acc)
        contrib.append(table)
    now = contrib[0]
    blocks = range(len(inputs))
    # input block per time step, 0 being the zero block; entries from t on
    # are left over from earlier branches and are overwritten before any read
    history = [0] * (D + 1)
    best = None

    def tail_weight(total):
        """Add the weight of the blocks emitted after time D."""
        for t in range(D + 1, D + m + 1):
            acc = 0
            for j in range(t - D, min(m, t) + 1):
                past = history[t - j]
                if past:
                    acc = add(acc, contrib[j][past])
            total += word_weight(acc)
            if best is not None and total >= best:
                return total
        return total

    def dfs(t, partial):
        nonlocal best
        if t > D:
            total = tail_weight(partial)
            if best is None or total < best:
                best = total
            return
        # what the blocks before time t add to the block emitted at time t
        past = 0
        for j in range(1, min(m, t) + 1):
            h = history[t - j]
            if h:
                past = add(past, contrib[j][h])
        for a in blocks[1:] if t == 0 else blocks:
            w = partial + word_weight(add(past, now[a]))
            if best is not None and w >= best:
                continue
            history[t] = a
            dfs(t + 1, w)

    dfs(0, 0)
    if best is None:
        raise AssertionError("the enumeration found no nonzero codeword")
    return best
