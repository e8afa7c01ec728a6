"""Free distance (exact state-graph search plus a brute-force oracle) and
the generalized Singleton and Griesmer bounds."""

from __future__ import annotations

import heapq
import itertools
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


def _coefficient_tables(G: PolyMatrix):
    """Per-row z-coefficient vectors of the generator matrix, as code tuples."""
    k, n = G.shape
    degs = [max(int(d), 0) for d in G.row_degrees()]
    rows = []
    for i in range(k):
        row = []
        for j in range(degs[i] + 1):
            row.append(tuple(G.entries[i][c].codes[j] if j < len(G.entries[i][c].codes) else 0 for c in range(n)))
        rows.append(row)
    return rows, degs


def free_distance(G: PolyMatrix, state_cap: int = 2 ** 16) -> DistanceReport:
    """Exact free distance via shortest nontrivial zero-to-zero path in the
    controller-form state graph of the minimal encoder."""
    field = G.field
    if not G.is_right_invertible():
        raise NotRightInvertible("free distance needs a right-invertible matrix")
    if not G.is_minimal():
        raise NotMinimal("state realization needs a minimal generator matrix")
    k, n = G.shape
    q = field.q
    coeff_rows, degs = _coefficient_tables(G)
    delta = sum(degs)
    nu_max = max(degs) if degs else 0
    if q ** delta > state_cap:
        raise StateCapExceeded(f"q^delta = {q**delta} exceeds the cap {state_cap}")
    add = field._add
    mul = field._mul

    def vec_add(a, b):
        return tuple(add[x][y] for x, y in zip(a, b))

    def vec_scale(c, v):
        row = mul[c]
        return tuple(row[x] for x in v)

    zero_vec = (0,) * n
    inputs = list(itertools.product(range(q), repeat=k))
    inp_out = {}
    for a in inputs:
        acc = zero_vec
        for i, c in enumerate(a):
            if c:
                acc = vec_add(acc, vec_scale(c, coeff_rows[i][0]))
        inp_out[a] = acc

    # state: tuple of per-row registers, newest first: s[i] = (u_{i,t-1}, ..., u_{i,t-nu_i})
    def state_output(s):
        acc = zero_vec
        for i in range(k):
            for j, c in enumerate(s[i], start=1):
                if c:
                    acc = vec_add(acc, vec_scale(c, coeff_rows[i][j]))
        return acc

    def step(s, a):
        return tuple(
            ((a[i],) + s[i][:-1]) if degs[i] else ()
            for i in range(k)
        )

    zero_state = tuple((0,) * d for d in degs)

    # Dijkstra over states; a path must leave the zero state with a nonzero
    # input block and ends on its first return to the zero state.
    dist = {}
    parent = {}
    heap = []
    best = None
    best_final = None  # (last_state, last_input) closing edge
    for a in inputs:
        if not any(a):
            continue
        y = inp_out[a]
        w = sum(1 for c in y if c)
        ns = step(zero_state, a)
        if ns == zero_state:
            if best is None or w < best:
                best, best_final = w, (None, a)
            continue
        if ns not in dist or w < dist[ns]:
            dist[ns] = w
            parent[ns] = (None, a)
            heapq.heappush(heap, (w, ns))
    done = set()
    while heap:
        w, s = heapq.heappop(heap)
        if s in done or w > dist[s]:
            continue
        done.add(s)
        if best is not None and w >= best:
            break
        base = state_output(s)
        for a in inputs:
            y = vec_add(base, inp_out[a])
            wt = sum(1 for c in y if c)
            ns = step(s, a)
            if ns == zero_state:
                cand = w + wt
                if best is None or cand < best:
                    best, best_final = cand, (s, a)
            else:
                cand = w + wt
                if ns not in dist or cand < dist[ns]:
                    dist[ns] = cand
                    parent[ns] = (s, a)
                    heapq.heappush(heap, (cand, ns))
    if best is None:
        raise AssertionError("the state graph has no path back to the zero state")
    # reconstruct the input block sequence of the optimal excursion
    blocks = []
    s, a = best_final
    blocks.append(a)
    while s is not None:
        ps, pa = parent[s]
        blocks.append(pa)
        s = ps
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
    coeff_rows, degs = _coefficient_tables(G)
    m = max(degs) if degs else 0
    add = field._add
    mul = field._mul
    zero_vec = (0,) * n
    inputs = list(itertools.product(range(q), repeat=k))

    # contribution of input block a placed j steps in the past
    contrib = [dict() for _ in range(m + 1)]
    for j in range(m + 1):
        for a in inputs:
            acc = zero_vec
            for i, c in enumerate(a):
                if c and j <= degs[i]:
                    row = mul[c]
                    acc = tuple(
                        add[x][row[y]] for x, y in zip(acc, coeff_rows[i][j])
                    )
            contrib[j][a] = acc

    zero_block = (0,) * k
    best = None

    def emitted(history, t, a):
        """Output block at time t when block a is issued (history holds 0..t-1)."""
        acc = contrib[0][a]
        for j in range(1, m + 1):
            if t - j >= 0:
                past = history[t - j]
                if past != zero_block:
                    acc = tuple(add[x][y] for x, y in zip(acc, contrib[j][past]))
        return acc

    def tail_weight(history, partial):
        total = partial
        for t in range(D + 1, D + m + 1):
            acc = zero_vec
            for j in range(1, m + 1):
                if 0 <= t - j <= D:
                    past = history[t - j]
                    if past != zero_block:
                        acc = tuple(add[x][y] for x, y in zip(acc, contrib[j][past]))
            total += sum(1 for c in acc if c)
            if best is not None and total >= best:
                return total
        return total

    history = [zero_block] * (D + 1)

    def dfs(t, partial):
        nonlocal best
        if t > D:
            total = tail_weight(history, partial)
            if best is None or total < best:
                best = total
            return
        first = t == 0
        for a in inputs:
            if first and not any(a):
                continue
            y = emitted(history, t, a)
            w = partial + sum(1 for c in y if c)
            if best is not None and w >= best:
                continue
            history[t] = a
            dfs(t + 1, w)
            history[t] = zero_block

    dfs(0, 0)
    if best is None:
        raise AssertionError("the enumeration found no nonzero codeword")
    return best
