"""Words of field symbols packed into one int: the F-vector kernel that the
distance engines and the automorphism enumeration share.

`_word_ops` builds the layout and its arithmetic for words of n symbols,
and `_unpacker` reads a packed word back as its n field codes.
"""

from __future__ import annotations

import operator
import struct


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
    field sum of two words of up to `blocks` blocks), `word_weight` (the
    number of nonzero symbols of such a word), S, and `block_weights`:
    given a table `words` of one-block words it returns `weights(base)`,
    which weighs every base + words[a] at once and packs the weights into
    one int, word_weight(base + words[a]) in bits [a*S, (a+1)*S) (a count
    up to n, so below 2^W; every other bit is 0).
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

    def word_weight(x: int) -> int:
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

    return pack, adder(n * blocks), word_weight, S, block_weights



def _unpacker(field, n: int):
    """`unpack`, the inverse of `_word_ops(field, n)`'s `pack` on one-block
    words: a packed word back to the tuple of its n field codes.

    Each W-bit symbol is one integer of W/8 bytes, so the word's bytes in
    little-endian order, read as little-endian integers of that width,
    list the symbols in order on any host.
    """
    pack, _, _, S, _ = _word_ops(field, n)
    size = S // 8  # S = n*W bits, W a power-of-two number of bytes
    symbol = {pack((c,)): c for c in range(field.q)}.__getitem__
    if size == n:  # one byte per symbol: the bytes are the symbols

        def unpack(x: int) -> tuple:
            return tuple(map(symbol, x.to_bytes(size, "little")))

    else:
        # standard sizes under "<": H, I and Q take 2, 4 and 8 bytes
        layout = struct.Struct("<%d%s" % (n, {2: "H", 4: "I", 8: "Q"}[size // n]))

        def unpack(x: int) -> tuple:
            return tuple(map(symbol, layout.unpack(x.to_bytes(size, "little"))))

    return unpack
