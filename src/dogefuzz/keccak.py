"""Keccak-256 as used by EVM contracts (selectors, SHA3 opcode, address derivation).

This is the original Keccak submission with multi-rate padding (0x01 domain
byte), not the later standardized variant shipped in hashlib, which pads with
0x06 and therefore produces different digests. No package on the index
provides it, so the permutation lives here. Known-answer vectors are pinned in
the test suite against an independently written reference.

The permutation is unrolled: the 25 lanes live in local variables for all 24
rounds, and each round's theta, rho, pi, chi and iota steps are written out
lane by lane. Fuzzing hashes the same short inputs over and over (a mapping
slot is keccak256(key . slot)), so `keccak256` memoizes digests of inputs that
fit in one rate block (at most 136 bytes) in an LRU of 512 entries. Longer
inputs bypass the memo, so it never holds more than 512 * 136 bytes of keys.
"""

from __future__ import annotations

import struct
from functools import lru_cache

_MASK = (1 << 64) - 1

# Precomputed iota round constants for keccak-f[1600] (24 rounds).
_ROUND_CONSTANTS = (
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A, 0x8000000080008000,
    0x000000000000808B, 0x0000000080000001, 0x8000000080008081, 0x8000000000008009,
    0x000000000000008A, 0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089, 0x8000000000008003,
    0x8000000000008002, 0x8000000000000080, 0x000000000000800A, 0x800000008000000A,
    0x8000000080008081, 0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
)

_RATE = 136  # bytes; capacity 512 bits fixes the 256-bit security level
_BLOCK = struct.Struct("<17Q")  # one rate block as little-endian lanes
_DIGEST = struct.Struct("<4Q")


def _keccak_f1600(state: list[int]) -> None:
    """Apply the 24-round permutation in place. Lanes are 64-bit ints, index x + 5*y."""
    (a00, a01, a02, a03, a04, a05, a06, a07, a08, a09, a10, a11, a12,
     a13, a14, a15, a16, a17, a18, a19, a20, a21, a22, a23, a24) = state
    for rc in _ROUND_CONSTANTS:
        # theta
        c0 = a00 ^ a05 ^ a10 ^ a15 ^ a20
        c1 = a01 ^ a06 ^ a11 ^ a16 ^ a21
        c2 = a02 ^ a07 ^ a12 ^ a17 ^ a22
        c3 = a03 ^ a08 ^ a13 ^ a18 ^ a23
        c4 = a04 ^ a09 ^ a14 ^ a19 ^ a24
        d = c4 ^ (((c1 << 1) | (c1 >> 63)) & _MASK)
        a00, a05, a10, a15, a20 = a00 ^ d, a05 ^ d, a10 ^ d, a15 ^ d, a20 ^ d
        d = c0 ^ (((c2 << 1) | (c2 >> 63)) & _MASK)
        a01, a06, a11, a16, a21 = a01 ^ d, a06 ^ d, a11 ^ d, a16 ^ d, a21 ^ d
        d = c1 ^ (((c3 << 1) | (c3 >> 63)) & _MASK)
        a02, a07, a12, a17, a22 = a02 ^ d, a07 ^ d, a12 ^ d, a17 ^ d, a22 ^ d
        d = c2 ^ (((c4 << 1) | (c4 >> 63)) & _MASK)
        a03, a08, a13, a18, a23 = a03 ^ d, a08 ^ d, a13 ^ d, a18 ^ d, a23 ^ d
        d = c3 ^ (((c0 << 1) | (c0 >> 63)) & _MASK)
        a04, a09, a14, a19, a24 = a04 ^ d, a09 ^ d, a14 ^ d, a19 ^ d, a24 ^ d
        # rho and pi: b[y + 5 * ((2x + 3y) % 5)] = rotl(a[x + 5y], r[x + 5y])
        b00 = a00
        b01 = ((a06 << 44) | (a06 >> 20)) & _MASK
        b02 = ((a12 << 43) | (a12 >> 21)) & _MASK
        b03 = ((a18 << 21) | (a18 >> 43)) & _MASK
        b04 = ((a24 << 14) | (a24 >> 50)) & _MASK
        b05 = ((a03 << 28) | (a03 >> 36)) & _MASK
        b06 = ((a09 << 20) | (a09 >> 44)) & _MASK
        b07 = ((a10 << 3) | (a10 >> 61)) & _MASK
        b08 = ((a16 << 45) | (a16 >> 19)) & _MASK
        b09 = ((a22 << 61) | (a22 >> 3)) & _MASK
        b10 = ((a01 << 1) | (a01 >> 63)) & _MASK
        b11 = ((a07 << 6) | (a07 >> 58)) & _MASK
        b12 = ((a13 << 25) | (a13 >> 39)) & _MASK
        b13 = ((a19 << 8) | (a19 >> 56)) & _MASK
        b14 = ((a20 << 18) | (a20 >> 46)) & _MASK
        b15 = ((a04 << 27) | (a04 >> 37)) & _MASK
        b16 = ((a05 << 36) | (a05 >> 28)) & _MASK
        b17 = ((a11 << 10) | (a11 >> 54)) & _MASK
        b18 = ((a17 << 15) | (a17 >> 49)) & _MASK
        b19 = ((a23 << 56) | (a23 >> 8)) & _MASK
        b20 = ((a02 << 62) | (a02 >> 2)) & _MASK
        b21 = ((a08 << 55) | (a08 >> 9)) & _MASK
        b22 = ((a14 << 39) | (a14 >> 25)) & _MASK
        b23 = ((a15 << 41) | (a15 >> 23)) & _MASK
        b24 = ((a21 << 2) | (a21 >> 62)) & _MASK
        # chi, with iota folded into lane 0
        a00 = b00 ^ (~b01 & b02) ^ rc
        a01 = b01 ^ (~b02 & b03)
        a02 = b02 ^ (~b03 & b04)
        a03 = b03 ^ (~b04 & b00)
        a04 = b04 ^ (~b00 & b01)
        a05 = b05 ^ (~b06 & b07)
        a06 = b06 ^ (~b07 & b08)
        a07 = b07 ^ (~b08 & b09)
        a08 = b08 ^ (~b09 & b05)
        a09 = b09 ^ (~b05 & b06)
        a10 = b10 ^ (~b11 & b12)
        a11 = b11 ^ (~b12 & b13)
        a12 = b12 ^ (~b13 & b14)
        a13 = b13 ^ (~b14 & b10)
        a14 = b14 ^ (~b10 & b11)
        a15 = b15 ^ (~b16 & b17)
        a16 = b16 ^ (~b17 & b18)
        a17 = b17 ^ (~b18 & b19)
        a18 = b18 ^ (~b19 & b15)
        a19 = b19 ^ (~b15 & b16)
        a20 = b20 ^ (~b21 & b22)
        a21 = b21 ^ (~b22 & b23)
        a22 = b22 ^ (~b23 & b24)
        a23 = b23 ^ (~b24 & b20)
        a24 = b24 ^ (~b20 & b21)
    state[:] = (a00, a01, a02, a03, a04, a05, a06, a07, a08, a09, a10, a11, a12,
                a13, a14, a15, a16, a17, a18, a19, a20, a21, a22, a23, a24)


def _sponge(data: bytes | bytearray | memoryview) -> bytes:
    state = [0] * 25
    # pad10*1 with the 0x01 domain byte, then absorb rate-sized blocks
    padded = bytearray(data)
    pad_len = _RATE - (len(padded) % _RATE)
    padded.extend(b"\x00" * pad_len)
    padded[len(data)] ^= 0x01
    padded[-1] ^= 0x80
    for block_start in range(0, len(padded), _RATE):
        state[:17] = [s ^ b for s, b in
                      zip(state, _BLOCK.unpack_from(padded, block_start))]
        _keccak_f1600(state)
    return _DIGEST.pack(*state[:4])


_memo = lru_cache(maxsize=512)(_sponge)


def keccak256(data: bytes | bytearray | memoryview) -> bytes:
    """Return the 32-byte Keccak-256 digest of `data`.

    Digests of inputs of at most `_RATE` bytes come from a 512-entry LRU;
    longer inputs are hashed every time, so the memo holds no large keys.
    """
    if len(data) <= _RATE:
        return _memo(bytes(data))
    return _sponge(data)


keccak256.cache_info = _memo.cache_info
