"""Keccak-256 against frozen vectors and the independent reference."""

from __future__ import annotations

import random
from array import array

from hypothesis import given, settings
from hypothesis import strategies as st

from dogefuzz.keccak import keccak256

from keccak_oracle import _permute, keccak256_reference

# Frozen known-answer vectors for the EVM's hash (0x01 padding). These are
# external anchors; they must never be regenerated from either implementation.
KNOWN_VECTORS = [
    (b"", "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"),
    (b"abc", "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"),
    (
        b"transfer(address,uint256)",
        "a9059cbb2ab09eb219583f4a59a5d0623ade346d962bcd4e46b11da047c9049b",
    ),
    (
        b"The quick brown fox jumps over the lazy dog",
        "4d741b6f1eb29cb2a9b9911c82f56fa8d73b04959d3d9d222895df6c0b28aa15",
    ),
]


def test_known_vectors() -> None:
    for message, digest_hex in KNOWN_VECTORS:
        assert keccak256(message).hex() == digest_hex


def test_reference_matches_known_vectors() -> None:
    # the oracle itself must be anchored before it can arbitrate anything
    for message, digest_hex in KNOWN_VECTORS:
        assert keccak256_reference(message).hex() == digest_hex


def test_differs_from_standardized_sha3() -> None:
    import hashlib

    assert keccak256(b"").hex() != hashlib.sha3_256(b"").hexdigest()


def test_permutation_reproduces_hashlib_under_nist_padding() -> None:
    # the two variants share the permutation and differ only in the domain
    # byte (0x01 vs 0x06), so running our sponge with 0x06 must reproduce
    # hashlib exactly; this anchors the permutation to a third, external
    # implementation
    import hashlib

    from dogefuzz.keccak import _RATE, _keccak_f1600

    def sponge_with_domain(data: bytes, domain: int) -> bytes:
        state = [0] * 25
        padded = bytearray(data)
        padded.extend(b"\x00" * (_RATE - (len(padded) % _RATE)))
        padded[len(data)] ^= domain
        padded[-1] ^= 0x80
        for start in range(0, len(padded), _RATE):
            block = padded[start:start + _RATE]
            for i in range(17):
                state[i] ^= int.from_bytes(block[8 * i:8 * i + 8], "little")
            _keccak_f1600(state)
        return b"".join(state[i].to_bytes(8, "little") for i in range(4))

    rng = random.Random(99)
    for n in (0, 1, 135, 136, 137, 200):
        message = rng.randbytes(n)
        assert sponge_with_domain(message, 0x06) == hashlib.sha3_256(message).digest()


def test_permutation_matches_the_reference() -> None:
    # single bits 0 and 63 of each lane sit at the edges of its slot in a
    # packed plane and are the bits theta's rotation by one wraps
    from dogefuzz.keccak import _keccak_f1600

    mask = (1 << 64) - 1
    states = [[0] * 25, [mask] * 25]
    for lane in range(25):
        for bit in (0, 63):
            states.append([1 << bit if i == lane else 0 for i in range(25)])
    rng = random.Random(1600)
    states += [[rng.getrandbits(64) for _ in range(25)] for _ in range(200)]
    for state in states:
        expected = _permute({(i % 5, i // 5): lane for i, lane in enumerate(state)})
        permuted = list(state)
        _keccak_f1600(permuted)
        assert permuted == [expected[(i % 5, i // 5)] for i in range(25)], state


def test_rate_boundary_lengths() -> None:
    # padding edge cases: exactly one block, one short of the rate, one over
    for n in (0, 1, 135, 136, 137, 271, 272, 273):
        m = bytes(range(256))[:200] * 2
        assert keccak256(m[:n]) == keccak256_reference(m[:n])


def test_random_messages_match_reference() -> None:
    rng = random.Random(1234)
    for _ in range(50):
        m = rng.randbytes(rng.randrange(0, 300))
        assert keccak256(m) == keccak256_reference(m)


@settings(max_examples=30, deadline=None)
@given(st.binary(min_size=0, max_size=500))
def test_implementations_agree(message: bytes) -> None:
    assert keccak256(message) == keccak256_reference(message)


def test_multi_block_lengths_match_reference() -> None:
    # one byte short of, exactly at and one byte past each rate multiple,
    # so every block count from one to five is absorbed
    rng = random.Random(4321)
    for n in range(1, 5):
        for length in (n * 136 - 1, n * 136, n * 136 + 1):
            m = rng.randbytes(length)
            assert keccak256(m) == keccak256_reference(m), length


def test_repeated_call_hits_the_memo() -> None:
    message = b"\x5a" * 64
    first = keccak256(message)
    hits = keccak256.cache_info().hits
    assert keccak256(message) == first == keccak256_reference(message)
    assert keccak256.cache_info().hits == hits + 1


def test_buffer_types_hash_like_bytes() -> None:
    for message in (b"", b"abc", bytes(range(136)), bytes(range(200))):
        digest = keccak256(message)
        assert keccak256(bytearray(message)) == digest
        assert keccak256(memoryview(message)) == digest
    # a view of 4-byte items is padded and memoized by its byte length, on
    # both sides of the 136-byte bound (34 items) and the 136-item bound
    for items in (33, 34, 35, 135, 136, 137):
        view = memoryview(array("I", range(items)))
        message = view.tobytes()
        before = keccak256.cache_info()
        assert keccak256(view) == keccak256(message) == keccak256_reference(message)
        after = keccak256.cache_info()
        memo_calls = after.hits + after.misses - before.hits - before.misses
        assert memo_calls == (2 if len(message) <= 136 else 0), items


def test_memo_stays_within_maxsize() -> None:
    maxsize = keccak256.cache_info().maxsize
    for i in range(maxsize + 50):
        keccak256(b"memo-bound" + i.to_bytes(4, "big"))
    assert keccak256.cache_info().currsize <= maxsize


def test_inputs_longer_than_a_block_bypass_the_memo() -> None:
    before = keccak256.cache_info()
    for message in (b"\x01" * 137, b"\x02" * (1 << 20)):
        keccak256(message)
    after = keccak256.cache_info()
    assert (after.currsize, after.hits, after.misses) == (
        before.currsize, before.hits, before.misses)
