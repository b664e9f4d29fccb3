"""Draw order: the random stream a seed and a mutant consume.

Campaigns are deterministic for a fixed seed because every draw goes
through `random.Random.getrandbits`, and a draw below `n` is made as
`Random.choice` and `Random.randrange` make it (`abi._below`).  The
digests below were recorded before the draws were rewritten over
`getrandbits`, so a change of draw order, or of how many bits a draw
takes, fails the shape it touches by name.  CI runs this file under
fixed hash seeds, as it runs the golden digests.
"""

from __future__ import annotations

import hashlib
import random
import sys

import pytest

from dogefuzz.abi import FunctionSpec, Mutability, _below, parse_type
from dogefuzz.fuzzer import generate_seed, mutate_seed

POOLS = (b"\xaa" * 20, b"\x5e" * 20)
CHILDREN = 2000


@pytest.mark.parametrize("seed", range(5))
def test_below_draws_as_choice_and_randrange_draw(seed: int) -> None:
    sizes = [*range(1, 301), (1 << 64) - 1, 1 << 64, (1 << 64) + 1, 1 << 256]
    for n in sizes:
        ours, by_range, by_choice = (random.Random(seed) for _ in range(3))
        # `choice` takes a sequence's length, which stops at sys.maxsize
        chooses = n <= sys.maxsize
        for _ in range(4):
            expected = by_range.randrange(n)
            assert _below(ours.getrandbits, n) == expected, n
            if chooses:
                assert by_choice.choice(range(n)) == expected, n
        # and the streams stand at the same place
        after = ours.getrandbits(32)
        assert by_range.getrandbits(32) == after
        if chooses:
            assert by_choice.getrandbits(32) == after


def _spec(name: str, *types: str,
          mutability: Mutability = Mutability.NONPAYABLE) -> FunctionSpec:
    return FunctionSpec(name, tuple(parse_type(t) for t in types), mutability)


SHAPES = {
    "no-args": _spec("poke"),
    "payable": _spec("deposit", mutability=Mutability.PAYABLE),
    "fallback": _spec("", mutability=Mutability.PAYABLE),
    "address": _spec("send", "address"),
    "uint256x3": _spec("set", "uint256", "uint256", "uint256"),
    "int8": _spec("tilt", "int8"),
    "bytes": _spec("blob", "bytes"),
    "string": _spec("name", "string"),
    "uint8[2]": _spec("pair", "uint8[2]"),
    "uint256[]": _spec("batch", "uint256[]"),
    "tuple": _spec("pack", "(uint16,bool,bytes4,int256)"),
}

# sha256 over the children of `_children`, recorded before the rewrite
DIGESTS = {
    "no-args": "d842045422c25f4c321fc01f3bfe84c6c0df80606ce81308060fb9887030c625",
    "payable": "a2403c9e5435d20d90ae22588320a8f79658b8009e93989eccb9540c3a644988",
    "fallback": "ffcb10d801c8969d4504e9c7410e96d3eb33deb3e9b3795970210a3a5b3ae2e1",
    "address": "1bdc750a74654c9022ca72b8dcb21b29958fb9ff2d99c60c33a16b6ae25c1c81",
    "uint256x3": "a2d4a84c60af1eedfc84d402863320cf982bd3f2e03c5cebf54a5439eb25f8b0",
    "int8": "1af332315d9f1ae1323aa89c672c22227b594f4c2703c543213272f141418370",
    "bytes": "2effe35f65a8ac025cd8375978e58d8af2e50db5307feba54c866b674b6ecd17",
    "string": "03a484820146fa70de9047577e07c4bdb0b8fd25277a1062fac2306d763b8e48",
    "uint8[2]": "ce582c7cb9a666a2b0e5379b84ae97f9aea5581f68c49722a1960af957dbdde1",
    "uint256[]": "b982a90bb486c4cc07a2f1b907a44e5f9a951f64310c4b2585f3423739c5bb7e",
    "tuple": "d3ed20da0f219e391e318f465a0e914a0246c8cbc8d3ab89e0a3081975cababe",
}


def _row(seed) -> bytes:
    return repr((seed.args, seed.calldata, seed.value, seed.policy.value,
                 tuple(seed.block))).encode()


def _children(spec: FunctionSpec) -> str:
    """`CHILDREN` fresh seeds at alternating ordinals, then `CHILDREN`
    mutants, each drawn from the one before, from one stream."""
    rng = random.Random(7)
    digest = hashlib.sha256()
    for i in range(CHILDREN):
        digest.update(_row(generate_seed(rng, spec, POOLS, i % 2)))
    parent = generate_seed(rng, spec, POOLS, 1)
    for _ in range(CHILDREN):
        parent = mutate_seed(rng, parent, POOLS)
        digest.update(_row(parent))
    digest.update(rng.getrandbits(64).to_bytes(8, "big"))
    return digest.hexdigest()


@pytest.mark.parametrize("shape", SHAPES)
def test_children_draw_as_recorded(shape: str) -> None:
    assert _children(SHAPES[shape]) == DIGESTS[shape]
