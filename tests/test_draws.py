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

from dogefuzz.abi import (
    FunctionSpec,
    Mutability,
    _below,
    encode_call,
    parse_type,
)
from dogefuzz.fuzzer import _KEPT_CHILDREN, Seed, generate_seed, mutate_seed

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


def _row(args: tuple, key: tuple) -> bytes:
    calldata, value, policy, block = key
    return repr((args, calldata, value, policy.value, tuple(block))).encode()


def _children(spec: FunctionSpec) -> str:
    """`CHILDREN` fresh seeds at alternating ordinals, then `CHILDREN`
    mutants, each drawn from the one before, from one stream."""
    rng = random.Random(7)
    digest = hashlib.sha256()
    for i in range(CHILDREN):
        digest.update(_row(*generate_seed(rng, spec, POOLS, i % 2)))
    args, key = generate_seed(rng, spec, POOLS, 1)
    for _ in range(CHILDREN):
        args, key = mutate_seed(rng, Seed(spec, args, *key), POOLS)
        digest.update(_row(args, key))
    digest.update(rng.getrandbits(64).to_bytes(8, "big"))
    return digest.hexdigest()


@pytest.mark.parametrize("shape", SHAPES)
def test_children_draw_as_recorded(shape: str) -> None:
    assert _children(SHAPES[shape]) == DIGESTS[shape]


@pytest.mark.parametrize("shape", SHAPES)
def test_a_parent_hands_out_the_children_it_keeps(shape: str) -> None:
    """`CHILDREN` mutants of one parent, whose `children` table fills and
    is then read, are the mutants of as many fresh copies of it, drawn
    from a second stream: the same rows, and the streams end at the same
    place.  The table holds at most `_KEPT_CHILDREN` entries, an entry is
    never rebuilt, and a repeated draw hands back the same key object."""
    spec = SHAPES[shape]
    rng, fresh_rng = random.Random(7), random.Random(7)
    args, key = generate_seed(rng, spec, POOLS, 1)
    assert generate_seed(fresh_rng, spec, POOLS, 1) == (args, key)
    parent = Seed(spec, args, *key)
    kept = {}           # draw -> the child first kept under it
    handed_out = 0      # mutants served from the table
    keys = set()        # the ids of the key objects among them
    for _ in range(CHILDREN):
        child = mutate_seed(rng, parent, POOLS)
        fresh = mutate_seed(fresh_rng, Seed(spec, args, *key), POOLS)
        assert _row(*child) == _row(*fresh)
        table = parent.children or {}
        assert len(table) <= _KEPT_CHILDREN
        for draw, entry in table.items():
            assert kept.setdefault(draw, entry) is entry
        if any(child is entry for entry in table.values()):
            handed_out += 1
            keys.add(id(child[1]))
    assert rng.getrandbits(64) == fresh_rng.getrandbits(64)
    # every value pick when payable, the policy, and every block offset
    assert len(kept) == (_KEPT_CHILDREN if spec.is_payable
                         else _KEPT_CHILDREN - 6)
    assert handed_out > len(kept) == len(keys)


@pytest.mark.parametrize("shape", ["no-args", "payable"])
def test_argument_less_inputs_draw_nothing(shape: str) -> None:
    """A BlackBox campaign builds these inputs once, before its first
    cycle, and indexes them by the ordinal a lane draws: that leaves the
    stream where building them in the lane would."""
    spec = SHAPES[shape]
    rng = random.Random(7)
    state = rng.getstate()
    built = [generate_seed(rng, spec, POOLS, ordinal) for ordinal in (0, 1)]
    assert rng.getstate() == state
    for ordinal, inputs in enumerate(built):
        # the same at any point of any stream
        assert generate_seed(random.Random(ordinal), spec, POOLS,
                             ordinal) == inputs
    assert built[0][1][1] == 0
    assert built[1][1][1] == (1 if spec.is_payable else 0)


# a payable function with one argument of each one-word kind
ONE_WORD = _spec("every", "uint8", "uint256", "int16", "int256", "address",
                 "bool", "bytes1", "bytes32", mutability=Mutability.PAYABLE)


def test_an_argument_mutant_patches_one_word() -> None:
    """An argument mutant of a function whose inputs are one word each
    replaces only that argument's word in its parent's calldata.
    `CHILDREN` argument mutants of one parent carry the calldata
    `encode_call` gives their arguments, and each is the mutant a twin of
    the function makes on a second stream when it re-encodes every
    argument mutant: the same rows, and the streams end at the same
    place."""
    spec = ONE_WORD
    assert spec.one_word_inputs
    encoding = FunctionSpec(spec.name, spec.inputs, spec.mutability)
    encoding.__dict__["one_word_inputs"] = False
    rng, encoding_rng = random.Random(7), random.Random(7)
    args, key = generate_seed(rng, spec, POOLS, 1)
    assert generate_seed(encoding_rng, encoding, POOLS, 1) == (args, key)
    parent, twin = Seed(spec, args, *key), Seed(encoding, args, *key)
    words = [key[0][4 + 32 * i:36 + 32 * i] for i in range(len(args))]
    mutants = 0
    patched = set()     # the arguments whose word some mutant changed
    while mutants < CHILDREN:
        child = mutate_seed(rng, parent, POOLS)
        assert _row(*child) == _row(*mutate_seed(encoding_rng, twin, POOLS))
        child_args, (calldata, *_) = child
        if child_args is args:
            continue    # a value, policy or block child
        mutants += 1
        assert calldata == encode_call(spec, child_args)
        changed = {i for i, word in enumerate(words)
                   if calldata[4 + 32 * i:36 + 32 * i] != word}
        assert len(changed) <= 1
        patched |= changed
    assert patched == set(range(len(args)))
    assert rng.getrandbits(64) == encoding_rng.getrandbits(64)


def test_a_seed_built_by_hand_is_encoded_when_mutated() -> None:
    """A seed built by hand has no calldata to patch, so its argument
    mutants are encoded whole."""
    rng = random.Random(9)
    args, _ = generate_seed(rng, ONE_WORD, POOLS, 0)
    seed = Seed(ONE_WORD, args)
    assert seed.calldata == b""
    mutants = 0
    while mutants < 200:
        child_args, (calldata, *_) = mutate_seed(rng, seed, POOLS)
        if child_args is args:
            continue    # a value, policy or block child
        mutants += 1
        assert calldata == encode_call(ONE_WORD, child_args)
