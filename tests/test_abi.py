"""Interface parsing, selectors, argument encoding, and value generation."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dogefuzz.abi import (
    AbiError,
    AbiType,
    FunctionSpec,
    MAGIC_WORDS,
    MAX_WORDS,
    Mutability,
    TypeKind,
    encode_arguments,
    encode_call,
    generate_value,
    mutate_value,
    parse_abi,
    parse_type,
    selector,
)

from keccak_oracle import keccak256_reference


POOLS = (b"\xaa" * 20, b"\x5e" * 20, b"\x00" * 20)


def w(value: int) -> str:
    return f"{value:064x}"


# --- type parsing ---------------------------------------------------------

@pytest.mark.parametrize("text,canonical", [
    ("uint", "uint256"),
    ("int", "int256"),
    ("uint8", "uint8"),
    ("int128", "int128"),
    ("address", "address"),
    ("bool", "bool"),
    ("bytes", "bytes"),
    ("string", "string"),
    ("bytes3", "bytes3"),
    ("bytes32", "bytes32"),
    ("uint256[2]", "uint256[2]"),
    ("uint256[]", "uint256[]"),
    ("uint256[2][]", "uint256[2][]"),
    ("bool[][3]", "bool[][3]"),
    ("(uint256,bool)", "(uint256,bool)"),
    ("(uint8,(bytes,address))", "(uint8,(bytes,address))"),
])
def test_canonical_names(text: str, canonical: str) -> None:
    assert parse_type(text).canonical == canonical


def test_json_tuple_components() -> None:
    parsed = parse_type("tuple", [
        {"type": "uint256"},
        {"type": "tuple", "components": [{"type": "bytes"}]},
    ])
    assert parsed.canonical == "(uint256,(bytes))"
    assert parsed.is_dynamic


@pytest.mark.parametrize("text,dynamic", [
    ("uint256", False),
    ("bytes32", False),
    ("bytes", True),
    ("string", True),
    ("uint256[2]", False),
    ("uint256[]", True),
    ("bytes[2]", True),
    ("(uint256,bool)", False),
    ("(uint256,bytes)", True),
])
def test_dynamic_classification(text: str, dynamic: bool) -> None:
    assert parse_type(text).is_dynamic is dynamic


def test_depth_counts_container_levels() -> None:
    # three containers deep loads, a fourth is rejected, tuples and arrays
    # alike; a scalar inside the third container is no container
    for text in ("((()))", "(uint256[2][],bool)", "uint256[1][1][1]"):
        assert parse_type(text).kind in (TypeKind.TUPLE, TypeKind.ARRAY)
    for text in ("(((())))", "uint256[1][1][1][1]", "((uint256[])[])"):
        with pytest.raises(AbiError, match="nesting deeper than 3"):
            parse_type(text)
    # interface JSON spells tuples through `components`: the same rule
    assert parse_type("tuple", [{"type": "tuple[]",
                                 "components": [{"type": "bool"}]}])
    with pytest.raises(AbiError, match="nesting deeper than 3"):
        parse_type("tuple", [{"type": "tuple[]",
                              "components": [{"type": "(bool)"}]}])


@pytest.mark.parametrize("text", [
    "", "uint7", "uint0", "uint264", "bytes0", "bytes33", "int12a",
    "quux", "uint256[0]", "uint256[x]", "(uint256", "function",
    "uint256[2][][3][]",  # four container levels
    "uint256]", "]",  # an array suffix without its opening bracket
])
def test_malformed_types_rejected(text: str) -> None:
    with pytest.raises(AbiError):
        parse_type(text)


def test_nested_tuple_beyond_limit_rejected() -> None:
    with pytest.raises(AbiError):
        parse_type("(((uint256[])))")


def test_words_count_nested_members_and_dynamic_heads() -> None:
    assert parse_type("uint256").words == 1
    assert parse_type("bytes").words == 1
    assert parse_type("uint256[8][]").words == 1
    assert parse_type("(uint256[2][3],bytes,uint8[],bytes[2])").words == 10
    assert parse_type(f"uint256[{MAX_WORDS}]").words == MAX_WORDS


@pytest.mark.parametrize("text", [
    f"uint256[{MAX_WORDS + 1}]", "uint256[1000000]", f"bytes[{MAX_WORDS + 1}]",
    f"(uint256[{MAX_WORDS}],bool)", "uint256[16][17]", "uint256[1000000][]",
])
def test_fixed_size_over_word_cap_rejected(text: str) -> None:
    with pytest.raises(AbiError, match="words"):
        parse_type(text)


def test_tuple_components_over_word_cap_rejected() -> None:
    member = {"type": "uint256[200]"}
    with pytest.raises(AbiError, match="words"):
        parse_type("tuple", [member, member])


def test_argument_list_over_word_cap_rejected() -> None:
    half = {"name": "x", "type": f"uint256[{MAX_WORDS // 2}]"}
    (spec,) = parse_abi([{"type": "function", "name": "f",
                          "inputs": [half, half]}])
    assert sum(t.words for t in spec.inputs) == MAX_WORDS
    with pytest.raises(AbiError, match="words"):
        parse_abi([{"type": "function", "name": "f",
                    "inputs": [half, half, {"type": "bool"}]}])


# --- interface parsing ----------------------------------------------------

VAULT_ABI = [
    {"type": "function", "name": "deposit", "inputs": [],
     "stateMutability": "payable"},
    {"type": "function", "name": "withdraw", "stateMutability": "nonpayable",
     "inputs": [{"name": "amount", "type": "uint256"}]},
    {"type": "function", "name": "balanceOf", "stateMutability": "view",
     "inputs": [{"name": "who", "type": "address"}]},
    {"type": "event", "name": "Sent", "inputs": []},
    {"type": "constructor", "inputs": [{"type": "address"}]},
    {"type": "fallback", "stateMutability": "payable"},
]


def test_parse_abi_functions_and_fallback() -> None:
    specs = parse_abi(VAULT_ABI)
    assert [s.name for s in specs] == ["deposit", "withdraw", "balanceOf", ""]
    deposit, withdraw, balance_of, fallback = specs
    assert deposit.is_payable and not deposit.is_view
    assert withdraw.signature == "withdraw(uint256)"
    assert balance_of.is_view
    assert fallback.is_fallback and fallback.is_payable


def test_legacy_mutability_flags() -> None:
    specs = parse_abi([
        {"type": "function", "name": "a", "inputs": [], "constant": True},
        {"type": "function", "name": "b", "inputs": [], "payable": True},
        {"type": "function", "name": "c", "inputs": []},
    ])
    assert [s.mutability for s in specs] == [
        Mutability.VIEW, Mutability.PAYABLE, Mutability.NONPAYABLE]


def test_receive_counts_as_fallback_once() -> None:
    specs = parse_abi([
        {"type": "receive", "stateMutability": "payable"},
        {"type": "fallback"},
    ])
    assert [s.name for s in specs] == [""]
    assert specs[0].is_payable


def test_function_without_name_rejected() -> None:
    with pytest.raises(AbiError):
        parse_abi([{"type": "function", "inputs": []}])
    with pytest.raises(AbiError):
        parse_abi([{"type": "function", "name": "f", "inputs": [],
                    "stateMutability": "mystery"}])


# --- selectors ------------------------------------------------------------

KNOWN_SELECTORS = {
    "transfer(address,uint256)": "a9059cbb",
    "balanceOf(address)": "70a08231",
    "totalSupply()": "18160ddd",
    "approve(address,uint256)": "095ea7b3",
    "transferFrom(address,address,uint256)": "23b872dd",
    "baz(uint32,bool)": "cdcd77c0",
    "sam(bytes,bool,uint256[])": "a5643bf2",
    "bar(bytes3[2])": "fce353f6",
    "withdraw(uint256)": "2e1a7d4d",
}


def test_selectors_match_published_values() -> None:
    for signature, expected in KNOWN_SELECTORS.items():
        assert selector(signature).hex() == expected


def test_selectors_match_independent_digest() -> None:
    for signature in KNOWN_SELECTORS:
        assert selector(signature) == keccak256_reference(
            signature.encode())[:4]


def test_spec_signature_uses_canonical_types() -> None:
    fn = FunctionSpec("transfer", (parse_type("address"), parse_type("uint")))
    assert fn.signature == "transfer(address,uint256)"
    assert fn.selector_bytes.hex() == "a9059cbb"


def test_fallback_has_no_selector() -> None:
    with pytest.raises(AbiError):
        FunctionSpec("").selector_bytes


# --- encoding -------------------------------------------------------------

ENCODING_VECTORS = [
    (["uint256"], [1], w(1)),
    (["uint8"], [255], w(255)),
    (["bool"], [True], w(1)),
    (["int256"], [-1], "ff" * 32),
    (["int128"], [-2], "ff" * 31 + "fe"),
    (["address"], [b"\x00" * 19 + b"\x01"], w(1)),
    (["bytes3"], [b"abc"], "616263" + "00" * 29),
    (["bytes"], [b"dave"], w(0x20) + w(4) + "64617665" + "00" * 28),
    (["string"], ["dave"], w(0x20) + w(4) + "64617665" + "00" * 28),
    (["uint256[2]"], [[3, 4]], w(3) + w(4)),
    (["uint256[]"], [[3, 4]], w(0x20) + w(2) + w(3) + w(4)),
    (["uint32", "bool"], [69, True], w(69) + w(1)),
    # two dynamic tails after a three-word head block
    (["bytes", "bool", "uint256[]"], [b"dave", True, [1, 2, 3]],
     w(0x60) + w(1) + w(0xA0)
     + w(4) + "64617665" + "00" * 28
     + w(3) + w(1) + w(2) + w(3)),
    # dynamic tuple: outer offset, then an inner head/tail block
    (["(uint256,bytes)"], [(7, b"xy")],
     w(0x20) + w(7) + w(0x40) + w(2) + "7879" + "00" * 30),
    # fixed array of dynamic elements carries per-element offsets
    (["bytes[2]"], [[b"a", b""]],
     w(0x20) + w(0x40) + w(0x80)
     + w(1) + "61" + "00" * 31
     + w(0)),
    # triply nested static array flattens in place, outer index last
    (["uint256[2][1][2]"], [[[[1, 2]], [[3, 4]]]],
     w(1) + w(2) + w(3) + w(4)),
    # triply nested tuple stays static: depth adds no indirection
    (["((uint8,(uint8,uint8)),bool)"], [((1, (2, 3)), True)],
     w(1) + w(2) + w(3) + w(1)),
    # dynamic inside static inside dynamic: offsets at every dynamic level,
    # each relative to the block its head word lives in
    (["uint256[][2][]"], [[[[5], [6, 7]]]],
     w(0x20)                    # argument tail
     + w(1)                     # outer length
     + w(0x20)                  # sole element, after the one-slot head block
     + w(0x40) + w(0x80)        # the two inner arrays within that element
     + w(1) + w(5)
     + w(2) + w(6) + w(7)),
]


@pytest.mark.parametrize("types,values,expected", ENCODING_VECTORS)
def test_frozen_encoding_vectors(types, values, expected) -> None:
    parsed = [parse_type(t) for t in types]
    assert encode_arguments(parsed, values).hex() == expected


def test_encode_call_prepends_selector() -> None:
    fn = FunctionSpec("baz", (parse_type("uint32"), parse_type("bool")))
    encoded = encode_call(fn, [69, True])
    assert encoded.hex() == "cdcd77c0" + w(69) + w(1)


@pytest.mark.parametrize("text,value", [
    ("uint8", 256),
    ("uint8", -1),
    ("uint256", True),
    ("int8", 128),
    ("int8", -129),
    ("bool", 1),
    ("address", b"\x00" * 19),
    ("bytes3", b"ab"),
    ("bytes", "text"),
    ("string", b"raw"),
    ("uint256[2]", [1]),
    ("(uint256,bool)", (1,)),
])
def test_out_of_range_values_rejected(text: str, value) -> None:
    with pytest.raises(AbiError):
        encode_arguments([parse_type(text)], [value])


def test_argument_count_must_match() -> None:
    with pytest.raises(AbiError):
        encode_arguments([parse_type("uint256")], [1, 2])


# --- generation and mutation ----------------------------------------------

def test_magic_word_pool_shape() -> None:
    assert len(MAGIC_WORDS) == 16
    assert len(set(MAGIC_WORDS)) == 16
    assert {0, 1, 2, (1 << 256) - 1} <= set(MAGIC_WORDS)
    for n in (8, 16, 32, 64, 128, 255):
        assert (1 << n) - 1 in MAGIC_WORDS
        assert (1 << n) + 1 in MAGIC_WORDS


TYPE_CORPUS = [
    "uint8", "uint256", "int16", "int256", "address", "bool", "bytes4",
    "bytes32", "bytes", "string", "uint64[3]", "address[]", "bytes[2]",
    "(uint256,bool)", "(bytes,(address,uint8))", "uint8[2][]",
]


@pytest.mark.parametrize("text", TYPE_CORPUS)
def test_generated_values_encode(text: str) -> None:
    abi_type = parse_type(text)
    rng = random.Random(1234)
    for _ in range(25):
        value = generate_value(rng, abi_type, POOLS)
        encoded = encode_arguments([abi_type], [value])
        assert len(encoded) % 32 == 0


@pytest.mark.parametrize("text", TYPE_CORPUS)
def test_mutation_chains_stay_in_type(text: str) -> None:
    abi_type = parse_type(text)
    rng = random.Random(99)
    value = generate_value(rng, abi_type, POOLS)
    for _ in range(40):
        value = mutate_value(rng, abi_type, value, POOLS)
        encode_arguments([abi_type], [value])  # raises on any type break


def test_generation_is_deterministic_per_seed() -> None:
    abi_type = parse_type("(uint256,bytes,address[])")
    first = generate_value(random.Random(5), abi_type, POOLS)
    second = generate_value(random.Random(5), abi_type, POOLS)
    assert first == second


def test_uint_mutation_explores_neighbors() -> None:
    abi_type = parse_type("uint8")
    rng = random.Random(0)
    seen = {mutate_value(rng, abi_type, 128, POOLS) for _ in range(200)}
    assert {129, 127, 144, 112} <= seen
    assert all(0 <= v < 256 for v in seen)


def test_address_mutation_prefers_other_pool_entries() -> None:
    rng = random.Random(3)
    abi_type = parse_type("address")
    current = POOLS[0]
    outcomes = {mutate_value(rng, abi_type, current, POOLS) for _ in range(50)}
    assert outcomes <= set(POOLS) - {current}


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 256 - 1), st.integers(0, 2 ** 256 - 1))
def test_encoded_pair_length_is_two_words(a: int, b: int) -> None:
    fn = FunctionSpec("pair", (parse_type("uint256"), parse_type("uint256")))
    encoded = encode_call(fn, [a, b])
    assert len(encoded) == 4 + 64
    assert int.from_bytes(encoded[4:36], "big") == a


@settings(max_examples=60, deadline=None)
@given(st.binary(max_size=100))
def test_dynamic_bytes_roundtrip_layout(payload: bytes) -> None:
    encoded = encode_arguments([parse_type("bytes")], [payload])
    assert int.from_bytes(encoded[:32], "big") == 32
    assert int.from_bytes(encoded[32:64], "big") == len(payload)
    assert encoded[64:64 + len(payload)] == payload
    assert len(encoded) % 32 == 0
