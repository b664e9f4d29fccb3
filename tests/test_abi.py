"""Interface parsing, selectors, argument encoding, and value generation."""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dogefuzz.abi import (
    AbiError,
    AbiType,
    FunctionSpec,
    MAGIC_WORDS,
    MAX_NESTING,
    MAX_WORDS,
    Mutability,
    TypeKind,
    encode_arguments,
    encode_call,
    generate_value,
    mutate_value,
    parse_abi,
    parse_type,
    patch_argument,
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


def _encode_one(text: str, value) -> bytes:
    return encode_arguments([parse_type(text)], [value])


_NO_INPUTS = FunctionSpec("ping")

# every one-word kind, once each, and values each of them accepts
ONE_WORD_TEXTS = ("uint8", "uint256", "int16", "int256", "address", "bool",
                  "bytes1", "bytes4", "bytes32")
_ONE_WORD = FunctionSpec("every", tuple(parse_type(t) for t in ONE_WORD_TEXTS))
_ONE_WORD_VALUES = (255, 2 ** 256 - 1, -(2 ** 15), -1, b"\x01" * 20, True,
                    b"\x7f", b"abcd", b"\xff" * 32)


def _encode_one_word(text: str, value) -> bytes:
    """`encode_call` on `_ONE_WORD` with the argument of type `text`
    replaced by `value`."""
    values = list(_ONE_WORD_VALUES)
    values[ONE_WORD_TEXTS.index(text)] = value
    return encode_call(_ONE_WORD, values)


# the exact message of every way an encode refuses its values
@pytest.mark.parametrize("encode,message", [
    (lambda: _encode_one("uint8", 256), "value 256 out of range for uint8"),
    (lambda: _encode_one("uint8", True), "value True out of range for uint8"),
    (lambda: _encode_one("uint8", "1"), "value '1' out of range for uint8"),
    (lambda: _encode_one("int8", 128), "value 128 out of range for int8"),
    (lambda: _encode_one("address", b"\x01" * 19), "address must be 20 bytes"),
    (lambda: _encode_one("bool", 1), "bool expected"),
    (lambda: _encode_one("bytes4", b"abc"), "expected exactly 4 bytes"),
    (lambda: _encode_one("string", b"raw"), "str expected"),
    (lambda: _encode_one("bytes", "text"), "bytes expected"),
    (lambda: _encode_one("uint256[2]", [1]), "expected 2 elements, got 1"),
    (lambda: _encode_one("(uint256,bool)", (1,)), "expected 2 members"),
    (lambda: encode_arguments([parse_type("uint256")], [1, 2]),
     "expected 1 values, got 2"),
    (lambda: encode_call(FunctionSpec(""), []), "the fallback has no selector"),
    (lambda: encode_call(_NO_INPUTS, [1]), "expected 0 values, got 1"),
    # a call whose inputs are one word each is encoded word by word
    (lambda: _encode_one_word("uint8", 256),
     "value 256 out of range for uint8"),
    (lambda: _encode_one_word("uint8", True),
     "value True out of range for uint8"),
    (lambda: _encode_one_word("address", b"\x01" * 19),
     "address must be 20 bytes"),
    (lambda: _encode_one_word("bool", 1), "bool expected"),
    (lambda: _encode_one_word("bytes4", b"abc"), "expected exactly 4 bytes"),
    (lambda: encode_call(_ONE_WORD, _ONE_WORD_VALUES[:-1]),
     "expected 9 values, got 8"),
    (lambda: encode_call(_ONE_WORD, [*_ONE_WORD_VALUES, 1]),
     "expected 9 values, got 10"),
], ids=["uint8-256", "uint8-True", "uint8-str", "int8-128", "address-19",
        "bool-1", "bytes4-3", "string-bytes", "bytes-str", "array-length",
        "tuple-members", "value-count", "fallback", "no-inputs-one-value",
        "words-uint8-256", "words-uint8-True", "words-address-19",
        "words-bool-1", "words-bytes4-3", "words-too-few", "words-too-many"])
def test_encode_failure_messages(encode, message: str) -> None:
    with pytest.raises(AbiError) as refused:
        encode()
    assert str(refused.value) == message


def test_call_without_inputs_is_its_selector() -> None:
    assert encode_call(_NO_INPUTS, []) == selector("ping()")
    assert encode_call(_NO_INPUTS, ()) == _NO_INPUTS.selector_bytes


# --- a reference encoder, for the differential below ------------------------
# Whether a value is dynamic is read off its encoding's parts, not off the
# type's `is_dynamic`, and head sizes off the encoded static parts, not off
# `words`.

def _reference_value(abi_type: AbiType, value) -> tuple[bytes, bool]:
    """The encoding of `value` and whether it goes in a tail."""
    kind = abi_type.kind
    if kind in (TypeKind.UINT, TypeKind.INT, TypeKind.BOOL):
        return (int(value) % (1 << 256)).to_bytes(32, "big"), False
    if kind is TypeKind.ADDRESS:
        return bytes(12) + value, False
    if kind is TypeKind.FIXED_BYTES:
        return value + bytes(32 - len(value)), False
    if kind in (TypeKind.BYTES, TypeKind.STRING):
        raw = value.encode() if isinstance(value, str) else value
        return (len(raw).to_bytes(32, "big") + raw
                + bytes(-len(raw) % 32)), True
    if kind is TypeKind.TUPLE:
        return _reference_block(abi_type.components, value)
    body, dynamic = _reference_block([abi_type.inner] * len(value), value)
    if abi_type.dynamic_length:
        return len(value).to_bytes(32, "big") + body, True
    return body, dynamic


def _reference_block(types, values) -> tuple[bytes, bool]:
    parts = [_reference_value(t, v) for t, v in zip(types, values)]
    head, tail = b"", b""
    offset = sum(32 if dynamic else len(part) for part, dynamic in parts)
    for part, dynamic in parts:
        if dynamic:
            head += offset.to_bytes(32, "big")
            tail += part
            offset += len(part)
        else:
            head += part
    return head + tail, any(dynamic for _, dynamic in parts)


_SCALAR_TEXTS = st.sampled_from([
    "uint8", "uint256", "int16", "int256", "address", "bool", "bytes1",
    "bytes4", "bytes32", "bytes", "string"])


def _type_texts(level: int = 0) -> st.SearchStrategy[str]:
    """Type strings whose containers nest at most `MAX_NESTING` deep."""
    if level == MAX_NESTING:
        return _SCALAR_TEXTS
    inner = _type_texts(level + 1)
    return st.one_of(
        _SCALAR_TEXTS,
        inner.map(lambda text: text + "[]"),
        st.builds(lambda text, n: f"{text}[{n}]", inner, st.integers(1, 3)),
        st.lists(inner, max_size=3).map(lambda texts: f"({','.join(texts)})"))


@settings(max_examples=300, deadline=None)
@given(st.lists(_type_texts(), max_size=4), st.integers(0, 2 ** 32))
def test_encoding_matches_the_reference(texts: list[str], seed: int) -> None:
    types = [parse_type(text) for text in texts]
    rng = random.Random(seed)
    values = [generate_value(rng, t, POOLS) for t in types]
    expected, _ = _reference_block(types, values)
    assert encode_arguments(types, values) == expected
    fn = FunctionSpec("f", tuple(types))
    assert encode_call(fn, values) == fn.selector_bytes + expected


@pytest.mark.parametrize("text", ONE_WORD_TEXTS)
def test_one_word_calls_match_the_reference(text: str) -> None:
    """A call whose inputs are one word each is encoded word by word: the
    selector, then each argument's word, as the head/tail reference lays
    them out; the edges of each range and generated values alike."""
    abi_type = parse_type(text)
    fn = FunctionSpec("f", (abi_type,) * 3)
    assert fn.one_word_inputs
    edges = {
        TypeKind.UINT: [0, 1, abi_type.limit - 1],
        TypeKind.INT: [-abi_type.limit, -1, 0, abi_type.limit - 1],
        TypeKind.ADDRESS: [bytes(20), b"\xff" * 20],
        TypeKind.BOOL: [False, True],
        TypeKind.FIXED_BYTES: [bytes(abi_type.size), b"\xff" * abi_type.size],
    }[abi_type.kind]
    rng = random.Random(31)
    # each edge in each position
    rows = [[edges[(i + j) % len(edges)] for j in range(3)]
            for i in range(len(edges))]
    rows += [[generate_value(rng, abi_type, POOLS) for _ in range(3)]
             for _ in range(50)]
    for values in rows:
        expected, dynamic = _reference_block(fn.inputs, values)
        assert not dynamic
        assert encode_call(fn, values) == fn.selector_bytes + expected
        assert encode_call(fn, tuple(values)) == fn.selector_bytes + expected


def test_patching_an_argument_replaces_only_its_word() -> None:
    """A call of every one-word kind matches the reference, and so does
    each call made from it by patching one argument."""
    base = encode_call(_ONE_WORD, _ONE_WORD_VALUES)
    expected, _ = _reference_block(_ONE_WORD.inputs, _ONE_WORD_VALUES)
    assert base == _ONE_WORD.selector_bytes + expected
    assert len(expected) == 32 * len(ONE_WORD_TEXTS)
    rng = random.Random(5)
    for index, abi_type in enumerate(_ONE_WORD.inputs):
        for _ in range(20):
            value = generate_value(rng, abi_type, POOLS)
            values = list(_ONE_WORD_VALUES)
            values[index] = value
            assert (patch_argument(_ONE_WORD, base, values, index)
                    == encode_call(_ONE_WORD, values))
    bool_index = ONE_WORD_TEXTS.index("bool")
    values = list(_ONE_WORD_VALUES)
    values[bool_index] = 1
    with pytest.raises(AbiError, match="^bool expected$"):
        patch_argument(_ONE_WORD, base, values, bool_index)


@pytest.mark.parametrize("spec,calldata", [
    # calldata that is not one word per input long: a seed built by hand,
    # a word short, a byte over
    pytest.param(_ONE_WORD, b"", id="empty"),
    pytest.param(_ONE_WORD, encode_call(_ONE_WORD, _ONE_WORD_VALUES)[:-32],
                 id="word-short"),
    pytest.param(_ONE_WORD,
                 encode_call(_ONE_WORD, _ONE_WORD_VALUES) + b"\x00",
                 id="byte-over"),
    # an input of more than one word
    pytest.param(FunctionSpec("f", (parse_type("uint256"),
                                    parse_type("uint256[1]"))),
                 b"\x00" * 68, id="array"),
    pytest.param(FunctionSpec("f", (parse_type("uint256"),
                                    parse_type("bytes"))),
                 b"\x00" * 68, id="bytes"),
])
def test_patching_declines_what_it_cannot_patch(spec: FunctionSpec,
                                                calldata: bytes) -> None:
    """`patch_argument` returns None, so the call is encoded, unless every
    input is one word and the calldata is one word per input long."""
    values = [generate_value(random.Random(3), t, POOLS) for t in spec.inputs]
    assert patch_argument(spec, calldata, values, 0) is None


@pytest.mark.parametrize("spec,one_word", [
    (FunctionSpec(""), False),
    (FunctionSpec("", mutability=Mutability.PAYABLE), False),
    (_NO_INPUTS, False),
    (_ONE_WORD, True),
    *[(FunctionSpec("f", (parse_type(text),)), True)
      for text in ONE_WORD_TEXTS],
    # a dynamic or composite input, alone or beside one-word inputs
    *[(FunctionSpec("f", (parse_type(text),)), False)
      for text in ("bytes", "string", "uint8[1]", "uint256[]", "(uint8)",
                   "(uint256,bool)", "()")],
    (FunctionSpec("f", (parse_type("uint256"), parse_type("bytes"))), False),
    (FunctionSpec("f", (parse_type("uint256[2]"), parse_type("bool"))),
     False),
    (FunctionSpec("f", (parse_type("address"), parse_type("(address)"))),
     False),
])
def test_one_word_inputs_flag(spec: FunctionSpec, one_word: bool) -> None:
    assert spec.one_word_inputs is one_word


@pytest.mark.parametrize("text,limit", [
    ("uint8", 1 << 8), ("uint256", 1 << 256), ("int8", 1 << 7),
    ("int256", 1 << 255), ("bytes1", 1 << 8), ("bytes32", 1 << 256),
    ("address", 0), ("bool", 0), ("bytes", 0), ("uint8[2]", 0),
])
def test_limit_bounds_each_integer_kind(text: str, limit: int) -> None:
    assert parse_type(text).limit == limit


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


# every kind, nested ones and the empty tuple included
DRAW_CORPUS = TYPE_CORPUS + ["(string,int8[])[2]", "bool[][]",
                             "(bytes1,string[],int256)[]", "()"]
# the digest of `test_value_draws_are_pinned`'s 2,000 draws
VALUE_DRAWS_SHA256 = \
    "a60aad28f51000b5a2847eff2deb52372e78e94d30c04f445ae4872d65ba3fdb"


def test_value_draws_are_pinned() -> None:
    """Generation and mutation draw the same values from the same rng, so a
    campaign's seeds, and its report, stay as they were."""
    types = [parse_type(text) for text in DRAW_CORPUS]
    rng = random.Random(2024)
    drawn = []
    for i in range(2000):
        abi_type = types[i % len(types)]
        value = generate_value(rng, abi_type, POOLS)
        drawn.append(repr((value, mutate_value(rng, abi_type, value, POOLS))))
    digest = hashlib.sha256("\n".join(drawn).encode()).hexdigest()
    assert digest == VALUE_DRAWS_SHA256


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
