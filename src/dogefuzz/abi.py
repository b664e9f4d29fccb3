"""Contract interface handling: type parsing, selectors, call encoding,
and typed random argument generation for the fuzzer.

Types support the scalar kinds plus arrays and tuples nested up to three
container levels.  Encoding follows the standard head/tail layout: static
values sit inline, dynamic values contribute a 32-byte offset into a tail
region relative to the start of the enclosing block.  A function computes
its selector and its argument layout (head size, and which inputs are
dynamic) once, at its first encode; a call then checks the value count and
each value against its type, and formats a message only for a refusal.
A function whose inputs are all one-word scalars (`uint<N>`, `int<N>`,
`address`, `bool`, `bytes<N>`) has no tail and no offsets: its call is
the selector followed by one 32-byte word per argument, so it is encoded
word by word, and a new value of one argument replaces only its word
(`patch_argument`, which declines calldata of any other length).  An
integer or fixed-bytes type keeps the bound of its values (`limit`),
which encoding checks against and generation and mutation reduce by.
"""

from __future__ import annotations

import logging
import random
import re
import string as string_mod
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Iterable, Sequence

from .keccak import keccak256

logger = logging.getLogger(__name__)

MAX_NESTING = 3
# the most words a fixed-length array or tuple, or a function's argument
# list, may take, counting nested members and one word per dynamic member:
# every execution generates, mutates and encodes that many values
MAX_WORDS = 256

_ADDRESS_BYTES = 20
_WORD = 32
# a function name goes into its signature, and so its selector, as ASCII
_IDENTIFIER = re.compile(r"[A-Za-z_$][A-Za-z0-9_$]*")


class AbiError(ValueError):
    """Raised for malformed interfaces, type strings, or value shapes."""


class TypeKind(str, Enum):
    UINT = "uint"
    INT = "int"
    ADDRESS = "address"
    BOOL = "bool"
    FIXED_BYTES = "fixed_bytes"
    BYTES = "bytes"
    STRING = "string"
    ARRAY = "array"
    TUPLE = "tuple"


# the kinds, unpacked in declaration order: types, encoding, generation and
# mutation test them so, sparing a 110-150 ns enum class read on Python 3.11
_UINT, _INT, _ADDRESS, _BOOL, _FIXED_BYTES, _BYTES, _STRING, _ARRAY, _TUPLE = TypeKind


class Mutability(str, Enum):
    PURE = "pure"
    VIEW = "view"
    NONPAYABLE = "nonpayable"
    PAYABLE = "payable"


# the kinds whose every value is one static word
_ONE_WORD_KINDS = frozenset((_UINT, _INT, _ADDRESS, _BOOL, _FIXED_BYTES))


# --- types ----------------------------------------------------------------

class _cached:
    """A value derived from an instance's frozen fields, computed at its
    first read and kept in the instance's dict, as `functools.cached_property`
    keeps it, but without the lock that Python 3.11 takes on every first
    read (0.9 against 0.35 us): a bundle's load reads the words of every
    type it parses once."""

    def __init__(self, derive: Callable[[Any], Any]) -> None:
        self.derive = derive
        self.__doc__ = derive.__doc__

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, instance: Any, owner: type | None = None) -> Any:
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.derive(instance)
        return value


@dataclass(frozen=True)
class AbiType:
    """One parameter type; containers reference their element/components.

    `canonical`, `is_dynamic` and `words` recurse through the members, so
    each is computed once per type and kept on the instance: every encode
    of a nested value reads them."""

    kind: TypeKind
    bits: int = 0                      # uint/int width
    size: int = 0                      # fixed_bytes width or array length
    dynamic_length: bool = False       # array with run-time length
    inner: "AbiType | None" = None     # array element type
    components: tuple["AbiType", ...] = ()

    @_cached
    def canonical(self) -> str:
        if self.kind is _UINT:
            return f"uint{self.bits}"
        if self.kind is _INT:
            return f"int{self.bits}"
        if self.kind is _FIXED_BYTES:
            return f"bytes{self.size}"
        if self.kind is _ARRAY:
            suffix = "[]" if self.dynamic_length else f"[{self.size}]"
            return self.inner.canonical + suffix
        if self.kind is _TUPLE:
            return "(" + ",".join(c.canonical for c in self.components) + ")"
        return self.kind.value

    @_cached
    def is_dynamic(self) -> bool:
        if self.kind in (_BYTES, _STRING):
            return True
        if self.kind is _ARRAY:
            return self.dynamic_length or self.inner.is_dynamic
        if self.kind is _TUPLE:
            return any(c.is_dynamic for c in self.components)
        return False

    @_cached
    def limit(self) -> int:
        """The exclusive upper bound of a `uint`, `int` or `bytes<N>`
        type's values as integers: `2**bits` for a `uint`, `2**(bits-1)`
        for an `int`, whose values start at its negation, and
        `2**(8*size)` for fixed bytes; 0 for any other kind."""
        if self.kind is _UINT:
            return 1 << self.bits
        if self.kind is _INT:
            return 1 << (self.bits - 1)
        if self.kind is _FIXED_BYTES:
            return 1 << (8 * self.size)
        return 0

    @_cached
    def words(self) -> int:
        """Words the value takes: the members of fixed-length arrays and
        tuples are counted, and each scalar, `bytes`, `string` or
        dynamic-length array is one word."""
        if self.kind is _ARRAY and not self.dynamic_length:
            return self.size * self.inner.words
        if self.kind is _TUPLE:
            return sum(c.words for c in self.components)
        return 1


def _split_top_level(text: str) -> list[str]:
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def parse_type(text: str, components: Sequence[dict] | None = None, *,
               _level: int = 0) -> AbiType:
    """Parse a declaration type string, e.g. ``uint256[2][]`` or ``(a,b)``.

    JSON-style tuples spell their base as ``tuple`` and carry the member
    declarations in `components`.  `_level` counts the containers around
    `text`; an array or tuple inside `MAX_NESTING` of them is rejected
    before it recurses further.
    """
    text = text.strip()
    if not text:
        raise AbiError("empty type string")
    if _level >= MAX_NESTING and (text.endswith("]") or text.startswith("(")
                                  or text == "tuple"):
        raise AbiError(f"nesting deeper than {MAX_NESTING}")

    if text.endswith("]"):
        bracket = text.rfind("[")
        if bracket < 0:
            raise AbiError(f"unbalanced array brackets in {text!r}")
        spec = text[bracket + 1:-1]
        inner = parse_type(text[:bracket], components, _level=_level + 1)
        if spec == "":
            parsed = AbiType(TypeKind.ARRAY, dynamic_length=True, inner=inner)
        else:
            if not spec.isdigit() or int(spec) == 0:
                raise AbiError(f"bad array length in {text!r}")
            parsed = AbiType(TypeKind.ARRAY, size=int(spec), inner=inner)
    elif text.startswith("("):
        if not text.endswith(")"):
            raise AbiError(f"unbalanced tuple in {text!r}")
        body = text[1:-1]
        members = () if body == "" else tuple(
            parse_type(part, _level=_level + 1)
            for part in _split_top_level(body))
        parsed = AbiType(TypeKind.TUPLE, components=members)
    elif text == "tuple":
        parsed = AbiType(TypeKind.TUPLE, components=tuple(
            _parse_declaration(c, _level + 1) for c in (components or ())))
    elif text == "address":
        parsed = AbiType(TypeKind.ADDRESS)
    elif text == "bool":
        parsed = AbiType(TypeKind.BOOL)
    elif text == "string":
        parsed = AbiType(TypeKind.STRING)
    elif text == "bytes":
        parsed = AbiType(TypeKind.BYTES)
    elif text.startswith("uint") or text.startswith("int"):
        kind = TypeKind.UINT if text[0] == "u" else TypeKind.INT
        suffix = text[4:] if kind is TypeKind.UINT else text[3:]
        bits = 256 if suffix == "" else int(suffix) if suffix.isdigit() else -1
        if bits < 8 or bits > 256 or bits % 8 != 0:
            raise AbiError(f"bad integer width in {text!r}")
        parsed = AbiType(kind, bits=bits)
    elif text.startswith("bytes"):
        suffix = text[5:]
        if not suffix.isdigit() or not 1 <= int(suffix) <= 32:
            raise AbiError(f"bad fixed bytes width in {text!r}")
        parsed = AbiType(TypeKind.FIXED_BYTES, size=int(suffix))
    else:
        raise AbiError(f"unsupported type {text!r}")

    if parsed.kind is TypeKind.ARRAY or parsed.kind is TypeKind.TUPLE:
        if parsed.words > MAX_WORDS:
            raise AbiError(f"{text!r} takes more than {MAX_WORDS} words")
    return parsed


def _parse_declaration(item: object, level: int = 0) -> AbiType:
    """One declared input or tuple member: ``{"type": ..., "components":
    [...]}`` as it appears in interface JSON."""
    if not isinstance(item, dict):
        raise AbiError("parameter declaration is not an object")
    text, components = item.get("type"), item.get("components")
    if not isinstance(text, str):
        raise AbiError("parameter declaration without a type string")
    if components is not None and not isinstance(components, list):
        raise AbiError(f"components of {text!r} are not a list")
    return parse_type(text, components, _level=level)


# --- interface entries ----------------------------------------------------

@dataclass(frozen=True)
class FunctionSpec:
    """A callable entry; the fallback is represented with an empty name."""

    name: str
    inputs: tuple[AbiType, ...] = ()
    mutability: Mutability = Mutability.NONPAYABLE

    # computed on first use and kept on the instance: every encode,
    # generation or mutation needs them
    @_cached
    def signature(self) -> str:
        return f"{self.name}({','.join(t.canonical for t in self.inputs)})"

    @_cached
    def selector_bytes(self) -> bytes:
        if self.is_fallback:
            raise AbiError("the fallback has no selector")
        return selector(self.signature)

    @_cached
    def layout(self) -> tuple[int, tuple[bool, ...]]:
        """The argument block's head size and which inputs are dynamic."""
        return _layout(self.inputs)

    @_cached
    def one_word_inputs(self) -> bool:
        """Whether the function has inputs and each is a one-word scalar,
        so its calldata is the selector and one word per argument."""
        return bool(self.inputs) and all(
            t.kind in _ONE_WORD_KINDS for t in self.inputs)

    @_cached
    def mutation_dims(self) -> tuple:
        """What one mutation of a call may change, in draw order: each
        argument (the raw calldata for the fallback), the value when
        payable, the agent policy and the block."""
        dims: list[object] = (
            ["raw"] if self.is_fallback
            else [("arg", i) for i in range(len(self.inputs))])
        if self.is_payable:
            dims.append("value")
        return (*dims, "policy", "block")

    @_cached
    def is_fallback(self) -> bool:
        return self.name == ""

    @_cached
    def is_view(self) -> bool:
        return self.mutability in (Mutability.PURE, Mutability.VIEW)

    @_cached
    def is_payable(self) -> bool:
        return self.mutability is Mutability.PAYABLE


def _entry_mutability(entry: dict) -> Mutability:
    declared = entry.get("stateMutability")
    if declared is not None:
        try:
            return Mutability(declared)
        except ValueError as exc:
            raise AbiError(f"unknown mutability {declared!r}") from exc
    # pre-0.5 interfaces carry boolean flags instead
    if entry.get("payable"):
        return Mutability.PAYABLE
    if entry.get("constant"):
        return Mutability.VIEW
    return Mutability.NONPAYABLE


def _entry_inputs(entry: dict) -> tuple[AbiType, ...]:
    declared = entry.get("inputs", [])
    if not isinstance(declared, list):
        raise AbiError("inputs are not a list")
    inputs = tuple([_parse_declaration(item) for item in declared])
    # parse_type has checked each argument on its own
    if len(inputs) > 1 and sum(t.words for t in inputs) > MAX_WORDS:
        raise AbiError(f"arguments take more than {MAX_WORDS} words")
    return inputs


def parse_abi(entries: Iterable[dict]) -> list[FunctionSpec]:
    """Callable functions plus one empty-named entry per declared fallback."""
    specs: list[FunctionSpec] = []
    have_fallback = False
    for entry in entries:
        kind = entry.get("type", "function")
        if kind == "function":
            name = entry.get("name")
            if not isinstance(name, str) or not name:
                raise AbiError("function entry without a name")
            if not _IDENTIFIER.fullmatch(name):
                raise AbiError(f"function name {name!r} is not an identifier")
            specs.append(FunctionSpec(name, _entry_inputs(entry),
                                      _entry_mutability(entry)))
        elif kind in ("fallback", "receive") and not have_fallback:
            have_fallback = True
            specs.append(FunctionSpec("", (), _entry_mutability(entry)))
    return specs


def selector(signature: str) -> bytes:
    return keccak256(signature.encode("ascii"))[:4]


# --- encoding -------------------------------------------------------------
# a check formats its message only when it fails


def _encode_value(abi_type: AbiType, value: Any) -> bytes:
    kind = abi_type.kind
    if kind is _UINT:
        if (isinstance(value, int) and not isinstance(value, bool)
                and 0 <= value < abi_type.limit):
            return value.to_bytes(_WORD, "big")
        raise AbiError(f"value {value!r} out of range for {abi_type.canonical}")
    if kind is _INT:
        half = abi_type.limit
        if (isinstance(value, int) and not isinstance(value, bool)
                and -half <= value < half):
            return value.to_bytes(_WORD, "big", signed=True)
        raise AbiError(f"value {value!r} out of range for {abi_type.canonical}")
    if kind is _ADDRESS:
        if isinstance(value, bytes) and len(value) == _ADDRESS_BYTES:
            return value.rjust(_WORD, b"\x00")
        raise AbiError(f"address must be {_ADDRESS_BYTES} bytes")
    if kind is _BOOL:
        if isinstance(value, bool):
            return value.to_bytes(_WORD, "big")
        raise AbiError("bool expected")
    if kind is _FIXED_BYTES:
        if isinstance(value, bytes) and len(value) == abi_type.size:
            return value.ljust(_WORD, b"\x00")
        raise AbiError(f"expected exactly {abi_type.size} bytes")
    if kind is _BYTES or kind is _STRING:
        if kind is _BYTES:
            if not isinstance(value, bytes):
                raise AbiError("bytes expected")
        elif isinstance(value, str):
            value = value.encode("utf-8")
        else:
            raise AbiError("str expected")
        return (len(value).to_bytes(_WORD, "big") + value
                + bytes(-len(value) % _WORD))
    if kind is _ARRAY:
        if not isinstance(value, (list, tuple)):
            raise AbiError("sequence expected")
        if not abi_type.dynamic_length and len(value) != abi_type.size:
            raise AbiError(f"expected {abi_type.size} elements, got {len(value)}")
        # every element has the inner type's layout
        inner, count = abi_type.inner, len(value)
        dynamic = inner.is_dynamic
        body = _encode_block((inner,) * count, value,
                             _WORD * count * (1 if dynamic else inner.words),
                             (dynamic,) * count)
        if abi_type.dynamic_length:
            return len(value).to_bytes(_WORD, "big") + body
        return body
    if kind is _TUPLE:
        types = abi_type.components
        if isinstance(value, (list, tuple)) and len(value) == len(types):
            return _encode_block(types, value, *_layout(types))
        raise AbiError(f"expected {len(types)} members")
    raise AbiError(f"cannot encode kind {kind}")


def _layout(types: Sequence[AbiType]) -> tuple[int, tuple[bool, ...]]:
    """A block's head size in bytes, and which of its members are dynamic."""
    dynamic = tuple(t.is_dynamic for t in types)
    return _WORD * sum(1 if d else t.words for t, d in zip(types, dynamic)), dynamic


def _encode_block(types: Sequence[AbiType], values: Sequence[Any],
                  head_size: int, dynamic: tuple[bool, ...]) -> bytes:
    """Head/tail layout for one level of a composite value."""
    if len(types) != len(values):
        raise AbiError(f"expected {len(types)} values, got {len(values)}")
    heads: list[bytes] = []
    tails: list[bytes] = []
    offset = head_size
    for abi_type, value, is_dynamic in zip(types, values, dynamic):
        encoded = _encode_value(abi_type, value)
        if is_dynamic:
            heads.append(offset.to_bytes(_WORD, "big"))
            tails.append(encoded)
            offset += len(encoded)
        else:
            heads.append(encoded)
    return b"".join(heads) + b"".join(tails)


def encode_arguments(types: Sequence[AbiType], values: Sequence[Any]) -> bytes:
    return _encode_block(types, values, *_layout(types))


def encode_call(fn: FunctionSpec, values: Sequence[Any]) -> bytes:
    """Selector plus encoded arguments, ready to use as calldata."""
    if fn.one_word_inputs and len(values) == len(fn.inputs):
        return fn.selector_bytes + b"".join(map(_encode_value, fn.inputs,
                                                values))
    if not (fn.inputs or values):
        return fn.selector_bytes
    return fn.selector_bytes + _encode_block(fn.inputs, values, *fn.layout)


def patch_argument(fn: FunctionSpec, calldata: bytes, values: Sequence[Any],
                   index: int) -> bytes | None:
    """The call of `fn` with `values`, made from `calldata`, its call with
    only argument `index` different, by replacing that argument's word:
    the bytes `encode_call(fn, values)` gives.  None when an input of `fn`
    is not one word (`FunctionSpec.one_word_inputs`) or `calldata` is not
    one word per input long; such a call must be encoded."""
    inputs = fn.inputs
    if not fn.one_word_inputs or len(calldata) != 4 + _WORD * len(inputs):
        return None
    start = 4 + _WORD * index
    return (calldata[:start] + _encode_value(inputs[index], values[index])
            + calldata[start + _WORD:])


# --- value generation -----------------------------------------------------

def _magic_words() -> tuple[int, ...]:
    words = [0, 1, 2]
    for n in (8, 16, 32, 64, 128, 255):
        words.append((1 << n) - 1)
        words.append((1 << n) + 1)
    words.append((1 << 256) - 1)
    return tuple(words)


# pool constants: these words, and the addresses a target passes as `pools`
MAGIC_WORDS = _magic_words()
_MAGIC_COUNT = len(MAGIC_WORDS)

_TEXT_ALPHABET = string_mod.ascii_letters + string_mod.digits
_TEXT_COUNT = len(_TEXT_ALPHABET)
_LENGTH_ANCHORS = (0, 1, 2, 4, 8, 32)
_POOL_BIAS = 0.5


def _signed_wrap(value: int, half: int) -> int:
    """`value` wrapped into an `int` type's range, `[-half, half)`."""
    return (value + half) % (half << 1) - half


def _below(getrandbits: Callable[[int], int], n: int) -> int:
    """A draw from `range(n)` made as `Random.choice` and
    `Random.randrange` make it on Python 3.10-3.13: `n.bit_length()` bits,
    drawn again while they are not below `n`.  So a campaign's stream does
    not depend on which of the three draws it; this one skips their
    argument checks and method lookups, a quarter of a `choice`'s cost.
    `n` must be at least 1: no draw is below 0, and the loop would not
    end, where `choice` and `randrange` raise."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _blob_length(rng: random.Random) -> int:
    if rng.random() < _POOL_BIAS:
        return _LENGTH_ANCHORS[_below(rng.getrandbits, len(_LENGTH_ANCHORS))]
    return _below(rng.getrandbits, 65)


def generate_value(rng: random.Random, abi_type: AbiType,
                   pools: tuple[bytes, ...]) -> Any:
    """Fresh random value of the given type, biased toward pool constants."""
    kind = abi_type.kind
    getrandbits = rng.getrandbits
    if kind is _UINT:
        if rng.random() < _POOL_BIAS:
            return (MAGIC_WORDS[_below(getrandbits, _MAGIC_COUNT)]
                    % abi_type.limit)
        return getrandbits(abi_type.bits)
    if kind is _INT:
        raw = (MAGIC_WORDS[_below(getrandbits, _MAGIC_COUNT)]
               if rng.random() < _POOL_BIAS else getrandbits(abi_type.bits))
        return _signed_wrap(raw, abi_type.limit)
    if kind is _ADDRESS:
        if pools and rng.random() < _POOL_BIAS:
            return pools[_below(getrandbits, len(pools))]
        return rng.randbytes(_ADDRESS_BYTES)
    if kind is _BOOL:
        return rng.random() < 0.5
    if kind is _FIXED_BYTES:
        if rng.random() < _POOL_BIAS:
            word = (MAGIC_WORDS[_below(getrandbits, _MAGIC_COUNT)]
                    % abi_type.limit)
            return word.to_bytes(abi_type.size, "big")
        return rng.randbytes(abi_type.size)
    if kind is _BYTES:
        return rng.randbytes(_blob_length(rng))
    if kind is _STRING:
        return "".join([_TEXT_ALPHABET[_below(getrandbits, _TEXT_COUNT)]
                        for _ in range(_blob_length(rng))])
    if kind is _ARRAY:
        length = (abi_type.size if not abi_type.dynamic_length
                  else _below(getrandbits, 4))
        return [generate_value(rng, abi_type.inner, pools)
                for _ in range(length)]
    if kind is _TUPLE:
        return tuple(generate_value(rng, c, pools)
                     for c in abi_type.components)
    raise AbiError(f"cannot generate kind {kind}")


# the steps a `uint` or `int` mutation adds, its first four candidates
_STEPS = (1, -1, 16, -16)


def mutate_value(rng: random.Random, abi_type: AbiType, value: Any,
                 pools: tuple[bytes, ...]) -> Any:
    """Small random change to `value`, staying within the type's range.

    A `uint` or `int` mutation draws a bit to flip and a magic word, then
    which candidate to take, in this order: `value` plus each of `_STEPS`,
    `-value` (`int` only), `value` with the bit flipped, and the word.
    Only the drawn candidate is computed."""
    kind = abi_type.kind
    getrandbits = rng.getrandbits
    if kind is _UINT or kind is _INT:
        bit = _below(getrandbits, abi_type.bits)
        word = MAGIC_WORDS[_below(getrandbits, _MAGIC_COUNT)]
        signed = kind is _INT
        pick = _below(getrandbits, 7 if signed else 6)
        if not signed and pick >= 4:
            pick += 1  # a `uint` has no `-value` candidate
        if pick < 4:
            value += _STEPS[pick]
        elif pick == 4:
            value = -value
        elif pick == 5:
            value ^= 1 << bit
        else:
            value = word
        if signed:
            return _signed_wrap(value, abi_type.limit)
        return value % abi_type.limit
    if kind is _BOOL:
        return not value
    if kind is _ADDRESS:
        others = [a for a in pools if a != value]
        if others:
            return others[_below(getrandbits, len(others))]
        return rng.randbytes(_ADDRESS_BYTES)
    if kind is _FIXED_BYTES:
        index = _below(getrandbits, abi_type.size)
        flipped = value[index] ^ (1 + _below(getrandbits, 255))
        return value[:index] + bytes([flipped]) + value[index + 1:]
    if kind is _BYTES or kind is _STRING:
        return _mutate_blob(rng, abi_type, value)
    if kind is _ARRAY:
        return _mutate_sequence(rng, abi_type, list(value), pools)
    if kind is _TUPLE:
        if not abi_type.components:
            return ()
        members = list(value)
        index = _below(getrandbits, len(members))
        members[index] = mutate_value(rng, abi_type.components[index],
                                      members[index], pools)
        return tuple(members)
    raise AbiError(f"cannot mutate kind {kind}")


def _mutate_blob(rng: random.Random, abi_type: AbiType, value: Any) -> Any:
    """Grow `value` by one character or byte, or, when it is not empty,
    also flip one or drop the last, the three moves drawn alike."""
    getrandbits = rng.getrandbits
    is_text = abi_type.kind is _STRING
    move = _below(getrandbits, 3 if value else 1)
    if move == 0:
        extra = (_TEXT_ALPHABET[_below(getrandbits, _TEXT_COUNT)] if is_text
                 else rng.randbytes(1))
        return value + extra
    if move == 2:
        return value[:-1]
    index = _below(getrandbits, len(value))
    if is_text:
        return (value[:index] + _TEXT_ALPHABET[_below(getrandbits, _TEXT_COUNT)]
                + value[index + 1:])
    flipped = value[index] ^ (1 + _below(getrandbits, 255))
    return value[:index] + bytes([flipped]) + value[index + 1:]


def _mutate_sequence(rng: random.Random, abi_type: AbiType,
                     members: list[Any],
                     pools: tuple[bytes, ...]) -> list[Any]:
    """Mutate one member; a dynamic-length array may instead append a
    fresh member or, when it is not empty, drop the last, the three moves
    drawn alike."""
    getrandbits = rng.getrandbits
    if abi_type.dynamic_length:
        move = _below(getrandbits, 3 if members else 1)
        if move == 0:
            return members + [generate_value(rng, abi_type.inner, pools)]
        if move == 1:
            return members[:-1]
    if not members:
        return members
    index = _below(getrandbits, len(members))
    members[index] = mutate_value(rng, abi_type.inner, members[index], pools)
    return members
