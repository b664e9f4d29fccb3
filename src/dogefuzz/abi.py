"""Contract interface handling: type parsing, selectors, call encoding,
and typed random argument generation for the fuzzer.

Types support the scalar kinds plus arrays and tuples nested up to three
container levels.  Encoding follows the standard head/tail layout: static
values sit inline, dynamic values contribute a 32-byte offset into a tail
region relative to the start of the enclosing block.
"""

from __future__ import annotations

import logging
import random
import re
import string as string_mod
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Any, Iterable, Sequence

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


class Mutability(str, Enum):
    PURE = "pure"
    VIEW = "view"
    NONPAYABLE = "nonpayable"
    PAYABLE = "payable"


# --- types ----------------------------------------------------------------

@dataclass(frozen=True)
class AbiType:
    """One parameter type; containers reference their element/components."""

    kind: TypeKind
    bits: int = 0                      # uint/int width
    size: int = 0                      # fixed_bytes width or array length
    dynamic_length: bool = False       # array with run-time length
    inner: "AbiType | None" = None     # array element type
    components: tuple["AbiType", ...] = ()

    @property
    def canonical(self) -> str:
        if self.kind is TypeKind.UINT:
            return f"uint{self.bits}"
        if self.kind is TypeKind.INT:
            return f"int{self.bits}"
        if self.kind is TypeKind.FIXED_BYTES:
            return f"bytes{self.size}"
        if self.kind is TypeKind.ARRAY:
            suffix = "[]" if self.dynamic_length else f"[{self.size}]"
            return self.inner.canonical + suffix
        if self.kind is TypeKind.TUPLE:
            return "(" + ",".join(c.canonical for c in self.components) + ")"
        return self.kind.value

    @property
    def is_dynamic(self) -> bool:
        if self.kind in (TypeKind.BYTES, TypeKind.STRING):
            return True
        if self.kind is TypeKind.ARRAY:
            return self.dynamic_length or self.inner.is_dynamic
        if self.kind is TypeKind.TUPLE:
            return any(c.is_dynamic for c in self.components)
        return False

    @property
    def words(self) -> int:
        """Words the value takes: the members of fixed-length arrays and
        tuples are counted, and each scalar, `bytes`, `string` or
        dynamic-length array is one word."""
        if self.kind is TypeKind.ARRAY and not self.dynamic_length:
            return self.size * self.inner.words
        if self.kind is TypeKind.TUPLE:
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

    # computed on first use and kept on the instance: every encode or
    # mutation needs them
    @cached_property
    def signature(self) -> str:
        return f"{self.name}({','.join(t.canonical for t in self.inputs)})"

    @cached_property
    def selector_bytes(self) -> bytes:
        if self.is_fallback:
            raise AbiError("the fallback has no selector")
        return selector(self.signature)

    @cached_property
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

    @property
    def is_fallback(self) -> bool:
        return self.name == ""

    @property
    def is_view(self) -> bool:
        return self.mutability in (Mutability.PURE, Mutability.VIEW)

    @property
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

def _uint_word(value: int) -> bytes:
    return value.to_bytes(_WORD, "big")


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise AbiError(message)


def _encode_value(abi_type: AbiType, value: Any) -> bytes:
    kind = abi_type.kind
    if kind is TypeKind.UINT:
        _check(isinstance(value, int) and not isinstance(value, bool)
               and 0 <= value < (1 << abi_type.bits),
               f"value {value!r} out of range for {abi_type.canonical}")
        return _uint_word(value)
    if kind is TypeKind.INT:
        half = 1 << (abi_type.bits - 1)
        _check(isinstance(value, int) and not isinstance(value, bool)
               and -half <= value < half,
               f"value {value!r} out of range for {abi_type.canonical}")
        return _uint_word(value % (1 << 256))
    if kind is TypeKind.ADDRESS:
        _check(isinstance(value, bytes) and len(value) == _ADDRESS_BYTES,
               f"address must be {_ADDRESS_BYTES} bytes")
        return value.rjust(_WORD, b"\x00")
    if kind is TypeKind.BOOL:
        _check(isinstance(value, bool), "bool expected")
        return _uint_word(1 if value else 0)
    if kind is TypeKind.FIXED_BYTES:
        _check(isinstance(value, bytes) and len(value) == abi_type.size,
               f"expected exactly {abi_type.size} bytes")
        return value.ljust(_WORD, b"\x00")
    if kind is TypeKind.BYTES or kind is TypeKind.STRING:
        if kind is TypeKind.STRING:
            _check(isinstance(value, str), "str expected")
            raw = value.encode("utf-8")
        else:
            _check(isinstance(value, bytes), "bytes expected")
            raw = value
        padded_len = (len(raw) + _WORD - 1) // _WORD * _WORD
        return _uint_word(len(raw)) + raw.ljust(padded_len, b"\x00")
    if kind is TypeKind.ARRAY:
        _check(isinstance(value, (list, tuple)), "sequence expected")
        if abi_type.dynamic_length:
            body = _encode_block([abi_type.inner] * len(value), list(value))
            return _uint_word(len(value)) + body
        _check(len(value) == abi_type.size,
               f"expected {abi_type.size} elements, got {len(value)}")
        return _encode_block([abi_type.inner] * abi_type.size, list(value))
    if kind is TypeKind.TUPLE:
        _check(isinstance(value, (list, tuple))
               and len(value) == len(abi_type.components),
               f"expected {len(abi_type.components)} members")
        return _encode_block(list(abi_type.components), list(value))
    raise AbiError(f"cannot encode kind {kind}")


def _encode_block(types: list[AbiType], values: list[Any]) -> bytes:
    """Head/tail layout for one level of a composite value."""
    head_size = _WORD * sum(1 if t.is_dynamic else t.words for t in types)
    heads: list[bytes] = []
    tails: list[bytes] = []
    offset = head_size
    for abi_type, value in zip(types, values):
        encoded = _encode_value(abi_type, value)
        if abi_type.is_dynamic:
            heads.append(_uint_word(offset))
            tails.append(encoded)
            offset += len(encoded)
        else:
            heads.append(encoded)
    return b"".join(heads) + b"".join(tails)


def encode_arguments(types: Sequence[AbiType], values: Sequence[Any]) -> bytes:
    _check(len(types) == len(values),
           f"expected {len(types)} values, got {len(values)}")
    return _encode_block(list(types), list(values))


def encode_call(fn: FunctionSpec, values: Sequence[Any]) -> bytes:
    """Selector plus encoded arguments, ready to use as calldata."""
    return fn.selector_bytes + encode_arguments(fn.inputs, values)


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

_TEXT_ALPHABET = string_mod.ascii_letters + string_mod.digits
_LENGTH_ANCHORS = (0, 1, 2, 4, 8, 32)
_POOL_BIAS = 0.5


def _signed_wrap(value: int, bits: int) -> int:
    half = 1 << (bits - 1)
    return (value + half) % (1 << bits) - half


def _blob_length(rng: random.Random) -> int:
    if rng.random() < _POOL_BIAS:
        return rng.choice(_LENGTH_ANCHORS)
    return rng.randrange(65)


def generate_value(rng: random.Random, abi_type: AbiType,
                   pools: tuple[bytes, ...]) -> Any:
    """Fresh random value of the given type, biased toward pool constants."""
    kind = abi_type.kind
    if kind is TypeKind.UINT:
        if rng.random() < _POOL_BIAS:
            return rng.choice(MAGIC_WORDS) & ((1 << abi_type.bits) - 1)
        return rng.getrandbits(abi_type.bits)
    if kind is TypeKind.INT:
        raw = (rng.choice(MAGIC_WORDS) if rng.random() < _POOL_BIAS
               else rng.getrandbits(abi_type.bits))
        return _signed_wrap(raw, abi_type.bits)
    if kind is TypeKind.ADDRESS:
        if pools and rng.random() < _POOL_BIAS:
            return rng.choice(pools)
        return rng.randbytes(_ADDRESS_BYTES)
    if kind is TypeKind.BOOL:
        return rng.random() < 0.5
    if kind is TypeKind.FIXED_BYTES:
        if rng.random() < _POOL_BIAS:
            word = rng.choice(MAGIC_WORDS) & ((1 << (8 * abi_type.size)) - 1)
            return word.to_bytes(abi_type.size, "big")
        return rng.randbytes(abi_type.size)
    if kind is TypeKind.BYTES:
        return rng.randbytes(_blob_length(rng))
    if kind is TypeKind.STRING:
        return "".join(rng.choice(_TEXT_ALPHABET)
                       for _ in range(_blob_length(rng)))
    if kind is TypeKind.ARRAY:
        length = abi_type.size if not abi_type.dynamic_length else rng.randrange(4)
        return [generate_value(rng, abi_type.inner, pools)
                for _ in range(length)]
    if kind is TypeKind.TUPLE:
        return tuple(generate_value(rng, c, pools)
                     for c in abi_type.components)
    raise AbiError(f"cannot generate kind {kind}")


def mutate_value(rng: random.Random, abi_type: AbiType, value: Any,
                 pools: tuple[bytes, ...]) -> Any:
    """Small random change to `value`, staying within the type's range."""
    kind = abi_type.kind
    if kind is TypeKind.UINT:
        mask = (1 << abi_type.bits) - 1
        candidates = [value + 1, value - 1, value + 16, value - 16,
                      value ^ (1 << rng.randrange(abi_type.bits)),
                      rng.choice(MAGIC_WORDS)]
        return rng.choice(candidates) & mask
    if kind is TypeKind.INT:
        candidates = [value + 1, value - 1, value + 16, value - 16, -value,
                      value ^ (1 << rng.randrange(abi_type.bits)),
                      rng.choice(MAGIC_WORDS)]
        return _signed_wrap(rng.choice(candidates), abi_type.bits)
    if kind is TypeKind.BOOL:
        return not value
    if kind is TypeKind.ADDRESS:
        others = [a for a in pools if a != value]
        if others:
            return rng.choice(others)
        return rng.randbytes(_ADDRESS_BYTES)
    if kind is TypeKind.FIXED_BYTES:
        index = rng.randrange(abi_type.size)
        flipped = value[index] ^ rng.randrange(1, 256)
        return value[:index] + bytes([flipped]) + value[index + 1:]
    if kind is TypeKind.BYTES or kind is TypeKind.STRING:
        return _mutate_blob(rng, abi_type, value)
    if kind is TypeKind.ARRAY:
        return _mutate_sequence(rng, abi_type, list(value), pools)
    if kind is TypeKind.TUPLE:
        if not abi_type.components:
            return ()
        members = list(value)
        index = rng.randrange(len(members))
        members[index] = mutate_value(rng, abi_type.components[index],
                                      members[index], pools)
        return tuple(members)
    raise AbiError(f"cannot mutate kind {kind}")


def _mutate_blob(rng: random.Random, abi_type: AbiType, value: Any) -> Any:
    is_text = abi_type.kind is TypeKind.STRING
    moves = ["grow"]
    if len(value) > 0:
        moves += ["flip", "shrink"]
    move = rng.choice(moves)
    if move == "grow":
        extra = rng.choice(_TEXT_ALPHABET) if is_text else rng.randbytes(1)
        return value + extra
    if move == "shrink":
        return value[:-1]
    index = rng.randrange(len(value))
    if is_text:
        return value[:index] + rng.choice(_TEXT_ALPHABET) + value[index + 1:]
    return value[:index] + bytes([value[index] ^ rng.randrange(1, 256)]) \
        + value[index + 1:]


def _mutate_sequence(rng: random.Random, abi_type: AbiType,
                     members: list[Any],
                     pools: tuple[bytes, ...]) -> list[Any]:
    if abi_type.dynamic_length:
        moves = ["append"]
        if members:
            moves += ["drop", "mutate"]
        move = rng.choice(moves)
        if move == "append":
            return members + [generate_value(rng, abi_type.inner, pools)]
        if move == "drop":
            return members[:-1]
    if not members:
        return members
    index = rng.randrange(len(members))
    members[index] = mutate_value(rng, abi_type.inner, members[index], pools)
    return members
