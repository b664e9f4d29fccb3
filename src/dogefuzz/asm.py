"""Tiny one-pass EVM assembler for building test and benchmark contracts.

Bytes are appended as they come; a label reference emits a PUSH2 whose
immediate `assemble` patches once every label is placed, so assembled
programs must stay under 65536 bytes. JUMPDEST markers are emitted
explicitly via `dest`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import opcodes as op


@dataclass
class Assembler:
    _code: bytearray = field(default_factory=bytearray)
    _labels: dict[str, int] = field(default_factory=dict)
    # (offset of a PUSH2 immediate, label it names)
    _refs: list[tuple[int, str]] = field(default_factory=list)

    def op(self, *names: str) -> "Assembler":
        """Append opcodes by mnemonic."""
        self._code += bytes(op.OPCODES[name] for name in names)
        return self

    def raw(self, data: bytes) -> "Assembler":
        self._code += data
        return self

    def push(self, value: int, width: int | None = None) -> "Assembler":
        """PUSH `value` with minimal width unless one is forced."""
        if width is None:
            width = max(1, (value.bit_length() + 7) // 8)
        if not 1 <= width <= 32 or value >= 1 << (8 * width):
            raise ValueError(f"push value {value} does not fit width {width}")
        return self.raw(bytes([op.PUSH1 + width - 1])
                        + value.to_bytes(width, "big"))

    def push_address(self, address: bytes) -> "Assembler":
        return self.raw(bytes([op.PUSH1 + len(address) - 1]) + address)

    def push_label(self, name: str) -> "Assembler":
        self._refs.append((len(self._code) + 1, name))
        return self.raw(bytes([op.PUSH1 + 1, 0, 0]))

    def label(self, name: str) -> "Assembler":
        if name in self._labels:
            raise ValueError(f"duplicate label {name!r}")
        self._labels[name] = len(self._code)
        return self

    def dest(self, name: str) -> "Assembler":
        """Mark a jump target: label plus JUMPDEST."""
        return self.label(name).op("JUMPDEST")

    def assemble(self) -> bytes:
        out = bytearray(self._code)
        for offset, name in self._refs:
            target = self._labels.get(name)
            if target is None:
                raise ValueError(f"undefined label {name!r}")
            out[offset:offset + 2] = target.to_bytes(2, "big")
        return bytes(out)
