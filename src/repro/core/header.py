"""The 64-byte data-structure metadata header (paper Fig. 4, Sec. III-B).

Software populates one cacheline of metadata per queried data structure; the
accelerator's CFA parses it before executing a query.  Fields:

====== ===== =====================================================
offset size  field
====== ===== =====================================================
0      8     root pointer (start of the data structure)
8      1     type (selects the CFA program)
9      1     subtype (per-type parameter, e.g. entries per bucket)
10     2     key length in bytes
12     4     flags
16     8     size (static structures: bucket count / node count)
24     8     aux pointer (per-type, e.g. skip-list max level)
32     8     version (seqlock generation counter; odd = write in progress)
40     24    reserved for future extension
====== ===== =====================================================

The version word is the reader/writer coexistence protocol (docs/
mutations.md): writers CAS it from even to odd before mutating and write
it back even+2 after; readers record it at PARSE and re-check it at
completion, aborting with :attr:`AbortCode.VERSION_CONFLICT` on any
mismatch.  Read-only structures keep version 0, so their encoded headers
are byte-identical to the pre-mutation layout.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

from ..errors import DataStructureError
from ..mem.paging import AddressSpace
from .abort import AbortCode

HEADER_BYTES = 64

#: flags
FLAG_VALID = 0x1
FLAG_READ_ONLY = 0x2
#: An online resize is in flight: the aux field points at an out-of-line
#: resize descriptor and lookups route per-bucket old-vs-new (docs/
#: mutations.md).  Only meaningful for HASH_TABLE headers.
FLAG_RESIZING = 0x4
#: Every flag bit the architecture defines; anything else is garbage.
KNOWN_FLAGS_MASK = FLAG_VALID | FLAG_READ_ONLY | FLAG_RESIZING

#: Byte offset of the u64 seqlock version word inside the header line.
VERSION_OFFSET = 32

#: Architectural bound on the key-length field.  The CFA stages keys through
#: 64B scratch lines, so keys are streamed; anything past one page is a
#: corrupted header, not a real key.
MAX_KEY_LENGTH = 4096

#: Memo bound of :meth:`DataStructureHeader.decode`: the home probes and
#: PARSE decode a few lines (one per structure and version) again and again.
_DECODE_MEMO_SIZE = 1 << 12


class StructureType(enum.IntEnum):
    """Built-in data-structure type codes understood by QEI firmware."""

    LINKED_LIST = 1
    HASH_TABLE = 2
    SKIP_LIST = 3
    BINARY_TREE = 4
    TRIE = 5
    #: Combined structure example from Sec. III-A: hash table of lists.
    HASH_OF_LISTS = 6
    #: Database index extension (firmware add-on, like HASH_OF_LISTS).
    BPLUS_TREE = 7


@dataclass(frozen=True)
class DataStructureHeader:
    """Decoded header contents."""

    root_ptr: int
    type_code: int
    subtype: int
    key_length: int
    flags: int
    size: int
    aux: int
    #: Seqlock generation counter (0 for read-only structures).
    version: int = 0

    @property
    def structure_type(self) -> StructureType:
        try:
            return StructureType(self.type_code)
        except ValueError as exc:
            raise DataStructureError(
                f"unknown structure type code {self.type_code}"
            ) from exc

    @property
    def valid(self) -> bool:
        return bool(self.flags & FLAG_VALID)

    # ------------------------------------------------------------------ #

    def validate(
        self,
        *,
        expected_type: "int | None" = None,
        raw: bytes = b"",
    ) -> AbortCode:
        """Strict decode-time checks (Sec. IV-D hardening).

        Returns the abort code a corrupted field maps to, or
        :attr:`AbortCode.NONE` for a well-formed header.  The CFA runs this
        in its PARSE state so malformed metadata aborts before the walk ever
        dereferences a pointer, instead of failing deep inside the CFA.

        ``raw`` (the full 64B cacheline, when available) additionally checks
        that the reserved tail bytes are zero — the cheapest way hardware
        spots a header cacheline that was overwritten wholesale.
        """
        if self.flags & ~KNOWN_FLAGS_MASK:
            return AbortCode.BAD_MAGIC
        if len(raw) >= HEADER_BYTES and any(raw[VERSION_OFFSET + 8 : HEADER_BYTES]):
            return AbortCode.BAD_MAGIC
        if self.version & 1:
            return AbortCode.VERSION_CONFLICT
        if not self.valid:
            return AbortCode.HEADER_INVALID
        if not 0 < self.key_length <= MAX_KEY_LENGTH:
            return AbortCode.BAD_KEY_LENGTH
        if expected_type is not None and self.type_code != expected_type:
            return AbortCode.BAD_TYPE
        return AbortCode.NONE

    # ------------------------------------------------------------------ #

    def encode(self) -> bytes:
        """Serialise to the 64B on-memory layout."""
        if not 0 <= self.key_length < 2**16:
            raise DataStructureError(f"key_length {self.key_length} out of range")
        if not 0 <= self.type_code < 256 or not 0 <= self.subtype < 256:
            raise DataStructureError("type/subtype must fit one byte")
        out = bytearray(HEADER_BYTES)
        out[0:8] = self.root_ptr.to_bytes(8, "little")
        out[8] = self.type_code
        out[9] = self.subtype
        out[10:12] = self.key_length.to_bytes(2, "little")
        out[12:16] = self.flags.to_bytes(4, "little")
        out[16:24] = self.size.to_bytes(8, "little")
        out[24:32] = self.aux.to_bytes(8, "little")
        out[32:40] = self.version.to_bytes(8, "little")
        return bytes(out)

    @classmethod
    def decode(cls, raw: bytes) -> "DataStructureHeader":
        """Decode one header line; equal ``bytes`` lines share one instance."""
        return (_decode_line if type(raw) is bytes else _decode)(raw)

    # ------------------------------------------------------------------ #

    def store(self, space: AddressSpace, vaddr: int) -> None:
        """Write the header into simulated memory at ``vaddr``."""
        if vaddr % HEADER_BYTES:
            raise DataStructureError(
                "header must be cacheline aligned (single-cacheline metadata)"
            )
        space.write(vaddr, self.encode())

    @classmethod
    def load(cls, space: AddressSpace, vaddr: int) -> "DataStructureHeader":
        return cls.decode(space.read(vaddr, HEADER_BYTES))


def _decode(raw) -> DataStructureHeader:
    if len(raw) < HEADER_BYTES:
        raise DataStructureError(
            f"header needs {HEADER_BYTES} bytes, got {len(raw)}"
        )
    return DataStructureHeader(
        root_ptr=int.from_bytes(raw[0:8], "little"),
        type_code=raw[8],
        subtype=raw[9],
        key_length=int.from_bytes(raw[10:12], "little"),
        flags=int.from_bytes(raw[12:16], "little"),
        size=int.from_bytes(raw[16:24], "little"),
        aux=int.from_bytes(raw[24:32], "little"),
        version=int.from_bytes(raw[32:40], "little"),
    )


#: A short line raises through the memo too (it stores no exception).
_decode_line = lru_cache(maxsize=_DECODE_MEMO_SIZE)(_decode)
