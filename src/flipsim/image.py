"""Paged addresses of the model's weight bytes.

The serialized weight block is split into 4 KiB pages; every weight bit gets a
(page#, bop) address where page numbers are 1-based and bop counts bits within
the page, 0..32767.  The bit-within-byte convention: bop ``byte_offset*8 + i``
addresses bit ``i`` of that byte counting from the LSB, so a byte's MSB sits
at ``byte_offset*8 + 7``.  Profile files and the DRAM simulator share this
convention.  The model holds the bytes: a :class:`WeightImage` only maps
addresses to weight bits and reads or flips them in the model.
"""

import json
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .dram import PAGE_BITS, PAGE_BYTES
from .qnn.model import BitRef


class StaleModeError(ValueError):
    """A flip's stored bit does not match its mode's source value.

    Signals an obsolete flip profile: the direction recorded for the target
    no longer matches the bit actually stored there.
    """


@dataclass(frozen=True)
class TargetBit:
    """One targeted weight bit: (page#, bop, mode); mode 0 = 1->0, 1 = 0->1."""

    page: int
    bop: int
    mode: int

    def __post_init__(self):
        if self.page < 1:
            raise ValueError("page numbers are 1-based")
        if not (0 <= self.bop < PAGE_BITS):
            raise ValueError(f"bop {self.bop} out of range")
        if self.mode not in (0, 1):
            raise ValueError("mode must be 0 (1->0) or 1 (0->1)")

    @property
    def source_value(self):
        """Bit value that must currently be stored for this flip to apply."""
        return 1 - self.mode


class WeightImage:
    """The bit<->address bijection over ``model``'s weight block."""

    def __init__(self, model):
        self.model = model
        # byte offset of each weighted layer inside the block
        self.layer_offsets = []
        off = 0
        for i in model.weighted_indices():
            self.layer_offsets.append((i, off))
            off += model.layers[i].weight_count
        if not off:
            raise ValueError("model has no weights to image")
        self.weight_bytes = off
        self.page_count = -(-off // PAGE_BYTES)
        self._bit_pages = {}

    # ---- address mapping ----------------------------------------------------

    def addr_to_bit(self, page, bop):
        """(page#, bop) -> BitRef; padding bits are not addressable."""
        if not (1 <= page <= self.page_count) or not (0 <= bop < PAGE_BITS):
            raise IndexError(f"address ({page}, {bop}) out of image")
        gbi = (page - 1) * PAGE_BITS + bop
        byte, bit = divmod(gbi, 8)
        if byte >= self.weight_bytes:
            raise IndexError(f"({page}, {bop}) addresses page padding")
        j = bisect_right(self.layer_offsets, byte, key=lambda lo: lo[1]) - 1
        layer_idx, start = self.layer_offsets[j]
        return BitRef(layer_idx, byte - start, bit)

    def layer_bit_pages(self, layer_idx):
        """Compact bit addresses of one layer: ``(pages, bops)``, per weight.

        ``pages[i]`` is the page# holding weight ``i``'s byte and ``bops[i]``
        the bop of its bit 0, so bit ``b`` sits at ``(pages[i], bops[i] + b)``.
        Both arrays are built once per layer and read-only.
        """
        if layer_idx not in self._bit_pages:
            start = dict(self.layer_offsets)[layer_idx]
            byte = start + np.arange(self.model.layers[layer_idx].weight_count)
            pair = (byte // PAGE_BYTES + 1, byte % PAGE_BYTES * 8)
            for arr in pair:
                arr.flags.writeable = False
            self._bit_pages[layer_idx] = pair
        return self._bit_pages[layer_idx]

    # ---- content ------------------------------------------------------------

    def get_bit(self, page, bop):
        """The bit stored at ``(page, bop)``, read from the model's code."""
        ref = self.addr_to_bit(page, bop)
        code = self.model.layers[ref.layer].weight_q.reshape(-1)[ref.index]
        return int(code) >> ref.bit & 1

    def page_bytes(self, page, block=None):
        """The 4 KiB of page ``page``: ``block``, by default the model's
        weight block, zero-padded."""
        self.addr_to_bit(page, 0)  # refuses a page outside the image
        block = self.model.weight_block() if block is None else block
        return block[(page - 1) * PAGE_BYTES:page * PAGE_BYTES].ljust(
            PAGE_BYTES, b"\0")

    def pages(self, pgids):
        """:meth:`page_bytes` of each page of ``pgids``, from one block."""
        block = self.model.weight_block()
        return [self.page_bytes(page, block) for page in pgids]

    def apply_flips(self, flips):
        """Toggle each target bit in the model.

        Every target is checked before any bit is flipped: one in page
        padding raises :class:`IndexError`, one whose stored bit is not its
        mode's source value :class:`StaleModeError`.  Returns the induced
        model delta: ``[(BitRef, old_q, new_q), ...]``.
        """
        for tb in flips:
            stored = self.get_bit(tb.page, tb.bop)
            if stored != tb.source_value:
                raise StaleModeError(
                    f"target ({tb.page}, {tb.bop}, mode {tb.mode}) expects "
                    f"stored bit {tb.source_value}, found {stored}")
        delta = []
        for ref in [self.addr_to_bit(tb.page, tb.bop) for tb in flips]:
            codes = self.model.layers[ref.layer].weight_q.reshape(-1)
            old = int(codes[ref.index])
            self.model.flip_bit(ref)
            delta.append((ref, old, int(codes[ref.index])))
        return delta


# ---- chain files -------------------------------------------------------------


def write_chain(path, records):
    """JSON-lines chain file: one ``ChainStep.record()``, {page, bop, mode,
    expected_acc}, per target."""
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return path


def read_chain(path):
    """The records of a :func:`write_chain` file; each must be a valid target
    given as JSON integers, with a finite number as its ``expected_acc``."""
    steps = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            for key in ("page", "bop", "mode"):
                if type(rec[key]) is not int:
                    raise ValueError(f"{key} {rec[key]!r} is not an integer")
            acc = rec["expected_acc"]
            if type(acc) not in (int, float) or not np.isfinite(acc):
                raise ValueError(f"expected_acc {acc!r} is not a finite number")
            target = TargetBit(rec["page"], rec["bop"], rec["mode"])
            steps.append({"page": target.page, "bop": target.bop,
                          "mode": target.mode, "expected_acc": float(acc)})
    return steps
