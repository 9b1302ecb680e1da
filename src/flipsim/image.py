"""Paged view of the model's weight bytes.

The serialized weight block is split into 4 KiB pages; every weight bit gets a
(page#, bop) address where page numbers are 1-based and bop counts bits within
the page, 0..32767.  The bit-within-byte convention: bop ``byte_offset*8 + i``
addresses bit ``i`` of that byte counting from the LSB, so a byte's MSB sits
at ``byte_offset*8 + 7``.  Profile files and the DRAM simulator share this
convention.
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
    """Byte image of the weight block plus the bit<->address bijection."""

    def __init__(self, model):
        self.model = model
        blob = model.weight_block()
        if not blob:
            raise ValueError("model has no weights to image")
        self.weight_bytes = len(blob)
        self.page_count = -(-self.weight_bytes // PAGE_BYTES)
        padded = np.zeros(self.page_count * PAGE_BYTES, dtype=np.uint8)
        padded[:self.weight_bytes] = np.frombuffer(blob, dtype=np.uint8)
        self.pages = padded.reshape(self.page_count, PAGE_BYTES)
        # byte offset of each weighted layer inside the block
        self.layer_offsets = []
        off = 0
        for i in model.weighted_indices():
            self.layer_offsets.append((i, off))
            off += model.layers[i].weight_count
        self._starts = [s for _, s in self.layer_offsets]
        self._bit_pages = {}

    # ---- address mapping ----------------------------------------------------

    def bit_to_addr(self, ref):
        """BitRef -> (page#, bop)."""
        pos = None
        for j, (layer_idx, start) in enumerate(self.layer_offsets):
            if layer_idx == ref.layer:
                pos = j
                break
        if pos is None:
            raise IndexError(f"layer {ref.layer} holds no weights")
        layer = self.model.layers[ref.layer]
        if not (0 <= ref.index < layer.weight_count):
            raise IndexError("weight index out of range")
        if not (0 <= ref.bit < self.model.bit_width):
            raise IndexError("bit position out of range")
        gbi = (self.layer_offsets[pos][1] + ref.index) * 8 + ref.bit
        return gbi // PAGE_BITS + 1, gbi % PAGE_BITS

    def addr_to_bit(self, page, bop):
        """(page#, bop) -> BitRef; padding bits are not addressable."""
        if not (1 <= page <= self.page_count) or not (0 <= bop < PAGE_BITS):
            raise IndexError(f"address ({page}, {bop}) out of image")
        gbi = (page - 1) * PAGE_BITS + bop
        byte, bit = divmod(gbi, 8)
        if byte >= self.weight_bytes:
            raise IndexError(f"({page}, {bop}) addresses page padding")
        j = bisect_right(self._starts, byte) - 1
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
        gbi = (page - 1) * PAGE_BITS + bop
        byte, bit = divmod(gbi, 8)
        return int(self.pages[page - 1, byte % PAGE_BYTES] >> bit) & 1

    def page_bytes(self, page):
        return self.pages[page - 1].tobytes()

    def apply_flips(self, flips):
        """Toggle each target bit in the image and the backing model.

        Every flip's stored bit must equal its mode's source value, or a
        :class:`StaleModeError` is raised before anything is modified.
        Returns the induced model delta: ``[(BitRef, old_q, new_q), ...]``.
        """
        for tb in flips:
            if self.get_bit(tb.page, tb.bop) != tb.source_value:
                raise StaleModeError(
                    f"target ({tb.page}, {tb.bop}, mode {tb.mode}) expects "
                    f"stored bit {tb.source_value}, found "
                    f"{self.get_bit(tb.page, tb.bop)}"
                )
        delta = []
        for tb in flips:
            ref = self.addr_to_bit(tb.page, tb.bop)
            layer = self.model.layers[ref.layer]
            old = int(layer.weight_q.reshape(-1)[ref.index])
            self.model.flip_bit(ref)
            new = int(layer.weight_q.reshape(-1)[ref.index])
            gbi = (tb.page - 1) * PAGE_BITS + tb.bop
            byte, bit = divmod(gbi, 8)
            self.pages[tb.page - 1, byte % PAGE_BYTES] ^= np.uint8(1 << bit)
            delta.append((ref, old, new))
        return delta


# ---- chain files -------------------------------------------------------------


def write_chain(path, steps):
    """JSON-lines chain file: one {page, bop, mode, expected_acc} per target."""
    with open(path, "w") as fh:
        for step in steps:
            fh.write(json.dumps({"page": step["page"], "bop": step["bop"],
                                 "mode": step["mode"],
                                 "expected_acc": step["expected_acc"]},
                                sort_keys=True) + "\n")
    return path


def read_chain(path):
    """The records of a :func:`write_chain` file; each must be a valid target."""
    steps = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            target = TargetBit(int(rec["page"]), int(rec["bop"]), int(rec["mode"]))
            steps.append({"page": target.page, "bop": target.bop,
                          "mode": target.mode,
                          "expected_acc": float(rec["expected_acc"])})
    return steps
