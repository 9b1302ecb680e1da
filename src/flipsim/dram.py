"""Deterministic DRAM simulator.

Models geometry and addressing (single- and dual-channel page-to-row layouts),
cell storage, synthetic vulnerable-cell populations, templating, double- and
single-sided hammering with arbitrary aggressor data, and boot-time scrambling
that toggles flip directions without moving cells.

The address function is synthetic but documented, and one formula serves
both channel counts.  With ``n = PAGE_BYTES // channels`` bytes per in-row
page and ``in_row_pages = row_bytes // n``, page ``pfn`` splits as
``g, q = divmod(pfn, in_row_pages)``; its bytes ``[c*n, (c+1)*n)`` sit in
channel ``c`` at set ``c*banks + g % banks``, row ``g // banks``, row bytes
``[q*n, (q+1)*n)``.  Within a row, bit column ``k`` stores bit ``k % 8`` of
row byte ``k // 8``.  ``DramConfig.bit_addr_vec`` and its inverse
``cell_to_page_vec`` are this formula's one owner.
"""

import copy
from dataclasses import dataclass, fields

import numpy as np

PAGE_BYTES = 4096
PAGE_BITS = PAGE_BYTES * 8

OWNER_FREE = 0
OWNER_ATTACKER = 1
OWNER_VICTIM = 2

# templating/search throughput constants observed on real hardware, used for
# wall-clock estimates only (never asserted as measurements)
FLIPS_PER_SECOND = 2.2
HAMMER_SECONDS_PER_ACTION = 0.19

DENSITY_FACTORS = {"dense": 1.0, "moderate": 0.1, "low": 0.01, "rare": 0.001}
DENSE_PER_BANK_RANGE = (35_000, 47_000)
FULL_SIZE_ROWS = 32768
FULL_SIZE_ROW_BYTES = 8192
SINGLE_SIDED_RATE = 0.0056   # ~(1876 + 1468) / 600K observed single-sided share
ONE_TO_ZERO_SHARE = 0.7

_CLUSTER_SIZES = np.array([1, 2, 3, 4])
_CLUSTER_PROBS = np.array([0.35, 0.35, 0.20, 0.10])
# the normalized cumulative probabilities Generator.choice reads a uniform
# through
_CLUSTER_CDF = _CLUSTER_PROBS.cumsum()
_CLUSTER_CDF /= _CLUSTER_CDF[-1]
# cells per chunk when synthesis draws the per-cell flags (uniforms per
# random() call) and when a reboot hashes the per-cell toggles
_DRAW_CHUNK = 1 << 16
# cells per chunk when synthesis maps a bank's cell keys to (row, bit column)
# and places them in its outputs, and when templating maps flipped cells to
# their profile sort keys; bops per chunk when synthesis builds its table of
# bop offsets
_MAP_CHUNK = 1 << 13
# profile entries per block that FlipProfile.save_csv formats and writes
_CSV_BLOCK = 1 << 14
# bytes per block that FlipProfile.load_csv reads and parses
_CSV_READ = 1 << 17
_CSV_HEADER = b"pfn,bop,direction,probability\n"
# the digits a profile field may have; 18 always fit an int64
_CSV_DIGITS = 18
# the first pfn a profile refuses: the first that needs more digits, so that
# every profile save_csv writes, load_csv reads back
_PFN_LIMIT = 10 ** _CSV_DIGITS
# the longest line the grammar allows, its newline left out
_CSV_LINE = 3 * (_CSV_DIGITS + 1) + len(b"1.0")


@dataclass(frozen=True)
class DramConfig:
    channels: int = 1
    dimms: int = 1
    banks_per_dimm: int = 16
    rows_per_bank: int = 32768
    row_bytes: int = 8192
    hammer_mode: str = "double"

    def __post_init__(self):
        if self.channels not in (1, 2):
            raise ValueError("channels must be 1 or 2")
        if self.hammer_mode not in ("double", "single"):
            raise ValueError("hammer_mode must be 'double' or 'single'")
        for name in ("dimms", "banks_per_dimm", "rows_per_bank", "row_bytes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.row_bytes % self.in_row_page_size:
            raise ValueError("row_bytes must be a multiple of the in-row page size")

    @property
    def in_row_page_size(self):
        """Bytes of one page in one row: each channel holds an equal share."""
        return PAGE_BYTES // self.channels

    @property
    def banks(self):
        return self.dimms * self.banks_per_dimm

    @property
    def sets(self):
        return self.channels * self.banks

    @property
    def in_row_pages(self):
        return self.row_bytes // self.in_row_page_size

    @property
    def row_bits(self):
        return self.row_bytes * 8

    @property
    def bank_capacity(self):
        """Cells in one bank, both channels of a dual-channel bank included."""
        return self.rows_per_bank * self.row_bits * self.channels

    @property
    def total_bytes(self):
        return self.sets * self.rows_per_bank * self.row_bytes

    @property
    def total_pages(self):
        return self.total_bytes // PAGE_BYTES

    def aggressor_rows(self, row):
        """Rows hammered against victim ``row``, for an int or an int array.

        Double-sided: both neighbours.  Single-sided: the row after, or the
        row before at the bank's last row.  Rows outside the bank are
        returned as they are; :meth:`aggressors_in_bank` tells them apart.
        """
        if self.hammer_mode == "double":
            return (row - 1, row + 1)
        return (row + 1 - 2 * (row + 1 >= self.rows_per_bank),)

    def aggressors_in_bank(self, row):
        """True where every aggressor row of ``row`` lies inside the bank."""
        inside = True
        for r in self.aggressor_rows(row):
            inside = inside & (0 <= r) & (r < self.rows_per_bank)
        return inside

    def conflict(self, victim, placed):
        """Why victim ``(set, row, bit column)`` cannot join the victims
        ``placed``, or None.  Victims may share a row (their actions merge),
        but no victim page may sit in another's aggressor row at the same
        in-row page, in either channel of the bank, since a page spans both;
        single-sided mode has no second aggressor to keep the pattern of the
        other in-row pages, so there the whole aggressor row is out."""
        s, row, col = victim
        span = self.in_row_page_size * 8
        for o_s, o_row, o_col in placed:
            near = o_row in self.aggressor_rows(row) or row in self.aggressor_rows(o_row)
            if near and (s - o_s) % self.banks == 0 and (
                    col // span == o_col // span or self.hammer_mode == "single"):
                return f"aggressor row collides with victim at row {o_row}"
        return None

    def row_pfns(self, s, row):
        """Physical pages with bytes resident in this (set, row), by in-row slot."""
        bitcols = np.arange(self.in_row_pages) * (self.in_row_page_size * 8)
        return self.cell_to_page_vec(s, row, bitcols)[0].tolist()

    def cell_key(self, sets, rows, bitcols, dtype=np.int64):
        """:class:`DramState`'s sort key of each cell, ``(set *
        rows_per_bank + row) * row_bits + bit column``, as ``dtype``, over
        equal-length arrays or scalars.  Keys run in (set, row, bit column)
        order, and row ``k = set * rows_per_bank + row`` holds the keys
        ``[k * row_bits, (k + 1) * row_bits)``; they stay below
        ``total_pages * PAGE_BITS``.  This is the key's one statement.
        """
        key = np.multiply(sets, self.rows_per_bank, dtype=dtype)
        key += rows  # a new array where ``sets`` was a scalar
        key *= self.row_bits
        key += bitcols
        return key

    def bit_addr_vec(self, pfn, bop):
        """(pfn, bop) -> (set, row, bit column), over equal-length arrays.

        Both maps take each quotient by ``//`` of a Python int, which numpy
        divides by as a constant, and each remainder by multiply-subtract;
        an int64 ``divmod`` or ``%`` costs several times as much.
        """
        span = self.in_row_page_size * 8
        pfn = np.asarray(pfn, dtype=np.int64)
        bop = np.asarray(bop, dtype=np.int64)
        # in place where possible: cell synthesis maps every cell of a bank
        g = pfn // self.in_row_pages
        bitcols = g * -self.in_row_pages
        bitcols += pfn                      # in-row slot
        rows = g // self.banks
        sets = rows * -self.banks
        sets += g                           # bank
        channel = bop // span
        bitcols *= span
        bitcols += bop
        bitcols -= channel * span           # + bop's offset in its channel
        channel *= self.banks
        sets += channel
        return sets, rows, bitcols

    def cell_to_page_vec(self, sets, rows, bitcols):
        """Inverse of :meth:`bit_addr_vec`; ``sets``/``rows`` may be scalars."""
        span = self.in_row_page_size * 8
        sets = np.asarray(sets, dtype=np.int64)
        bitcols = np.asarray(bitcols, dtype=np.int64)
        channel = sets // self.banks
        q = bitcols // span
        # in place, as in bit_addr_vec: templating maps every flipped cell
        pfn = np.asarray(rows, dtype=np.int64) * self.banks
        pfn += sets
        pfn -= channel * self.banks         # + bank
        pfn *= self.in_row_pages
        pfn += q
        bop = q * -span
        bop += bitcols                      # offset in the channel
        bop += channel * span
        return pfn, bop


def full_single():
    return DramConfig()


def full_dual():
    return DramConfig(channels=2)


def desk():
    """Tiny geometry for smoke tests: 2 banks x 256 rows x 8 KiB rows."""
    return DramConfig(banks_per_dimm=2, rows_per_bank=256)


def bench():
    """Acceptance-scale geometry: 16 banks x 1024 rows x 8 KiB rows.

    Big enough that a dense synthetic profile gives the search realistic bit
    offset coverage while templating still runs in seconds.
    """
    return DramConfig(rows_per_bank=1024)


# ---- scrambling hash -----------------------------------------------------------


def _keyed_hash(sets, rows, bitcols, seed):
    """Deterministic per-cell uint64 keyed by location and seed: the
    splitmix64 of ``sets * 0x100000001B3 ^ rows * 0x9E3779B1 ^ bitcols ^
    mix(seed)``, worked in place in two uint64 arrays."""
    seed_mix = (int(seed) * 0xD6E8FEB86659FD93) & 0xFFFFFFFFFFFFFFFF
    z = sets.astype(np.uint64)
    z *= np.uint64(0x100000001B3)
    t = rows.astype(np.uint64)
    t *= np.uint64(0x9E3779B1)
    z ^= t
    t[:] = bitcols
    z ^= t
    z ^= np.uint64(seed_mix)
    # splitmix64
    z += np.uint64(0x9E3779B97F4A7C15)
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        np.right_shift(z, np.uint64(shift), out=t)
        z ^= t
        z *= np.uint64(mult)
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    return z


def _toggle_threshold(p):
    """The smallest ``z`` with ``float64(z) / 2**64 >= p``, for ``p`` in
    [0, 1]: a hash ``z`` read as a uniform in [0, 1) is below ``p`` exactly
    when ``z`` is below it.  Both sides round ``z`` to float64 the same way,
    and the rounding is monotonic, so a bisection over Python ints finds it;
    it is 0 at ``p = 0`` and ``2**64 - 1024`` at ``p = 1``."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"toggle probability must be in [0, 1], got {p}")
    lo, hi = 0, 2 ** 64  # float(2**64) / 2**64 is 1.0, not below any p
    while lo < hi:
        mid = (lo + hi) // 2
        if float(mid) / 2.0 ** 64 >= p:
            hi = mid
        else:
            lo = mid + 1
    return lo


# ---- flip profile --------------------------------------------------------------


def _decimal_into(out, x):
    """Write the integers ``x >= 0`` in decimal into the uint8 matrix ``out``,
    one per row, right-aligned with NULs to their left; ``out`` fits them."""
    x = x.astype(np.int64)
    for k in range(1, out.shape[1] + 1):
        col = out[:, -k]
        np.remainder(x, 10, out=col, casting="unsafe")
        col += ord("0")
        if k > 1:
            col[x == 0] = 0  # no digit left: padding
        x //= 10


class FlipProfile:
    """Templating output: each flippable cell's location ``(pfn, bop)``
    once, ``0 <= pfn < 10**18`` and ``0 <= bop < PAGE_BITS``, with its
    direction (0 means 1->0, 1 means 0->1), held in (pfn, bop) order.  The
    pfn bound is the first with more digits than a profile line holds.
    Anything else is a ValueError naming the first offending entry
    (1-based, as given).
    In-order entries are kept as given, others sorted stably."""

    def __init__(self, pfn, bop, direction):
        pfn, bop = (np.ascontiguousarray(a, dtype=np.int64) for a in (pfn, bop))
        direction = np.ascontiguousarray(direction, dtype=np.int8)
        if not len(pfn) == len(bop) == len(direction):
            raise ValueError("profile columns differ in length")
        _check_entries(pfn, bop, direction)
        # strictly increasing (pfn, bop) is in order with each location once
        later = pfn[1:] > pfn[:-1]
        later |= (pfn[1:] == pfn[:-1]) & (bop[1:] > bop[:-1])
        if not later.all():
            order = np.lexsort((bop, pfn))  # stable
            same = ((pfn[order[1:]] == pfn[order[:-1]])
                    & (bop[order[1:]] == bop[order[:-1]]))
            if same.any():
                i = int(order[1:][same].min())
                raise ValueError(f"entry {i + 1} repeats the location pfn "
                                 f"{pfn[i]}, bop {bop[i]}")
            pfn, bop, direction = pfn[order], bop[order], direction[order]
        self.pfn, self.bop, self.direction = pfn, bop, direction

    def __len__(self):
        return len(self.pfn)

    def subset(self, mask):
        return FlipProfile(self.pfn[mask], self.bop[mask], self.direction[mask])

    def pools(self):
        """``(pfns, start)``: frame numbers sorted by (bop, direction, pfn),
        and ``start`` over the keys ``k = bop * 2 + direction``, so that key
        ``k``'s frames are ``pfns[start[k]:start[k + 1]]``."""
        # entries are in (pfn, bop) order, so a stable sort by key alone
        # leaves each key's frames in pfn order
        key = self.bop.astype(np.uint16)
        key <<= 1
        key |= self.direction.view(np.uint8)
        start = np.zeros(2 * PAGE_BITS + 1, dtype=np.int64)
        np.cumsum(np.bincount(key, minlength=2 * PAGE_BITS), out=start[1:])
        return self.pfn[np.argsort(key, kind="stable")], start

    def save_csv(self, path):
        """Write ``pfn,bop,direction,probability`` lines, one per entry, the
        integers in decimal and the probability the constant ``1.0``.

        Entries go out ``_CSV_BLOCK`` at a time, each block formatted as one
        ``uint8`` matrix, a row per entry of right-aligned ASCII digits,
        commas and the ``1.0``; the block is written as the matrix's non-NUL
        bytes.  Memory stays at one block's matrix, whatever the profile's
        size.
        """
        tail = np.frombuffer(b"1.0\n", dtype=np.uint8)
        with open(path, "wb") as fh:
            fh.write(_CSV_HEADER)
            for at in range(0, len(self), _CSV_BLOCK):
                block = slice(at, at + _CSV_BLOCK)
                ints = [a[block] for a in (self.pfn, self.bop, self.direction)]
                widths = [len(str(int(a.max()))) for a in ints]
                mat = np.zeros((len(ints[0]), sum(widths) + 3 + len(tail)),
                               dtype=np.uint8)
                col = 0
                for a, w in zip(ints, widths):
                    _decimal_into(mat[:, col:col + w], a)
                    mat[:, col + w] = ord(",")
                    col += w + 1
                mat[:, col:] = tail
                fh.write(mat[mat != 0])
        return path

    @classmethod
    def load_csv(cls, path):
        """The profile :meth:`save_csv` writes.

        The file is the header line ``pfn,bop,direction,probability``, then
        one line ``<pfn>,<bop>,<direction>,1.0`` per entry, each field 1 to
        18 decimal digits and each line ending in ``\\n``; the last line may
        leave its ``\\n`` out.  Any other line is a ValueError naming its
        1-based entry, as is an entry :class:`FlipProfile` refuses; of those,
        the first in file order is reported.

        A first pass counts the lines and sizes the columns; the second
        parses ``_CSV_READ`` bytes of whole lines at a time into them, so
        memory stays at the columns plus one block.
        """
        with open(path, "rb") as fh:
            header = fh.readline()
            if header not in (_CSV_HEADER, _CSV_HEADER[:-1]):
                raise ValueError("unexpected profile header: "
                                 f"{header.decode(errors='replace')!r}")
            body = fh.tell()
            n, last = 0, b"\n"
            for chunk in iter(lambda: fh.read(_CSV_READ), b""):
                # numpy counts bytes several times as fast as bytes.count
                n += np.count_nonzero(np.frombuffer(chunk, dtype=np.uint8)
                                      == ord("\n"))
                last = chunk[-1:]
            n += last != b"\n"
            cols = (np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64),
                    np.empty(n, dtype=np.int8))
            fh.seek(body)
            at, rest = 0, b""
            for chunk in iter(lambda: fh.read(_CSV_READ), b""):
                data = rest + chunk
                cut = data.rfind(b"\n") + 1
                at = _parse_csv_lines(memoryview(data)[:cut], at, cols)
                rest = data[cut:]
                if len(rest) > _CSV_LINE:
                    break  # a line no entry has: refused below
            if rest:
                _parse_csv_lines(rest + b"\n", at, cols)
        return cls(*cols)


def _check_entries(pfn, bop, direction, first=0):
    """Refuse the first entry no geometry has; ``first`` entries come before
    these."""
    # int64 columns read as uint64: a negative value is 2**63 or more
    bad = np.flatnonzero((pfn.view(np.uint64) >= _PFN_LIMIT)
                         | (bop.view(np.uint64) >= PAGE_BITS)
                         | ((direction != 0) & (direction != 1)))
    if len(bad):
        i = int(bad[0])
        raise ValueError(f"entry {first + i + 1} (pfn {pfn[i]}, bop {bop[i]}, "
                         f"direction {direction[i]}) needs pfn in [0, "
                         f"10**{_CSV_DIGITS}), bop in [0, {PAGE_BITS}) and "
                         f"direction 0 or 1")


def _csv_field(b, stop, width):
    """The int64 values of the decimal fields of ``b`` that end before
    ``stop``, ``width`` digits each: digit ``k`` from the right is the byte
    at ``stop - k``, taken where the field has one."""
    value = b[stop - 1].astype(np.int64)
    value -= ord("0")
    scale = np.int64(1)
    for k in range(2, int(width.max(initial=1)) + 1):
        scale *= 10
        digit = b.take(stop - k, mode="clip")
        digit -= ord("0")
        digit *= width >= k
        value += digit * scale
    return value


def _parse_csv_lines(data, first, cols):
    """Parse ``data``, whole ``\\n``-ended profile lines, into rows ``first``
    onward of the columns ``cols``; return the row after the last.

    Each line must hold five bytes below ``0``, ``,,,.\\n`` in that order,
    and no byte above ``9``; the digit runs they leave must be 1 to 18
    digits, then ``1`` and ``0``.
    """
    b = np.frombuffer(data, dtype=np.uint8)
    sep = np.flatnonzero(b < ord("0"))
    n = len(sep) // 5
    if len(sep) != 5 * n or b.max(initial=0) > ord("9"):
        raise _refused_line(data, first)
    # row k: each line's k-th separator, and the digits before it
    sep = sep.reshape(n, 5).T.copy()
    width = np.empty_like(sep)
    np.subtract(sep[1:], sep[:-1], out=width[1:])
    np.subtract(sep[0, 1:], sep[4, :-1], out=width[0, 1:])
    width[0, :1] = sep[0, :1] + 1
    width -= 1
    # the separators at rows 3 and 4 are checked, so the commas counted are
    # those of rows 0 to 2
    if not (width[:3].min(initial=1) >= 1
            and width[:3].max(initial=1) <= _CSV_DIGITS
            and (width[3:] == 1).all()
            and (b[sep[3]] == ord(".")).all() and (b[sep[4]] == ord("\n")).all()
            and (b[sep[3] - 1] == ord("1")).all()
            and (b[sep[4] - 1] == ord("0")).all()
            and np.count_nonzero(b == ord(",")) == 3 * n):
        raise _refused_line(data, first)
    fields = [_csv_field(b, sep[k], width[k]) for k in range(3)]
    _check_entries(*fields, first)
    for col, field in zip(cols, fields):
        col[first:first + n] = field
    return first + n


def _refused_line(data, first):
    """The ValueError for the first line of ``data`` that breaks the grammar
    or, before that line, the first entry out of range."""
    rows, why = [], None
    for line in bytes(data).split(b"\n")[:-1]:
        fields = line.split(b",")
        if not (len(fields) == 4 and all(f.isdigit() and len(f) <= _CSV_DIGITS
                                         for f in fields[:3])):
            break
        if fields[3] != b"1.0":
            probability = fields[3].decode(errors="replace")
            if _is_number(probability):
                pfn, bop, d = (int(f) for f in fields[:3])
                why = (f"(pfn {pfn}, bop {bop}, direction {d}, probability "
                       f"{probability}) needs probability 1.0")
            break
        rows.append([int(f) for f in fields[:3]])
    _check_entries(*np.array(rows, dtype=np.int64).reshape(-1, 3).T, first)
    if why is None:
        text = line[:_CSV_LINE + 1].decode(errors="replace")
        why = (f"({text!r}) is not a line <pfn>,<bop>,<direction>,1.0 of "
               f"integers of 1 to {_CSV_DIGITS} digits")
    return ValueError(f"entry {first + len(rows) + 1} {why}")


def _is_number(text):
    """Whether ``text`` is a float's text with no space around it."""
    try:
        float(text)
    except ValueError:
        return False
    return text == text.strip()


def sample_profile(profile, rate, seed):
    """Keep each entry independently with chance ``rate``, drawn in the
    profile's (pfn, bop) order, whatever order its entries came in."""
    if not (0.0 < rate <= 1.0):
        raise ValueError("rate must be in (0, 1]")
    if rate == 1.0:
        return profile
    rng = np.random.default_rng(seed)
    return profile.subset(rng.random(len(profile)) < rate)


# ---- DRAM state ----------------------------------------------------------------


class DramState:
    """Cell array, vulnerable-cell set, owner map and hammering engine.

    ``cells`` is the tuple :func:`synthesize_cells` returns: set, row, bit
    column, base direction and single-sided flag per cell.  The state
    indexes the cells in (set, row, bit column) order.  Cells that come in
    that order, as :func:`synthesize_cells` returns them, are kept as given,
    not copied; cells in any other order are sorted stably into new arrays.
    Either way ``cset``, ``crow``, ``cbitcol``, ``cbase_dir`` and ``csscap``
    are read-only views, so a state never writes its caller's arrays;
    ``ccur_dir``, the direction a reboot re-keys, is the state's own
    writable copy.  A deep copy shares the read-only arrays and copies
    everything else.
    """

    def __init__(self, config, cells=None):
        self.config = config
        self._rows = {}
        self.owner = np.zeros(config.total_pages, dtype=np.int8)
        if cells is None:
            cells = _empty_cells()
        # the cells of row k = set * rows_per_bank + row sit at
        # [_row_start[k], _row_start[k + 1]): those whose cell keys lie in
        # [k * row_bits, (k + 1) * row_bits).  The keys are int32 where they
        # fit, so the order check costs a few bytes per cell
        kdt = _key_dtype(config)
        key = config.cell_key(*cells[:3], dtype=kdt)
        if np.any(key[1:] < key[:-1]):
            order = np.argsort(key, kind="stable")
            cells = [a[order] for a in cells]
            key = key[order]
        rows = np.arange(config.sets * config.rows_per_bank + 1, dtype=kdt)
        self._row_start = np.searchsorted(key, rows * config.row_bits)
        del key
        for name, a in zip(("cset", "crow", "cbitcol", "cbase_dir", "csscap"),
                           cells):
            a = a.view()
            a.flags.writeable = False
            setattr(self, name, a)
        self.ccur_dir = self.cbase_dir.copy()

    def __deepcopy__(self, memo):
        clone = copy.copy(self)
        memo[id(self)] = clone
        for name, value in vars(self).items():
            if not (isinstance(value, np.ndarray) and not value.flags.writeable):
                setattr(clone, name, copy.deepcopy(value, memo))
        return clone

    # ---- storage ----

    def row(self, s, r):
        if not (0 <= s < self.config.sets and 0 <= r < self.config.rows_per_bank):
            raise IndexError(f"row ({s}, {r}) out of range")
        key = (s, r)
        buf = self._rows.get(key)
        if buf is None:
            buf = np.zeros(self.config.row_bytes, dtype=np.uint8)
            self._rows[key] = buf
        return buf

    def _page_bytes(self, pfn):
        """Views of page ``pfn``'s row bytes, one per channel, in page order."""
        cfg = self.config
        if not 0 <= pfn < cfg.total_pages:
            raise IndexError(f"pfn {pfn} out of range")
        n = cfg.in_row_page_size
        at = np.column_stack(self.config.bit_addr_vec(
            np.full(cfg.channels, pfn), np.arange(cfg.channels) * (n * 8)))
        return [self.row(s, r)[c // 8:c // 8 + n] for s, r, c in at.tolist()]

    def write_page(self, pfn, data):
        data = np.frombuffer(bytes(data), dtype=np.uint8)
        if data.size != PAGE_BYTES:
            raise ValueError("pages are 4096 bytes")
        for buf, part in zip(self._page_bytes(pfn),
                             np.split(data, self.config.channels)):
            buf[:] = part

    def read_page(self, pfn):
        return b"".join(buf.tobytes() for buf in self._page_bytes(pfn))

    # ---- ownership ----

    def set_owner(self, pfns, owner):
        self.owner[np.asarray(list(pfns), dtype=np.int64)] = owner

    def sandwich_mask(self):
        """``(sets, rows)`` bools: rows whose whole sandwich the attacker owns.

        A row is owned when every in-row page resident in it is attacker
        memory.  Row ``r`` qualifies when rows ``r - 1``, ``r`` and ``r + 1``
        are all owned, so the rows at a bank edge never do.  The two channel
        sets of a dual-channel bank hold the same pages, so set ``s`` reads
        bank ``s % banks``.  The owner map is read as ``(row, bank, slot)``
        by one reshape: :meth:`DramConfig.cell_to_page_vec` numbers the
        pages in that order, and a test ties the two together.
        """
        cfg = self.config
        owned = (self.owner == OWNER_ATTACKER).reshape(
            cfg.rows_per_bank, cfg.banks, cfg.in_row_pages).all(axis=2).T
        owned = owned[np.arange(cfg.sets) % cfg.banks]
        mask = np.zeros_like(owned)
        mask[:, 1:-1] = owned[:, :-2] & owned[:, 1:-1] & owned[:, 2:]
        return mask

    # ---- cells ----

    def cells_in_row(self, s, r):
        cfg = self.config
        if not (0 <= s < cfg.sets and 0 <= r < cfg.rows_per_bank):
            return np.empty(0, dtype=np.int64)
        k = s * cfg.rows_per_bank + r
        return np.arange(self._row_start[k], self._row_start[k + 1],
                         dtype=np.int64)

    def cell_at(self, pfn, bop):
        """Index of the cell at each ``(pfn, bop)`` of two equal-length
        arrays, or -1 where none is; of several cells at one location, the
        first."""
        sets, rows, bitcols = self.config.bit_addr_vec(pfn, bop)
        out = []
        for k, c in zip((sets * self.config.rows_per_bank + rows).tolist(),
                        bitcols.tolist()):
            lo, hi = self._row_start[k], self._row_start[k + 1]
            j = lo + int(np.searchsorted(self.cbitcol[lo:hi], c))
            out.append(j if j < hi and self.cbitcol[j] == c else -1)
        return np.array(out, dtype=np.int64)

    # ---- hammering ----

    def flip_direction(self, cells):
        """The direction each of ``cells`` flips in under a stripe, or -1.

        A row-hammer stripe of polarity 1 (stored 0, aggressor bits 1) flips
        0->1 cells; polarity 0 flips 1->0 cells.  So a cell flips exactly
        when the stripe's polarity equals its current direction and, in
        single-sided mode, it is single-sided capable.  A cell that cannot
        flip, and index -1, read -1.  This is the one flip rule.
        """
        cells = np.asarray(cells, dtype=np.int64)
        can = cells >= 0
        if self.config.hammer_mode == "single":
            can[can] = self.csscap[cells[can]]
        out = np.full(cells.shape, -1, dtype=np.int8)
        out[can] = self.ccur_dir[cells[can]]
        return out

    def hammer(self, s, victim_row):
        """One hammering action against ``(s, victim_row)``.

        The aggressor rows of :meth:`DramConfig.aggressor_rows` hammer with
        the data they hold; callers write them with :meth:`row` first.  A
        victim row outside the bank, or with an aggressor row outside it,
        raises IndexError.
        A vulnerable cell sees a stripe when every aggressor bit in its
        column differs from its stored bit, and then flips when
        :meth:`flip_direction` is ``1 - stored``.  Returns flipped cell
        coordinates as (set, row, bitcol) triples.
        """
        cfg = self.config
        if not cfg.aggressors_in_bank(victim_row):
            raise IndexError(f"an aggressor row of row {victim_row} lies "
                             f"outside the bank")
        aggr_rows = [self.row(s, r) for r in cfg.aggressor_rows(victim_row)]
        victim = self.row(s, victim_row)
        idx = self.cells_in_row(s, victim_row)
        bytes_, bits = np.divmod(self.cbitcol[idx], 8)
        stored = (victim[bytes_] >> bits) & 1
        striped = np.ones(idx.size, dtype=bool)
        for row_buf in aggr_rows:
            striped &= ((row_buf[bytes_] >> bits) & 1) != stored
        idx, stored = idx[striped], stored[striped]
        flipped = idx[self.flip_direction(idx) == 1 - stored]
        for ci in flipped:
            byte, bit = divmod(int(self.cbitcol[ci]), 8)
            victim[byte] ^= np.uint8(1 << bit)
        return [(s, victim_row, int(self.cbitcol[ci])) for ci in flipped]

    # ---- scrambling ----

    def reboot(self, boot_seed, toggle_probability=0.5):
        """Re-key the scrambler: per-cell direction toggles, locations fixed.

        Each cell's direction toggles with ``toggle_probability``, which
        must lie in [0, 1].  The toggle is a keyed hash of (cell location,
        boot seed), read as a uniform ``hash / 2**64`` in float64 and taken
        where it is below the probability, so rebooting twice with the
        same seed lands in the same state.  That comparison is made on the
        hash itself, against :func:`_toggle_threshold`.  The hash runs over
        ``_DRAW_CHUNK`` cells at a time, so its uint64 temporaries stay
        small whatever the cell count.
        """
        threshold = np.uint64(_toggle_threshold(toggle_probability))
        cur = np.empty_like(self.cbase_dir)
        for at in range(0, len(cur), _DRAW_CHUNK):
            cells = slice(at, at + _DRAW_CHUNK)
            z = _keyed_hash(self.cset[cells], self.crow[cells],
                            self.cbitcol[cells], boot_seed)
            np.bitwise_xor(self.cbase_dir[cells], z < threshold,
                           out=cur[cells])
        self.ccur_dir = cur


def _key_dtype(config):
    """int32 where every :meth:`DramConfig.cell_key` of ``config`` and the
    bound above them fit, else int64."""
    return np.int32 if config.total_pages * PAGE_BITS < 2 ** 31 else np.int64


def _empty_cells():
    return (np.empty(0, dtype=np.int32), np.empty(0, dtype=np.int32),
            np.empty(0, dtype=np.int32), np.empty(0, dtype=np.int8),
            np.empty(0, dtype=bool))


# ---- cell synthesis ------------------------------------------------------------


def _cluster_sizes(rng, n):
    """``n`` cluster sizes, the values and stream of
    ``rng.choice(_CLUSTER_SIZES, n, p=_CLUSTER_PROBS)``: one uniform each,
    read through the cumulative probabilities.  The sizes run 1, 2, 3, 4,
    so a size is one plus the inner edges at or below its uniform."""
    u = rng.random(n)
    sizes = np.full(n, _CLUSTER_SIZES[0], dtype=np.int8)
    for edge in _CLUSTER_CDF[:-1]:
        sizes += u >= edge
    return sizes


def _bop_offsets(config):
    """``off`` over every bop: the cell key of ``(pfn, bop)`` is the key of
    ``(pfn, 0)`` plus ``off[bop]``.

    The page layout splits a cell's set, row and bit column each into a
    part that only the pfn sets and a part that only the bop sets, and
    :meth:`DramConfig.cell_key` is linear in the three, so the key adds the
    same way; ``off[bop]`` is the key of ``(0, bop)``, as pfn 0's bop 0 is
    key 0.  The table is mapped by :meth:`DramConfig.bit_addr_vec`
    ``_MAP_CHUNK`` bops at a time into the key dtype, so its int64
    temporaries are the size of one chunk.
    """
    off = np.empty(PAGE_BITS, dtype=_key_dtype(config))
    for at in range(0, PAGE_BITS, _MAP_CHUNK):
        bop = np.arange(at, min(at + _MAP_CHUNK, PAGE_BITS))
        off[at:at + len(bop)] = config.cell_key(
            *config.bit_addr_vec(np.zeros_like(bop), bop))
    return off


def synthesize_cells(config, density="dense", seed=0, one_to_zero=ONE_TO_ZERO_SHARE):
    """Draw a vulnerable-cell population for ``config``.

    ``density`` is a preset name (dense / moderate / low / rare) or an explicit
    per-bank cell count.  The dense preset targets 35K-47K cells per bank at
    full geometry, scaled proportionally to the simulated row count and row
    size.  Cells cluster on pages (most vulnerable pages carry more than one
    cell) and split ~70/30 toward the 1->0 direction; a ``SINGLE_SIDED_RATE``
    share is single-sided capable.

    The cells come back in :class:`DramState` order, sorted by (set, row,
    bit column).  The random stream does not see that order.  Bank by bank,
    it draws cluster sizes, page picks and bit offsets; a bank keeps the
    first draw of each ``(pfn, bop)`` location, up to its target.  Then
    directions and single-sided flags are drawn for all kept cells in that
    draw order, bank after bank, and each cell takes the values drawn at
    its place in it.  A cluster size is one uniform, read through the
    cumulative ``_CLUSTER_PROBS``: the values and the stream of
    ``rng.choice(_CLUSTER_SIZES, p=_CLUSTER_PROBS)``.

    A bank dedupes its ``m`` draws with one in-place sort of packed int64
    keys ``cell_key << sh | draw``, ``sh = (m - 1).bit_length()``: each
    location's earliest draw heads its run of equal ``key >> sh``.  The
    cell key is :class:`DramState`'s own, :meth:`DramConfig.cell_key` of
    the location's (set, row, bit column), one to one with ``(pfn, bop)``.
    It is built as the key of the picked page's bop 0, from the pick's
    (bank, row, in-row slot), plus :func:`_bop_offsets` at the drawn bop, so
    no cell goes through the address map.  One sort so leaves a bank's kept
    cells in DramState order: its channel 0 set, then its channel 1 set.
    Each set is one run of the outputs, its set column a fill, and each
    key's row and bit column a divide and a multiply-subtract.  The key is
    below ``total_pages * PAGE_BITS``, so it takes ``(total_pages *
    PAGE_BITS - 1).bit_length()`` bits (35 at full geometry), and ``m`` is
    at most the bank's target plus 16: a target whose packed key would need
    more than 63 bits raises ValueError before anything is drawn, as a
    target above the bank's capacity does.

    Memory stays near the result's own size.  The outputs are allocated
    once; a bank's sort and first-draw temporaries are freed before its
    cells are placed ``_MAP_CHUNK`` at a time, and the next bank starts with
    none of them.  The direction and single-sided flags are drawn
    ``_DRAW_CHUNK`` uniforms at a time into int8 and bool arrays, which
    gives the stream one call would.
    """
    rng = np.random.default_rng(seed)
    if isinstance(density, str):
        factor = DENSITY_FACTORS[density]
        scale = (config.rows_per_bank / FULL_SIZE_ROWS) * \
                (config.row_bytes / FULL_SIZE_ROW_BYTES) * config.channels
        per_bank = [rng.uniform(*DENSE_PER_BANK_RANGE) * scale * factor
                    for _ in range(config.banks)]
    else:
        per_bank = [float(density)] * config.banks
    # a bank's sort key packs a location below total_pages * PAGE_BITS and a
    # draw index below target + 16 into 63 bits
    loc_bits = (config.total_pages * PAGE_BITS - 1).bit_length()
    for t in per_bank:
        if t > config.bank_capacity:
            raise ValueError(f"per-bank target {t:.0f} exceeds capacity "
                             f"{config.bank_capacity}")
        if loc_bits + (max(int(round(t)), 0) + 15).bit_length() > 63:
            raise ValueError(f"per-bank target {t:.0f} exceeds the "
                             f"{2 ** (63 - loc_bits) - 16} cells a bank's "
                             f"packed sort key holds")
    targets = [int(round(t)) for t in per_bank]

    pages_per_bank = config.rows_per_bank * config.in_row_pages
    span = config.in_row_page_size * 8
    off = _bop_offsets(config)
    total = sum(t for t in targets if t > 0)
    # drawn: each cell's place in draw order
    outs = sets, rows, bitcols, drawn = tuple(np.empty(total, dtype=np.int32)
                                              for _ in range(4))
    # channel 0 fills the outputs from the front; channel 1 fills them from
    # the back, reversed, and is turned round behind channel 0 at the end
    lo, hi, n = 0, total, 0
    for bank, target in enumerate(targets):
        if target <= 0:
            continue
        n_clusters = max(1, int(target / _CLUSTER_SIZES.dot(_CLUSTER_PROBS)) + 8)
        sizes = _cluster_sizes(rng, n_clusters)
        while sizes.sum() < target:
            sizes = np.concatenate([sizes, _cluster_sizes(rng, n_clusters)])
        keep = np.searchsorted(np.cumsum(sizes), target) + 1
        sizes = sizes[:keep]
        # a pick numbers the bank's pages by (row, in-row slot); its bop 0
        # sits in channel 0 at (bank, row, slot * span)
        slot = rng.integers(0, pages_per_bank, size=len(sizes))
        row = slot // config.in_row_pages
        slot -= row * config.in_row_pages
        slot *= span
        key = config.cell_key(bank, row, slot)
        del row, slot
        # key = cell_key(pfn, bop) << sh | draw, sorted once
        key = np.repeat(key, sizes)[:target + 16]
        del sizes
        m = len(key)
        sh = (m - 1).bit_length()
        key += off[rng.integers(0, PAGE_BITS, size=m)]
        key <<= sh
        key |= np.arange(m)
        key.sort()
        # each location's run starts with its earliest draw
        loc = key >> sh
        head = np.empty(m, dtype=bool)
        head[0] = True
        np.not_equal(loc[1:], loc[:-1], out=head[1:])
        del loc
        key = key[head]
        del head
        first = key & ((1 << sh) - 1)
        is_first = np.zeros(m, dtype=bool)
        is_first[first] = True
        # among the bank's first draws; int32, as the drawn output
        place = np.cumsum(is_first, dtype=np.int32)[first]
        place -= 1
        del is_first, first
        # first draws past the target drop out; there are none once the
        # repeated draws are as many as the spare ones
        if len(key) > target:
            kept = place < target
            key, place = key[kept], place[kept]
            del kept
        place += n
        n += len(key)
        # the keys run through the bank's channel 0 set, then its channel 1
        # set: each is one run of the outputs, in DramState order
        cut = int(np.searchsorted(
            key, config.cell_key(config.banks + bank, 0, 0) << sh))
        upper = len(key) - cut
        for s, run, ranks, views in (
                (bank, key[:cut], place[:cut], [o[lo:lo + cut] for o in outs]),
                (config.banks + bank, key[cut:], place[cut:],
                 [o[hi - upper:hi][::-1] for o in outs])):
            set_out, row_out, col_out, drawn_out = views
            set_out.fill(s)
            drawn_out[:] = ranks
            # mapped a chunk at a time, so that the int64 temporaries are
            # the size of one chunk: a key's row is a divide and its bit
            # column a multiply-subtract
            base = config.cell_key(s, 0, 0)
            for at in range(0, len(run), _MAP_CHUNK):
                to = slice(at, at + _MAP_CHUNK)
                c = run[to] >> sh
                c -= base
                r = c // config.row_bits
                row_out[to] = r
                r *= config.row_bits
                c -= r
                col_out[to] = c
        lo, hi = lo + cut, hi - upper
        # the next bank's draws start with only the outputs allocated
        del key, place, run, ranks

    for out in outs:
        out[lo:n] = out[hi:][::-1]
    sets, rows, bitcols, drawn = sets[:n], rows[:n], bitcols[:n], drawn[:n]
    # one uniform per cell and flag, in draw order; chunks of random() give
    # the stream one call would, without a float64 array of n
    base_dir, sscap = np.empty(n, dtype=np.int8), np.empty(n, dtype=bool)
    for out, flag, share in ((base_dir, np.greater_equal, one_to_zero),  # 0 => 1->0
                             (sscap, np.less, SINGLE_SIDED_RATE)):
        for at in range(0, n, _DRAW_CHUNK):
            chunk = out[at:at + _DRAW_CHUNK]
            flag(rng.random(len(chunk)), share, out=chunk)
    return sets, rows, bitcols, base_dir[drawn], sscap[drawn]


def new_dram(config, density="dense", cell_seed=0, one_to_zero=ONE_TO_ZERO_SHARE):
    # no local name holds the cells: the state's read-only views are their
    # only reference
    return DramState(config, synthesize_cells(config, density, cell_seed,
                                              one_to_zero))


# ---- templating ----------------------------------------------------------------


def template(dram):
    """Record the flip of every cell in an attacker-owned sandwich.

    The scanned rows are those of :meth:`DramState.sandwich_mask`, so
    profiling never corrupts foreign memory.  Hammering a row with both
    stripe polarities (victim 0x00 under aggressors 0xFF, then the
    inverse) flips each of its cells at most once, in the direction
    :meth:`DramState.flip_direction` gives, so each cell that can flip is
    listed once, under that direction, in (pfn, bop) order: the profile
    projects the ground-truth cell set exactly.

    No row buffer is written, because no later step reads the stripes a
    sweep would leave in the attacker's scratch rows: ``cmd_template``
    discards its state and ``exploit`` provisions a fresh one;
    ``verify_template`` and ``retemplate`` apply the flip rule to single
    cells and read no row; and ``precise_hammer`` writes every
    attacker-owned in-row page of its aggressor rows, and
    ``plan_aggressors`` requires one at each planned column, so a planned
    flip never reads scratch bytes.
    """
    scanned = np.flatnonzero(np.repeat(dram.sandwich_mask().ravel(),
                                       np.diff(dram._row_start)))
    direction = dram.flip_direction(scanned)
    flips = direction >= 0
    scanned, direction = scanned[flips], direction[flips]
    del flips
    # key = (pfn * PAGE_BITS + bop) * 2 + direction, mapped a chunk at a
    # time so that the address function's int64 temporaries are the size of
    # one chunk: the key and the profile's own arrays set the peak
    key = np.empty(len(scanned), dtype=np.int64)
    for at in range(0, len(key), _MAP_CHUNK):
        to = slice(at, at + _MAP_CHUNK)
        cells = scanned[to]
        pfn, bop = dram.config.cell_to_page_vec(
            dram.cset[cells], dram.crow[cells], dram.cbitcol[cells])
        pfn *= PAGE_BITS
        pfn += bop
        pfn *= 2
        pfn += direction[to]
        key[to] = pfn
    del scanned, direction
    key.sort()
    direction = (key % 2).astype(np.int8)
    key //= 2
    bop = key % PAGE_BITS
    key //= PAGE_BITS
    return FlipProfile(key, bop, direction)


# ---- geometry files ------------------------------------------------------------

# geometry.txt key -> DramConfig field, in file order
GEOMETRY_KEYS = (("channels", "channels"), ("dimms", "dimms"),
                 ("banks", "banks_per_dimm"), ("rows", "rows_per_bank"),
                 ("row_bytes", "row_bytes"), ("hammer_mode", "hammer_mode"))


def save_geometry(config, path, seeds=None):
    lines = [f"{key} = {getattr(config, name)}" for key, name in GEOMETRY_KEYS]
    for key, val in (seeds or {}).items():
        lines.append(f"{key} = {val}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def read_key_values(path):
    """The ``key = value`` lines of a config or geometry file, as strings.

    Blank and ``#`` lines are skipped; a line without ``=`` is refused.
    """
    values = {}
    with open(path) as fh:
        for n, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, val = line.partition("=")
            if not sep:
                raise ValueError(f"line {n}, {line!r}, is not 'key = value'")
            values[key.strip()] = val.strip()
    return values


def load_geometry(path):
    """``(DramConfig, seeds)``; a missing geometry key keeps its default."""
    values = read_key_values(path)
    names = dict(GEOMETRY_KEYS)
    types = {f.name: f.type for f in fields(DramConfig)}
    config = DramConfig(**{names[k]: types[names[k]](v)
                           for k, v in values.items() if k in names})
    seeds = {k: int(v) for k, v in values.items() if k not in names}
    return config, seeds
