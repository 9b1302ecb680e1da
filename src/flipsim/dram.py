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
row byte ``k // 8``.  ``AddressFunction.bit_addr_vec`` and its inverse
``cell_to_page_vec`` are this formula's one owner.
"""

import copy
import warnings
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
# cells per chunk when synthesis draws the per-cell flags (uniforms per
# random() call) and when a reboot hashes the per-cell toggles
_DRAW_CHUNK = 1 << 16
# profile entries per block that FlipProfile.save_csv formats and writes
_CSV_BLOCK = 1 << 14


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


def full_single():
    return DramConfig()


def full_dual():
    return DramConfig(channels=2)


def desk():
    """Tiny geometry for smoke tests: 2 banks x 256 rows x 8 KiB rows."""
    return DramConfig(banks_per_dimm=2, rows_per_bank=256)


def bench(hammer_mode="double"):
    """Acceptance-scale geometry: 16 banks x 1024 rows x 8 KiB rows.

    Big enough that a dense synthetic profile gives the search realistic bit
    offset coverage while templating still runs in seconds.
    """
    return DramConfig(rows_per_bank=1024, hammer_mode=hammer_mode)


class AddressFunction:
    """Bijection between (pfn, bop) and (set, row, bit column), stated once
    by the pair :meth:`bit_addr_vec` / :meth:`cell_to_page_vec`."""

    def __init__(self, config):
        self.config = config

    def row_pfns(self, s, row):
        """Physical pages with bytes resident in this (set, row), by in-row slot."""
        cfg = self.config
        bitcols = np.arange(cfg.in_row_pages) * (cfg.in_row_page_size * 8)
        return self.cell_to_page_vec(s, row, bitcols)[0].tolist()

    def bit_addr_vec(self, pfn, bop):
        """(pfn, bop) -> (set, row, bit column), over equal-length arrays."""
        cfg = self.config
        span = cfg.in_row_page_size * 8
        pfn = np.asarray(pfn, dtype=np.int64)
        bop = np.asarray(bop, dtype=np.int64)
        # in place where possible: cell synthesis maps every cell of a bank
        rows, bitcols = np.divmod(pfn, cfg.in_row_pages)
        sets = rows % cfg.banks
        rows //= cfg.banks
        bitcols *= span
        bitcols += bop % span
        channel = bop // span
        channel *= cfg.banks
        sets += channel
        return sets, rows, bitcols

    def cell_to_page_vec(self, sets, rows, bitcols):
        """Inverse of :meth:`bit_addr_vec`; ``sets``/``rows`` may be scalars."""
        cfg = self.config
        span = cfg.in_row_page_size * 8
        channel, bank = np.divmod(np.asarray(sets, dtype=np.int64), cfg.banks)
        q, bop = np.divmod(np.asarray(bitcols, dtype=np.int64), span)
        # in place, as in bit_addr_vec: templating maps every flipped cell
        pfn = np.asarray(rows, dtype=np.int64) * cfg.banks
        pfn += bank
        pfn *= cfg.in_row_pages
        pfn += q
        channel *= span
        bop += channel
        return pfn, bop


# ---- scrambling hash -----------------------------------------------------------


def _splitmix64(x):
    z = (x + np.uint64(0x9E3779B97F4A7C15))
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _keyed_uniform(sets, rows, bitcols, seed):
    """Deterministic per-cell uniform in [0, 1) keyed by location and seed."""
    seed_mix = (int(seed) * 0xD6E8FEB86659FD93) & 0xFFFFFFFFFFFFFFFF
    key = (sets.astype(np.uint64) * np.uint64(0x100000001B3)
           ^ rows.astype(np.uint64) * np.uint64(0x9E3779B1)
           ^ bitcols.astype(np.uint64)
           ^ np.uint64(seed_mix))
    return _splitmix64(key).astype(np.float64) / 2.0 ** 64


# ---- flip profile --------------------------------------------------------------


def _decimal_into(out, x):
    """Write the int64 values ``x`` in decimal into the uint8 matrix ``out``,
    one per row, right-aligned with NUL bytes to their left.  ``out`` must
    be as wide as the longest text."""
    neg = x < 0
    mag = x.astype(np.uint64)
    np.negative(mag, out=mag, where=neg)  # |x|, the int64 minimum included
    for k in range(1, out.shape[1] + 1):
        col = out[:, -k]
        np.remainder(mag, 10, out=col, casting="unsafe")
        col += ord("0")
        if k > 1:
            lead = mag == 0  # no digit left: the sign, then padding
            col[lead] = 0
            col[lead & neg] = ord("-")
            neg &= ~lead
        mag //= 10


class FlipProfile:
    """Templating output: (pfn, bop, direction, probability) per flippable cell.

    Direction follows the target-bit mode convention: 0 means 1->0, 1 means
    0->1.
    """

    def __init__(self, pfn, bop, direction, probability):
        # load_csv passes strided fields of one record array; copy them once
        self.pfn = np.ascontiguousarray(pfn, dtype=np.int64)
        self.bop = np.ascontiguousarray(bop, dtype=np.int64)
        self.direction = np.ascontiguousarray(direction, dtype=np.int8)
        self.probability = np.ascontiguousarray(probability, dtype=np.float64)
        if not (len(self.pfn) == len(self.bop) == len(self.direction)
                == len(self.probability)):
            raise ValueError("profile columns differ in length")

    def __len__(self):
        return len(self.pfn)

    def subset(self, mask):
        return FlipProfile(self.pfn[mask], self.bop[mask],
                           self.direction[mask], self.probability[mask])

    def pools(self):
        """``(pfns, start)``: frame numbers sorted by (bop, direction, pfn),
        and ``start`` over the keys ``k = bop * 2 + direction``, so that key
        ``k``'s frames are ``pfns[start[k]:start[k + 1]]``."""
        span = int(self.pfn.max(initial=0)) + 1
        key = np.sort((self.bop * 2 + self.direction) * span + self.pfn)
        start = np.searchsorted(key, np.arange(2 * PAGE_BITS + 1) * span)
        return key % span, start

    @classmethod
    def from_entries(cls, rows):
        rows = list(rows)
        if not rows:
            return cls.empty()
        pfn, bop, d, p = zip(*rows)
        return cls(pfn, bop, d, p)

    @classmethod
    def empty(cls):
        return cls([], [], [], [])

    def save_csv(self, path):
        """Write ``pfn,bop,direction,probability`` lines, one per entry.

        The integers are printed in decimal and each probability by
        ``repr``, so it reads back bit for bit.  Entries go out
        ``_CSV_BLOCK`` at a time, each block formatted in bulk as one
        ``uint8`` matrix, a row per entry: the three integer fields as
        right-aligned ASCII digits, the commas, and the ``repr`` of the
        row's probability looked up among the block's distinct bit patterns.
        Bytes a row does not use stay NUL, and the block is written as the
        matrix's non-NUL bytes, in row order.  Memory stays at one block's
        matrix, whatever the profile's size.
        """
        with open(path, "wb") as fh:
            fh.write(b"pfn,bop,direction,probability\n")
            for at in range(0, len(self), _CSV_BLOCK):
                block = slice(at, at + _CSV_BLOCK)
                # one repr per distinct bit pattern, so 0.0 and -0.0 keep
                # their own
                bits, which = np.unique(self.probability[block].view(np.int64),
                                        return_inverse=True)
                # fixed-width bytes pad each text with NULs
                table = np.array([(repr(p) + "\n").encode() for p in
                                  bits.view(np.float64).tolist()])
                table = table.view(np.uint8).reshape(len(table), -1)
                ints = [a[block].astype(np.int64)
                        for a in (self.pfn, self.bop, self.direction)]
                widths = [max(len(str(int(a.min()))), len(str(int(a.max()))))
                          for a in ints]
                mat = np.zeros((len(which), sum(widths) + 3 + table.shape[1]),
                               dtype=np.uint8)
                col = 0
                for a, w in zip(ints, widths):
                    _decimal_into(mat[:, col:col + w], a)
                    mat[:, col + w] = ord(",")
                    col += w + 1
                mat[:, col:] = table[which]
                fh.write(mat[mat != 0])
        return path

    @classmethod
    def load_csv(cls, path):
        with open(path) as fh, warnings.catch_warnings():
            header = fh.readline().strip()
            if header != "pfn,bop,direction,probability":
                raise ValueError(f"unexpected profile header: {header}")
            # a header-only file (no flippable attacker cell) is an empty
            # profile, not a malformed one
            warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                    UserWarning)
            data = np.loadtxt(fh, delimiter=",", ndmin=1, dtype=[
                ("pfn", "i8"), ("bop", "i8"), ("direction", "i1"),
                ("probability", "f8")])
        return cls(*(data[name] for name in data.dtype.names))


def sample_profile(profile, rate, seed):
    """Keep each entry independently with probability ``rate``."""
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
    column, base direction, flip probability and single-sided flag per cell.
    The state indexes the cells in (set, row, bit column) order.  Cells that
    come in that order, as :func:`synthesize_cells` returns them, are kept
    as given, not copied; cells in any other order are sorted stably into
    new arrays.  Either way ``cset``, ``crow``, ``cbitcol``, ``cbase_dir``,
    ``cprob`` and ``csscap`` are read-only views, so a state never writes
    its caller's arrays; ``ccur_dir``, the direction a reboot re-keys, is
    the state's own writable copy.  A deep copy shares the read-only arrays
    and copies everything else.
    """

    def __init__(self, config, cells=None, hammer_seed=0):
        self.config = config
        self.addr = AddressFunction(config)
        self._rows = {}
        self.owner = np.zeros(config.total_pages, dtype=np.int8)
        self._rng = np.random.default_rng(hammer_seed)
        if cells is None:
            cells = _empty_cells()
        # the cells of row key k = set * rows + row sit at
        # [_row_start[k], _row_start[k + 1]); the keys are int32 where every
        # cell key fits, so the order check costs a few bytes per cell
        rows, keys = config.rows_per_bank, config.sets * config.rows_per_bank
        kdt = np.int32 if keys * config.row_bits <= 2 ** 31 else np.int64
        row_key = cells[0].astype(kdt)
        row_key *= rows
        row_key += cells[1]
        cell_key = row_key * config.row_bits
        cell_key += cells[2]
        if np.any(cell_key[1:] < cell_key[:-1]):
            order = np.argsort(cell_key, kind="stable")
            cells = [a[order] for a in cells]
            row_key = row_key[order]
        del cell_key
        self._row_start = np.searchsorted(row_key, np.arange(keys + 1, dtype=kdt))
        for name, a in zip(("cset", "crow", "cbitcol", "cbase_dir", "cprob",
                            "csscap"), cells):
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
        at = np.column_stack(self.addr.bit_addr_vec(
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
        by one reshape: :meth:`AddressFunction.cell_to_page_vec` numbers the
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
        sets, rows, bitcols = self.addr.bit_addr_vec(pfn, bop)
        out = []
        for k, c in zip((sets * self.config.rows_per_bank + rows).tolist(),
                        bitcols.tolist()):
            lo, hi = self._row_start[k], self._row_start[k + 1]
            j = lo + int(np.searchsorted(self.cbitcol[lo:hi], c))
            out.append(j if j < hi and self.cbitcol[j] == c else -1)
        return np.array(out, dtype=np.int64)

    # ---- hammering ----

    def stripe_flips(self, cells, polarity):
        """Which of ``cells`` flip when a stripe of ``polarity`` hits them.

        A row-hammer stripe of polarity 1 (stored 0, aggressor bits 1) flips
        0->1 cells; polarity 0 flips 1->0 cells.  A cell flips when its
        current direction equals the polarity, in single-sided mode only if
        it is single-sided capable, and, if probabilistic, only when its
        draw passes.  Each such cell takes one draw from the seeded stream,
        in the order given.  ``polarity`` is one value or one per cell;
        index -1 never flips.  Returns a boolean mask over ``cells``.
        """
        cells = np.asarray(cells, dtype=np.int64)
        polarity = np.broadcast_to(polarity, cells.shape)
        at = np.flatnonzero(cells >= 0)
        at = at[self.ccur_dir[cells[at]] == polarity[at]]
        if self.config.hammer_mode == "single":
            at = at[self.csscap[cells[at]]]
        prob = self.cprob[cells[at]]
        chancy = np.flatnonzero(prob < 1.0)
        failed = self._rng.random(chancy.size) >= prob[chancy]
        at = np.delete(at, chancy[failed])
        flips = np.zeros(cells.shape, dtype=bool)
        flips[at] = True
        return flips

    def hammer(self, s, victim_row):
        """One hammering action against ``(s, victim_row)``.

        The aggressor rows of :meth:`DramConfig.aggressor_rows` hammer with
        the data they hold; callers write them with :meth:`row` first.  A
        victim row with an aggressor row outside the bank raises IndexError.
        A vulnerable cell sees a stripe when every aggressor bit in its
        column differs from its stored bit, and then flips by
        :meth:`stripe_flips` with polarity ``1 - stored``.  Returns flipped
        cell coordinates as (set, row, bitcol) triples.
        """
        cfg = self.config
        if not cfg.aggressors_in_bank(victim_row):
            raise IndexError(f"an aggressor row of row {victim_row} lies "
                             f"outside the bank")
        aggr_rows = [self.row(s, r) for r in cfg.aggressor_rows(victim_row)]
        idx = self.cells_in_row(s, victim_row)
        if idx.size == 0:
            return []
        victim = self.row(s, victim_row)
        bytes_, bits = np.divmod(self.cbitcol[idx], 8)
        stored = (victim[bytes_] >> bits) & 1
        striped = np.ones(idx.size, dtype=bool)
        for row_buf in aggr_rows:
            striped &= ((row_buf[bytes_] >> bits) & 1) != stored
        idx, stored = idx[striped], stored[striped]
        flipped = idx[self.stripe_flips(idx, 1 - stored)]
        for ci in flipped:
            byte, bit = divmod(int(self.cbitcol[ci]), 8)
            victim[byte] ^= np.uint8(1 << bit)
        return [(s, victim_row, int(self.cbitcol[ci])) for ci in flipped]

    # ---- scrambling ----

    def reboot(self, boot_seed, toggle_probability=0.5):
        """Re-key the scrambler: per-cell direction toggles, locations fixed.

        Each cell's direction toggles with ``toggle_probability``.  The toggle
        is a keyed hash of (cell location, boot seed), so rebooting twice with
        the same seed lands in the same state.  The hash runs over
        ``_DRAW_CHUNK`` cells at a time, so its uint64 temporaries stay
        small whatever the cell count.
        """
        cur = np.empty_like(self.cbase_dir)
        for at in range(0, len(cur), _DRAW_CHUNK):
            cells = slice(at, at + _DRAW_CHUNK)
            u = _keyed_uniform(self.cset[cells], self.crow[cells],
                               self.cbitcol[cells], boot_seed)
            np.bitwise_xor(self.cbase_dir[cells], u < toggle_probability,
                           out=cur[cells])
        self.ccur_dir = cur


def _empty_cells():
    return (np.empty(0, dtype=np.int32), np.empty(0, dtype=np.int32),
            np.empty(0, dtype=np.int32), np.empty(0, dtype=np.int8),
            np.empty(0, dtype=np.float64), np.empty(0, dtype=bool))


# ---- cell synthesis ------------------------------------------------------------


def synthesize_cells(config, density="dense", seed=0, one_to_zero=ONE_TO_ZERO_SHARE,
                     single_sided_rate=SINGLE_SIDED_RATE, probability=1.0):
    """Draw a vulnerable-cell population for ``config``.

    ``density`` is a preset name (dense / moderate / low / rare) or an explicit
    per-bank cell count.  The dense preset targets 35K-47K cells per bank at
    full geometry, scaled proportionally to the simulated row count and row
    size.  Cells cluster on pages (most vulnerable pages carry more than one
    cell) and split ~70/30 toward the 1->0 direction.

    The cells come back in :class:`DramState` order, sorted by (set, row,
    bit column).  The random stream does not see that order.  Bank by bank,
    it draws cluster sizes, page picks and bit offsets; a bank keeps the
    first draw of each ``(pfn, bop)`` location, up to its target.  Then
    directions, single-sided flags and probabilities are drawn for all kept
    cells in that draw order, bank after bank, and each cell takes the
    values drawn at its place in it.

    A bank dedupes its ``m`` draws with one in-place sort of packed int64
    keys ``(pfn * PAGE_BITS + bop) << sh | draw``, ``sh = (m - 1).bit_length()``:
    each location's earliest draw heads its run of equal ``key >> sh``.  The
    location takes ``(total_pages * PAGE_BITS - 1).bit_length()`` bits (35
    at full geometry) and ``m`` is at most the bank's target plus 16, so a
    target whose key would need more than 63 bits raises ValueError before
    anything is drawn, as a target above the bank's capacity does.

    Memory stays near the result's own size.  The outputs are allocated
    once; a bank's sort and first-draw temporaries are freed before its
    cells are mapped, and the next bank starts with none of them.  The
    direction and single-sided flags are drawn ``_DRAW_CHUNK`` uniforms at
    a time into int8 and bool arrays, which gives the stream one call would.
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

    addr = AddressFunction(config)
    pages_per_bank = config.rows_per_bank * config.in_row_pages
    span = config.in_row_page_size * 8
    total = sum(t for t in targets if t > 0)
    sets, rows, bitcols, drawn = (np.empty(total, dtype=np.int32)
                                  for _ in range(4))  # drawn: place in draw order
    # channel 0 fills the outputs from the front; channel 1 fills them from
    # the back, reversed, and is turned round behind channel 0 at the end
    lo, hi, n = 0, total, 0
    for bank, target in enumerate(targets):
        if target <= 0:
            continue
        n_clusters = max(1, int(target / _CLUSTER_SIZES.dot(_CLUSTER_PROBS)) + 8)
        sizes = rng.choice(_CLUSTER_SIZES, size=n_clusters, p=_CLUSTER_PROBS)
        while sizes.sum() < target:
            sizes = np.concatenate([sizes, rng.choice(_CLUSTER_SIZES,
                                                      size=n_clusters,
                                                      p=_CLUSTER_PROBS)])
        keep = np.searchsorted(np.cumsum(sizes), target) + 1
        sizes = sizes[:keep]
        row, slot = np.divmod(rng.integers(0, pages_per_bank, size=len(sizes)),
                              config.in_row_pages)
        pfns = addr.cell_to_page_vec(bank, row, slot * span)[0]
        pfns = np.repeat(pfns, sizes)[:target + 16]
        del sizes, row, slot
        # key = (pfn * PAGE_BITS + bop) << sh | draw, sorted once; in one
        # bank, (pfn, bop) order is (row, bit column) order per channel
        m = len(pfns)
        sh = (m - 1).bit_length()
        key = pfns * PAGE_BITS
        del pfns
        key += rng.integers(0, PAGE_BITS, size=m)
        key <<= sh
        key |= np.arange(m)
        key.sort()
        # each location's run starts with its earliest draw
        loc = key >> sh
        head = np.empty(m, dtype=bool)
        head[0] = True
        np.not_equal(loc[1:], loc[:-1], out=head[1:])
        loc, first = loc[head], key[head]
        del key, head
        first &= (1 << sh) - 1
        is_first = np.zeros(m, dtype=bool)
        is_first[first] = True
        place = np.cumsum(is_first)[first] - 1  # among the bank's first draws
        del is_first, first
        kept = place < target
        loc, place = loc[kept], place[kept] + n
        n += len(loc)
        del kept
        bops = loc % PAGE_BITS
        loc //= PAGE_BITS  # the frame numbers
        s, r, c = addr.bit_addr_vec(loc, bops)
        del loc, bops
        upper = s >= config.banks  # channel 1
        m = np.count_nonzero(upper)
        lower = ~upper if m else slice(None)  # a bank all in channel 0 is not split
        for out, val in ((sets, s), (rows, r), (bitcols, c), (drawn, place)):
            out[lo:lo + len(s) - m] = val[lower]
            if m:
                out[hi - m:hi] = val[upper][::-1]
        lo, hi = lo + len(s) - m, hi - m
        # the next bank's draws start with only the outputs allocated
        del s, r, c, place, upper, val

    if n == 0:
        return _empty_cells()
    for out in (sets, rows, bitcols, drawn):
        out[lo:n] = out[hi:][::-1]
    sets, rows, bitcols, drawn = sets[:n], rows[:n], bitcols[:n], drawn[:n]
    # one uniform per cell and flag, in draw order; chunks of random() give
    # the stream one call would, without a float64 array of n
    base_dir, sscap = np.empty(n, dtype=np.int8), np.empty(n, dtype=bool)
    for out, flag, share in ((base_dir, np.greater_equal, one_to_zero),  # 0 => 1->0
                             (sscap, np.less, single_sided_rate)):
        for at in range(0, n, _DRAW_CHUNK):
            chunk = out[at:at + _DRAW_CHUNK]
            flag(rng.random(len(chunk)), share, out=chunk)
    base_dir, sscap = base_dir[drawn], sscap[drawn]
    if isinstance(probability, tuple):
        prob = rng.uniform(probability[0], probability[1], size=n)[drawn]
    else:
        prob = np.full(n, float(probability))
    return sets, rows, bitcols, base_dir, prob, sscap


def new_dram(config, density="dense", cell_seed=0, hammer_seed=1, **cell_kwargs):
    # no local name holds the cells: the state's read-only views are their
    # only reference
    return DramState(config, synthesize_cells(config, density, cell_seed,
                                              **cell_kwargs), hammer_seed)


# ---- templating ----------------------------------------------------------------


def template(dram, scan_rows=None, repeats=1):
    """Scan rows with both stripe polarities and record every observed flip.

    By default the scanned rows are those of :meth:`DramState.sandwich_mask`
    in (set, row) order, so profiling never corrupts foreign memory.  Each
    scan row is hammered ``repeats`` times with polarity 1 (victim 0x00,
    aggressors 0xFF), then ``repeats`` times with polarity 0 (victim 0xFF,
    aggressors 0x00), so every cell of the row meets a stripe of each
    polarity.

    The sweep runs batched: it lists every hammer's cells in the order
    scan row, polarity, repeat, cell and passes them to
    :meth:`DramState.stripe_flips` at once, so cells flip and draw from the
    DRAM's seeded stream as hammering row by row would.  Deterministic
    given the DRAM state; with per-cell probability 1 the result projects
    the ground-truth cell set exactly.

    No row buffer is written, because no later step reads the stripes a
    sweep would leave in the attacker's scratch rows: ``cmd_template``
    discards its state and ``exploit`` provisions a fresh one;
    ``verify_template`` and ``retemplate`` apply the flip rule to single
    cells and read no row; and ``precise_hammer`` writes every
    attacker-owned in-row page of its aggressor rows, and
    ``plan_aggressors`` requires one at each planned column, so a planned
    flip never reads scratch bytes.
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    cfg = dram.config
    nrows = cfg.rows_per_bank
    if scan_rows is None:
        scan_s, scan_r = np.nonzero(dram.sandwich_mask())
    else:
        scan_s, scan_r = np.asarray(list(scan_rows),
                                    dtype=np.int64).reshape(-1, 2).T
    if ((scan_s < 0) | (scan_s >= cfg.sets) | (scan_r < 0) | (scan_r >= nrows)
            | ~cfg.aggressors_in_bank(scan_r)).any():
        raise IndexError("a scan row or one of its aggressors is out of range")

    # one hammer per (scan row, polarity 1 then 0, repeat), each over the
    # cells of its row: hammer j covers cells [start[j], start[j] + counts[j])
    keys = np.repeat(scan_s * nrows + scan_r, 2 * repeats)
    start = dram._row_start[keys]
    counts = dram._row_start[keys + 1] - start
    cells = np.arange(counts.sum()) + np.repeat(
        start - np.cumsum(counts) + counts, counts)
    polarity = np.repeat(np.arange(len(keys)) // repeats % 2 ^ 1, counts)
    flips = dram.stripe_flips(cells, polarity)
    c, pol = cells[flips], polarity[flips]
    pfn, bop = dram.addr.cell_to_page_vec(dram.cset[c], dram.crow[c],
                                          dram.cbitcol[c])
    key, hits = np.unique((pfn * PAGE_BITS + bop) * 2 + pol, return_counts=True)
    return FlipProfile(key // (2 * PAGE_BITS), key // 2 % PAGE_BITS, key % 2,
                       hits / repeats)


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
