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
row byte ``k // 8``.
"""

from dataclasses import dataclass

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
    """Bijection between (pfn, byte/bit offset) and (set, row, column)."""

    def __init__(self, config):
        self.config = config

    def page_segments(self, pfn):
        """In-row segments of a page: (set, row, row_byte_base, page_off, n)."""
        cfg = self.config
        if not (0 <= pfn < cfg.total_pages):
            raise IndexError(f"pfn {pfn} out of range")
        n = cfg.in_row_page_size
        g, q = divmod(pfn, cfg.in_row_pages)
        return [(c * cfg.banks + g % cfg.banks, g // cfg.banks, q * n, c * n, n)
                for c in range(cfg.channels)]

    def bit_addr(self, pfn, bop):
        """(pfn, bop) -> (set, row, bit column)."""
        if not (0 <= pfn < self.config.total_pages):
            raise IndexError(f"pfn {pfn} out of range")
        if not (0 <= bop < PAGE_BITS):
            raise IndexError(f"bop {bop} out of range")
        s, row, bitcol = self.bit_addr_vec(pfn, bop)
        return int(s), int(row), int(bitcol)

    def cell_to_page(self, s, row, bitcol):
        """(set, row, bit column) -> (pfn, bop); inverse of :meth:`bit_addr`."""
        pfn, bop = self.cell_to_page_vec(s, row, bitcol)
        return int(pfn), int(bop)

    def row_pfns(self, s, row):
        """Physical pages with bytes resident in this (set, row), by in-row slot."""
        cfg = self.config
        g = row * cfg.banks + s % cfg.banks
        return list(range(g * cfg.in_row_pages, (g + 1) * cfg.in_row_pages))

    def in_row_page_of(self, pfn, bop):
        """(set, row, first bit column, bit span) of the in-row page holding bop."""
        s, row, bitcol = self.bit_addr(pfn, bop)
        span = self.config.in_row_page_size * 8
        return s, row, bitcol - bitcol % span, span

    def bit_addr_vec(self, pfn, bop):
        """Vectorized :meth:`bit_addr` over equal-length index arrays."""
        cfg = self.config
        span = cfg.in_row_page_size * 8
        pfn = np.asarray(pfn, dtype=np.int64)
        bop = np.asarray(bop, dtype=np.int64)
        # in place where possible: cell synthesis maps about a million cells
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
        """Vectorized :meth:`cell_to_page`; inverse of :meth:`bit_addr_vec`."""
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


class FlipProfile:
    """Templating output: (pfn, bop, direction, probability) per flippable cell.

    Direction follows the target-bit mode convention: 0 means 1->0, 1 means
    0->1.
    """

    def __init__(self, pfn, bop, direction, probability):
        self.pfn = np.asarray(pfn, dtype=np.int64)
        self.bop = np.asarray(bop, dtype=np.int64)
        self.direction = np.asarray(direction, dtype=np.int8)
        self.probability = np.asarray(probability, dtype=np.float64)
        if not (len(self.pfn) == len(self.bop) == len(self.direction)
                == len(self.probability)):
            raise ValueError("profile columns differ in length")

    def __len__(self):
        return len(self.pfn)

    def subset(self, mask):
        return FlipProfile(self.pfn[mask], self.bop[mask],
                           self.direction[mask], self.probability[mask])

    def entries(self):
        """``(pfn, bop, direction, probability)`` tuples of Python scalars."""
        return zip(self.pfn.tolist(), self.bop.tolist(),
                   self.direction.tolist(), self.probability.tolist())

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
        with open(path, "w") as fh:
            fh.write("pfn,bop,direction,probability\n")
            fh.write("".join([f"{pfn},{bop},{d},{p!r}\n"
                              for pfn, bop, d, p in self.entries()]))
        return path

    @classmethod
    def load_csv(cls, path):
        with open(path) as fh:
            header = fh.readline().strip()
            if header != "pfn,bop,direction,probability":
                raise ValueError(f"unexpected profile header: {header}")
            data = np.loadtxt(fh, delimiter=",", dtype=np.float64, ndmin=2)
        if data.size == 0:
            return cls.empty()
        return cls(data[:, 0].astype(np.int64), data[:, 1].astype(np.int64),
                   data[:, 2].astype(np.int8), data[:, 3])


def sample_profile(profile, rate, seed):
    """Keep each entry independently with probability ``rate``."""
    if not (0.0 < rate <= 1.0):
        raise ValueError("rate must be in (0, 1]")
    if rate == 1.0:
        return profile.subset(np.ones(len(profile), dtype=bool))
    rng = np.random.default_rng(seed)
    return profile.subset(rng.random(len(profile)) < rate)


# ---- DRAM state ----------------------------------------------------------------


class DramState:
    """Cell array, vulnerable-cell set, owner map and hammering engine."""

    def __init__(self, config, cells=None, hammer_seed=0):
        self.config = config
        self.addr = AddressFunction(config)
        self._rows = {}
        self.owner = np.zeros(config.total_pages, dtype=np.int8)
        self.boot_seed = None
        self.toggle_probability = 0.5
        self._rng = np.random.default_rng(hammer_seed)
        if cells is None:
            cells = _empty_cells()
        (self.cset, self.crow, self.cbitcol, self.cbase_dir,
         self.cprob, self.csscap) = cells
        self.ccur_dir = self.cbase_dir.copy()
        # cells sorted by (set, row, bit column); the cells of row key
        # k = set * rows + row sit at [_row_start[k], _row_start[k + 1])
        row_key = self.cset.astype(np.int64) * config.rows_per_bank + self.crow
        cell_key = row_key * config.row_bits + self.cbitcol
        order = np.argsort(cell_key, kind="stable")
        del cell_key
        for name in ("cset", "crow", "cbitcol", "cbase_dir", "ccur_dir",
                     "cprob", "csscap"):
            setattr(self, name, getattr(self, name)[order])
        self._row_start = np.searchsorted(
            row_key[order], np.arange(config.sets * config.rows_per_bank + 1))

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

    def write_page(self, pfn, data):
        data = np.frombuffer(bytes(data), dtype=np.uint8)
        if data.size != PAGE_BYTES:
            raise ValueError("pages are 4096 bytes")
        for s, r, base, off, n in self.addr.page_segments(pfn):
            self.row(s, r)[base:base + n] = data[off:off + n]

    def read_page(self, pfn):
        out = np.zeros(PAGE_BYTES, dtype=np.uint8)
        for s, r, base, off, n in self.addr.page_segments(pfn):
            out[off:off + n] = self.row(s, r)[base:base + n]
        return out.tobytes()

    # ---- ownership ----

    def set_owner(self, pfns, owner):
        self.owner[np.asarray(list(pfns), dtype=np.int64)] = owner

    def sandwich_mask(self):
        """``(sets, rows)`` bools: rows whose whole sandwich the attacker owns.

        A row is owned when every in-row page resident in it is attacker
        memory.  Row ``r`` qualifies when rows ``r - 1``, ``r`` and ``r + 1``
        are all owned, so the rows at a bank edge never do.  The two channel
        sets of a dual-channel bank hold the same pages, so set ``s`` reads
        bank ``s % banks``.
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

    def cell_count(self):
        return len(self.cset)

    # ---- hammering ----

    def hammer(self, s, victim_row, upper=None, lower=None):
        """One hammering action against ``(s, victim_row)``.

        ``upper``/``lower`` optionally overwrite the aggressor rows of
        :meth:`DramConfig.aggressor_rows` before activation: double-sided,
        rows victim_row - 1 / + 1; single-sided, the one aggressor row takes
        ``upper``, or ``lower`` when ``upper`` is None.  A victim row with an
        aggressor row outside the bank raises IndexError.  A vulnerable cell
        flips iff its stored bit equals its current direction's source value,
        the aggressor bit(s) in the same column equal the complement, and
        (for probabilistic cells) a draw from the seeded stream passes.
        Single-sided mode additionally requires the cell's
        single-sided-capable flag.  Returns flipped cell coordinates as
        (set, row, bitcol) triples.
        """
        cfg = self.config
        if not cfg.aggressors_in_bank(victim_row):
            raise IndexError(f"an aggressor row of row {victim_row} lies "
                             f"outside the bank")
        aggr = cfg.aggressor_rows(victim_row)
        contents = (upper, lower) if len(aggr) == 2 else \
            (upper if upper is not None else lower,)
        for r, content in zip(aggr, contents):
            if content is not None:
                self.row(s, r)[:] = np.frombuffer(bytes(content), dtype=np.uint8)
        aggr_rows = [self.row(s, r) for r in aggr]

        idx = self.cells_in_row(s, victim_row)
        if idx.size == 0:
            return []
        victim = self.row(s, victim_row)
        bitcols = self.cbitcol[idx]
        bytes_, bits = np.divmod(bitcols, 8)
        stored = (victim[bytes_] >> bits) & 1
        source = (1 - self.ccur_dir[idx]).astype(np.uint8)  # dir 0: 1->0
        cond = stored == source
        for row_buf in aggr_rows:
            aggr_bits = (row_buf[bytes_] >> bits) & 1
            cond &= aggr_bits == (1 - stored)
        if cfg.hammer_mode == "single":
            cond &= self.csscap[idx]
        probabilistic = cond & (self.cprob[idx] < 1.0)
        if probabilistic.any():
            draws = self._rng.random(int(probabilistic.sum()))
            passed = np.ones(idx.size, dtype=bool)
            passed[probabilistic] = draws < self.cprob[idx][probabilistic]
            cond &= passed
        flipped = idx[cond]
        for ci in flipped:
            byte, bit = divmod(int(self.cbitcol[ci]), 8)
            victim[byte] ^= np.uint8(1 << bit)
        return [(s, victim_row, int(self.cbitcol[ci])) for ci in flipped]

    # ---- scrambling ----

    def reboot(self, boot_seed, toggle_probability=None):
        """Re-key the scrambler: per-cell direction toggles, locations fixed.

        The toggle is a keyed hash of (cell location, boot seed), so rebooting
        twice with the same seed lands in the same state.
        """
        if toggle_probability is not None:
            self.toggle_probability = float(toggle_probability)
        self.boot_seed = boot_seed
        if self.cell_count() == 0:
            return
        u = _keyed_uniform(self.cset, self.crow, self.cbitcol, boot_seed)
        toggles = (u < self.toggle_probability).astype(np.int8)
        self.ccur_dir = (self.cbase_dir ^ toggles).astype(np.int8)

    def ground_truth_profile(self, pfns=None):
        """Current cells projected through the address map (test oracle aid)."""
        pfn, bop = self.addr.cell_to_page_vec(self.cset, self.crow, self.cbitcol)
        order = np.lexsort((self.cprob, self.ccur_dir, bop, pfn))
        if pfns is not None:
            wanted = np.fromiter((int(p) for p in pfns), dtype=np.int64)
            order = order[np.isin(pfn[order], wanted)]
        return FlipProfile(pfn[order], bop[order], self.ccur_dir[order],
                           self.cprob[order])


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
    """
    rng = np.random.default_rng(seed)
    if isinstance(density, str):
        try:
            factor = DENSITY_FACTORS[density]
        except KeyError:
            raise ValueError(f"unknown density preset {density!r}") from None
        scale = (config.rows_per_bank / FULL_SIZE_ROWS) * \
                (config.row_bytes / FULL_SIZE_ROW_BYTES) * config.channels
        per_bank = [rng.uniform(*DENSE_PER_BANK_RANGE) * scale * factor
                    for _ in range(config.banks)]
    else:
        per_bank = [float(density)] * config.banks
    for t in per_bank:
        if t > config.bank_capacity:
            raise ValueError(f"per-bank target {t:.0f} exceeds capacity "
                             f"{config.bank_capacity}")

    addr = AddressFunction(config)
    all_pfn, all_bop = [], []
    pages_per_bank = config.rows_per_bank * config.in_row_pages
    for bank, target in enumerate(per_bank):
        target = int(round(target))
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
        page_pick = rng.integers(0, pages_per_bank, size=len(sizes))
        g = (page_pick // config.in_row_pages) * config.banks + bank
        pfns = g * config.in_row_pages + page_pick % config.in_row_pages
        pfns = np.repeat(pfns, sizes)[:target + 16]
        bops = rng.integers(0, PAGE_BITS, size=len(pfns))
        key = pfns.astype(np.int64) * PAGE_BITS + bops
        _, first = np.unique(key, return_index=True)
        keep_mask = np.zeros(len(key), dtype=bool)
        keep_mask[first] = True
        pfns, bops = pfns[keep_mask][:target], bops[keep_mask][:target]
        all_pfn.append(pfns)
        all_bop.append(bops)

    if not all_pfn:
        return _empty_cells()
    pfn = np.concatenate(all_pfn)
    bop = np.concatenate(all_bop)
    del all_pfn, all_bop  # the address mapping below is the peak of memory
    n = len(pfn)
    sets, rowz, bitcols = addr.bit_addr_vec(pfn, bop)
    sets = sets.astype(np.int32)
    rowz = rowz.astype(np.int32)
    bitcols = bitcols.astype(np.int32)
    base_dir = (rng.random(n) >= one_to_zero).astype(np.int8)  # 0 => 1->0
    sscap = rng.random(n) < single_sided_rate
    if isinstance(probability, tuple):
        prob = rng.uniform(probability[0], probability[1], size=n)
    else:
        prob = np.full(n, float(probability))
    return sets, rowz, bitcols, base_dir, prob, sscap


def new_dram(config, density="dense", cell_seed=0, hammer_seed=1, **cell_kwargs):
    cells = synthesize_cells(config, density, cell_seed, **cell_kwargs)
    return DramState(config, cells, hammer_seed)


# ---- templating ----------------------------------------------------------------


def template(dram, scan_rows=None, repeats=1):
    """Scan rows with both stripe polarities and record every observed flip.

    By default the scanned rows are those of :meth:`DramState.sandwich_mask`
    in (set, row) order, so profiling never corrupts foreign memory.  Each
    scan row is hammered ``repeats`` times with polarity 1 (victim 0x00,
    aggressors 0xFF), then ``repeats`` times with polarity 0 (victim 0xFF,
    aggressors 0x00).  A cell flips in the polarity equal to its current
    direction, in single-sided mode only if it is single-sided capable, and
    a probabilistic cell only when its draw passes.

    The sweep runs batched but matches hammering row by row: the draws come
    from the DRAM's seeded stream in the order scan row, polarity, repeat,
    cell, and the row buffers end as that loop's last hammers leave them.
    Deterministic given the DRAM state; with per-cell probability 1 the
    result projects the ground-truth cell set exactly.
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
    aggr_rows = cfg.aggressor_rows(scan_r)

    # every (scan row, cell in that row) occurrence, in scan then cell order
    keys = scan_s * nrows + scan_r
    start = dram._row_start[keys]
    counts = dram._row_start[keys + 1] - start
    scan = np.repeat(np.arange(len(keys)), counts)
    cell = np.arange(counts.sum()) + np.repeat(start - np.cumsum(counts) + counts,
                                               counts)

    # axis 0 is the polarity: 1 (0->1) first, then 0 (1->0)
    capable = dram.csscap[cell] if cfg.hammer_mode == "single" else True
    cur = dram.ccur_dir[cell]
    eligible = np.stack([(cur == 1) & capable, (cur == 0) & capable])
    hits = np.where(eligible, repeats, 0)
    last_hit = eligible.copy()
    pol, occ = np.nonzero(eligible & (dram.cprob[cell] < 1.0))
    if pol.size:
        pol_e, occ_e = np.repeat(pol, repeats), np.repeat(occ, repeats)
        rep_e = np.tile(np.arange(repeats), pol.size)
        draws = np.empty(pol_e.size)
        draws[np.lexsort((occ_e, rep_e, pol_e, scan[occ_e]))] = \
            dram._rng.random(pol_e.size)
        passed = (draws < dram.cprob[cell[occ_e]]).reshape(pol.size, repeats)
        hits[pol, occ] = passed.sum(axis=1)
        last_hit[pol, occ] = passed[:, -1]
    _leave_rows_as_swept(dram, scan_s, scan_r, aggr_rows, counts, cell, last_hit[1])

    pol, occ = np.nonzero(hits)
    c = cell[occ]
    pfn, bop = dram.addr.cell_to_page_vec(dram.cset[c], dram.crow[c],
                                          dram.cbitcol[c])
    key, inv = np.unique((pfn * PAGE_BITS + bop) * 2 + 1 - pol,
                         return_inverse=True)
    flips = np.bincount(inv, weights=hits[pol, occ], minlength=len(key))
    return FlipProfile(key // (2 * PAGE_BITS), key // 2 % PAGE_BITS, key % 2,
                       flips / repeats)


def _leave_rows_as_swept(dram, scan_s, scan_r, aggr_rows, counts, cell, final_flip):
    """Write the row buffers as the row-by-row sweep would leave them.

    Each scan row ends on a polarity-0 hammer: its victim row holds 0xFF with
    the bits of the cells that flipped in that hammer (``final_flip``)
    cleared, and its aggressor rows hold 0x00.  Later scan rows overwrite
    earlier ones, in scan order.
    """
    ends = np.cumsum(counts)
    for s, r, a, b, *aggr in zip(scan_s.tolist(), scan_r.tolist(),
                                 (ends - counts).tolist(), ends.tolist(),
                                 *(rows.tolist() for rows in aggr_rows)):
        victim = dram.row(s, r)
        victim[:] = 0xFF
        cols = dram.cbitcol[cell[a:b][final_flip[a:b]]]
        np.bitwise_xor.at(victim, cols // 8, (1 << cols % 8).astype(np.uint8))
        for ar in aggr:
            dram.row(s, ar)[:] = 0x00


# ---- geometry files ------------------------------------------------------------


def save_geometry(config, path, seeds=None):
    lines = [
        f"channels = {config.channels}",
        f"dimms = {config.dimms}",
        f"banks = {config.banks_per_dimm}",
        f"rows = {config.rows_per_bank}",
        f"row_bytes = {config.row_bytes}",
        f"hammer_mode = {config.hammer_mode}",
    ]
    for key, val in (seeds or {}).items():
        lines.append(f"{key} = {val}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def load_geometry(path):
    values = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
    config = DramConfig(
        channels=int(values.get("channels", 1)),
        dimms=int(values.get("dimms", 1)),
        banks_per_dimm=int(values.get("banks", 16)),
        rows_per_bank=int(values.get("rows", 32768)),
        row_bytes=int(values.get("row_bytes", 8192)),
        hammer_mode=values.get("hammer_mode", "double"),
    )
    seeds = {k: int(v) for k, v in values.items()
             if k not in {"channels", "dimms", "banks", "rows", "row_bytes",
                          "hammer_mode"}}
    return config, seeds
