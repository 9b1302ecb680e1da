"""Tour of the DRAM simulator: addressing, stripes, scrambling.

Shows how pages map to rows under the two channel layouts, why the stripe
pattern controls flips column by column, and what a reboot does to the flip
directions without moving any cell.
"""

import numpy as np

from flipsim.dram import (DramConfig, DramState, desk, full_dual, full_single,
                          new_dram, template, OWNER_ATTACKER)

print("== page-to-row addressing ==")
for name, cfg in (("single channel", full_single()), ("dual channel", full_dual())):
    n = cfg.in_row_page_size
    # the first bit of each channel's share of page 6
    sets, rows, cols = cfg.bit_addr_vec(
        [6] * cfg.channels, np.arange(cfg.channels) * (n * 8))
    print(f"{name}: page 6 lives at "
          + ", ".join(f"(bank-set {s}, row {r}, bytes {c // 8}..{c // 8 + n - 1})"
                      for s, r, c in zip(sets.tolist(), rows.tolist(),
                                         cols.tolist())))
print("single channel packs two whole pages per row; dual channel splits "
      "each page across the two channels, four in-row pages per row")

print("\n== stripes flip exactly the targeted column ==")
cfg = DramConfig(banks_per_dimm=2, rows_per_bank=32)
cells = (np.array([0, 0], dtype=np.int32),        # set
         np.array([5, 5], dtype=np.int32),        # row
         np.array([100, 7000], dtype=np.int32),   # bit column
         np.array([1, 1], dtype=np.int8),         # both flip 0 -> 1
         np.array([False, False]))                # not single-sided capable
state = DramState(cfg, cells)
state.row(0, 5)[:] = 0
solid = np.zeros(cfg.row_bytes, dtype=np.uint8)
stripe = solid.copy()
stripe[100 // 8] ^= 1 << (100 % 8)  # complement only bit column 100
for aggressor in cfg.aggressor_rows(5):  # rows 4 and 6 take the stripe
    state.row(0, aggressor)[:] = stripe
flips = state.hammer(0, 5)
print(f"two vulnerable cells in the row, stripe at column 100 only -> "
      f"flipped {[c for _, _, c in flips]} (cell 7000 untouched)")

print("\n== templating an attacker region ==")
state = new_dram(desk(), "dense", 1)
state.set_owner(range(state.config.total_pages), OWNER_ATTACKER)
profile = template(state)
print(f"desk geometry, paper-proportional dense preset: {len(profile)} "
      f"flippable cells, {float((profile.direction == 0).mean()):.0%} 1->0")


def directions(profile):
    """``{(pfn, bop): direction}`` of every profile entry."""
    return dict(zip(zip(profile.pfn.tolist(), profile.bop.tolist()),
                    profile.direction.tolist()))


print("\n== scrambling: reboots toggle direction, never location ==")
before = directions(profile)
state.reboot(boot_seed=42, toggle_probability=0.5)
after_profile = template(state)
after = directions(after_profile)
same_locations = set(before) == set(after)
toggled = sum(1 for k in before if before[k] != after[k])
print(f"locations unchanged: {same_locations}; "
      f"{toggled}/{len(before)} directions toggled by the reboot")
state.reboot(boot_seed=42, toggle_probability=0.5)
again = directions(template(state))
print(f"same boot seed reproduces the same directions: {again == after}")
