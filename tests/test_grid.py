import os
import subprocess
import sys
from pathlib import Path

import pytest

import grid
from treasurehunt.strategies import fresh_doors_searcher, mimic_searcher, scaled_searcher

# (entries, sha256) of the exactness grid in tests/grid.py. A change that
# moves one value, report or error message on these games changes the
# digest; `python tests/grid.py diff OLD NEW` names the keys it moved.
SLICE_DIGEST = (9750, "9874aaf98d5e7107ee4986969d6300b2d924f5725c18ffcfdb3d8b61df63e1ef")
WIDE_DIGEST = (103844, "6cffba7b702b66dee25d55b5b6b36fb3f5e7e4a5e6a9243f6091cbe1181f772b")


def test_grid_slice_digest_is_pinned():
    assert grid.digest() == SLICE_DIGEST


def test_single_game_d1_tables_match_fresh_k_entry_for_entry():
    # At d = 1 the scaled and mimic tables are empty and never stay, so every
    # grid entry they record in the single game is fresh-k's under the same key.
    def without_name(name, build, config):
        entries = grid._searcher_entries(config, name, build, grid.ALLOCATIONS)
        return {key[:5] + key[6:]: outcome for key, outcome in entries}

    for config in grid.games():
        if config.occupancy == "single" and config.d == 1:
            fresh = without_name("fresh-k", fresh_doors_searcher, config)
            assert without_name("ptable-scaled", scaled_searcher, config) == fresh
            if config.k == 1:
                assert without_name("mu-mimic", mimic_searcher, config) == fresh


@pytest.mark.skipif(
    not os.environ.get("TREASUREHUNT_SLOW"),
    reason="about 6 s of every allocation and LP plan; set TREASUREHUNT_SLOW=1 to run",
)
def test_grid_wide_digest_is_pinned():
    assert grid.digest(wide=True) == WIDE_DIGEST


@pytest.mark.skipif(
    not os.environ.get("TREASUREHUNT_SLOW"),
    reason="runs the slice twice in subprocesses; set TREASUREHUNT_SLOW=1 to run",
)
def test_grid_diff_of_a_checkout_with_itself_is_empty():
    root = Path(__file__).resolve().parent.parent
    out = subprocess.run([sys.executable, grid.__file__, "diff", str(root), str(root)],
                         check=True, capture_output=True, text=True).stdout
    assert out == ""
