import os
import subprocess
import sys
from pathlib import Path

import pytest

import grid

# (entries, sha256) of the exactness grid in tests/grid.py. A change that
# moves one value, report or error message on these games changes the
# digest; `python tests/grid.py diff OLD NEW` names the keys it moved.
SLICE_DIGEST = (9303, "191d11d5f42e4a1dc16d86f015b069c29671f13e0350b6019d7902c6857e494c")
WIDE_DIGEST = (103397, "cdbcf0bcdc0609b8f58f16796d92b509dedfd619e3f46373789065c46ff657bf")


def test_grid_slice_digest_is_pinned():
    assert grid.digest() == SLICE_DIGEST


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
