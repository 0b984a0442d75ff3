"""Figures 5 and 6 against the paper's own numbers, at reduced sizes.

The anchors and their bands live in data/paper_tolerances.json, so a
change that moves a figure point far from what §5.2 reports fails here.
"""

import json
from pathlib import Path

import pytest

from repro.sim import figure5_series, figure6_series

TOLERANCES = json.loads(
    (Path(__file__).parent / "data" / "paper_tolerances.json").read_text())
MB = 1e6


@pytest.fixture(scope="module")
def measured():
    sizes = TOLERANCES["sizes"]
    [fig5] = figure5_series(disk_counts=(32,),
                            disk_names=("Fujitsu M2372K",), **sizes)
    [fig6] = figure6_series(disk_counts=(32,),
                            disk_names=("Fujitsu M2372K",), **sizes)
    fast, slow = figure5_series(disk_counts=(4,),
                                disk_names=("IBM 3380K", "DEC RA82"),
                                **sizes)
    return {
        "figure5_32_disks_mb_s": fig5.y / MB,
        "figure6_32_disks_mb_s": fig6.y / MB,
        "unit_ratio_32_disks": fig6.y / fig5.y,
        "ibm_3380k_over_dec_ra82": fast.y / slow.y,
    }


@pytest.mark.parametrize("name", sorted(TOLERANCES["anchors"]))
def test_within_paper_band(name, measured):
    anchor = TOLERANCES["anchors"][name]
    value = measured[name]
    assert value > anchor["low"], f"{name} {value:.3f} <= {anchor['low']}"
    if anchor["high"] is not None:
        assert value < anchor["high"], f"{name} {value:.3f} >= {anchor['high']}"
