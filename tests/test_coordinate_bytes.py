"""Byte pins for the coordinates built from the regularization map alone.

Each case is rebuilt from its builder and compared, through the sha256 of
the concatenated complex128 bytes of its coordinates, with digests recorded
from an earlier implementation that wrote Toeplitz bands and z diagonals by
hand.  The generalized cylinder's were re-recorded when its z moved to the
symmetric grid's diagonal z_offset + beta q(n, n), n = 0..N-1, from
z_offset + beta n/N, n = 1..N; its x and y kept their bytes.  Only
coordinates computed without sin, cos or exp are pinned: those three may
round differently on other CPUs' vector paths.
"""

import hashlib

import pytest

from fuzzyreg.profiles import AffineProfile
from fuzzyreg.spaces import (
    CurveSpec,
    DoubleCylinderSpec,
    build_clifford_torus,
    build_double_cylinder,
    build_generalized_cylinder,
    build_immersed_cylinder,
    circle_to_eight_functions,
)

from refs import shift_basis

PAIR = DoubleCylinderSpec((-1.0, 3.0), AffineProfile(0.7, 0.3), 1.0)

CASES = {
    "generalized-cylinder": lambda n: build_generalized_cylinder(
        CurveSpec.circle(1.5), n, -0.5).coordinates,
    "eight-symmetric": lambda n: build_immersed_cylinder(
        *circle_to_eight_functions(), n, "symmetric").coordinates,
    "eight-left": lambda n: build_immersed_cylinder(
        *circle_to_eight_functions(), n, "left").coordinates,
    "double-cylinder-1": lambda n: build_double_cylinder(PAIR, n)[0].coordinates,
    "double-cylinder-2": lambda n: build_double_cylinder(PAIR, n)[1].coordinates,
    "toeplitz-basis": lambda n: [shift_basis(a, n) for a in (-3, -1, 0, 2, n - 1)],
    "clifford-x1-y1": lambda n: build_clifford_torus(0.75, 1.0, n).coordinates[:2],
}

DIGESTS = {
    ("generalized-cylinder", 8): "e74ee46878b729eccca5263665f02fa1cd339fec706bcb2581d1162aacf81bc9",
    ("generalized-cylinder", 64): "d203936bc5006b367e42998239ec0fadd21d198168b1c05178d4f039eca0b665",
    ("generalized-cylinder", 257): "537130c804691122c333255afe0a35ac3ba2cadb30116827c4a0d62e00d3479e",
    ("eight-symmetric", 8): "73e5ab04d9c0f07f4c7ca0536f5a47c553069e1f8d2f137e5f93466bb4f917c5",
    ("eight-symmetric", 64): "2781091648efad4ae5c23ba779fa1a52a6c6ade6dc065766d1643bd8c13a413e",
    ("eight-symmetric", 257): "a23e9fc6457262c806a3bf203e9698d0b3f231b39e9d0bc6b7aa6d913afb35d9",
    ("eight-left", 8): "36b33262f593edeac5a822d81d69d6c4b341d8e77f45923378ee0366b8511dcc",
    ("eight-left", 64): "69797d57652d06aa9c05c3934a7e503cc98a4951eea7d777d7e1be4c7789748f",
    ("eight-left", 257): "c080ea8d695cd16aea8a7de21c80d1e5594ef95d7bbd275d3ad36a96903ab740",
    ("double-cylinder-1", 8): "c60ae2be98dbddc49208821440ba4f1034b44964fecaa9e6dbe23c2a55d3dc3c",
    ("double-cylinder-1", 64): "eb7ee585d97afa9e4dd4a4fa909150b1e0a6954b89d8d65fa4a19c7dbcd64c8f",
    ("double-cylinder-1", 257): "ebae90fa2623f1c9d4c4e7b1696e829ecb1516766f4e261d832572e18e6e6598",
    ("double-cylinder-2", 8): "9701d1380d3a7b3d8cda0e7ed77a38de35c99c23d4a9f9716e45b83e4354dd14",
    ("double-cylinder-2", 64): "ac3964c49a313cff93ac862e1e3b12b363b161e2e07ff089f9ad3490900dc802",
    ("double-cylinder-2", 257): "d23b680485334a8f19cd3971da52f62ab351962cf816f9d783523c5e9f76b7b2",
    ("toeplitz-basis", 8): "813918de6287ad2b03322543432efe722514e155ca57dbba09e28ac93a77a821",
    ("toeplitz-basis", 64): "a4a6a5dcad992dfad8945c1f757a9fd009686e2a0402b9a399a92792ea3f3d8e",
    ("toeplitz-basis", 257): "57b908ff0da8002de5c9efab74d1a21a5b65aa5d5a1549912adaaadeef2d129f",
    ("clifford-x1-y1", 8): "8d886b43ce7d6909ec9977fffc265c8c02de013767c5e3454efc638d85b29056",
    ("clifford-x1-y1", 64): "f5d5e60e85fe460867ee70a4849afd72a9df5683a8246966c6a60b3254602104",
    ("clifford-x1-y1", 257): "c695284d1c1c3d41204a2e15950d00945a2aab649955d22f65785c719457f87b",
}


@pytest.mark.parametrize("name, n", sorted(DIGESTS), ids=lambda v: str(v))
def test_coordinate_bytes_are_pinned(name, n):
    blob = b"".join(M.data.tobytes() for M in CASES[name](n))
    assert hashlib.sha256(blob).hexdigest() == DIGESTS[name, n]
