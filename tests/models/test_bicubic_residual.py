"""``bicubic_residual`` resizes a whole batch in one call.

Each row runs one random ``(batch, channels, h, w)`` input at one scale
and dtype, and the output must equal the seed per-image loop
(:func:`tests.oracles.bicubic_residual_reference`) bit for bit.  The
rows cover the serving tiles (16x16 and 32x32, batches of 8 and 16),
odd sizes, one-pixel rows and columns, scales 1-4 and both dtypes.
With one channel and one column an image has one value per row, the
case that resizes one image at a time (``c1-w1`` rows).
"""

import numpy as np
import pytest

from repro import grad as G
from repro.data.resize import _contributions
from repro.grad import Tensor
from repro.models.common import bicubic_residual

from ..helpers import parse_table
from ..oracles import bicubic_residual_reference

CASES = """
  case          | batch | channels | h  | w  | scale | dtype
  --------------+-------+----------+----+----+-------+--------
  stream-tile   |     8 |        3 | 16 | 16 |     2 | float32
  stream-tile64 |     8 |        3 | 16 | 16 |     2 | float64
  flush-16      |    16 |        3 | 16 | 16 |     2 | float32
  tiled-tile    |     4 |        3 | 32 | 32 |     2 | float32
  tiled-tile64  |     4 |        3 | 32 | 32 |     2 | float64
  one-image     |     1 |        3 | 16 | 16 |     2 | float32
  odd-x3        |     3 |        3 | 17 | 23 |     3 | float32
  odd-x4        |     5 |        3 |  9 | 31 |     4 | float64
  odd-x2        |     2 |        3 | 13 |  7 |     2 | float64
  scale-1       |     4 |        3 | 16 | 16 |     1 | float32
  one-row       |     4 |        3 |  1 | 16 |     2 | float32
  one-column    |     4 |        3 | 16 |  1 |     3 | float64
  one-pixel     |     6 |        3 |  1 |  1 |     4 | float32
  c1-w1         |     4 |        1 | 16 |  1 |     2 | float64
  c1-w1-x3      |     3 |        1 |  5 |  1 |     3 | float32
  c1            |     4 |        1 | 16 | 16 |     2 | float32
"""

ROWS = parse_table(CASES)


@pytest.mark.parametrize("row", ROWS, ids=[r["case"] for r in ROWS])
def test_batched_residual_matches_the_per_image_loop(row):
    shape = tuple(int(row[k]) for k in ("batch", "channels", "h", "w"))
    scale = int(row["scale"])
    rng = np.random.default_rng(sum(shape) + scale)
    with G.default_dtype(row["dtype"]):
        # Past [0, 1] on both sides, so the resize's clip is exercised.
        x = Tensor(rng.random(shape) * 1.4 - 0.2)
        got = bicubic_residual(x, scale).data
        want = bicubic_residual_reference(x, scale).data
    assert got.dtype == want.dtype == np.dtype(row["dtype"])
    assert got.shape == (shape[0], shape[1], shape[2] * scale,
                         shape[3] * scale)
    np.testing.assert_array_equal(got, want)


def test_contributions_are_memoized_and_read_only():
    indices, weights = _contributions(16, 32, 2.0, False)
    again = _contributions(16, 32, 2.0, False)
    assert again[0] is indices and again[1] is weights
    for array in (indices, weights):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0, 0] = 0
