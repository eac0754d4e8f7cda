"""How ``iter_tile_batches`` cuts a tile plan into chunks and waves.

Each row of ``SPLITS`` is one plan: its tile count, the batch size and
thread count it runs with, and the chunk sizes expected in yield order.
The plan is cut into ``ceil(tiles / batch)`` chunks, rounded up to whole
waves of ``threads`` chunks and capped at one tile per chunk; chunk
sizes differ by at most one.  The first eight rows are the plans of the
``tiled_sr`` benchmark sizes (32 px tiles, 8 px overlap) at the engine's
default batch of 8 on 2 threads.
"""

import numpy as np
import pytest

from repro.infer import plan_tiles
from repro.infer.tiling import iter_tile_batches

from ..helpers import parse_table

SPLITS = """
  case                     | tiles | batch | threads | chunks
  -------------------------+-------+-------+---------+------------------------
  96x96                    |    16 |     8 |       2 | 8 8
  96x160                   |    28 |     8 |       2 | 7 7 7 7
  104x136                  |    24 |     8 |       2 | 6 6 6 6
  118x150                  |    30 |     8 |       2 | 8 8 7 7
  128x128                  |    25 |     8 |       2 | 7 6 6 6
  136x100                  |    24 |     8 |       2 | 6 6 6 6
  150x118                  |    30 |     8 |       2 | 8 8 7 7
  160x160                  |    49 |     8 |       2 | 7 6 6 6 6 6 6 6
  batch-3                  |    25 |     3 |       2 | 3 3 3 3 3 2 2 2 2 2
  four-threads             |    25 |     3 |       4 | 3 2 2 2 2 2 2 2 2 2 2 2
  fewer-tiles-than-threads |     3 |     8 |       4 | 1 1 1
  one-tile                 |     1 |     8 |       2 | 1
  one-thread               |    25 |     8 |       1 | 7 6 6 6
  one-thread-exact         |    16 |     8 |       1 | 8 8
  one-thread-batch-1       |     3 |     1 |       1 | 1 1 1
  batch-equals-tiles       |    16 |    16 |       2 | 8 8
  batch-over-tiles         |     5 |     8 |       2 | 3 2
  one-thread-big-batch     |     5 |     8 |       1 | 5
"""


def _cases():
    return [pytest.param(int(row["tiles"]), int(row["batch"]),
                         int(row["threads"]),
                         [int(n) for n in row["chunks"].split()],
                         id=row["case"])
            for row in parse_table(SPLITS)]


def _identity(x):
    return x


@pytest.mark.parametrize("tiles,batch,threads,expected", _cases())
def test_wave_split(tiles, batch, threads, expected):
    # A 1 x tiles strip of 1 px tiles whose pixel values are the tile
    # indices: each output row names the tile it came from.
    plan = plan_tiles(1, tiles, tile=1, overlap=0)
    assert len(plan) == tiles
    data = np.arange(tiles, dtype=np.float64).reshape(1, 1, 1, tiles)
    chunks = list(iter_tile_batches(_identity, data, plan, batch,
                                    n_threads=threads))
    sizes = [len(indices) for indices, _ in chunks]
    assert sizes == expected
    assert max(sizes) <= batch
    assert [t for indices, _ in chunks for t in indices] == list(range(tiles))
    for indices, out in chunks:
        assert out.ravel().tolist() == list(indices)


def test_table_sizes_are_the_tiled_sr_plans():
    for row in parse_table(SPLITS)[:8]:
        h, w = (int(n) for n in row["case"].split("x"))
        assert len(plan_tiles(h, w, tile=32, overlap=8)) == int(row["tiles"])
