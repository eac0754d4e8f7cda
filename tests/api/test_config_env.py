"""Execution settings: one home and one rule each.

``REPRO_NUM_THREADS`` has one reader, ``get_num_threads()``, and
``EngineConfig(n_threads=None)`` means that process default, read when
the engine runs.  ``n_threads``, ``dtype`` and a set tile geometry are
checked when a config is built, by the rule the code applying them
uses, on every surface that takes them.
"""

import os
import threading
from dataclasses import fields, replace

import numpy as np
import pytest

from repro.api import Engine, EngineConfig
from repro.grad import Tensor
from repro.infer import InferencePipeline, get_num_threads, plan_tiles
from repro.nn import Module
from repro.serve import ServerConfig
from repro.stream import StreamConfig

from ..helpers import parse_table


class _ThreadProbe(Module):
    """Identity model recording which thread ran each forward."""

    def __init__(self):
        super().__init__()
        self.threads = []

    def forward(self, x):
        self.threads.append(threading.current_thread().name)
        return Tensor(x.data)


class TestProcessDefault:
    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_NUM_THREADS", raising=False)
        assert EngineConfig().n_threads is None
        assert get_num_threads() == (os.cpu_count() or 1)

    def test_env_sets_the_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "3")
        assert EngineConfig().n_threads is None
        assert get_num_threads() == 3

    def test_explicit_arg_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "3")
        assert EngineConfig(n_threads=2).n_threads == 2

    def test_default_is_read_when_the_engine_runs(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "1")
        probe = _ThreadProbe()
        engine = Engine("srresnet", config=EngineConfig(batch_size=1),
                        compiled=probe)
        monkeypatch.setenv("REPRO_NUM_THREADS", "2")
        images = [np.zeros((4, 4, 3)) for _ in range(2)]
        assert all(r.ok for r in engine.infer_many(images))
        # Two one-image batches at 2 threads run on the pool, never
        # inline on the calling thread.
        assert len(probe.threads) == 2
        assert all(name.startswith("repro-infer") for name in probe.threads)


class TestValidation:
    def test_invalid_env_value_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "many")
        with pytest.raises(ValueError, match="REPRO_NUM_THREADS"):
            get_num_threads()

    def test_invalid_explicit_value(self):
        with pytest.raises(ValueError, match="n_threads"):
            EngineConfig(n_threads=0)

    def test_invalid_thread_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "0")
        with pytest.raises(ValueError, match="REPRO_NUM_THREADS"):
            get_num_threads()

    def test_batch_size_validated(self):
        with pytest.raises(ValueError, match="batch_size"):
            EngineConfig(batch_size=0)


SETTINGS = """
  surface  | setting   | value   | accepted
  ---------+-----------+---------+---------
  engine   | n_threads | 0       | no
  engine   | n_threads | 1       | yes
  server   | n_threads | 0       | no
  server   | n_threads | -1      | no
  server   | n_threads | 2       | yes
  pipeline | n_threads | 0       | no
  pipeline | n_threads | 1       | yes
  engine   | dtype     | float16 | no
  engine   | dtype     | bogus   | no
  engine   | dtype     | float32 | yes
  server   | dtype     | float16 | no
  server   | dtype     | bogus   | no
  server   | dtype     | float64 | yes
"""

SETTING_ROWS = parse_table(SETTINGS)


def _build(surface, setting, value):
    kwargs = {setting: int(value) if setting == "n_threads" else value}
    if surface == "engine":
        return EngineConfig(**kwargs)
    if surface == "server":
        return ServerConfig(**kwargs)
    return InferencePipeline(_ThreadProbe(), **kwargs)


@pytest.mark.parametrize(
    "row", SETTING_ROWS,
    ids=["-".join((r["surface"], r["setting"], r["value"]))
         for r in SETTING_ROWS])
def test_setting_is_checked_when_built(row):
    """Every surface taking ``n_threads`` or ``dtype`` refuses a value
    the code applying it would refuse, when it is built."""
    if row["accepted"] == "yes":
        _build(row["surface"], row["setting"], row["value"])
    else:
        with pytest.raises(ValueError, match=row["setting"]):
            _build(row["surface"], row["setting"], row["value"])


GEOMETRY = """
  case              | tile | overlap | accepted
  ------------------+------+---------+---------
  overlap-is-tile   |    8 |       8 | no
  overlap-over-tile |    4 |       5 | no
  zero-tile         |    0 |       0 | no
  negative-overlap  |    8 |      -1 | no
  widest-overlap    |    8 |       7 | yes
  one-pixel-tile    |    1 |       0 | yes
"""

GEOMETRY_ROWS = {row["case"]: row for row in parse_table(GEOMETRY)}
TILED_SURFACES = ("engine", "stream", "pipeline", "plan_tiles")


def _tiled(surface, tile, overlap):
    if surface == "engine":
        return EngineConfig(tile=tile, tile_overlap=overlap)
    if surface == "stream":
        return StreamConfig(tile=tile, overlap=overlap)
    if surface == "pipeline":
        return InferencePipeline(_ThreadProbe(), tile=tile,
                                 tile_overlap=overlap, scale=1)
    return plan_tiles(16, 16, tile, overlap)


@pytest.mark.parametrize("surface", TILED_SURFACES)
@pytest.mark.parametrize("case", list(GEOMETRY_ROWS))
def test_tile_geometry_is_checked_when_set(case, surface):
    """One rule (``check_tile_geometry``) on every tiled surface: a
    geometry ``plan_tiles`` would refuse fails when it is set, not on
    every later call."""
    row = GEOMETRY_ROWS[case]
    tile, overlap = int(row["tile"]), int(row["overlap"])
    if row["accepted"] == "yes":
        _tiled(surface, tile, overlap)
    else:
        with pytest.raises(ValueError, match="tile|overlap"):
            _tiled(surface, tile, overlap)


class TestScopeAndMapping:
    def test_scope_dtype(self):
        # the dtype applies to the calling thread only: another thread
        # keeps the process default while the scope is active
        from repro.grad import get_default_dtype
        ambient = get_default_dtype()
        seen = []
        with EngineConfig(dtype="float32").scope():
            assert get_default_dtype() == np.float32
            other = threading.Thread(
                target=lambda: seen.append(get_default_dtype()))
            other.start()
            other.join()
        assert seen == [ambient]
        assert get_default_dtype() == ambient

    def test_fields_are_the_engine_settings(self):
        assert [f.name for f in fields(EngineConfig)] == [
            "n_threads", "dtype", "seed", "batch_size", "tile",
            "tile_overlap"]

    def test_to_server_config(self):
        config = EngineConfig(batch_size=4, n_threads=2, dtype="float32")
        assert config.to_server_config() == replace(
            ServerConfig(), max_batch=4, n_threads=2, dtype="float32")
