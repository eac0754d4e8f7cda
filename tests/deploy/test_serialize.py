"""Packed deploy artifacts: save/load round-trips and the wiring."""

import gc
import json
import warnings

import numpy as np
import pytest

from repro import grad as G
from repro.binarize.baselines import E2FIFBinaryConv2d
from repro.deploy import (artifact_report, compile_model, deployment_report,
                          load_artifact, read_artifact_meta, save_artifact,
                          scan_artifact_dir)
from repro.grad import Tensor, no_grad
from repro.infer import InferencePipeline
from repro.models import build_model
from repro.nn import Sequential, init
from repro.train import super_resolve

from ..oracles import reference_packed


@pytest.fixture(autouse=True)
def _float32():
    with G.default_dtype("float32"):
        yield


def _forward(model, x):
    model.eval()
    with no_grad():
        return model(Tensor(x)).data


def _compiled_srresnet(scheme="scales"):
    init.seed(31)
    model = build_model("srresnet", scale=2, scheme=scheme, preset="tiny")
    return model, compile_model(model)


class TestSaveLoadRoundTrip:
    def test_bit_identical_forward(self, tmp_path):
        _, compiled = _compiled_srresnet()
        path = save_artifact(compiled, tmp_path / "m.rbd.npz")
        loaded = load_artifact(path)
        x = np.random.default_rng(0).random((2, 3, 9, 8)).astype(np.float32)
        np.testing.assert_array_equal(_forward(loaded, x),
                                      _forward(compiled, x))

    def test_reference_backend_round_trips_too(self, tmp_path):
        _, compiled = _compiled_srresnet()
        path = save_artifact(compiled, tmp_path / "m.rbd.npz")
        loaded = load_artifact(path)
        x = np.random.default_rng(1).random((1, 3, 8, 8)).astype(np.float32)
        with reference_packed():
            np.testing.assert_array_equal(_forward(loaded, x),
                                          _forward(compiled, x))

    def test_no_float_binary_weights_on_disk(self, tmp_path):
        model, compiled = _compiled_srresnet()
        path = save_artifact(compiled, tmp_path / "m.rbd.npz")
        meta = read_artifact_meta(path)
        packed_paths = {layer["path"] for layer in meta["layers"]}
        assert packed_paths  # srresnet body convs
        with np.load(path) as data:
            state_keys = [k for k in data.files if k.startswith("state:")]
            for key in state_keys:
                parent = key[len("state:"):].rsplit(".", 1)[0]
                assert parent not in packed_paths
            # The binary weights occupy uint64 words, not floats.
            for i in range(len(meta["layers"])):
                assert data[f"layer{i}:packed"].dtype == np.uint64

    def test_artifact_smaller_than_float_checkpoint(self, tmp_path):
        model, compiled = _compiled_srresnet()
        artifact = save_artifact(compiled, tmp_path / "m.rbd.npz")
        float_ckpt = tmp_path / "float.npz"
        model.save(str(float_ckpt))
        assert artifact.stat().st_size < float_ckpt.stat().st_size

    def test_recipe_survives(self, tmp_path):
        _, compiled = _compiled_srresnet()
        meta = read_artifact_meta(save_artifact(compiled, tmp_path / "m.npz"))
        assert meta["recipe"]["architecture"] == "srresnet"
        assert meta["recipe"]["scheme"] == "scales"
        assert meta["recipe"]["scale"] == 2

    def test_bn_running_stats_restored(self, tmp_path):
        init.seed(32)
        model = build_model("srresnet", scale=2, scheme="e2fif", preset="tiny")
        # Push the running stats away from init, as training would.
        model.train()
        x = np.random.default_rng(2).random((2, 3, 8, 8)).astype(np.float32)
        with no_grad():
            model(Tensor(x))
        compiled = compile_model(model)
        path = save_artifact(compiled, tmp_path / "m.npz")
        loaded = load_artifact(path)
        np.testing.assert_array_equal(_forward(loaded, x),
                                      _forward(compiled, x))


class TestCrashSafeExport:
    def test_save_leaves_no_temp_files(self, tmp_path):
        _, compiled = _compiled_srresnet()
        path = save_artifact(compiled, tmp_path / "m.rbd.npz")
        save_artifact(compiled, path)  # overwrite in place
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        assert read_artifact_meta(path)["layers"]

    def test_interrupted_export_leaves_old_artifact_or_nothing(
        self, tmp_path, monkeypatch
    ):
        """save_artifact writes through a temp file + atomic rename: a
        failure mid-serialization must leave the previous artifact
        bytes untouched (old-or-nothing, never a truncated .npz)."""
        _, compiled = _compiled_srresnet()
        path = save_artifact(compiled, tmp_path / "m.rbd.npz")
        before = path.read_bytes()

        real_savez = np.savez

        def dying_savez(fh, **arrays):
            # Emit some bytes first, as a real mid-write crash would.
            real_savez(fh, **dict(list(arrays.items())[:1]))
            raise OSError("disk on fire")

        monkeypatch.setattr(np, "savez", dying_savez)
        with pytest.raises(OSError, match="disk on fire"):
            save_artifact(compiled, path)
        # Old artifact intact, temp file cleaned up.
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        assert read_artifact_meta(path)["layers"]


class TestTilingIsNotStored:
    """Tiling is an inference setting (``EngineConfig.tile``): artifacts
    carry none, and the ``tiling`` block of older ones is ignored."""

    def test_artifact_meta_has_no_tiling(self, tmp_path):
        _, compiled = _compiled_srresnet()
        path = save_artifact(compiled, tmp_path / "m.npz")
        assert "tiling" not in read_artifact_meta(path)

    def test_stored_tiling_block_loads_bare(self, tmp_path):
        _, compiled = _compiled_srresnet()
        path = save_artifact(compiled, tmp_path / "m.npz")
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(str(arrays["__meta__"][()]))
        meta["tiling"] = {"tile": 12, "overlap": 4, "batch_size": 4}
        arrays["__meta__"] = np.array(json.dumps(meta))
        old = tmp_path / "old.npz"
        np.savez(old, **arrays)
        loaded = load_artifact(old)
        assert type(loaded) is type(compiled)
        # 20x20 is larger than the stored tile: a tiled load would blend.
        x = np.random.default_rng(3).random((1, 3, 20, 20)).astype(np.float32)
        np.testing.assert_array_equal(_forward(loaded, x),
                                      _forward(compiled, x))

    def test_tile_argument_accepts_only_none(self, tmp_path):
        _, compiled = _compiled_srresnet()
        path = save_artifact(compiled, tmp_path / "m.npz")
        assert type(load_artifact(path, tile=None)) is type(compiled)
        for tile in (16, "auto"):
            with pytest.raises(ValueError, match="EngineConfig.tile"):
                load_artifact(path, tile=tile)


class TestCompileFreeze:
    def test_freeze_path_writes_artifact(self, tmp_path):
        model, _ = _compiled_srresnet()
        target = tmp_path / "frozen.rbd.npz"
        compiled = compile_model(model, freeze=target)
        assert compiled.artifact_path == target
        assert target.exists()
        x = np.random.default_rng(4).random((1, 3, 8, 8)).astype(np.float32)
        np.testing.assert_array_equal(_forward(load_artifact(target), x),
                                      _forward(compiled, x))

    def test_freeze_true_uses_canonical_name(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        model, _ = _compiled_srresnet()
        compiled = compile_model(model, freeze=True)
        assert compiled.artifact_path.name == "srresnet_scales_x2_tiny.rbd.npz"
        assert (tmp_path / compiled.artifact_path.name).exists()


class TestSkeletonLoading:
    def _toy(self):
        init.seed(33)
        return Sequential(E2FIFBinaryConv2d(3, 3, 3),
                          E2FIFBinaryConv2d(3, 3, 3))

    def test_hand_built_model_needs_skeleton(self, tmp_path):
        compiled = compile_model(self._toy())
        with pytest.raises(ValueError, match="explicit path"):
            save_artifact(compiled)
        path = save_artifact(compiled, tmp_path / "toy.npz")
        with pytest.raises(ValueError, match="skeleton"):
            load_artifact(path)

    def test_loads_into_matching_skeleton(self, tmp_path):
        compiled = compile_model(self._toy())
        path = save_artifact(compiled, tmp_path / "toy.npz")
        init.seed(99)  # different float init: must not matter
        loaded = load_artifact(path, skeleton=self._toy())
        x = np.random.default_rng(5).random((1, 3, 7, 7)).astype(np.float32)
        np.testing.assert_array_equal(_forward(loaded, x),
                                      _forward(compiled, x))

    def test_mismatched_skeleton_rejected(self, tmp_path):
        compiled = compile_model(self._toy())
        path = save_artifact(compiled, tmp_path / "toy.npz")
        wrong = Sequential(E2FIFBinaryConv2d(3, 3, 3))
        with pytest.raises((KeyError, ValueError)):
            load_artifact(path, skeleton=wrong)


class TestErrors:
    def test_uncompiled_model_rejected(self, tmp_path):
        init.seed(34)
        model = build_model("srresnet", scale=2, scheme="scales",
                            preset="tiny")
        with pytest.raises(ValueError, match="no packed layers"):
            save_artifact(model, tmp_path / "m.npz")

    def test_non_artifact_file_rejected(self, tmp_path):
        path = tmp_path / "random.npz"
        np.savez(path, a=np.zeros(3))
        with pytest.raises(ValueError, match="not a packed deploy artifact"):
            read_artifact_meta(path)

    def test_scanning_a_truncated_artifact_closes_its_file(self, tmp_path):
        _, compiled = _compiled_srresnet()
        good = save_artifact(compiled, tmp_path / "a.npz")
        (tmp_path / "b.npz").write_bytes(good.read_bytes()[:100])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            artifacts, skipped = scan_artifact_dir(tmp_path)
            gc.collect()
        assert [p.name for p, _ in skipped] == ["b.npz"]
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]


class TestArtifactReport:
    def test_matches_live_report(self, tmp_path):
        _, compiled = _compiled_srresnet()
        path = save_artifact(compiled, tmp_path / "m.npz")
        assert artifact_report(path) == deployment_report(compiled)

    def test_deployment_report_accepts_path(self, tmp_path):
        _, compiled = _compiled_srresnet()
        path = save_artifact(compiled, tmp_path / "m.npz")
        assert deployment_report(str(path)) == deployment_report(compiled)


class TestServingFromArtifact:
    def test_pipeline_accepts_artifact_path(self, tmp_path):
        _, compiled = _compiled_srresnet()
        path = save_artifact(compiled, tmp_path / "m.npz")
        pipeline = InferencePipeline(str(path), batch_size=2)
        rng = np.random.default_rng(6)
        images = [rng.random((8, 8, 3)).astype(np.float32) for _ in range(3)]
        outputs = pipeline.map(images)
        for img, out in zip(images, outputs):
            np.testing.assert_allclose(
                out, np.clip(super_resolve(compiled, img), 0, 1), atol=1e-6)
