"""The acceptance round-trip: Engine lifecycle vs the hand-wired layers.

Proves the facade adds types, not numerics:

* ``Engine.from_spec -> train -> compile -> export -> Engine.from_artifact
  -> infer`` is bit-identical to the equivalent hand-wired
  ``compile_model`` + ``InferencePipeline`` path;
* ``Engine.serve`` (a ModelServer round-trip) returns the same typed
  ``InferResult`` objects — with bit-identical images — as
  ``Engine.infer`` for identical inputs;
* ``Engine.from_artifact -> infer`` matches a direct
  ``InferencePipeline`` on the same artifact across >= 3 deployable
  zoo cells.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.api import Engine, EngineConfig, EngineError, InferResult, ModelSpec
from repro.data import training_pool
from repro.deploy import compile_model, load_artifact, read_artifact_meta
from repro.infer import InferencePipeline
from repro.nn import init
from repro.train import TrainConfig

SPEC = ModelSpec("srresnet", scheme="scales", scale=2,
                 overrides={"light_tail": True, "head_kernel": 3})


def _images(n=3, shape=(12, 12, 3), seed=0):
    rng = np.random.default_rng(seed)
    return [rng.random(shape).astype(np.float32) for _ in range(n)]


@pytest.fixture(scope="module")
def trained_engine():
    engine = Engine.from_spec(SPEC, config=EngineConfig(seed=3))
    pool = training_pool(scale=2, n_images=4, size=(32, 32))
    engine.train(pool, TrainConfig(steps=12, batch_size=4, patch_size=8,
                                   seed=5, log_every=1000))
    return engine


@pytest.fixture(scope="module")
def hand_wired(trained_engine):
    """The same trained weights driven through the layers by hand."""
    compiled = compile_model(trained_engine.model)
    return InferencePipeline(compiled, batch_size=8)


class TestAcceptanceRoundTrip:
    def test_full_lifecycle_is_bit_identical_to_hand_wiring(
            self, trained_engine, hand_wired, tmp_path):
        images = _images()
        path = trained_engine.export(tmp_path / "roundtrip.rbd.npz")
        assert path.exists()
        assert trained_engine.state == "exported"

        served = Engine.from_artifact(path)
        assert served.spec == SPEC
        assert served.state == "exported"
        facade = served.infer_many(images)
        reference = hand_wired.map(images)
        for result, expected in zip(facade, reference):
            assert isinstance(result, InferResult)
            assert result.ok and result.model == SPEC.key
            assert np.array_equal(result.unwrap(), expected)

    def test_engine_infer_matches_hand_wiring_pre_export(
            self, trained_engine, hand_wired):
        images = _images(seed=1)
        trained_engine.compile()
        for result, expected in zip(trained_engine.infer_many(images),
                                    hand_wired.map(images)):
            assert np.array_equal(result.unwrap(), expected)

    def test_serve_returns_same_typed_results_as_infer(
            self, trained_engine, tmp_path):
        images = _images(seed=2)
        trained_engine.export(tmp_path / "serve.rbd.npz")
        direct = trained_engine.infer_many(images)
        with trained_engine.serve() as session:
            served = session.infer_many(images)
            # and via the non-blocking ticket path
            tickets = [session.submit(img) for img in images]
            session.server.drain()
            ticketed = [t.result(timeout=60) for t in tickets]
        for a, b, c in zip(direct, served, ticketed):
            assert type(a) is type(b) is type(c) is InferResult
            assert a.status == b.status == c.status == "ok"
            assert a.model == b.model == c.model == SPEC.key
            assert np.array_equal(a.image, b.image)
            assert np.array_equal(a.image, c.image)


# Three deployable zoo cells (matching the model_server example's zoo):
ZOO_CELLS = [
    ModelSpec("srresnet", scheme="scales", scale=2),
    ModelSpec("edsr", scheme="e2fif", scale=2),
    ModelSpec("rdn", scheme="scales_lsf", scale=2),
]


class TestArtifactBitIdentityAcrossZoo:
    @pytest.mark.parametrize("spec", ZOO_CELLS, ids=lambda s: s.route)
    def test_from_artifact_matches_direct_pipeline(self, spec, tmp_path):
        engine = Engine.from_spec(spec, config=EngineConfig(seed=11))
        path = engine.export(tmp_path / spec.artifact_name())
        images = _images(n=2, shape=(10, 14, 3))

        facade = Engine.from_artifact(path).infer_many(images)
        direct = InferencePipeline(
            load_artifact(path), batch_size=8).map(images)
        for result, expected in zip(facade, direct):
            assert np.array_equal(result.unwrap(), expected)


class TestLifecycleStates:
    def test_infer_works_on_uncompiled_float_model(self):
        engine = Engine.from_spec(SPEC, config=EngineConfig(seed=0))
        assert engine.state == "spec"
        result = engine.infer(_images(n=1)[0])
        assert result.ok and result.image.shape == (24, 24, 3)

    def test_infer_leaves_a_float_model_in_eval_mode(self):
        # Inference never restores the mode it found: a thread that
        # restored training mode would do so under another's forward.
        engine = Engine.from_spec("edsr", scheme="e2fif", scale=2,
                                  preset="tiny", config=EngineConfig(seed=0))
        assert engine.model.training  # its BatchNorm layers would train
        assert engine.infer(_images(n=1)[0]).ok
        assert not engine.model.training

    def test_concurrent_infer_matches_serial_in_eval_mode(self):
        engine = Engine.from_spec("edsr", scheme="e2fif", scale=2,
                                  preset="tiny", config=EngineConfig(seed=0))
        images = _images(n=8, seed=1)
        serial = [engine.infer(image).unwrap() for image in images]
        engine.model.train()
        with ThreadPoolExecutor(4) as pool:
            outputs = list(pool.map(
                lambda i: engine.infer(images[i % 8]).unwrap(), range(32)))
        for i, output in enumerate(outputs):
            np.testing.assert_array_equal(output, serial[i % 8])
        assert not engine.model.training

    def test_train_invalidates_compiled_state(self, tmp_path):
        engine = Engine.from_spec(SPEC, config=EngineConfig(seed=0))
        engine.export(tmp_path / "stale.rbd.npz")
        assert engine.state == "exported"
        pool = training_pool(scale=2, n_images=2, size=(24, 24))
        engine.train(pool, TrainConfig(steps=2, batch_size=2, patch_size=8,
                                       log_every=1000))
        assert engine.state == "spec"

    def test_artifact_backed_engine_refuses_training(self, tmp_path):
        path = Engine.from_spec(
            SPEC, config=EngineConfig(seed=0)).export(tmp_path / "a.rbd.npz")
        with pytest.raises(EngineError, match="no float model"):
            Engine.from_artifact(path).train()

    def test_undeployable_cell_fails_before_work(self):
        engine = Engine.from_spec("srresnet", scheme="fp",
                                  config=EngineConfig(seed=0))
        with pytest.raises(EngineError, match="coverage"):
            engine.compile()
        with pytest.raises(EngineError, match="coverage"):
            engine.export()

    def test_tiled_config_is_bit_identical(self, tmp_path):
        image = _images(n=1, shape=(20, 20, 3))[0]
        engine = Engine.from_spec(SPEC, config=EngineConfig(seed=4))
        plain = engine.infer(image).unwrap()
        tiled_engine = Engine.from_spec(
            SPEC, config=EngineConfig(seed=4, tile=8, tile_overlap=4))
        assert np.array_equal(tiled_engine.infer(image).unwrap(), plain)

    def test_tiling_stays_in_the_config_not_the_artifact(self, tmp_path):
        image = _images(n=1, shape=(20, 20, 3))[0]
        config = EngineConfig(seed=4, tile=8, tile_overlap=4, batch_size=5)
        engine = Engine.from_spec(SPEC, config=config)
        path = engine.export(tmp_path / "tiled.rbd.npz")
        assert "tiling" not in read_artifact_meta(path)
        served = Engine.from_artifact(path, config)
        assert np.array_equal(served.infer(image).unwrap(),
                              engine.infer(image).unwrap())

    def test_dtype_scope_matches_hand_wiring_under_same_dtype(self):
        from repro import grad as G
        engine = Engine.from_spec(SPEC, config=EngineConfig(seed=6,
                                                            dtype="float32"))
        engine.compile()
        image = _images(n=1)[0]
        facade = engine.infer(image).unwrap()
        with G.default_dtype("float32"):
            init.seed(6)
            model = SPEC.build()
            direct = InferencePipeline(compile_model(model),
                                       batch_size=8).map([image])[0]
        assert np.array_equal(facade, direct)


class TestFromSpecKeywords:
    def test_explicit_overrides_keyword(self):
        engine = Engine.from_spec(
            "srresnet", scheme="scales",
            overrides={"light_tail": True, "head_kernel": 3})
        assert engine.spec == ModelSpec(
            "srresnet", scheme="scales",
            overrides={"light_tail": True, "head_kernel": 3})

    def test_bare_keywords_merge_over_overrides_dict(self):
        engine = Engine.from_spec("srresnet", scheme="scales",
                                  overrides={"n_feats": 16}, n_feats=8)
        assert engine.spec.overrides["n_feats"] == 8

    def test_spec_plus_extra_keywords_raises(self):
        with pytest.raises(EngineError, match="overrides"):
            Engine.from_spec(SPEC, light_tail=False)

    def test_recipe_dict_spec(self):
        engine = Engine.from_spec(SPEC.to_recipe(),
                                  config=EngineConfig(seed=0))
        assert engine.spec == SPEC


class TestRequestRouting:
    def test_matching_request_model_is_accepted(self):
        from repro.api import InferRequest
        engine = Engine.from_spec(SPEC, config=EngineConfig(seed=0))
        result = engine.infer(InferRequest(image=_images(n=1)[0],
                                           model=SPEC.key))
        assert result.ok

    def test_mismatched_request_model_raises(self):
        from repro.api import InferRequest
        engine = Engine.from_spec(SPEC, config=EngineConfig(seed=0))
        with pytest.raises(EngineError, match="multi-model routing"):
            engine.infer(InferRequest(image=_images(n=1)[0],
                                      model=("edsr", "e2fif", 2)))


class TestTypedErrors:
    class _Broken:
        training = False

        def eval(self):
            return self

        def train(self, mode=True):
            return self

        def __call__(self, x):
            raise RuntimeError("kaboom")

    def test_execution_failure_is_a_typed_result(self):
        engine = Engine(SPEC, model=self._Broken())
        result = engine.infer(_images(n=1)[0])
        assert isinstance(result, InferResult)
        assert result.status == "error"
        assert "kaboom" in result.detail
        with pytest.raises(EngineError, match="kaboom"):
            result.unwrap()

    def test_failed_flush_does_not_poison_the_pipeline(self):
        engine = Engine(SPEC, model=self._Broken())
        engine.infer(_images(n=1)[0])
        assert engine.pipeline().pending() == 0

    def test_failed_forward_fails_only_its_own_image(self):
        engine = Engine.from_spec(SPEC, config=EngineConfig(seed=0))
        good = _images(n=2)
        bad = np.zeros((12, 12, 4), np.float32)  # the head needs 3 channels
        results = engine.infer_many([good[0], bad, good[1]])
        assert [r.status for r in results] == ["ok", "error", "ok"]
        assert "Error" in results[1].detail
        for image, result in zip(good, (results[0], results[2])):
            np.testing.assert_array_equal(result.unwrap(),
                                          engine.infer(image).unwrap())

    def test_result_unwrap_on_success(self):
        image = np.zeros((2, 2, 3))
        assert np.array_equal(InferResult.success(image).unwrap(), image)

    def test_engine_without_model(self):
        with pytest.raises(EngineError, match="no model"):
            Engine(SPEC).infer(_images(n=1)[0])

    def test_bad_image_rejected_before_stranding_batchmates(self):
        engine = Engine.from_spec(SPEC, config=EngineConfig(seed=0))
        good = _images(n=1)[0]
        with pytest.raises(EngineError, match=r"\(H, W, C\)"):
            engine.infer_many([good, np.zeros((4, 4))])
        # the valid batch-mate must not be left queued for a handle
        # nobody holds
        assert engine.pipeline().pending() == 0
        assert engine.infer(good).ok


class TestCrossSurfaceDtypeParity:
    def test_serve_matches_infer_under_non_default_dtype(self, tmp_path):
        """The PR 5 parity gap, closed: with ``EngineConfig.dtype``
        non-default (float32 under the float64 process default),
        ``Engine.serve`` must be bit-identical to ``Engine.infer`` —
        the configured dtype rides into the server and scopes every
        flush thread, instead of flushes running under the ambient
        process default."""
        init.seed(0)
        engine = Engine.from_spec(
            "srresnet", scheme="scales", scale=2, preset="tiny",
            config=EngineConfig(dtype="float32", seed=7))
        engine.export(tmp_path / "parity.rbd.npz")
        images = _images(seed=9)
        direct = [r.unwrap() for r in engine.infer_many(images)]
        assert all(out.dtype == np.float32 for out in direct)
        with engine.serve() as session:
            served = [r.unwrap() for r in session.infer_many(images)]
        for a, b in zip(direct, served):
            assert b.dtype == np.float32
            assert np.array_equal(a, b)
