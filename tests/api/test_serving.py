"""ServeSession: typed results over a multi-model artifact zoo."""

import numpy as np
import pytest

from repro.api import (Engine, EngineConfig, EngineError, InferRequest,
                       InferResult, ModelSpec, serve_directory)
from repro.serve import ServerConfig

SPECS = [
    ModelSpec("srresnet", scheme="scales", scale=2),
    ModelSpec("edsr", scheme="e2fif", scale=2),
]


@pytest.fixture(scope="module")
def zoo_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("zoo")
    for spec in SPECS:
        Engine.from_spec(spec, config=EngineConfig(seed=9)).export(
            directory / spec.artifact_name())
    return directory


def _image(seed=0, shape=(10, 10, 3)):
    return np.random.default_rng(seed).random(shape).astype(np.float32)


class TestServeSession:
    def test_serves_every_artifact_with_typed_results(self, zoo_dir):
        with serve_directory(zoo_dir) as session:
            assert session.available_models == \
                tuple(sorted(s.key for s in SPECS))
            for spec in SPECS:
                result = session.infer(_image(), model=spec)
                assert isinstance(result, InferResult)
                assert result.ok and result.model == spec.key
                assert result.image.shape == (20, 20, 3)

    def test_route_strings_and_infer_requests(self, zoo_dir):
        with serve_directory(zoo_dir) as session:
            by_route = session.infer(_image(), model="srresnet/scales/x2")
            by_request = session.infer(
                InferRequest(image=_image(), model=SPECS[0].key))
            assert np.array_equal(by_route.unwrap(), by_request.unwrap())

    def test_default_model(self, zoo_dir):
        with serve_directory(zoo_dir, default_model=SPECS[0].key) as session:
            assert session.infer(_image()).model == SPECS[0].key

    def test_no_default_model_raises(self, zoo_dir):
        with serve_directory(zoo_dir) as session:
            with pytest.raises(EngineError, match="no model"):
                session.infer(_image())

    def test_matches_engine_infer(self, zoo_dir):
        images = [_image(s) for s in range(3)]
        with serve_directory(zoo_dir) as session:
            served = session.infer_many(images, model=SPECS[1])
        engine = Engine.from_artifact(
            zoo_dir / SPECS[1].artifact_name())
        for a, b in zip(served, engine.infer_many(images)):
            assert a.status == b.status == "ok"
            assert np.array_equal(a.image, b.image)

    def test_shed_request_is_a_typed_busy_result(self, zoo_dir):
        session = serve_directory(zoo_dir)
        session.close()
        # a closed server sheds instead of stranding the future
        result = session.submit(_image(), model=SPECS[0]).result(timeout=5)
        assert result.status == "busy"
        assert not result.ok
        with pytest.raises(EngineError, match="busy"):
            result.unwrap()

    def test_stats_and_report(self, zoo_dir):
        with serve_directory(zoo_dir) as session:
            session.infer(_image(), model=SPECS[0])
            stats = session.stats()
            assert stats["server"]["available_models"] == len(SPECS)
            assert "cache" in stats
            assert "models:" in session.report()


class TestServeConfig:
    def test_engine_serves_under_the_given_config_or_its_own(self, zoo_dir):
        """``Engine.serve(config=...)`` serves under exactly that
        ``ServerConfig``; with none, under ``to_server_config()``."""
        engine = Engine.from_artifact(
            zoo_dir / SPECS[0].artifact_name(),
            EngineConfig(batch_size=3, n_threads=1, dtype="float32"))
        given = ServerConfig(max_models=1)
        with engine.serve(config=given) as session:
            assert session.server.config is given
            assert session.infer(_image()).ok
        with engine.serve() as session:
            assert session.server.config == engine.config.to_server_config()
            assert session.infer(_image()).ok
