"""EngineConfig: the documented precedence — explicit arg > env > default."""

import threading

import numpy as np
import pytest

from repro.api import EngineConfig

ENV_CASES = [
    # (field, variable, env value, parsed env value, explicit, default)
    ("n_threads", "REPRO_NUM_THREADS", "3", 3, 2, None),
]


@pytest.mark.parametrize(
    "field,variable,env,parsed,explicit,default",
    ENV_CASES, ids=[c[0] for c in ENV_CASES])
class TestPrecedence:
    def test_default_when_unset(self, monkeypatch, field, variable, env,
                                parsed, explicit, default):
        monkeypatch.delenv(variable, raising=False)
        config = EngineConfig()
        assert getattr(config, field) == default
        assert config.source(field) == "default"

    def test_env_beats_default(self, monkeypatch, field, variable, env,
                               parsed, explicit, default):
        monkeypatch.setenv(variable, env)
        config = EngineConfig()
        assert getattr(config, field) == parsed
        assert config.source(field) == "env"

    def test_explicit_arg_beats_env(self, monkeypatch, field, variable, env,
                                    parsed, explicit, default):
        monkeypatch.setenv(variable, env)
        config = EngineConfig(**{field: explicit})
        assert getattr(config, field) == explicit
        assert config.source(field) == "arg"


class TestValidation:
    def test_invalid_env_value_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "many")
        with pytest.raises(ValueError, match="REPRO_NUM_THREADS"):
            EngineConfig()

    def test_invalid_explicit_value(self):
        with pytest.raises(ValueError, match="n_threads"):
            EngineConfig(n_threads=0)

    def test_invalid_thread_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "0")
        with pytest.raises(ValueError, match="REPRO_NUM_THREADS"):
            EngineConfig()

    def test_source_unknown_field(self):
        with pytest.raises(KeyError):
            EngineConfig().source("batch_size")

    def test_batch_size_validated(self):
        with pytest.raises(ValueError, match="batch_size"):
            EngineConfig(batch_size=0)


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

    def test_to_server_config(self):
        config = EngineConfig(batch_size=4, latency_budget_s=0.5,
                              max_models=2, max_queue_depth=9,
                              cache_bytes=0, background=False)
        server = config.to_server_config()
        assert server.max_batch == 4
        assert server.latency_budget_s == 0.5
        assert server.max_models == 2
        assert server.max_queue_depth == 9
        assert server.cache_bytes == 0
        assert server.background is False

    def test_describe_mentions_provenance(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "3")
        assert "(env)" in EngineConfig().describe()
        assert "(arg)" in EngineConfig(n_threads=2).describe()
        monkeypatch.delenv("REPRO_NUM_THREADS")
        assert "(default)" in EngineConfig().describe()
