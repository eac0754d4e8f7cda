"""Canary rollout end to end: shadow verification over live traffic.

The acceptance scenario of the rollout tentpole, both directions:

* a *clean* revision 2 (bit-identical weights) is auto-promoted after
  ``promote_after`` verified samples, durably (``revisions.json``);
* a *perturbed* revision 2 is auto-demoted on its first sampled
  request — the incumbent keeps serving, every client request in the
  whole episode succeeds, and clients only ever see incumbent bytes.
"""

import json
import shutil

import numpy as np
import pytest

from repro.deploy import CanaryConfig, read_revision_state
from repro.gateway import Gateway, GatewayClient
from repro.serve import lint_exposition

from .conftest import MODEL_A, images
from .test_gateway_e2e import _config

LABEL = MODEL_A  # "srresnet/scales/x2"


def _write_revision(src, dst, revision, perturb=False, gut=False):
    """Re-stamp an artifact at ``revision``; optionally break it.

    ``perturb`` nudges the float remainder (and the first packed
    layer's weight scales) — a structurally valid artifact whose
    outputs diverge, exactly the failure canarying exists to catch.
    ``gut`` drops the packed weight arrays: the artifact still *scans*
    (its meta is intact) but cannot load.
    """
    with np.load(src) as data:
        arrays = {name: data[name] for name in data.files}
    meta = json.loads(str(arrays.pop("__meta__")[()]))
    meta["revision"] = revision
    if perturb:
        scale_keys = [k for k in arrays if k.endswith(":weight_scale")]
        assert scale_keys, "artifact has no weight scales to perturb"
        arrays[scale_keys[0]] = arrays[scale_keys[0]] * 2.0
        for key in [k for k in arrays if k.startswith("state:")]:
            arrays[key] = arrays[key] + np.float32(0.05)
    if gut:
        for key in [k for k in arrays if k.endswith(":packed")]:
            del arrays[key]
    np.savez(dst, __meta__=np.array(json.dumps(meta)), **arrays)


@pytest.fixture()
def canary_zoo(zoo_dir, tmp_path):
    """A writable single-model zoo: revision 1 only (rev 2 per test)."""
    shutil.copy(zoo_dir / "srresnet_scales.npz", tmp_path / "rev1.npz")
    return tmp_path


def _canary_config(**kwargs):
    kwargs.setdefault("sample_fraction", 1.0)
    kwargs.setdefault("promote_after", 3)
    kwargs.setdefault("restart_workers_on_promote", False)
    return _config(n_workers=1, canary=CanaryConfig(**kwargs))


class TestCleanCandidatePromotes:
    def test_auto_promotion_after_n_verified_samples(self, canary_zoo):
        _write_revision(canary_zoo / "rev1.npz", canary_zoo / "rev2.npz",
                        revision=2)
        with Gateway(canary_zoo, _canary_config()) as gw:
            client = GatewayClient(gw.address)
            for i, image in enumerate(images(n=3, seed=21)):
                assert client.infer(image, LABEL).ok
                state = gw.canary.snapshot()[LABEL]["state"]
                assert state == ("promoted" if i == 2 else "verifying")
        # Durable: a fresh scan of the directory serves revision 2.
        assert read_revision_state(canary_zoo) == {LABEL: 2}

    def test_rolling_restart_is_invisible_to_clients(self, canary_zoo):
        _write_revision(canary_zoo / "rev1.npz", canary_zoo / "rev2.npz",
                        revision=2)
        config = _canary_config(promote_after=2,
                                restart_workers_on_promote=True)
        with Gateway(canary_zoo, config) as gw:
            client = GatewayClient(gw.address)
            for image in images(n=2, seed=22):
                assert client.infer(image, LABEL).ok
            assert gw.canary.snapshot()[LABEL]["state"] == "promoted"
            assert gw.rollout_complete(timeout=120.0)
            # The restarted pool serves the promoted revision; traffic
            # keeps flowing with zero client-visible errors.
            for image in images(n=2, seed=23):
                assert client.infer(image, LABEL).ok
            stats = gw.stats()
            assert stats["revisions"][LABEL]["active"] == 2
            assert stats["workers"]  # pool is back
            assert stats["gateway"]["rollouts_completed"] == 1

    def test_metrics_count_the_promotion(self, canary_zoo):
        _write_revision(canary_zoo / "rev1.npz", canary_zoo / "rev2.npz",
                        revision=2)
        with Gateway(canary_zoo, _canary_config()) as gw:
            client = GatewayClient(gw.address)
            for image in images(n=3, seed=24):
                assert client.infer(image, LABEL).ok
            text = gw.metrics_text()
        assert lint_exposition(text) == []
        assert (f'repro_canary_samples_total{{model="{LABEL}"}} 3'
                in text)
        assert (f'repro_canary_promotions_total{{model="{LABEL}"}} 1'
                in text)
        assert f'repro_canary_state{{model="{LABEL}"}} 2' in text


class TestPerturbedCandidateDemotes:
    def test_first_mismatch_demotes_with_zero_client_errors(
            self, canary_zoo, zoo_dir):
        _write_revision(canary_zoo / "rev1.npz", canary_zoo / "rev2.npz",
                        revision=2, perturb=True)
        from repro.api import Engine, EngineConfig

        engine = Engine.from_artifact(
            zoo_dir / "srresnet_scales.npz", EngineConfig(dtype="float32"))
        try:
            with Gateway(canary_zoo, _canary_config()) as gw:
                client = GatewayClient(gw.address)
                outputs = []
                for image in images(n=4, seed=31):
                    result = client.infer(image, LABEL)
                    assert result.ok  # zero client-visible errors
                    outputs.append(result.output)
                snap = gw.canary.snapshot()[LABEL]
                assert snap["state"] == "demoted"
                assert snap["seen"] == 1  # first sample was enough
                text = gw.metrics_text()
                assert (f'repro_canary_mismatches_total{{model="{LABEL}"}}'
                        " 1") in text
                assert (f'repro_canary_demotions_total{{model="{LABEL}"}}'
                        " 1") in text
                assert f'repro_canary_state{{model="{LABEL}"}} -1' in text
                status = gw.revision_status()
                assert status["revisions"][LABEL]["active"] == 1
            # Every byte the clients saw came from the incumbent.
            for image, output in zip(images(n=4, seed=31), outputs):
                np.testing.assert_array_equal(
                    output, engine.infer(image).unwrap())
        finally:
            engine.close()
        # The incumbent is durably pinned; the bad artifact stays on
        # disk for diagnosis but will never serve.
        assert read_revision_state(canary_zoo) == {LABEL: 1}

    def test_unloadable_candidate_demotes_instead_of_erroring(
            self, canary_zoo):
        # A candidate whose meta scans but whose weights are gone:
        # verification fails to even load it, the rollout demotes, the
        # client path never notices.
        _write_revision(canary_zoo / "rev1.npz", canary_zoo / "rev2.npz",
                        revision=2, gut=True)
        with Gateway(canary_zoo, _canary_config()) as gw:
            client = GatewayClient(gw.address)
            assert client.infer(images(n=1)[0], LABEL).ok
            assert gw.canary.snapshot()[LABEL]["state"] == "demoted"
            assert "failed verification" in \
                gw.canary.snapshot()[LABEL]["detail"]
        assert read_revision_state(canary_zoo) == {LABEL: 1}


class TestRevisionsEndpoint:
    def test_http_surface(self, canary_zoo):
        _write_revision(canary_zoo / "rev1.npz", canary_zoo / "rev2.npz",
                        revision=2)
        import http.client

        with Gateway(canary_zoo, _canary_config()) as gw:
            host, port = gw.address
            conn = http.client.HTTPConnection(host, port, timeout=30.0)
            try:
                conn.request("GET", "/revisions")
                response = conn.getresponse()
                body = json.loads(response.read())
            finally:
                conn.close()
        assert response.status == 200
        assert body["revisions"][LABEL] == {
            "revisions": [1, 2], "active": 1, "candidate": 2}
