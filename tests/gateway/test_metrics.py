"""The gateway's merged /metrics scrape surface, end to end."""

import http.client
import logging

import pytest

from repro.gateway import Gateway, GatewayConfig
from repro.serve import EXPOSITION_CONTENT_TYPE, ServerConfig, lint_exposition

from .conftest import MODEL_A, MODEL_B, images
from .test_gateway_e2e import _config


@pytest.fixture(scope="module")
def scraped(zoo_dir):
    """One gateway, a little traffic to both models, one scrape."""
    with Gateway(zoo_dir, _config()) as gw:
        from repro.gateway import GatewayClient

        client = GatewayClient(gw.address)
        for image in images(n=3, seed=3):
            assert client.infer(image, MODEL_A).ok
            assert client.infer(image, MODEL_B).ok
        host, port = gw.address
        conn = http.client.HTTPConnection(host, port, timeout=30.0)
        try:
            conn.request("GET", "/metrics")
            response = conn.getresponse()
            content_type = response.getheader("Content-Type")
            text = response.read().decode("utf-8")
        finally:
            conn.close()
        yield response.status, content_type, text


class TestScrape:
    def test_scrape_is_lintable_exposition_text(self, scraped):
        status, content_type, text = scraped
        assert status == 200
        assert content_type == EXPOSITION_CONTENT_TYPE
        assert lint_exposition(text) == []

    def test_gateway_families_present(self, scraped):
        _, _, text = scraped
        for family in ("repro_gateway_requests_total",
                       "repro_gateway_proxied_total",
                       "repro_gateway_worker_alive"):
            assert f"# TYPE {family}" in text

    def test_worker_series_are_labelled_per_slot(self, scraped):
        _, _, text = scraped
        assert 'worker="0"' in text
        assert 'worker="1"' in text
        # One TYPE block per family even though two workers publish it.
        assert text.count("# TYPE repro_serve_requests_total counter") == 1

    def test_per_model_latency_percentiles(self, scraped):
        _, _, text = scraped
        assert "# TYPE repro_serve_model_latency_seconds summary" in text
        for model in (MODEL_A, MODEL_B):
            assert (
                f'repro_serve_model_latency_seconds{{model="{model}"'
                in text
            )
        assert 'quantile="0.99"' in text

    def test_slo_series_present(self, scraped):
        _, _, text = scraped
        for family in ("repro_serve_slo_budget_seconds",
                       "repro_serve_slo_p99_seconds",
                       "repro_serve_slo_breaches_total"):
            assert f"# TYPE {family}" in text
        assert f'repro_serve_slo_p99_seconds{{model="{MODEL_A}"' in text

    def test_request_histogram_and_cache_series(self, scraped):
        _, _, text = scraped
        assert "# TYPE repro_serve_request_latency_seconds histogram" \
            in text
        assert 'le="+Inf"' in text
        assert "repro_serve_cache_total" in text
        assert 'outcome="miss"' in text


class TestStructuredLogs:
    def test_proxy_emits_structured_fields(self, zoo_dir, caplog):
        config = _config(n_workers=1)
        with Gateway(zoo_dir, config) as gw:
            from repro.gateway import GatewayClient

            client = GatewayClient(gw.address)
            with caplog.at_level(logging.INFO, logger="repro.gateway"):
                assert client.infer(images(n=1)[0], MODEL_A).ok
        records = [r for r in caplog.records if r.getMessage() == "proxy"]
        assert records
        fields = records[-1].repro_fields
        assert fields["model"] == MODEL_A
        assert fields["status"] == 200
        assert fields["request_id"].startswith("gw-")
        assert fields["total_s"] >= 0


class TestServerConfigKnobs:
    def test_slo_budget_flows_into_worker_metrics(self, zoo_dir):
        config = GatewayConfig(
            n_workers=1,
            server=ServerConfig(
                n_threads=1, dtype="float32",
                slo_default_budget_s=1e-9,  # everything breaches
                drain_timeout_s=10.0))
        with Gateway(zoo_dir, config) as gw:
            from repro.gateway import GatewayClient

            client = GatewayClient(gw.address)
            for image in images(n=2, seed=5):
                assert client.infer(image, MODEL_A).ok
            text = gw.metrics_text()
        assert lint_exposition(text) == []
        assert "repro_serve_slo_breaches_total" in text
        assert "repro_serve_slo_budget_seconds" in text
        assert "1e-09" in text
