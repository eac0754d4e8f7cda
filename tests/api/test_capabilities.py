"""Capability registry: one merged answer for compile/export/serve."""

import pytest

from repro.api import (Capability, EngineError, ModelSpec, capability,
                       capability_matrix)
from repro.deploy import deploy_registry
from repro.serve import parse_model_key


class TestCapability:
    def test_full_coverage_cell(self):
        cap = capability(ModelSpec("srresnet", scheme="scales"))
        assert cap.coverage == "full"
        assert cap.can_compile and cap.can_export and cap.can_serve
        cap.require("compile")
        cap.require("export")
        cap.require("serve")

    def test_fp_cell_refuses_with_detail(self):
        cap = capability(ModelSpec("srresnet", scheme="fp"))
        assert cap.coverage == "none"
        assert not cap.can_compile
        with pytest.raises(EngineError, match="cannot compile"):
            cap.require("compile")

    def test_partial_transformer_cell(self):
        cap = capability(ModelSpec("swinir", scheme="bibert"))
        assert cap.coverage == "partial"
        assert cap.can_serve

    def test_unknown_action(self):
        with pytest.raises(KeyError):
            capability(ModelSpec("srresnet")).require("fly")


class TestMatrix:
    def test_matrix_matches_deploy_registry(self):
        caps = {c.key: c for c in capability_matrix()}
        entries = {e.key: e for e in deploy_registry()}
        assert caps.keys() == entries.keys()
        for key, cap in caps.items():
            assert isinstance(cap, Capability)
            assert cap.coverage == entries[key].coverage
            assert cap.can_compile == entries[key].deployable

    def test_matrix_cells_answer_before_work(self):
        # every cell answers without building or compiling a model
        for cap in capability_matrix():
            assert cap.coverage in ("full", "partial", "none")


class TestKeyInterop:
    def test_parse_model_key_accepts_spec(self):
        spec = ModelSpec("srresnet", scheme="scales", scale=2)
        assert parse_model_key(spec) == spec.key

    def test_parse_model_key_accepts_deploy_entry(self):
        entry = next(e for e in deploy_registry() if e.deployable)
        assert parse_model_key(entry) == entry.key

    def test_parse_model_key_still_accepts_strings_and_tuples(self):
        assert parse_model_key("srresnet/scales/x2") == \
            ("srresnet", "scales", 2)
        assert parse_model_key(("srresnet", "scales", 2)) == \
            ("srresnet", "scales", 2)
