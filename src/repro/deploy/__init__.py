"""Bit-packed deployment of binarized SR networks.

The paper benchmarks its models on a phone through Larq, a library that
executes binary layers with XNOR + popcount on packed 1-bit operands.
This subpackage is the equivalent substrate for this repo: it compiles a
*trained* binarized SR network into a form whose binary convolutions and
linears really do run on ``uint64`` words —

* :mod:`repro.deploy.packing`  — {-1,+1} <-> packed ``uint64`` codecs;
* :mod:`repro.deploy.kernels`  — XNOR-popcount GEMM (hardware
  ``np.bitwise_count``) and the bit-domain conv/linear kernels (each
  pixel's channels packed into the narrowest 8/16/32/64·n-bit lane,
  bit-exact against the float graph including zero-padding correction);
* :mod:`repro.deploy.workspace` — per-thread scratch-buffer arena so
  repeated same-shape calls (tiles, batches) allocate nothing;
* :mod:`repro.deploy.engine`   — ``compile_model``: walks a trained model
  and swaps every supported binary layer for its packed twin (tiled,
  bounded-memory full-image SR is an inference setting, run by
  :func:`repro.infer.tiled_super_resolve`);
* :mod:`repro.deploy.report`   — memory/operation accounting of a
  deployed model (the 32x weight-compression story of Table VI);
* :mod:`repro.deploy.serialize` — one-file ``.npz`` deploy artifacts:
  save a compiled model (packed words, scales, thresholds, topology)
  and reload it into a servable packed graph without the float binary
  weights ever touching disk;
* :mod:`repro.deploy.registry` — the zoo-wide deploy registry mapping
  every ``(architecture, scheme, scale)`` combination to its compile
  coverage, and the placeholder skeleton builder the loader uses;
* :mod:`repro.deploy.revision` — versioned artifact rollout: several
  revisions of one model on disk, a durable ``revisions.json`` active
  map (:class:`RevisionStore`), and the :class:`CanaryController`
  state machine that promotes a candidate after N bit-identical
  shadow-verified samples or demotes it on the first mismatch.

The deployed model produces outputs numerically identical to the training
graph (same scales, thresholds, re-scaling branches and skips), which the
test suite verifies end-to-end.
"""

from .packing import pack_signs, unpack_signs, packed_words
from .kernels import (binary_gemm, pack_weight_conv, pack_weight_linear,
                      FastConvWeight, FastLinearWeight, packed_conv2d_bits,
                      packed_linear_bits)
from .workspace import Workspace, workspace, clear_workspace
from .engine import (PackedBinaryConv2d, PackedBinaryLinear, compile_model,
                     deployable_layers)
from .report import DeploymentReport, artifact_report, deployment_report
from .serialize import (ARTIFACT_FORMAT, ARTIFACT_VERSION,
                        REVISION_STATE_FILE, ArtifactInfo, artifact_key,
                        default_artifact_name, key_str, load_artifact,
                        read_artifact_meta, read_revision_state,
                        save_artifact, scan_artifact_dir,
                        scan_artifact_revisions)
from .registry import (DeployEntry, PlaceholderBinaryLayer, build_entry,
                       build_skeleton, classify_recipe, deploy_registry,
                       deployable_entries, registry_matrix)
from .revision import CanaryConfig, CanaryController, RevisionStore

__all__ = [
    "pack_signs", "unpack_signs", "packed_words",
    "binary_gemm", "pack_weight_conv", "pack_weight_linear",
    "FastConvWeight", "FastLinearWeight", "packed_conv2d_bits",
    "packed_linear_bits",
    "Workspace", "workspace", "clear_workspace",
    "PackedBinaryConv2d", "PackedBinaryLinear", "compile_model",
    "deployable_layers",
    "DeploymentReport", "artifact_report", "deployment_report",
    "ARTIFACT_FORMAT", "ARTIFACT_VERSION", "REVISION_STATE_FILE",
    "default_artifact_name", "save_artifact", "load_artifact",
    "read_artifact_meta", "read_revision_state",
    "ArtifactInfo", "artifact_key", "key_str", "scan_artifact_dir",
    "scan_artifact_revisions",
    "DeployEntry", "PlaceholderBinaryLayer", "build_entry", "build_skeleton",
    "classify_recipe", "deploy_registry", "deployable_entries",
    "registry_matrix",
    "CanaryConfig", "CanaryController", "RevisionStore",
]
