"""Packed deployment artifacts: one-file export of a compiled model.

The paper's phone deployment assumes a trained network is exported
*once* and served from its packed form — Table VI's 32x weight
compression is a property of the artifact on disk, not just of RAM.
This module is that export path:

``save_artifact(compiled, path)``
    serializes a ``compile_model`` output to a single ``.npz`` file
    holding, per packed layer, the bit-packed ``uint64`` weight words,
    scales, thresholds and geometry; the float *remainder* (head/tail
    convs, re-scaling branches, norms) as exact arrays; BatchNorm
    running statistics; and the build recipe ``models.build_model``
    stamped on the model.  The float weights of the binary layers are
    **not** stored in any form — only their sign bits ship.  Neither is
    tiling: it is an inference setting (``EngineConfig.tile``), and the
    ``tiling`` block older artifacts carry is ignored on load.

``load_artifact(path)``
    reconstructs a servable model: the recipe rebuilds the architecture
    skeleton with parameter-free placeholders at every packed site
    (:func:`repro.deploy.registry.build_skeleton` — the float binary
    weights are never materialized, not even as a random init), each
    placeholder is swapped for a :class:`PackedBinaryConv2d` /
    :class:`PackedBinaryLinear` deserialized straight from the packed
    words, and the float remainder is restored bit-exactly.  The loaded
    model's outputs are **bit-identical** to the live compiled model's —
    the conformance matrix in ``tests/deploy/test_conformance.py``
    enforces this for every deployable zoo entry.

Models compiled from hand-built graphs (no ``build_recipe``) can still
round-trip: pass ``skeleton=`` to :func:`load_artifact` with a module
tree whose binary sites sit at the same paths.

Artifact layout (``np.savez``)
------------------------------
``__meta__``
    JSON: format/version, parameter dtype, recipe, deploy revision, and
    a table of packed-layer descriptors (path, kind, geometry, flags,
    re-scaling branch configs).
``layer{i}:packed`` / ``:weight_scale`` / ``:alpha`` / ``:beta`` / ``:bias``
    per packed layer, in meta-table order.
``state:{name}``
    every float parameter of the compiled tree, stored verbatim.
``buffer:{path}:running_mean`` / ``:running_var``
    BatchNorm running statistics (not Parameters, so not in ``state:``).
"""

from __future__ import annotations

import json
import os
import tempfile
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..binarize.channel import ChannelRescale
from ..binarize.spatial import SpatialRescale2d, SpatialRescaleTokens
from ..grad import thread_default_dtype
from ..nn import Module
from ..nn.norm import BatchNorm2d
from .engine import PackedBinaryConv2d, PackedBinaryLinear
from .packing import unpack_signs

__all__ = ["ARTIFACT_FORMAT", "ARTIFACT_VERSION", "REVISION_STATE_FILE",
           "save_artifact", "load_artifact", "read_artifact_meta",
           "default_artifact_name", "ArtifactInfo", "artifact_key",
           "key_str", "no_artifact_message", "scan_artifact_dir",
           "scan_artifact_revisions", "read_revision_state"]

ARTIFACT_FORMAT = "repro-packed-deploy"
ARTIFACT_VERSION = 1

#: Per-directory rollout state (see :mod:`repro.deploy.revision`):
#: ``{"active": {"arch/scheme/xN": revision, ...}}``.  When present it
#: decides which revision of each key :func:`scan_artifact_dir` serves.
REVISION_STATE_FILE = "revisions.json"

PathLike = Union[str, os.PathLike]


# ----------------------------------------------------------------------
# Save
# ----------------------------------------------------------------------

def default_artifact_name(recipe: Dict) -> str:
    """Canonical file name for a recipe-carrying artifact."""
    return (f"{recipe['architecture']}_{recipe['scheme']}"
            f"_x{recipe['scale']}_{recipe['preset']}.rbd.npz")


def _spatial_meta(module: Module) -> Dict:
    if isinstance(module, SpatialRescale2d):
        return {"type": "conv2d", "channels": int(module.channels),
                "kernel_size": int(module.proj.kernel_size),
                "stride": int(module.proj.stride)}
    if isinstance(module, SpatialRescaleTokens):
        return {"type": "tokens", "channels": int(module.channels)}
    raise TypeError(
        f"unsupported spatial re-scaling module {type(module).__name__}")


def _build_spatial(meta: Dict) -> Module:
    if meta["type"] == "conv2d":
        return SpatialRescale2d(meta["channels"], meta["kernel_size"],
                                stride=meta["stride"])
    if meta["type"] == "tokens":
        return SpatialRescaleTokens(meta["channels"])
    raise ValueError(f"unknown spatial branch type {meta['type']!r}")


def _layer_entry(i: int, path: str, layer: Module, arrays: Dict) -> Dict:
    """Describe one packed layer in the meta table; stash its arrays."""
    prefix = f"layer{i}"
    entry: Dict = {"path": path}
    if isinstance(layer, PackedBinaryConv2d):
        entry["kind"] = "conv"
        entry["shape"] = [int(s) for s in layer.weight_signs.shape]
        entry["stride"] = int(layer.stride)
        entry["padding"] = int(layer.padding)
        if layer._has_channel:
            entry["channel"] = {"channels": int(layer.channel.channels),
                                "kernel_size": int(layer.channel.kernel_size)}
        if layer._has_bn:
            bn = layer.bn
            entry["bn"] = {"num_features": int(bn.num_features),
                           "eps": float(bn.eps),
                           "momentum": float(bn.momentum)}
        bias = layer.conv_bias
    elif isinstance(layer, PackedBinaryLinear):
        entry["kind"] = "linear"
        entry["shape"] = [int(layer.out_features), int(layer.in_features)]
        bias = layer.lin_bias
    else:  # pragma: no cover - caller filters
        raise TypeError(f"not a packed layer: {type(layer).__name__}")
    entry["skip"] = bool(layer.skip)
    if layer._has_spatial:
        entry["spatial"] = _spatial_meta(layer.spatial)
    arrays[f"{prefix}:packed"] = np.ascontiguousarray(layer.packed_weight)
    arrays[f"{prefix}:weight_scale"] = np.asarray(layer.weight_scale)
    for name, value in (("alpha", layer.alpha), ("beta", layer.beta),
                        ("bias", bias)):
        if value is not None:
            arrays[f"{prefix}:{name}"] = np.asarray(value)
    return entry


def save_artifact(model: Module, path: Optional[PathLike] = None,
                  recipe: Optional[Dict] = None,
                  revision: Optional[int] = None) -> Path:
    """Serialize a compiled model to a single ``.npz`` deploy artifact.

    Parameters
    ----------
    model:
        A ``compile_model`` output.
    path:
        Destination file.  Defaults to :func:`default_artifact_name`
        under the current directory when the model carries a recipe.
    recipe:
        Build recipe override; defaults to the ``build_recipe`` dict
        ``models.build_model`` stamps on its outputs (surviving the
        ``compile_model`` deep copy).  Artifacts saved without a recipe
        need an explicit ``skeleton`` at load time.
    revision:
        Deploy revision stamped into the artifact meta (>= 1; default
        1).  Several revisions of one zoo key may coexist in a
        directory; the rollout machinery in :mod:`repro.deploy.revision`
        decides which one serves and :func:`scan_artifact_dir` honours
        that choice.

    Returns the path written.
    """
    if revision is None:
        revision = 1
    revision = int(revision)
    if revision < 1:
        raise ValueError(f"revision must be >= 1, got {revision}")
    recipe = recipe if recipe is not None else getattr(model, "build_recipe",
                                                       None)
    if path is None:
        if recipe is None:
            raise ValueError(
                "save_artifact needs an explicit path when the model has no "
                "build recipe (hand-built models are not in the zoo registry)")
        path = default_artifact_name(recipe)

    arrays: Dict[str, np.ndarray] = {}
    layers = []
    for name, module in model.named_modules():
        if isinstance(module, (PackedBinaryConv2d, PackedBinaryLinear)):
            layers.append(_layer_entry(len(layers), name, module, arrays))
    if not layers:
        raise ValueError(
            "model contains no packed layers; run compile_model before "
            "save_artifact")

    params = list(model.named_parameters())
    for pname, param in params:
        arrays[f"state:{pname}"] = param.data
    for mname, module in model.named_modules():
        if isinstance(module, BatchNorm2d):
            arrays[f"buffer:{mname}:running_mean"] = module.running_mean
            arrays[f"buffer:{mname}:running_var"] = module.running_var

    dtype = str(params[0][1].data.dtype) if params else "float64"
    meta = {"format": ARTIFACT_FORMAT, "version": ARTIFACT_VERSION,
            "dtype": dtype, "recipe": recipe, "revision": revision,
            "layers": layers}
    try:
        meta_json = json.dumps(meta)
    except TypeError as exc:
        raise ValueError(
            "build recipe is not JSON-serializable; pass a recipe of plain "
            f"python values to save_artifact ({exc})") from exc
    # Crash-safe export: serialize to a temp file in the destination
    # directory, fsync, then atomically rename into place.  An export
    # interrupted at any point leaves either the previous artifact or
    # none — never a truncated .npz that scan_artifact_dir would
    # silently skip (and a server zoo would silently lose).
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent),
                               prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, __meta__=np.array(meta_json), **arrays)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


# ----------------------------------------------------------------------
# Load
# ----------------------------------------------------------------------

def _checked_meta(data, path: PathLike) -> Dict:
    """Parse and validate the ``__meta__`` block of an open artifact."""
    if "__meta__" not in data.files:
        raise ValueError(f"{path} is not a packed deploy artifact")
    meta = json.loads(str(data["__meta__"][()]))
    if meta.get("format") != ARTIFACT_FORMAT:
        raise ValueError(f"{path}: unknown artifact format "
                         f"{meta.get('format')!r}")
    if meta.get("version", 0) > ARTIFACT_VERSION:
        raise ValueError(
            f"{path}: artifact version {meta['version']} is newer than this "
            f"library supports ({ARTIFACT_VERSION})")
    # Artifacts written before deploy revisions existed are revision 1.
    meta["revision"] = int(meta.get("revision", 1))
    return meta


def read_artifact_meta(path: PathLike) -> Dict:
    """The artifact's meta block (recipe, dtype, revision, layer table)."""
    # The handle is ours, not np.load's: on a truncated zip np.load has
    # already handed its own handle to NpzFile when BadZipFile raises,
    # and nothing closes it then.
    with open(path, "rb") as fh, np.load(fh) as data:
        return _checked_meta(data, path)


def artifact_key(recipe: Dict) -> Tuple[str, str, int]:
    """The zoo key ``(architecture, scheme, scale)`` of a build recipe."""
    try:
        return (str(recipe["architecture"]), str(recipe["scheme"]),
                int(recipe["scale"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(
            f"recipe does not identify a zoo cell: {recipe!r}") from exc


def key_str(key: Tuple[str, str, int]) -> str:
    """Canonical ``"architecture/scheme/xN"`` string of a zoo key —
    the route, metric label, log field and revision-state key."""
    architecture, scheme, scale = key
    return f"{architecture}/{scheme}/x{int(scale)}"


def no_artifact_message(key: Tuple[str, str, int], available) -> str:
    """Why ``key`` cannot be served: it and every ``available`` key."""
    known = ", ".join(key_str(k) for k in sorted(available))
    return f"no artifact for model {key}; available: {known}"


@dataclass(frozen=True)
class ArtifactInfo:
    """Metadata-only description of one on-disk deploy artifact.

    Produced by :func:`scan_artifact_dir` without loading any weights:
    only the JSON ``__meta__`` member of the ``.npz`` is read, so
    probing a directory of large artifacts stays cheap.
    """

    path: Path
    #: ``(architecture, scheme, scale)`` — the zoo registry key.
    key: Tuple[str, str, int]
    recipe: Dict
    n_packed_layers: int
    size_bytes: int
    #: deploy revision stamped at export (pre-revision artifacts: 1)
    revision: int = 1


def read_revision_state(directory: PathLike) -> Dict[str, int]:
    """The ``{key_str: active_revision}`` map of a directory's
    ``revisions.json`` — empty when absent or unreadable (a corrupt
    state file must degrade to the default rollout policy, not take
    the zoo down)."""
    state_path = Path(directory) / REVISION_STATE_FILE
    try:
        with open(state_path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        active = raw.get("active", {})
        return {str(k): int(v) for k, v in active.items()}
    except (OSError, ValueError, TypeError, AttributeError):
        return {}


def scan_artifact_revisions(
        directory: PathLike,
        pattern: str = "*.npz") -> Tuple[
            Dict[Tuple[str, str, int], Dict[int, ArtifactInfo]],
            List[Tuple[Path, str]]]:
    """Probe a directory for deploy artifacts, keeping every revision.

    The revision-aware ground truth under :func:`scan_artifact_dir`:
    returns ``(catalog, skipped)`` where ``catalog`` maps each zoo key
    to its ``{revision: ArtifactInfo}`` revisions, and ``skipped``
    pairs each rejected path with a reason (not an artifact,
    unsupported version, recipe-less, or a duplicate of an earlier
    file with the same key *and* revision).
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(f"artifact directory {directory} not found")
    catalog: Dict[Tuple[str, str, int], Dict[int, ArtifactInfo]] = {}
    skipped: List[Tuple[Path, str]] = []
    for path in sorted(directory.glob(pattern)):
        try:
            meta = read_artifact_meta(path)
        except (ValueError, OSError, KeyError, EOFError,
                zipfile.BadZipFile) as exc:
            # Truncated zips raise BadZipFile, mid-write files EOFError:
            # one bad file must never take down the whole scan.
            skipped.append((path, f"not a deploy artifact ({exc})"))
            continue
        recipe = meta.get("recipe")
        if recipe is None:
            skipped.append(
                (path, "no build recipe: cannot be keyed into the zoo"))
            continue
        key = artifact_key(recipe)
        revision = meta["revision"]
        revisions = catalog.setdefault(key, {})
        if revision in revisions:
            skipped.append(
                (path, f"duplicate of {revisions[revision].path.name} "
                       f"for key {key} revision {revision}"))
            continue
        revisions[revision] = ArtifactInfo(
            path=path, key=key, recipe=recipe,
            n_packed_layers=len(meta.get("layers", [])),
            size_bytes=path.stat().st_size, revision=revision)
    return catalog, skipped


def scan_artifact_dir(
        directory: PathLike,
        pattern: str = "*.npz") -> Tuple[List[ArtifactInfo], List[Tuple[Path, str]]]:
    """Probe a directory for deploy artifacts — metadata only.

    Every file matching ``pattern`` is opened just far enough to read
    its ``__meta__`` block (:func:`read_artifact_meta`); no weight
    arrays are decompressed.  Returns ``(artifacts, skipped)`` with one
    artifact per zoo key — the *active* revision — and ``skipped``
    pairing each unserved path with a reason.

    Which revision is active: the directory's ``revisions.json`` entry
    for the key when present and on disk (the rollout machinery's
    promotion record), else the lowest revision — a candidate dropped
    next to an incumbent never serves by accident.  Other revisions of
    the same key are skipped as inactive.

    Artifacts come back sorted by key so the scan order — and anything
    keyed off it, like a server's model listing — is deterministic.
    """
    catalog, skipped = scan_artifact_revisions(directory, pattern)
    state = read_revision_state(directory)
    artifacts: Dict[Tuple[str, str, int], ArtifactInfo] = {}
    for key, revisions in catalog.items():
        active = state.get(key_str(key))
        if active not in revisions:
            active = min(revisions)
        artifacts[key] = revisions[active]
        for revision in sorted(revisions):
            if revision != active:
                skipped.append(
                    (revisions[revision].path,
                     f"inactive revision {revision} of key {key} "
                     f"(active: {active})"))
    return [artifacts[key] for key in sorted(artifacts)], skipped


def _deserialize_layer(entry: Dict, arrays: Dict[str, np.ndarray],
                       index: int) -> Module:
    """Rebuild one packed layer from its packed words — no float weights."""
    prefix = f"layer{index}"

    def take(name):
        return arrays.get(f"{prefix}:{name}")

    alpha, beta, bias = take("alpha"), take("beta"), take("bias")
    spatial = (_build_spatial(entry["spatial"])
               if entry.get("spatial") else None)
    if entry["kind"] == "conv":
        c_out, c_in, kh, kw = entry["shape"]
        signs = unpack_signs(arrays[f"{prefix}:packed"],
                             c_in * kh * kw).reshape(c_out, c_in, kh, kw)
        channel = (ChannelRescale(entry["channel"]["channels"],
                                  entry["channel"]["kernel_size"])
                   if entry.get("channel") else None)
        bn = None
        if entry.get("bn"):
            b = entry["bn"]
            bn = BatchNorm2d(b["num_features"], eps=b["eps"],
                             momentum=b["momentum"])
        layer = PackedBinaryConv2d(signs, bias, entry["stride"],
                                   entry["padding"], alpha, beta,
                                   spatial=spatial, channel=channel, bn=bn,
                                   skip=entry["skip"])
    elif entry["kind"] == "linear":
        out_features, in_features = entry["shape"]
        signs = unpack_signs(arrays[f"{prefix}:packed"], in_features)
        layer = PackedBinaryLinear(signs, bias, alpha, beta, spatial=spatial,
                                   skip=entry["skip"])
    else:
        raise ValueError(f"unknown packed layer kind {entry['kind']!r}")
    # The per-channel l1 scale of the *float* weights cannot be recovered
    # from sign bits; it ships in the artifact and overrides the
    # constructor's (sign-derived, all-ones) value.
    layer.weight_scale = arrays[f"{prefix}:weight_scale"]
    return layer


def _resolve_parent(root: Module, path: str):
    parts = path.split(".")
    module = root
    for part in parts[:-1]:
        child = module._modules.get(part)
        if child is None:
            raise KeyError(
                f"artifact layer path {path!r} does not exist in the "
                f"skeleton (no submodule {part!r})")
        module = child
    if parts[-1] not in module._modules:
        raise KeyError(
            f"artifact layer path {path!r} does not exist in the skeleton")
    return module, parts[-1]


def load_artifact(path: PathLike, skeleton: Optional[Module] = None,
                  tile: None = None) -> Module:
    """Load a packed deploy artifact into a servable model.

    Parameters
    ----------
    path:
        Artifact written by :func:`save_artifact` (or
        ``compile_model(..., freeze=...)``).
    skeleton:
        Optional module tree to load into; required for artifacts saved
        without a build recipe.  The modules at the artifact's packed
        paths are replaced outright, so placeholders and live float
        binary layers both work.
    tile:
        Only ``None`` is accepted, for callers written when artifacts
        carried tiling.  Tiling is an inference setting: set
        ``EngineConfig.tile``.  The ``tiling`` block of an older
        artifact is ignored.

    Returns the model in eval mode.
    """
    if tile is not None:
        raise ValueError(
            f"load_artifact(tile={tile!r}): artifacts load bare; tiling "
            "is an inference setting, set EngineConfig.tile instead")
    with open(path, "rb") as fh, np.load(fh) as data:
        meta = _checked_meta(data, path)
        arrays = {k: data[k] for k in data.files if k != "__meta__"}

    # Thread-scoped dtype: artifact loads happen on server/scheduler
    # threads concurrently with the rest of the process, so the shared
    # process-wide default must not be touched here.
    with thread_default_dtype(meta["dtype"]):
        if skeleton is None:
            if meta["recipe"] is None:
                raise ValueError(
                    f"{path} was saved without a build recipe; pass "
                    "skeleton= to load it")
            from .registry import build_skeleton
            model = build_skeleton(meta["recipe"])
        else:
            model = skeleton
        for i, entry in enumerate(meta["layers"]):
            parent, leaf = _resolve_parent(model, entry["path"])
            parent.register_module(leaf, _deserialize_layer(entry, arrays, i))

    from .registry import PlaceholderBinaryLayer
    leftovers = [n for n, m in model.named_modules()
                 if isinstance(m, PlaceholderBinaryLayer)]
    if leftovers:
        raise ValueError(
            f"artifact does not cover every binary site of the skeleton; "
            f"uncovered: {leftovers}")

    state = {k[len("state:"):]: v for k, v in arrays.items()
             if k.startswith("state:")}
    model.load_state_dict(state, strict=True)
    for key, value in arrays.items():
        if key.startswith("buffer:"):
            mod_path, attr = key[len("buffer:"):].rsplit(":", 1)
            module = model
            for part in filter(None, mod_path.split(".")):
                module = module._modules[part]
            setattr(module, attr, value.copy())
    model.eval()
    return model
