"""Manifests: what a bulk job runs, declared as one JSON file.

A manifest names an artifact zoo, a set of inputs, and the models to
run them through; :func:`load_manifest` expands it into the full item
list — the cross product ``inputs x models`` — with every path
resolved, every input content-hashed, and every item assigned a stable
id and shard.

Manifest format (JSON object)::

    {
      "artifacts": "zoo/",                  # dir of .npz deploy artifacts
      "inputs": ["frames/*.npy", "extra.npy"],   # paths and/or globs
      "models": ["srresnet/scales/x2"],     # optional: default = all
      "output_dir": "out/",
      "shard_size": 16,                     # items per worker task
      "batch_size": 8,                      # micro-batch inside a worker
      "workers": 2,                         # worker processes
      "retry": {"max_attempts": 3, "base_delay_s": 0.25}
    }

Relative paths resolve against the manifest file's directory, so a
manifest is portable alongside its data.

Identity and resume semantics hang off two hashes:

* ``Manifest.manifest_sha`` — the manifest file's bytes.  A journal is
  bound to it; resuming with an edited manifest is refused instead of
  silently running a different job under the same journal.
* ``JobItem.item_id`` — ``sha256(model | input-content-hash)``.  Items
  are keyed by what the input *is*, not where it lives: a resumed run
  skips an item only if the same bytes were already processed, and an
  input file that changed on disk is naturally a new item.
"""

from __future__ import annotations

import glob as globlib
import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from .journal import JobsError
from .retry import RetryPolicy

__all__ = ["JobItem", "Manifest", "load_manifest", "sha256_file"]

PathLike = Union[str, os.PathLike]


def sha256_file(path: PathLike, _cache: Dict[str, str] = {}) -> str:
    """Content hash of a file (memoized per path + mtime + size)."""
    path = Path(path)
    stat = path.stat()
    cache_key = f"{path}:{stat.st_mtime_ns}:{stat.st_size}"
    cached = _cache.get(cache_key)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    _cache[cache_key] = digest.hexdigest()
    return _cache[cache_key]


@dataclass(frozen=True)
class JobItem:
    """One unit of work: run one input through one model."""

    item_id: str
    #: route string, e.g. ``"srresnet/scales/x2"``
    model: str
    #: path of the model's ``.npz`` deploy artifact
    artifact: str
    input: str
    output: str
    input_sha: str
    #: stable shard id, e.g. ``"srresnet/scales/x2#3"``
    shard: str


@dataclass
class Manifest:
    """A loaded, validated manifest with its expanded item list."""

    path: Path
    manifest_sha: str
    artifact_dir: Path
    #: route -> artifact path, for every model this manifest runs
    artifacts: Dict[str, str]
    models: List[str]
    inputs: List[str]
    output_dir: Path
    shard_size: int = 16
    batch_size: int = 8
    workers: int = 2
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def items(self) -> List[JobItem]:
        """The full ``models x inputs`` item list, stably ordered."""
        items: List[JobItem] = []
        for model in self.models:
            artifact = self.artifacts[model]
            flat = model.replace("/", "_")
            for i, input_path in enumerate(self.inputs):
                input_sha = sha256_file(input_path)
                item_id = hashlib.sha256(
                    f"{model}|{input_sha}".encode("utf-8")).hexdigest()[:16]
                stem = Path(input_path).stem
                output = self.output_dir / flat / (
                    f"{stem}_{input_sha[:8]}.npy")
                items.append(JobItem(
                    item_id=item_id, model=model, artifact=artifact,
                    input=str(input_path), output=str(output),
                    input_sha=input_sha,
                    shard=f"{model}#{i // self.shard_size}"))
        return items


def _resolve_inputs(patterns, base: Path) -> List[str]:
    inputs: List[str] = []
    seen = set()
    for pattern in patterns:
        pattern = str(pattern)
        absolute = pattern if os.path.isabs(pattern) \
            else str(base / pattern)
        matches = (sorted(globlib.glob(absolute))
                   if globlib.has_magic(absolute) else [absolute])
        if not matches:
            raise JobsError(f"manifest input {pattern!r} matched no files")
        for match in matches:
            if match in seen:
                continue
            if not os.path.isfile(match):
                raise JobsError(f"manifest input {match!r} is not a file")
            seen.add(match)
            inputs.append(match)
    if not inputs:
        raise JobsError("manifest has no inputs")
    return inputs


def load_manifest(path: PathLike,
                  output_dir: Optional[PathLike] = None) -> Manifest:
    """Load, validate and expand a manifest file.

    ``output_dir`` overrides the manifest's own (the CLI's
    ``--output-dir``); everything else comes from the file.  Raises
    :class:`JobsError` with the offending field on any problem —
    a bulk run should refuse bad input up front, not 40 minutes in.
    """
    path = Path(path)
    if not path.is_file():
        raise JobsError(f"manifest {path} not found")
    raw_bytes = path.read_bytes()
    try:
        raw = json.loads(raw_bytes)
    except ValueError as exc:
        raise JobsError(f"manifest {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise JobsError(f"manifest {path} must be a JSON object")
    known = {"artifacts", "inputs", "models", "output_dir", "shard_size",
             "batch_size", "workers", "retry"}
    unknown = set(raw) - known
    if unknown:
        raise JobsError(
            f"manifest {path}: unknown field(s) {sorted(unknown)}; "
            f"valid: {sorted(known)}")
    for required in ("artifacts", "inputs", "output_dir"):
        if required not in raw:
            raise JobsError(f"manifest {path}: missing field {required!r}")

    base = path.parent

    def resolve(p: str) -> Path:
        p = Path(p)
        return p if p.is_absolute() else base / p

    artifact_dir = resolve(raw["artifacts"])
    from ..deploy.serialize import key_str, scan_artifact_dir
    try:
        infos, _skipped = scan_artifact_dir(artifact_dir)
    except FileNotFoundError as exc:
        raise JobsError(str(exc)) from exc
    available = {key_str(info.key): str(info.path) for info in infos}
    if not available:
        raise JobsError(f"no deploy artifacts under {artifact_dir}")

    requested = raw.get("models")
    if requested is None:
        models = sorted(available)
    else:
        from ..serve.server import parse_model_key
        models = []
        for spec in requested:
            route = key_str(parse_model_key(spec))
            if route not in available:
                raise JobsError(
                    f"manifest model {spec!r}: no artifact for {route} "
                    f"in {artifact_dir} (available: "
                    f"{', '.join(sorted(available))})")
            models.append(route)
    artifacts = {route: available[route] for route in models}

    inputs_field = raw["inputs"]
    if isinstance(inputs_field, str):
        inputs_field = [inputs_field]
    if not isinstance(inputs_field, list) or not inputs_field:
        raise JobsError(f"manifest {path}: 'inputs' must be a non-empty "
                        "list of paths/globs")
    inputs = _resolve_inputs(inputs_field, base)

    def positive(name: str, default: int) -> int:
        value = int(raw.get(name, default))
        if value < 1:
            raise JobsError(f"manifest {path}: {name} must be >= 1")
        return value

    workers = raw.get("workers", 2)
    if int(workers) < 0:
        raise JobsError(f"manifest {path}: workers must be >= 0")
    try:
        retry = RetryPolicy.from_dict(raw.get("retry"))
    except (TypeError, ValueError) as exc:
        raise JobsError(f"manifest {path}: bad retry block: {exc}") from exc

    return Manifest(
        path=path,
        manifest_sha=hashlib.sha256(raw_bytes).hexdigest(),
        artifact_dir=artifact_dir,
        artifacts=artifacts,
        models=models,
        inputs=inputs,
        output_dir=Path(output_dir) if output_dir is not None
        else resolve(raw["output_dir"]),
        shard_size=positive("shard_size", 16),
        batch_size=positive("batch_size", 8),
        workers=int(workers),
        retry=retry)
