"""The `Engine` facade: one front door for the whole model lifecycle.

The five organically-grown entry layers — ``models.build_model``,
``deploy.compile_model``, ``deploy.serialize.save_artifact`` /
``load_artifact``, ``infer.InferencePipeline`` and
``serve.ModelServer`` — stay exactly where they are; :class:`Engine`
drives them through one typed, stateful object:

.. code-block:: python

    from repro.api import Engine, EngineConfig

    engine = (Engine.from_spec("srresnet", scheme="scales", scale=2,
                               config=EngineConfig(dtype="float32", seed=42))
              .train(steps=200)
              .compile())
    path = engine.export("srresnet_scales_x2.rbd.npz")

    served = Engine.from_artifact(path)        # no float model rebuilt
    result = served.infer(lr_image)            # typed InferResult
    sr = result.unwrap()

    with served.serve() as session:            # ModelServer round-trip,
        result2 = session.infer(lr_image)      # same InferResult type

Lifecycle states: a *spec-backed* engine starts with a float model
(train / compile / export all available); an *artifact-backed* engine
(``from_artifact``) starts compiled, with no float model (training
raises a typed :class:`EngineError`).  Inference works in every state —
on the packed model when compiled, on the float model otherwise — and
always executes through :class:`repro.infer.InferencePipeline`, so a
facade result is bit-identical to hand-wiring the layers with the same
knobs (the round-trip tests enforce this).

Every operation runs inside :meth:`EngineConfig.scope`, which applies
``config.dtype`` to the calling thread only (the inference pool carries
it into its workers), so engines with different dtypes can run
concurrently, each on its own thread, with outputs identical to their
serial runs.
"""

from __future__ import annotations

import tempfile
from dataclasses import replace
from pathlib import Path
from typing import Any, List, Optional, Sequence, Union

import numpy as np

from ..serve.server import ServerConfig
from .capabilities import Capability, capability
from .config import EngineConfig
from .results import EngineError, InferRequest, InferResult
from .spec import ModelSpec

__all__ = ["Engine"]


class Engine:
    """Typed facade over train -> compile -> export -> infer -> serve.

    Construct through :meth:`from_spec` or :meth:`from_artifact`; the
    bare constructor is for wiring pre-built models in (``model=`` a
    float model, ``compiled=`` a ``compile_model`` output).
    """

    def __init__(self, spec: Union[ModelSpec, str], *,
                 config: Optional[EngineConfig] = None,
                 model=None, compiled=None,
                 artifact_path: Optional[Path] = None) -> None:
        self.spec = ModelSpec.coerce(spec)
        self.config = config if config is not None else EngineConfig()
        self.model = model
        self.compiled = compiled
        self.artifact_path = (Path(artifact_path)
                              if artifact_path is not None else None)
        self.trainer = None
        self._pipeline = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_spec(cls, spec: Union[ModelSpec, str],
                  config: Optional[EngineConfig] = None,
                  **spec_kwargs: Any) -> "Engine":
        """Build the float model for a spec (or an architecture name
        plus ``scheme= / scale= / preset= / overrides``) and wrap it.

        Constructor overrides ride along either way: as an explicit
        ``overrides={...}`` dict or as bare extra keywords
        (``light_tail=True``); the two merge, bare keywords winning.
        ``config.seed`` (when set) seeds the RNG first, so weight
        initialization is reproducible; ``config.dtype`` scopes the
        build's default dtype.
        """
        overrides = dict(spec_kwargs.pop("overrides", {}))
        overrides.update({k: spec_kwargs.pop(k) for k in list(spec_kwargs)
                          if k not in ("scheme", "scale", "preset")})
        if overrides and not isinstance(spec, (ModelSpec, dict)):
            spec_kwargs["overrides"] = overrides
        elif overrides:
            raise EngineError(
                "constructor overrides go inside the ModelSpec/recipe when "
                f"one is passed (got extra keywords {sorted(overrides)})")
        spec = ModelSpec.coerce(spec, **spec_kwargs)
        engine = cls(spec, config=config)
        with engine.config.scope():
            engine.model = spec.build(seed=engine.config.seed)
        return engine

    @classmethod
    def from_artifact(cls, path, config: Optional[EngineConfig] = None
                      ) -> "Engine":
        """Load a packed deploy artifact into a compiled engine.

        The spec is recovered from the artifact's build recipe; the
        float model is never rebuilt (packed sites load as packed
        layers).  Tiling comes from ``config.tile`` alone (artifacts
        carry none).
        """
        from ..deploy.serialize import load_artifact, read_artifact_meta
        meta = read_artifact_meta(path)
        if meta.get("recipe") is None:
            raise EngineError(
                f"{path} carries no build recipe; load it with "
                "repro.deploy.load_artifact(skeleton=...) instead")
        spec = ModelSpec.from_recipe(meta["recipe"])
        engine = cls(spec, config=config, artifact_path=Path(path))
        with engine.config.scope():
            engine.compiled = load_artifact(path)
        return engine

    # -- introspection -----------------------------------------------------

    @property
    def state(self) -> str:
        """``"spec"`` (float model only), ``"compiled"``, or
        ``"exported"`` (compiled with an on-disk artifact)."""
        if self.compiled is not None:
            return "exported" if self.artifact_path is not None else "compiled"
        return "spec"

    def capability(self) -> Capability:
        """Can this cell compile / export / serve?  Answered from the
        merged registry before any work happens."""
        return capability(self.spec)

    def __repr__(self) -> str:
        return (f"Engine({self.spec.route!r}, state={self.state!r}, "
                f"preset={self.spec.preset!r})")

    # -- lifecycle ---------------------------------------------------------

    def train(self, pool=None, train_config=None, *,
              steps: Optional[int] = None, verbose: bool = False) -> "Engine":
        """Train the float model (paper recipe: L1 + ADAM).

        ``pool`` defaults to the synthetic DIV2K substitute at this
        spec's scale; ``train_config`` is a
        :class:`repro.train.TrainConfig` (``steps=`` overrides just the
        step count).  Returns ``self`` for chaining; the fitted
        :class:`repro.train.Trainer` stays available as ``.trainer``.
        """
        if self.model is None:
            raise EngineError(
                "artifact-backed engines have no float model to train; "
                "rebuild one with Engine.from_spec")
        from ..data import training_pool
        from ..train import TrainConfig, Trainer
        config = train_config if train_config is not None else TrainConfig()
        if steps is not None:
            config = replace(config, steps=steps)
        if pool is None:
            pool = training_pool(scale=self.spec.scale)
        with self.config.scope():
            self.trainer = Trainer(self.model, pool, config)
            self.trainer.fit(verbose=verbose)
        # Weights changed: any compiled twin or pipeline is stale.
        self.compiled = None
        self.artifact_path = None
        self._pipeline = None
        return self

    def compile(self, force: bool = False) -> "Engine":
        """Swap binary layers for packed twins (``deploy.compile_model``).

        Checks the capability registry first, so an undeployable cell
        fails with the registry's explanation instead of a compiler
        error.  No-op when already compiled (``force=True`` recompiles
        from the float model).
        """
        if self.compiled is not None and not force:
            return self
        if self.model is None:
            raise EngineError(
                "nothing to compile: artifact-backed engines are already "
                "compiled (pass force=False)" if self.artifact_path
                else "engine has no model")
        self.capability().require("compile")
        from ..deploy.engine import compile_model
        with self.config.scope():
            self.compiled = compile_model(self.model)
        self._pipeline = None
        return self

    def export(self, path=None) -> Path:
        """Write the packed deploy artifact (compiling first if needed).

        ``path`` defaults to the spec's canonical artifact name in the
        current directory.  The artifact holds the model only: tiling
        stays in ``config.tile``.  Returns the written path (also kept
        as ``.artifact_path``).
        """
        self.capability().require("export")
        self.compile()
        from ..deploy.serialize import save_artifact
        with self.config.scope():
            written = save_artifact(self.compiled, path,
                                    recipe=self.spec.to_recipe())
        self.artifact_path = Path(written)
        return self.artifact_path

    # -- inference ---------------------------------------------------------

    def pipeline(self):
        """The engine's :class:`repro.infer.InferencePipeline` (built
        lazily from the config; the escape hatch to the low-level API)."""
        if self._pipeline is None:
            model = self.compiled if self.compiled is not None else self.model
            if model is None:
                raise EngineError("engine has no model to run")
            from ..infer.pipeline import InferencePipeline
            self._pipeline = InferencePipeline(
                model, batch_size=self.config.batch_size,
                tile=self.config.tile, tile_overlap=self.config.tile_overlap,
                scale=self.spec.scale, n_threads=self.config.n_threads)
        return self._pipeline

    def infer(self, image: Union[np.ndarray, InferRequest]) -> InferResult:
        """Run one ``(H, W, C)`` image; returns a typed
        :class:`InferResult` (never raises for execution failures)."""
        return self.infer_many([image])[0]

    def infer_many(self, images: Sequence[Union[np.ndarray, InferRequest]]
                   ) -> List[InferResult]:
        """Run a batch of images through one pipeline flush.

        Returns one result per image, in order.  An image whose model
        forward raised resolves as a ``status == "error"`` result — the
        same typed outcome a :class:`repro.serve.ModelServer` round-trip
        produces — and fails alone: images run by other forwards keep
        their ``"ok"`` results.  Misuse (a non-``(H, W, C)`` image, a
        request routed to another model) raises :class:`EngineError`
        before anything runs.  Safe to call from several threads on one
        engine.
        """
        requests = [img if isinstance(img, InferRequest)
                    else InferRequest(image=np.asarray(img)) for img in images]
        key = self.spec.key
        from ..serve.server import parse_model_key
        arrays = []
        for req in requests:
            if req.model is not None and parse_model_key(req.model) != key:
                raise EngineError(
                    f"request routed to {req.model!r} but this engine runs "
                    f"{self.spec.route}; use a ServeSession (Engine.serve / "
                    "serve_directory) for multi-model routing")
            array = np.asarray(req.image)
            if array.ndim != 3:
                # Misuse is validated up front (and raises) so a bad
                # image never reaches the queue.
                raise EngineError(
                    f"expected an (H, W, C) image, got shape {array.shape}")
            arrays.append(array)
        pipeline = self.pipeline()
        handles = [pipeline.submit(array) for array in arrays]
        results = []
        # result() may flush images other threads queued: keep every
        # flush of this pipeline under the engine's dtype.
        with self.config.scope():
            pipeline.flush()
            for handle in handles:
                try:
                    results.append(InferResult.success(handle.result(), key))
                except Exception as exc:
                    results.append(InferResult.failure(
                        key, f"{type(exc).__name__}: {exc}"))
        return results

    # -- teardown ----------------------------------------------------------

    def close(self) -> None:
        """Release the engine's models and pipeline.

        Bulk workers cycle many engines through a bounded cache
        (:class:`repro.jobs.worker.EngineCache`); ``close()`` drops the
        packed/float models and the lazily built pipeline so their
        arrays free immediately instead of waiting on the cycle
        collector.  The engine keeps its spec/config and stays
        introspectable (``state`` returns to ``"spec"``); any further
        lifecycle call fails with the usual typed
        :class:`EngineError` for an engine with no model.
        """
        if self._pipeline is not None:
            self._pipeline.close()
        self._pipeline = None
        self.compiled = None
        self.model = None
        self.trainer = None
        self.artifact_path = None

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- serving -----------------------------------------------------------

    def serve(self, artifact_dir=None,
              config: Optional[ServerConfig] = None):
        """Start a :class:`repro.api.ServeSession` for this engine.

        With no ``artifact_dir`` the engine serves the directory
        containing its artifact — exporting into a fresh private
        temporary directory first when not yet exported (that zoo then
        holds only this engine's artifact and remains on disk after the
        session closes — it is recorded as ``.artifact_path`` and is
        the caller's to delete; an already-exported engine's directory
        may contain, and will serve, sibling artifacts).
        The session's default model is this engine's
        spec, so ``session.infer(image)`` round-trips through the
        :class:`repro.serve.ModelServer` and returns the same
        :class:`InferResult` objects ``Engine.infer`` does.

        ``config`` is the :class:`repro.serve.ServerConfig` to serve
        under; without one the server runs under
        :meth:`EngineConfig.to_server_config`: this engine's batch size,
        thread count and dtype, and the serving defaults.  The engine's
        ``dtype`` is then applied as the same thread-scoped override
        around every model load and flush — so served outputs are
        bit-identical to direct ``infer`` under a non-default dtype too
        (the cross-surface round-trip tests enforce this).
        """
        from .serving import ServeSession
        self.capability().require("serve")
        if artifact_dir is None:
            if self.artifact_path is None:
                workdir = tempfile.mkdtemp(prefix="repro_engine_zoo_")
                self.export(Path(workdir) / self.spec.artifact_name())
            artifact_dir = self.artifact_path.parent
        return ServeSession.over_directory(
            artifact_dir,
            config if config is not None else self.config.to_server_config(),
            default_model=self.spec.key)

    def stream(self, stream_config=None, *, session=None,
               stream_id: Optional[str] = None):
        """Open a :class:`repro.stream.StreamSession` for video SR.

        Frames submitted to the returned session are tile-delta
        planned against a per-stream tile cache, dirty tiles are
        served through this engine's artifact, and results are
        delivered strictly in sequence.  With no ``session`` the
        engine opens (and owns) a :meth:`serve` session — closing the
        stream closes it.  Pass an existing :class:`ServeSession` to
        share one server across many concurrent streams.

        ``stream_config`` is a :class:`repro.stream.StreamConfig`;
        when omitted, the stream's tile geometry follows the engine's
        ``config.tile`` / ``config.tile_overlap``, which is exactly
        the geometry that makes streamed frames bit-identical to
        one-shot :meth:`infer` with tiling enabled.
        """
        from ..stream import StreamConfig, StreamSession
        owns = session is None
        if session is None:
            session = self.serve()
        if stream_config is None:
            kwargs = {"overlap": self.config.tile_overlap}
            if self.config.tile is not None:
                kwargs["tile"] = self.config.tile
            stream_config = StreamConfig(**kwargs)
        return StreamSession(
            session, self.spec.key, self.spec.scale, stream_config,
            stream_id=stream_id, owns_backend=owns)

    # -- evaluation --------------------------------------------------------

    def evaluate(self, pairs, shave: Optional[int] = None):
        """Mean Y-channel PSNR/SSIM over LR/HR pairs
        (:func:`repro.train.evaluate` on the float model when present,
        else the compiled one)."""
        from ..train import evaluate
        model = self.model if self.model is not None else self.compiled
        if model is None:
            raise EngineError("engine has no model to evaluate")
        with self.config.scope():
            return evaluate(model, pairs, shave=shave)
