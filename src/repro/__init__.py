"""repro — reproduction of "SCALES: Boost Binary Neural Network for Image
Super-Resolution with Efficient Scalings" (DATE 2025).

Subpackages
-----------
``repro.api``
    The typed public front door: ``ModelSpec`` + ``EngineConfig`` +
    the ``Engine`` facade over train -> compile -> export -> infer ->
    serve, with shared ``InferRequest``/``InferResult`` types and the
    capability registry.
``repro.grad``
    NumPy autograd engine (the PyTorch substitute).
``repro.nn`` / ``repro.optim``
    Layers, module system, optimizers.
``repro.binarize``
    The paper's contribution (SCALES layers) and all baseline binarizers.
``repro.models``
    SRResNet / EDSR / RDN / RCAN / SwinIR / HAT plus classifier references.
``repro.data``
    Synthetic DIV2K/benchmark substitutes, bicubic degradation, sampling.
``repro.metrics`` / ``repro.cost`` / ``repro.train`` / ``repro.analysis``
    PSNR/SSIM, params/OPs/latency accounting, training, activation study.
``repro.deploy``
    Packed XNOR-popcount engine: ``compile_model``, one-file deploy
    artifacts, the zoo-wide deploy registry.
``repro.infer``
    Batched/tiled inference, self-ensemble TTA, the micro-batching
    ``InferencePipeline`` and the shared thread pool.
``repro.serve``
    Multi-model artifact server: work-conserving micro-batching (a
    model's queue runs as soon as the model is idle), result cache,
    admission control, telemetry.
``repro.jobs``
    Crash-safe bulk inference: manifests, write-ahead journal,
    retry/backoff + quarantine, deterministic fault injection,
    kill-and-resume recovery (``python -m repro.jobs``).
``repro.stream``
    Video SR streaming: ordered per-stream sessions, cross-frame
    tile reuse, frame-deadline scheduling (drop-late / best-effort).
``repro.perf``
    Benchmark timing and BENCH_*.json trajectory recording.
``repro.viz``
    PNG/PPM image IO, comparison grids, ASCII plots.
``repro.experiments``
    Drivers regenerating every table and figure.

``import repro`` loads none of them: each subpackage in ``__all__``
loads on first access (``repro.serve``, ``getattr(repro, name)``), so a
serving process holds only what it runs.  SciPy loads only where a
Gaussian filter runs (data generation and SSIM).
"""

import importlib

__version__ = "0.1.0"

__all__ = [
    "analysis", "api", "binarize", "cost", "data", "deploy", "experiments",
    "grad", "infer", "jobs", "metrics", "models", "nn", "optim", "perf",
    "serve", "stream", "train", "viz", "__version__",
]


def __getattr__(name):
    """Import ``repro.<name>`` on first access (PEP 562)."""
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
