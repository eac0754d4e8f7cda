"""The capability registry: can this cell compile, export, serve?

The answer comes from :func:`repro.deploy.registry.classify_recipe` /
``deploy_registry`` — compile *coverage* (``full`` / ``partial`` /
``none``) probed against the compiler table.

:class:`Capability` turns it into one answer the
:class:`repro.api.Engine` consults *before* doing work: ``compile()``
on a cell whose capability says ``can_compile == False`` fails
immediately with the registry's own explanation, instead of deep inside
``compile_model``.  Export and serving ride on compilation — an
artifact exists iff the cell compiles, and the model server admits an
artifact iff its recipe classifies as deployable — so the three flags
are currently aligned by construction; they are kept separate in the
type because future backends (e.g. a remote serving target) can split
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..deploy.registry import DeployEntry, classify_recipe, deploy_registry
from ..deploy.serialize import key_str
from .results import EngineError
from .spec import ModelSpec

__all__ = ["Capability", "capability", "capability_matrix"]


@dataclass(frozen=True)
class Capability:
    """Everything the facade knows about one zoo cell, up front."""

    architecture: str
    scheme: str
    scale: int
    preset: str
    #: compile coverage: ``"full"`` | ``"partial"`` | ``"none"``
    coverage: str
    #: the registry's human-readable explanation
    detail: str

    @property
    def key(self) -> Tuple[str, str, int]:
        return (self.architecture, self.scheme, self.scale)

    @property
    def can_compile(self) -> bool:
        """``compile_model`` succeeds (>= 1 layer packs)."""
        return self.coverage in ("full", "partial")

    @property
    def can_export(self) -> bool:
        """``save_artifact`` produces a loadable artifact."""
        return self.can_compile

    @property
    def can_serve(self) -> bool:
        """``ModelServer`` admits this cell's artifact."""
        return self.can_compile

    def require(self, action: str = "compile") -> None:
        """Raise :class:`EngineError` when this cell cannot ``action``."""
        allowed = {"compile": self.can_compile, "export": self.can_export,
                   "serve": self.can_serve}
        if action not in allowed:
            raise KeyError(f"unknown capability action {action!r}")
        if not allowed[action]:
            raise EngineError(
                f"{key_str(self.key)} cannot {action}: coverage is "
                f"{self.coverage!r} ({self.detail})")


def _from_entry(entry: DeployEntry) -> Capability:
    return Capability(architecture=entry.architecture, scheme=entry.scheme,
                      scale=entry.scale, preset=entry.preset,
                      coverage=entry.coverage, detail=entry.detail)


def capability(spec: ModelSpec) -> Capability:
    """The capability record for one spec (validated, never raises for
    deployability — inspect the flags, or call :meth:`Capability.require`)."""
    spec = ModelSpec.coerce(spec)
    return _from_entry(classify_recipe(spec.to_recipe()))


def capability_matrix(scales: Sequence[int] = (2,),
                      preset: str = "tiny") -> List[Capability]:
    """Capability records for every cell the zoo builds — the
    deploy registry's matrix lifted into the public API."""
    return [_from_entry(e) for e in deploy_registry(scales, preset)]
