"""Declarative model specification — what to build, not how to run it.

:class:`ModelSpec` is the typed, validated description of one zoo cell:
architecture, binarization scheme, upsampling scale, size preset, plus
free-form constructor overrides.  It is the same information
``models.build_model`` stamps on its outputs as the ``build_recipe``
dict — a spec and a recipe convert losslessly into each other — but
validated eagerly, so a typo fails at spec construction with the list
of valid names instead of deep inside a model constructor.

Every :class:`repro.api.Engine` starts from a spec (``from_spec``) or
recovers one from an artifact's recipe (``from_artifact``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from ..binarize import conv_scheme_names
from ..deploy.serialize import key_str
from ..models import (ARCHITECTURES, CNN_ARCHITECTURES, preset_names,
                      transformer_scheme_names)

__all__ = ["ModelSpec"]


def _valid_schemes(architecture: str) -> Tuple[str, ...]:
    if architecture in CNN_ARCHITECTURES:
        return tuple(conv_scheme_names())
    return tuple(transformer_scheme_names())


@dataclass(frozen=True)
class ModelSpec:
    """One validated (architecture, scheme, scale, preset) zoo cell.

    Parameters
    ----------
    architecture:
        One of :data:`repro.models.ARCHITECTURES` (case-insensitive).
    scheme:
        Binarization scheme; validated against the architecture kind
        (conv schemes for CNNs, transformer schemes for SwinIR/HAT).
        Defaults to ``"scales"`` — the paper's method.
    scale:
        Upsampling factor (the paper evaluates 2, 3 and 4).
    preset:
        Size preset accepted by ``build_model`` for this architecture.
    overrides:
        Extra keyword overrides merged onto the preset at build time
        (e.g. ``{"light_tail": True}``).
    """

    architecture: str
    scheme: str = "scales"
    scale: int = 2
    preset: str = "tiny"
    overrides: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "architecture", str(self.architecture).lower())
        if self.architecture not in ARCHITECTURES:
            raise ValueError(
                f"unknown architecture {self.architecture!r}; choose from "
                f"{', '.join(ARCHITECTURES)}")
        schemes = _valid_schemes(self.architecture)
        if self.scheme not in schemes:
            raise ValueError(
                f"unknown scheme {self.scheme!r} for {self.architecture}; "
                f"choose from {', '.join(schemes)}")
        if int(self.scale) < 1:
            raise ValueError(f"scale must be >= 1, got {self.scale}")
        object.__setattr__(self, "scale", int(self.scale))
        presets = preset_names(self.architecture)
        if self.preset not in presets:
            raise ValueError(
                f"unknown preset {self.preset!r} for {self.architecture}; "
                f"choose from {', '.join(presets)}")
        object.__setattr__(self, "overrides", dict(self.overrides))

    # Overrides live in a dict, so the generated hash would fail; hash
    # the canonical item tuple instead (override values are plain
    # scalars in practice).
    def __hash__(self) -> int:
        return hash((self.architecture, self.scheme, self.scale, self.preset,
                     tuple(sorted(self.overrides.items()))))

    @property
    def key(self) -> Tuple[str, str, int]:
        """The zoo key ``(architecture, scheme, scale)`` — how the
        deploy registry, artifact scanner and model server name this
        cell."""
        return (self.architecture, self.scheme, self.scale)

    @property
    def route(self) -> str:
        """The server route string, e.g. ``"srresnet/scales/x2"``."""
        return key_str(self.key)

    def to_recipe(self) -> Dict[str, Any]:
        """The ``build_model`` recipe dict this spec is equivalent to."""
        return {"architecture": self.architecture, "scale": self.scale,
                "scheme": self.scheme, "preset": self.preset,
                "overrides": dict(self.overrides)}

    @classmethod
    def from_recipe(cls, recipe: Mapping[str, Any]) -> "ModelSpec":
        """Rebuild a spec from a ``build_recipe`` dict (e.g. out of a
        deploy artifact's metadata)."""
        return cls(architecture=recipe["architecture"],
                   scheme=recipe.get("scheme", "fp"),
                   scale=int(recipe.get("scale", 2)),
                   preset=str(recipe.get("preset", "tiny")),
                   overrides=dict(recipe.get("overrides", {})))

    @classmethod
    def coerce(cls, spec: "ModelSpec | Mapping | str",
               **kwargs: Any) -> "ModelSpec":
        """Normalize a spec, a recipe dict, or an architecture name."""
        if isinstance(spec, cls):
            if kwargs:
                raise ValueError(
                    "cannot combine an existing ModelSpec with keyword "
                    f"overrides {sorted(kwargs)}")
            return spec
        if isinstance(spec, Mapping):
            if kwargs:
                raise ValueError(
                    "cannot combine a recipe dict with keyword overrides "
                    f"{sorted(kwargs)}; edit the recipe instead")
            return cls.from_recipe(spec)
        return cls(architecture=spec, **kwargs)

    def artifact_name(self) -> str:
        """Canonical deploy-artifact file name for this cell."""
        from ..deploy.serialize import default_artifact_name
        return default_artifact_name(self.to_recipe())

    def build(self, conv_factory=None, linear_factory=None,
              seed: Optional[int] = None):
        """Instantiate the float model (``models.build_model``)."""
        from ..models import build_model
        if seed is not None:
            from ..nn import init
            init.seed(seed)
        return build_model(self.architecture, scale=self.scale,
                           scheme=self.scheme, preset=self.preset,
                           conv_factory=conv_factory,
                           linear_factory=linear_factory,
                           **dict(self.overrides))
