"""Typed option objects for the facade, the CLI, and the wire API.

One options object, three frontends: :func:`repro.api.analyze`,
``repro analyze`` and ``POST /v1/analyze`` all configure the same
computation, so they share one :class:`AnalyzeOptions` (and the
:class:`ReplayOptions` / :class:`ReportOptions` siblings) instead of
three drifting keyword lists.

The dataclasses are frozen — an options object is a value, safe to hash
into cache keys and to share between the deduplicating service jobs.
Two constructors cover the non-Python frontends:

* :meth:`from_kwargs` — the facade's bare-keyword compatibility shim
  (``api.analyze(trace, benign_detection=False)`` keeps working for one
  release, with a :class:`DeprecationWarning`);
* :meth:`from_wire` — a JSON object from the v1 wire API, validated
  field by field (unknown fields and wrong types raise
  :class:`~repro.errors.OptionsError` with a stable error code).

``to_wire()`` is the inverse of ``from_wire`` and is canonical: it emits
only non-default fields, sorted, so equal options always serialize to
equal JSON (and therefore equal cache keys).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, fields
from typing import Optional, Union

from repro.errors import OptionsError

__all__ = ["AnalyzeOptions", "ReplayOptions", "ReportOptions"]


class _Options:
    """Shared constructors/serializers for the frozen option dataclasses."""

    @classmethod
    def from_kwargs(cls, kwargs: dict):
        """Build from bare keyword arguments; unknown names raise."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(kwargs) - known)
        if unknown:
            raise TypeError(
                f"unknown {cls.__name__} field(s) {unknown}; "
                f"known: {sorted(known)}"
            )
        options = cls(**kwargs)
        options.validate()
        return options

    @classmethod
    def from_wire(cls, payload: Optional[dict]):
        """Build from a decoded JSON object, validating every field."""
        if payload is None:
            return cls()
        if not isinstance(payload, dict):
            raise OptionsError(
                f"{cls.__name__}: expected a JSON object, got "
                f"{type(payload).__name__}"
            )
        known = {f.name: f for f in fields(cls)}
        unknown = sorted(set(payload) - set(known))
        if unknown:
            raise OptionsError(
                f"{cls.__name__}: unknown field(s) {unknown}; "
                f"known: {sorted(known)}"
            )
        values = {}
        for name, value in payload.items():
            values[name] = _check_type(cls.__name__, name, value,
                                       known[name].type)
        try:
            options = cls(**values)
        except (TypeError, ValueError) as exc:
            raise OptionsError(f"{cls.__name__}: {exc}") from None
        options.validate()
        return options

    def to_wire(self) -> dict:
        """Canonical JSON form: non-default fields only, plain types."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            default = (f.default if f.default is not dataclasses.MISSING
                       else f.default_factory())
            if value != default:
                out[f.name] = value
        return out

    def replace(self, **changes):
        """A copy with ``changes`` applied (frozen dataclasses are values)."""
        return dataclasses.replace(self, **changes)

    def validate(self) -> None:
        """Range/consistency checks beyond field types (may be overridden)."""


# wire-type table: dataclass annotation string -> (python types, label).
# annotations are strings under `from __future__ import annotations`, so
# the check is by name, not by evaluated type object.
_WIRE_TYPES = {
    "bool": ((bool,), "a boolean"),
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "str": ((str,), "a string"),
    "Optional[str]": ((str, type(None)), "a string or null"),
    "Optional[int]": ((int, type(None)), "an integer or null"),
    "Union[bool, str]": ((bool, str), "a boolean or string"),
    "dict": ((dict,), "an object"),
}


def _check_type(owner: str, name: str, value, annotation):
    types, label = _WIRE_TYPES.get(str(annotation), ((object,), "a value"))
    if not isinstance(value, types) or (
        bool not in types and isinstance(value, bool) and types != (object,)
    ):
        raise OptionsError(
            f"{owner}.{name}: expected {label}, got {value!r}"
        )
    return value


@dataclass(frozen=True)
class AnalyzeOptions(_Options):
    """How :func:`repro.api.analyze` identifies and classifies ULCP pairs.

    ``benign_detection``
        run the reversed-replay benign test on conflicting pairs (the
        default); off, conflicting pairs count as TLCPs.
    ``stream``
        ``"auto"`` (default) decodes a small indexed segmented file once
        into a shared core, streams larger ones segment by segment (the
        rule is :data:`repro.api.DECODE_ONCE_MAX_EVENTS`), and fully
        loads everything else; ``True`` always streams and requires a
        segmented file path; ``False`` always loads fully.
    ``resume`` / ``checkpoint_every``
        run id for segment-granular scan checkpoints, and the number of
        segments between checkpoints (streaming path only).
    ``jobs``
        affinity-pinned worker processes for a sharded streaming scan
        (mutually exclusive with ``resume``).
    """

    benign_detection: bool = True
    stream: Union[bool, str] = "auto"
    resume: Optional[str] = None
    checkpoint_every: int = 16
    jobs: int = 1

    def validate(self) -> None:
        if isinstance(self.stream, str) and self.stream != "auto":
            raise OptionsError(
                f"AnalyzeOptions.stream: expected true, false or \"auto\", "
                f"got {self.stream!r}"
            )
        if self.checkpoint_every < 1:
            raise OptionsError(
                "AnalyzeOptions.checkpoint_every: must be >= 1"
            )
        if self.jobs > 1 and self.resume is not None:
            raise OptionsError(
                "AnalyzeOptions: jobs>1 fans the scan out, resume "
                "checkpoints it; pick one"
            )


@dataclass(frozen=True)
class ReplayOptions(_Options):
    """How :func:`repro.api.replay` re-executes a trace.

    ``scheme`` is one of ``ALL_SCHEMES`` (default ELSC-S); ``runs`` > 1
    returns a seeded series (``seed``, ``seed+1``, ...) fanned over
    ``jobs`` worker processes; ``timeline`` collects live interval lanes
    (single runs only); ``resume`` journals a multi-run series under the
    active cache so a killed call can continue.
    """

    scheme: str = "ELSC-S"
    runs: int = 1
    seed: int = 0
    jitter: float = 0.02
    jobs: int = 1
    timeline: bool = False
    resume: Optional[str] = None

    def validate(self) -> None:
        from repro.replay.schemes import ALL_SCHEMES

        if self.scheme not in ALL_SCHEMES:
            raise OptionsError(
                f"ReplayOptions.scheme: unknown scheme {self.scheme!r} "
                f"(expected one of {ALL_SCHEMES})"
            )
        if self.runs < 1:
            raise OptionsError("ReplayOptions.runs: must be >= 1")


@dataclass(frozen=True)
class ReportOptions(_Options):
    """How :func:`repro.api.report` runs the session behind the HTML report.

    The workload parameters (``threads``/``input_size``/``scale``/
    ``seed``/``workload_kwargs``) apply when the report's input is a
    workload name rather than a recorded trace; the analysis knobs
    (``benign_detection``/``order_edges``) configure the transformation
    either way.
    """

    threads: int = 2
    input_size: str = "simlarge"
    scale: float = 1.0
    seed: int = 0
    benign_detection: bool = True
    order_edges: bool = True
    workload_kwargs: dict = dataclasses.field(default_factory=dict)

    def validate(self) -> None:
        if self.input_size not in ("simsmall", "simmedium", "simlarge"):
            raise OptionsError(
                f"ReportOptions.input_size: expected simsmall/simmedium/"
                f"simlarge, got {self.input_size!r}"
            )
        if self.threads < 1:
            raise OptionsError("ReportOptions.threads: must be >= 1")
