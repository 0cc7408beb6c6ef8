"""Versioned on-disk model format.

Models are stored as a JSON key/value tree. Every floating-point
coefficient is encoded as a C99 hex-float string (float.hex), so a
reloaded model reproduces predictions bit for bit. A file holding a
non-finite number ("nan", "inf") is rejected. Files are written to a
temporary sibling and renamed into place.

Format version 1 fields:
    format_version   int, always 1
    kind             "gd-full" | "gd-reduced" | "lls"
    K, p             polynomial degree and input dimension
    coefficients     flat hex-float list [c0, c_11..c_1p, ..., c_K1..c_Kp]
                     for the Ry-angle polynomial
    alpha, gamma     same layout for the two Rz-angle polynomials
                     (null unless kind is "gd-full")
    theta, omega     hex-float scalars (state / observable angles)
    normalization    {feature_min, feature_max: hex lists, both or
                      neither null; target_min, target_max: hex or
                      null} or null; no max lies below its min
    config           trainer settings snapshot (plain JSON)
    created          ISO-8601 UTC timestamp
"""

from __future__ import annotations

import json
import os
import tempfile
from datetime import datetime, timezone

import numpy as np

from .features import NormalizationRecord, PolynomialWeightFunction, _all_finite, _count
from .training import TrainedModel

__all__ = ["save", "load", "FORMAT_VERSION", "UnsupportedFormat", "ModelFormatError"]

FORMAT_VERSION = 1


class UnsupportedFormat(ValueError):
    """The file declares a format version this code does not understand."""


class ModelFormatError(ValueError):
    """The file is structurally invalid; the message names the field."""


# Keys of the "normalization" object, in file order.
_NORM_FIELDS = ("feature_min", "feature_max", "target_min", "target_max")


def _encode(value):
    """float.hex of a scalar, a list of them for an array; None stays None."""
    if value is None:
        return None
    arr = np.asarray(value, dtype=float)
    return float(arr).hex() if arr.ndim == 0 else [float(v).hex() for v in arr.ravel()]


def _decode(doc: dict, name: str, size: int | None = None):
    """Inverse of _encode for `doc[name]`: one finite float when `size`
    is None, else an array of exactly `size` finite floats."""
    raw = doc.get(name)
    if size is not None and not isinstance(raw, list):
        raise ModelFormatError(f"field {name!r} must be a list of hex floats")
    try:
        values = np.array([float.fromhex(v) for v in ([raw] if size is None else raw)],
                          dtype=float)
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"field {name!r}: bad hex float ({exc})") from exc
    if not _all_finite(values):
        raise ModelFormatError(f"field {name!r} holds a non-finite value")
    if size is None:
        return float(values[0])
    if values.size != size:
        raise ModelFormatError(f"field {name!r} has {values.size} entries, expected {size}")
    return values


def save(model: TrainedModel, path) -> None:
    """Write the model atomically as versioned JSON."""
    rec = model.normalization
    norm = None if rec is None else {name: _encode(getattr(rec, name)) for name in _NORM_FIELDS}
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": model.kind,
        "K": model.K,
        "p": model.p,
        "coefficients": _encode(model.beta.flat()),
        "alpha": None if model.alpha is None else _encode(model.alpha.flat()),
        "gamma": None if model.gamma is None else _encode(model.gamma.flat()),
        "theta": _encode(model.theta),
        "omega": _encode(model.omega),
        "normalization": norm,
        "config": model.config,
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(prefix=".model-", suffix=".tmp", dir=directory)
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load(path) -> TrainedModel:
    """Read a model file; raises UnsupportedFormat for unknown versions
    and ModelFormatError naming the offending field otherwise."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelFormatError("top-level value must be an object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise UnsupportedFormat(f"format_version {version!r} is not supported "
                                f"(this build reads version {FORMAT_VERSION})")

    kind = doc.get("kind")
    if kind not in ("gd-full", "gd-reduced", "lls"):
        raise ModelFormatError(f"field 'kind' has unknown value {kind!r}")
    try:
        K, p = (_count(f"field {name!r}", doc.get(name)) for name in ("K", "p"))
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from None

    n_coef = 1 + K * p
    beta = PolynomialWeightFunction.from_flat(_decode(doc, "coefficients", n_coef), K, p)
    alpha = gamma = None
    if kind == "gd-full":
        alpha = PolynomialWeightFunction.from_flat(_decode(doc, "alpha", n_coef), K, p)
        gamma = PolynomialWeightFunction.from_flat(_decode(doc, "gamma", n_coef), K, p)

    norm = None
    raw_norm = doc.get("normalization")
    if raw_norm is not None:
        if not isinstance(raw_norm, dict):
            raise ModelFormatError("field 'normalization' must be an object or null")
        fields = {name: None if raw_norm.get(name) is None else
                  _decode(raw_norm, name, p if name.startswith("feature") else None)
                  for name in _NORM_FIELDS}
        if (fields["feature_min"] is None) != (fields["feature_max"] is None):
            raise ModelFormatError("fields 'feature_min' and 'feature_max' must both be "
                                   "present or both be null")
        for lo, hi in (("feature_min", "feature_max"), ("target_min", "target_max")):
            if (fields[lo] is not None and fields[hi] is not None
                    and np.any(fields[hi] < fields[lo])):
                raise ModelFormatError(f"field {hi!r} lies below {lo!r}")
        norm = NormalizationRecord(**fields)

    config = doc.get("config") or {}
    if not isinstance(config, dict):
        raise ModelFormatError("field 'config' must be an object")
    return TrainedModel(kind=kind, K=K, p=p, beta=beta, alpha=alpha, gamma=gamma,
                        theta=_decode(doc, "theta"), omega=_decode(doc, "omega"),
                        normalization=norm, config=config)
