"""Versioned on-disk model format.

Models are stored as a JSON key/value tree. Every floating-point
coefficient is encoded as a C99 hex-float string (float.hex), so a
reloaded model reproduces predictions bit for bit. A model that
constructs saves and loads, and a file loads only when its model
constructs: the model types hold every validity rule, and load only
decodes, so a constructor's ValueError comes back as ModelFormatError.
Files are written to a temporary sibling and renamed into place.

README "Model files" lists the keys of format version 1; each
polynomial is stored in PolynomialWeightFunction.flat() order.
"""

from __future__ import annotations

import json
import os
import tempfile
from datetime import datetime, timezone

import numpy as np

from .features import NormalizationRecord, PolynomialWeightFunction, _count
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


def _decode(doc: dict, name: str, many: bool = False):
    """Inverse of _encode for `doc[name]`: a float, or an array when `many`."""
    raw = doc.get(name)
    if many and not isinstance(raw, list):
        raise ModelFormatError(f"field {name!r} must be a list of hex floats")
    try:
        values = [float.fromhex(v) for v in (raw if many else [raw])]
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"field {name!r}: bad hex float ({exc})") from exc
    return np.array(values, dtype=float) if many else values[0]


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

    try:
        K, p = (_count(f"field {name!r}", doc.get(name)) for name in ("K", "p"))
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from None
    parts = {}
    for name, key in (("beta", "coefficients"), ("alpha", "alpha"), ("gamma", "gamma")):
        if name == "beta" or doc.get(key) is not None:
            flat = _decode(doc, key, many=True)
            try:
                parts[name] = PolynomialWeightFunction.from_flat(flat, K, p)
            except ValueError as exc:
                raise ModelFormatError(f"field {key!r}: {exc}") from None
    raw_norm = doc.get("normalization")
    if not isinstance(raw_norm, (dict, type(None))):
        raise ModelFormatError("field 'normalization' must be an object or null")
    norm = None if raw_norm is None else {
        name: None if raw_norm.get(name) is None else
        _decode(raw_norm, name, many=name.startswith("feature")) for name in _NORM_FIELDS}
    theta, omega = _decode(doc, "theta"), _decode(doc, "omega")
    try:
        return TrainedModel(kind=doc.get("kind"), K=K, p=p, **parts, theta=theta, omega=omega,
                            normalization=None if norm is None else NormalizationRecord(**norm),
                            config=doc.get("config") or {})
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from None
