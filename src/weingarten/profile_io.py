"""CSV profile exchange format and JSON report helpers.

Profiles travel as CSV with columns theta,r,r1,r2,rho,h (radians, 17
significant digits, 'inf' for flat samples) and '#'-prefixed header
lines carrying metadata such as the relation text and tolerances.
Writes are atomic (write to a temp file, then rename).
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .expressions import ParseError
from .geometry import ProfileCurve3D, RoCProfile, SupportProfile
from .relations import RelationError, parse_relation

__all__ = ["ProfileBundle", "write_profile_csv", "read_profile_csv",
           "write_json_atomic", "format_float"]

COLUMNS = ("theta", "r", "r1", "r2", "rho", "h")


def format_float(x: float) -> str:
    if x != x:
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(float(x), ".17g")


def _atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_atomic(path: str, data: dict) -> None:
    _atomic_write_text(path, json.dumps(data, indent=2, sort_keys=True) + "\n")


@dataclass
class ProfileBundle:
    """A profile as it travels through files: samples plus metadata."""

    theta: np.ndarray
    r: np.ndarray
    r1: np.ndarray
    r2: np.ndarray
    rho: np.ndarray
    h: np.ndarray
    metadata: dict = field(default_factory=dict)

    @classmethod
    def from_parts(cls, profile: RoCProfile, support: Optional[SupportProfile] = None,
                   embedding: Optional[ProfileCurve3D] = None,
                   metadata: Optional[dict] = None) -> "ProfileBundle":
        n = len(profile.grid)
        nanarr = np.full(n, np.nan)
        r = support.value(profile.grid) if support is not None else nanarr
        if embedding is not None:
            rho, h = embedding.rho, embedding.h
        else:
            rho = profile.r1 * np.sin(profile.grid)
            h = nanarr
        meta = dict(profile.meta)
        if metadata:
            meta.update(metadata)
        return cls(profile.grid, np.asarray(r, dtype=float), profile.r1, profile.r2,
                   rho, h, meta)

    def roc_profile(self) -> RoCProfile:
        """The stored radii, carrying the relation of the ``relation`` header if it parses."""
        meta = {k: v for k, v in self.metadata.items()}
        meta.setdefault("value_noise", 1e-12)  # 17-significant-digit storage
        relation = None
        relation_text = self.metadata.get("relation")
        if relation_text:
            try:
                relation = parse_relation(str(relation_text))
            except (ParseError, RelationError):
                pass
        return RoCProfile(self.theta, self.r1, self.r2, relation=relation, meta=meta)


def write_profile_csv(path: str, bundle: ProfileBundle) -> None:
    lines = ["# weingarten profile", "# schema: 1"]
    for key in sorted(bundle.metadata):
        value = bundle.metadata[key]
        if isinstance(value, (dict, list, tuple)):
            value = json.dumps(value)
        lines.append(f"# {key}: {value}")
    lines.append("theta,r,r1,r2,rho,h")
    cols = [bundle.theta, bundle.r, bundle.r1, bundle.r2, bundle.rho, bundle.h]
    for row in zip(*cols):
        lines.append(",".join(format_float(x) for x in row))
    _atomic_write_text(path, "\n".join(lines) + "\n")


def read_profile_csv(path: str) -> ProfileBundle:
    metadata: dict = {}
    rows: list[list[float]] = []
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if ":" in body:
                    key, _, value = body.partition(":")
                    metadata[key.strip()] = value.strip()
                continue
            if line.startswith("theta"):
                header = [c.strip() for c in line.split(",")]
                if tuple(header) != COLUMNS:
                    raise ValueError(f"unexpected profile columns {header}")
                continue
            rows.append([float(x) for x in line.split(",")])
    if not rows:
        raise ValueError(f"profile file {path!r} contains no samples")
    arr = np.asarray(rows, dtype=float)
    return ProfileBundle(arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3],
                         arr[:, 4], arr[:, 5], metadata)
