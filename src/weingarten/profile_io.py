"""CSV profile exchange format and JSON report helpers.

Profiles travel as CSV with columns theta,r,r1,r2,rho,h (radians, 17
significant digits, 'inf' for flat samples) and '#'-prefixed header
lines carrying metadata such as the relation text and tolerances.
Writes are atomic (write to a temp file, then rename) and streamed.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .expressions import ParseError
from .geometry import ProfileCurve3D, RoCProfile
from .relations import RelationError, parse_relation

__all__ = ["ProfileBundle", "write_profile_csv", "read_profile_csv", "write_json_atomic"]

COLUMNS = ("theta", "r", "r1", "r2", "rho", "h")
CSV_BLOCK_ROWS = 4096  # rows formatted per write; bounds the text held at once


def _atomic_write_text(path: str, text: str | Iterable[str]) -> None:
    """Write ``text``, or its parts one after another, to a temp file, then rename it."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    except OSError as exc:   # name the target, not the temp file
        raise type(exc)(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
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
    def from_parts(cls, profile: RoCProfile, embedding: Optional[ProfileCurve3D] = None,
                   metadata: Optional[dict] = None) -> "ProfileBundle":
        """The profile's samples; r is its support's grid samples, or NaN without one."""
        nanarr = np.full(len(profile.grid), np.nan)
        r = profile.support.r if profile.support is not None else nanarr
        if embedding is not None:
            rho, h = embedding.rho, embedding.h
        else:
            rho = profile.r1 * np.sin(profile.grid)
            h = nanarr
        return cls(profile.grid, r, profile.r1, profile.r2, rho, h,
                   {**profile.meta, **(metadata or {})})

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
    lines.append(",".join(COLUMNS))
    rows = np.column_stack([getattr(bundle, c) for c in COLUMNS]).astype(float, copy=False)
    row_format = ",".join(["%.17g"] * len(COLUMNS)) + "\n"

    def parts():
        yield "\n".join(lines) + "\n"
        for start in range(0, len(rows), CSV_BLOCK_ROWS):
            block = rows[start:start + CSV_BLOCK_ROWS]
            yield (row_format * len(block)) % tuple(block.ravel().tolist())

    _atomic_write_text(path, parts())


def read_profile_csv(path: str) -> ProfileBundle:
    metadata: dict = {}
    rows: list[str] = []
    linenos: list[int] = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
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
                    raise ParseError(f"line {lineno} has columns {line!r}, expected "
                                     f"{','.join(COLUMNS)!r}", 0)
                continue
            if line.count(",") != len(COLUMNS) - 1:
                raise ParseError(f"line {lineno} has {line.count(',') + 1} fields, expected 6", 0)
            rows.append(line)
            linenos.append(lineno)
    if not rows:
        raise ValueError(f"profile file {path!r} contains no samples")
    try:
        arr = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        # name the first line the same parser rejects on its own
        for lineno, line in zip(linenos, rows):
            try:
                np.loadtxt([line], delimiter=",", comments=None)
            except ValueError:
                raise ParseError(f"line {lineno} has a non-numeric field: {line!r}", 0) from None
        raise
    return ProfileBundle(arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3],
                         arr[:, 4], arr[:, 5], metadata)
