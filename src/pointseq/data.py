"""Dataset IO and the built-in synthetic shape generator.

Two plain-text formats, documented byte-exactly in docs/FORMATS.md:

* point file: one point per line, ``x y z`` or ``x y z part`` with
  whitespace-separated decimal floats and an integer part label.  Clouds are
  normalized into the unit ball as they are loaded; files are written with 17
  significant digits so a round trip preserves float64 values.
* manifest: ``key = value`` header lines (task, class or category names,
  part-label ranges) followed by one ``split path name`` record per sample,
  with paths relative to the manifest's directory.

The synthetic generator draws desk-scale stand-ins for scanned shapes:
spheres, cube surfaces, and random-orientation discs for classification, and
a two-part dome-plus-base composite for segmentation.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .config import DataConfig, TASKS
from .errors import ConfigError, DataError, ParseError
from .geometry import PointCloud, normalize_unit_ball

__all__ = [
    "load_point_file",
    "write_point_file",
    "ManifestSample",
    "DatasetManifest",
    "load_manifest",
    "write_manifest",
    "SyntheticSpec",
    "CLASS_KINDS",
    "SEG_PARTS",
    "sphere_surface",
    "cube_surface",
    "oriented_disc",
    "composite_two_part",
    "generate_synthetic",
    "synthetic_classification",
    "synthetic_segmentation",
    "synthetic_splits",
    "write_synthetic_dataset",
]


# ---------------------------------------------------------------------------
# point files


def load_point_file(path) -> PointCloud:
    """Parse ``x y z`` or ``x y z part`` lines and normalize into the unit ball.

    Blank lines are skipped; the column count of the first data line fixes
    the format for the rest of the file.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise DataError(f"cannot read point file {path}: {exc}") from exc
    coords: list[list[float]] = []
    labels: list[int] = []
    width = 0
    for lineno, line in enumerate(lines, start=1):
        cols = line.split()
        if not cols:
            continue
        if width == 0:
            if len(cols) not in (3, 4):
                raise ParseError(
                    f"expected 3 or 4 columns, got {len(cols)}", path=path, line=lineno
                )
            width = len(cols)
        if len(cols) != width:
            raise ParseError(
                f"expected {width} columns, got {len(cols)}", path=path, line=lineno
            )
        xyz = []
        for col in cols[:3]:
            try:
                value = float(col)
            except ValueError:
                raise ParseError(
                    f"cannot parse coordinate {col!r}", path=path, line=lineno
                ) from None
            if not math.isfinite(value):
                raise ParseError(
                    f"non-finite coordinate {col!r}", path=path, line=lineno
                )
            xyz.append(value)
        coords.append(xyz)
        if width == 4:
            try:
                labels.append(int(cols[3]))
            except ValueError:
                raise ParseError(
                    f"cannot parse part label {cols[3]!r}", path=path, line=lineno
                ) from None
    if not coords:
        raise DataError(f"point file {path} has no points")
    cloud = PointCloud(
        np.array(coords, dtype=np.float64),
        np.array(labels, dtype=np.int64) if width == 4 else None,
    )
    return normalize_unit_ball(cloud)


def write_point_file(path, cloud: PointCloud) -> None:
    """One point per line with 17 significant digits (float64-faithful)."""
    rows = []
    if cloud.labels is None:
        for x, y, z in cloud.points:
            rows.append(f"{x:.17g} {y:.17g} {z:.17g}")
    else:
        for (x, y, z), part in zip(cloud.points, cloud.labels):
            rows.append(f"{x:.17g} {y:.17g} {z:.17g} {part}")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(rows) + "\n")


# ---------------------------------------------------------------------------
# manifests


@dataclass
class ManifestSample:
    """One record: a loaded point file plus its class or category id."""

    path: str
    name: str
    label: int
    cloud: PointCloud


@dataclass
class DatasetManifest:
    """A validated dataset: every referenced file loaded, labels checked."""

    task: str
    names: tuple[str, ...]
    part_ranges: dict[str, tuple[int, int]]
    samples: dict[str, list[ManifestSample]]

    def split(self, name: str) -> tuple[list[PointCloud], np.ndarray]:
        """Clouds and class/category ids for one split, in record order."""
        entries = self.samples.get(name, [])
        clouds = [s.cloud for s in entries]
        ids = np.array([s.label for s in entries], dtype=np.int64)
        return clouds, ids


def load_manifest(path) -> DatasetManifest:
    """Parse a manifest and eagerly load and validate every referenced file."""
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise DataError(f"cannot read manifest {path}: {exc}") from exc
    base = os.path.dirname(os.path.abspath(path))
    header: dict[str, str] = {}
    records: list[tuple[int, str, str, str]] = []
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" in text:
            key, _, raw = text.partition("=")
            key = key.strip()
            if key in header:
                raise ParseError(f"duplicate header key {key!r}", path=path, line=lineno)
            header[key] = raw.strip()
        else:
            cols = text.split()
            if len(cols) != 3:
                raise ParseError(
                    "records need three fields: split, path, name", path=path, line=lineno
                )
            records.append((lineno, cols[0], cols[1], cols[2]))

    task = header.pop("task", None)
    if task not in TASKS:
        raise DataError(
            f"manifest {path} must declare task = classification or segmentation"
        )
    name_key = "classes" if task == "classification" else "categories"
    names = tuple(header.pop(name_key, "").split())
    if not names:
        raise DataError(f"manifest {path} must declare {name_key}")
    if len(set(names)) != len(names):
        raise DataError(f"manifest {path} repeats a name in {name_key}")

    part_ranges: dict[str, tuple[int, int]] = {}
    if task == "segmentation":
        for name in names:
            raw = header.pop(f"parts.{name}", None)
            if raw is None:
                raise DataError(f"manifest {path} is missing parts.{name}")
            try:
                lo, hi = (int(c) for c in raw.split())
            except ValueError:
                raise DataError(
                    f"manifest {path}: parts.{name} must be two integers"
                ) from None
            if lo < 0 or hi <= lo:
                raise DataError(
                    f"manifest {path}: parts.{name} range [{lo}, {hi}) is empty or negative"
                )
            part_ranges[name] = (lo, hi)
    if header:
        stray = sorted(header)[0]
        raise DataError(f"manifest {path} has unknown header key {stray!r}")

    label_of = {name: i for i, name in enumerate(names)}
    kind = "class" if task == "classification" else "category"
    samples: dict[str, list[ManifestSample]] = {}
    for lineno, split, rel, name in records:
        if name not in label_of:
            raise ParseError(f"unknown {kind} {name!r}", path=path, line=lineno)
        full = os.path.normpath(os.path.join(base, rel))
        if not os.path.exists(full):
            raise DataError(f"manifest {path} references missing file {full}")
        cloud = load_point_file(full)
        if task == "segmentation":
            if cloud.labels is None:
                raise DataError(f"{full} has no part labels but the task is segmentation")
            lo, hi = part_ranges[name]
            if cloud.labels.min() < lo or cloud.labels.max() >= hi:
                raise DataError(
                    f"{full} has part labels outside the {name!r} range [{lo}, {hi})"
                )
        samples.setdefault(split, []).append(
            ManifestSample(full, name, label_of[name], cloud)
        )
    return DatasetManifest(task, names, part_ranges, samples)


def write_manifest(path, task, names, records, part_ranges=None) -> None:
    """Write header plus ``split path name`` records.

    ``records`` holds (split, relative path, name) triples; paths must be
    relative to the manifest's own directory.
    """
    name_key = "classes" if task == "classification" else "categories"
    out = [f"task = {task}", f"{name_key} = " + " ".join(names)]
    if task == "segmentation":
        for name in names:
            lo, hi = part_ranges[name]
            out.append(f"parts.{name} = {lo} {hi}")
    out.append("")
    for split, rel, name in records:
        out.append(f"{split} {rel} {name}")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(out) + "\n")


# ---------------------------------------------------------------------------
# synthetic shapes

_KINDS = ("sphere", "cube", "plane", "composite")

# classification class names in label order; segmentation part-label range
CLASS_KINDS = ("cube", "plane", "sphere")
SEG_PARTS = (0, 2)


@dataclass(frozen=True)
class SyntheticSpec:
    """One generator: what to draw, how many points, how much noise."""

    kind: str
    points: int = 64
    noise: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigError(f"generator kind must be one of {_KINDS}, got {self.kind!r}")
        if self.points < 8:
            raise ConfigError(f"points per cloud must be at least 8, got {self.points}")
        if self.noise < 0.0:
            raise ConfigError(f"noise amplitude must be non-negative, got {self.noise}")


def sphere_surface(rng, n: int) -> np.ndarray:
    """Uniform points on the unit sphere (normalized Gaussian draws)."""
    v = rng.normal(size=(n, 3))
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    return v / np.maximum(norms, np.finfo(np.float64).tiny)


def cube_surface(rng, n: int) -> np.ndarray:
    """Uniform points on the surface of the cube [-1, 1]^3."""
    face = rng.integers(0, 6, size=n)
    uv = rng.uniform(-1.0, 1.0, size=(n, 2))
    axis = face // 2
    pts = np.zeros((n, 3))
    rows = np.arange(n)
    pts[rows, axis] = np.where(face % 2 == 0, 1.0, -1.0)
    others = np.stack([(axis + 1) % 3, (axis + 2) % 3], axis=1)
    pts[rows[:, None], others] = uv
    return pts


def _disc(rng, n: int) -> np.ndarray:
    # area-uniform draw on the unit disc in the xy plane
    r = np.sqrt(rng.uniform(size=n))
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return np.stack([r * np.cos(theta), r * np.sin(theta), np.zeros(n)], axis=1)


def _random_rotation(rng) -> np.ndarray:
    # QR of a Gaussian matrix; sign fixes make Q a proper uniform rotation
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.where(np.diagonal(r) < 0, -1.0, 1.0)
    if np.linalg.det(q) < 0:
        q[:, 2] *= -1.0
    return q


def oriented_disc(rng, n: int) -> np.ndarray:
    """Uniform points on a unit disc with a random orientation."""
    return _disc(rng, n) @ _random_rotation(rng).T


def composite_two_part(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    """A hemisphere dome (part 0) over a flat disc base (part 1)."""
    n_dome = n // 2
    dome = sphere_surface(rng, n_dome)
    dome[:, 2] = np.abs(dome[:, 2])
    base = _disc(rng, n - n_dome)
    points = np.concatenate([dome, base], axis=0)
    labels = np.concatenate(
        [np.zeros(n_dome, dtype=np.int64), np.ones(n - n_dome, dtype=np.int64)]
    )
    return points, labels


def generate_synthetic(spec: SyntheticSpec, count: int) -> list[PointCloud]:
    """``count`` independent clouds from the spec's generator.

    Deterministic per (kind, seed); Gaussian noise of the given amplitude is
    added before unit-ball normalization.
    """
    rng = np.random.default_rng([_KINDS.index(spec.kind), spec.seed])
    out = []
    for _ in range(count):
        if spec.kind == "composite":
            pts, labels = composite_two_part(rng, spec.points)
        elif spec.kind == "sphere":
            pts, labels = sphere_surface(rng, spec.points), None
        elif spec.kind == "cube":
            pts, labels = cube_surface(rng, spec.points), None
        else:
            pts, labels = oriented_disc(rng, spec.points), None
        if spec.noise > 0.0:
            pts = pts + rng.normal(scale=spec.noise, size=pts.shape)
        out.append(normalize_unit_ball(PointCloud(pts, labels)))
    return out


def synthetic_classification(points, noise, per_class, seed):
    """A balanced set over CLASS_KINDS; returns (clouds, class ids)."""
    clouds: list[PointCloud] = []
    labels: list[int] = []
    for label, kind in enumerate(CLASS_KINDS):
        spec = SyntheticSpec(kind, points=points, noise=noise, seed=seed)
        for cloud in generate_synthetic(spec, per_class):
            clouds.append(cloud)
            labels.append(label)
    return clouds, np.asarray(labels, dtype=np.int64)


def synthetic_segmentation(points, noise, count, seed):
    """Two-part composite clouds; returns (clouds, category ids of zero)."""
    spec = SyntheticSpec("composite", points=points, noise=noise, seed=seed)
    clouds = generate_synthetic(spec, count)
    return clouds, np.zeros(len(clouds), dtype=np.int64)


def synthetic_splits(data_cfg: DataConfig, task: str):
    """Deterministic train/test splits for the configured synthetic set.

    The splits draw from disjoint seed streams (2s for train, 2s + 1 for
    test) so no cloud appears on both sides.
    """
    make = synthetic_classification if task == "classification" else synthetic_segmentation
    train_clouds, train_labels = make(
        data_cfg.points, data_cfg.noise, data_cfg.train_count, 2 * data_cfg.seed
    )
    test_clouds, test_labels = make(
        data_cfg.points, data_cfg.noise, data_cfg.test_count, 2 * data_cfg.seed + 1
    )
    return train_clouds, train_labels, test_clouds, test_labels


def write_synthetic_dataset(out_dir, data_cfg: DataConfig, task: str) -> str:
    """Materialize the synthetic splits as point files plus a manifest.

    Names and contents are deterministic, so re-running with the same seed
    reproduces every byte. Returns the manifest path.
    """
    os.makedirs(out_dir, exist_ok=True)
    names = CLASS_KINDS if task == "classification" else ("composite",)
    train_clouds, train_labels, test_clouds, test_labels = synthetic_splits(data_cfg, task)
    records = []
    counters: dict[tuple[str, str], int] = {}
    for split, clouds, labels in (
        ("train", train_clouds, train_labels),
        ("test", test_clouds, test_labels),
    ):
        for cloud, label in zip(clouds, labels):
            name = names[int(label)]
            i = counters.get((split, name), 0)
            counters[(split, name)] = i + 1
            rel = f"{split}_{name}_{i:03d}.pts"
            write_point_file(os.path.join(out_dir, rel), cloud)
            records.append((split, rel, name))
    manifest_path = os.path.join(out_dir, "manifest.txt")
    part_ranges = {"composite": SEG_PARTS} if task == "segmentation" else None
    write_manifest(manifest_path, task, names, records, part_ranges)
    return manifest_path
