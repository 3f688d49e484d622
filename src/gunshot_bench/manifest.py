"""The dataset's label vocabulary and its manifest: one line-delimited JSON
record per clip."""

import hashlib
import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .errors import InvalidParam


class FirearmClass(Enum):
    RIFLE = "rifle"
    SUBMACHINE_GUN = "submachine_gun"
    HANDGUN_PISTOL = "handgun_pistol"
    MACHINE_GUN = "machine_gun"
    SHOTGUN = "shotgun"


CLASS_NAMES = [fc.value for fc in FirearmClass]
N_CLASSES = len(CLASS_NAMES)
NEGATIVE_LABEL = -1          # gun-type index of a clip without a gunshot
NO_GUNSHOT = "no_gunshot"
GUNSHOT = "gunshot"


@dataclass
class ManifestRow:
    id: str
    path: str
    detection_label: str     # gunshot | no_gunshot
    class_name: str | None   # firearm class, present iff gunshot
    duration_s: float
    clean: bool
    seed: int

    @property
    def class_index(self):
        return CLASS_NAMES.index(self.class_name) if self.class_name else None

    def to_dict(self):
        return {
            "id": self.id, "path": self.path,
            "detection_label": self.detection_label, "class": self.class_name,
            "duration_s": self.duration_s, "clean": self.clean, "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(d["id"], d["path"], d["detection_label"], d.get("class"),
                   float(d["duration_s"]), bool(d["clean"]), int(d["seed"]))


def write_manifest(path, rows):
    """Write rows as line-delimited JSON, one `to_dict` record per line."""
    with open(path, "w", encoding="utf-8") as f:
        for row in rows:
            f.write(json.dumps(row.to_dict()) + "\n")


def load_manifest(path, check_paths=True):
    """Load and validate a manifest: unique ids, class present iff gunshot,
    and (optionally) every referenced audio file present on disk."""
    path = Path(path)
    rows = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line:
                rows.append(ManifestRow.from_dict(json.loads(line)))
    ids = [r.id for r in rows]
    if len(set(ids)) != len(ids):
        raise InvalidParam(f"duplicate ids in manifest {path}")
    base = path.parent
    for r in rows:
        is_shot = r.detection_label == GUNSHOT
        if is_shot != (r.class_name is not None):
            raise InvalidParam(f"manifest row {r.id}: class must be present iff gunshot")
        if r.class_name is not None and r.class_name not in CLASS_NAMES:
            raise InvalidParam(f"manifest row {r.id}: unknown class {r.class_name}")
        if check_paths and not (base / r.path).exists():
            raise InvalidParam(f"manifest row {r.id}: missing file {r.path}")
    return rows


def manifest_digest(path):
    """Hex sha256 of the manifest file bytes (ties reports to their dataset)."""
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()
