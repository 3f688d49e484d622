"""The dataset's label vocabulary, its manifest (one line-delimited JSON
record per clip), and the checked reader and the writer of JSON files.

A manifest row holds what a command reads of a clip: `id`, `path` (relative
to the manifest's directory), `detection_label` (gunshot or no_gunshot) and
`class` (the firearm class, present iff gunshot). So a manifest of
recordings needs nothing more; how `gsb generate` synthesized its clips is
in the dataset's `config.json`. Other keys in a row are ignored."""

import hashlib
import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .errors import InvalidParam, MalformedFile


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

    @property
    def class_index(self):
        return CLASS_NAMES.index(self.class_name) if self.class_name else None

    def to_dict(self):
        return {"id": self.id, "path": self.path, "detection_label": self.detection_label,
                "class": self.class_name}

    KEYS = {"id": str, "path": str, "detection_label": str}

    @classmethod
    def from_dict(cls, d):
        return cls(d["id"], d["path"], d["detection_label"], d.get("class"))


def read_json(path, keys, where=None, text=None):
    """The JSON object in file `path` (or in `text`, one line of it) holding
    each key of `keys` with a value of the type(s) it maps to. Text that does
    not parse, is not an object or lacks such a key raises MalformedFile
    naming `where` (default: the path)."""
    where = where or path
    try:
        obj = json.loads(Path(path).read_bytes() if text is None else text)
    except ValueError as e:
        raise MalformedFile(f"{where}: {e}") from None
    if not isinstance(obj, dict):
        raise MalformedFile(f"{where}: expected a JSON object, found {type(obj).__name__}")
    return require_keys(obj, keys, where)


def require_keys(obj, keys, where):
    """`obj`, or MalformedFile naming `where` and the first key of `keys` that
    it lacks or holds with a type other than the one (or a tuple of those)
    `keys` maps it to. Types must match exactly, so a JSON true is no int."""
    for key, types in keys.items():
        if key not in obj:
            raise MalformedFile(f"{where}: missing key {key!r}")
        types = types if isinstance(types, tuple) else (types,)
        if type(obj[key]) not in types:
            raise MalformedFile(f"{where}: key {key!r} is {type(obj[key]).__name__}, "
                                f"expected {' or '.join(t.__name__ for t in types)}")
    return obj


def write_json(path, obj):
    """Write `obj` as indented JSON with sorted keys."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=2, sort_keys=True)


def write_manifest(path, rows):
    """Write rows as line-delimited JSON, one `to_dict` record per line."""
    with open(path, "w", encoding="utf-8") as f:
        for row in rows:
            f.write(json.dumps(row.to_dict()) + "\n")


def load_manifest(path, check_paths=True):
    """Load and validate a manifest: UTF-8 text, each line an object holding
    `id`, `path` and `detection_label` as strings (else MalformedFile), unique ids
    that are each one plain file name (not empty, `.` or `..`, and without
    `/`, `\\` or NUL, since caches are written to `<out>/<id>.feat`), a
    detection_label of gunshot or no_gunshot, class present iff gunshot, and
    (optionally) every referenced audio file on disk (else InvalidParam)."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise MalformedFile(f"{path}: not UTF-8 text ({e})") from None
    rows = [ManifestRow.from_dict(read_json(path, ManifestRow.KEYS, f"{path} line {n}", line))
            for n, line in enumerate(map(str.strip, text.split("\n")), 1) if line]
    ids = [r.id for r in rows]
    if len(set(ids)) != len(ids):
        raise InvalidParam(f"duplicate ids in manifest {path}")
    base = path.parent
    for r in rows:
        if r.id in ("", ".", "..") or any(c in r.id for c in "/\\\0"):
            raise InvalidParam(f"manifest row {r.id!r}: id is not one plain file name")
        if r.detection_label not in (GUNSHOT, NO_GUNSHOT):
            raise InvalidParam(f"manifest row {r.id}: detection_label "
                               f"{r.detection_label!r} is neither {GUNSHOT} nor {NO_GUNSHOT}")
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
