"""Manifest contracts: rows round-trip through their dict and JSON-line
forms, and load_manifest refuses duplicate ids, a detection label other
than gunshot or no_gunshot, a class without a gunshot label (or the
reverse), unknown classes, a field of the wrong type and an id that is not
one plain file name."""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gunshot_bench.errors import InvalidParam, MalformedFile
from gunshot_bench.manifest import CLASS_NAMES, GUNSHOT, NO_GUNSHOT, ManifestRow, load_manifest

FIXTURE_OK = settings(suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def rows(draw):
    class_name = draw(st.none() | st.sampled_from(CLASS_NAMES))
    rid = draw(st.text(st.characters(exclude_characters="/\\\0"), min_size=1,
                       max_size=12).filter(lambda s: s not in (".", "..")))
    return ManifestRow(
        id=rid, path=f"wav/{rid}.wav",
        detection_label=NO_GUNSHOT if class_name is None else GUNSHOT,
        class_name=class_name)


def unique_rows(min_size=1):
    return st.lists(rows(), min_size=min_size, max_size=10, unique_by=lambda r: r.id)


def _write(path, dicts):
    path.write_text("".join(json.dumps(d) + "\n" for d in dicts), encoding="utf-8")
    return path


@given(rows())
def test_row_dict_round_trip(row):
    assert ManifestRow.from_dict(row.to_dict()) == row


@FIXTURE_OK
@given(unique_rows(min_size=0))
def test_load_manifest_round_trip(tmp_path, manifest_rows):
    path = _write(tmp_path / "manifest.jsonl", [r.to_dict() for r in manifest_rows])
    assert load_manifest(path, check_paths=False) == manifest_rows


@FIXTURE_OK
@given(unique_rows(), st.data())
def test_duplicate_id_rejected(tmp_path, manifest_rows, data):
    dup = data.draw(st.sampled_from(manifest_rows)).to_dict()
    path = _write(tmp_path / "manifest.jsonl", [r.to_dict() for r in manifest_rows] + [dup])
    with pytest.raises(InvalidParam, match="duplicate"):
        load_manifest(path, check_paths=False)


@FIXTURE_OK
@given(unique_rows(), st.data())
def test_class_present_iff_gunshot(tmp_path, manifest_rows, data):
    dicts = [r.to_dict() for r in manifest_rows]
    bad = data.draw(st.sampled_from(dicts))
    if bad["class"] is None:
        bad["detection_label"] = GUNSHOT         # gunshot without a class
    else:
        bad["detection_label"] = NO_GUNSHOT      # class without a gunshot
    path = _write(tmp_path / "manifest.jsonl", dicts)
    with pytest.raises(InvalidParam, match="present iff gunshot"):
        load_manifest(path, check_paths=False)


@FIXTURE_OK
@given(unique_rows(), st.data(), st.text(min_size=1, max_size=12).filter(
    lambda name: name not in CLASS_NAMES))
def test_unknown_class_rejected(tmp_path, manifest_rows, data, name):
    dicts = [r.to_dict() for r in manifest_rows]
    bad = data.draw(st.sampled_from(dicts))
    bad.update(detection_label=GUNSHOT, **{"class": name})
    path = _write(tmp_path / "manifest.jsonl", dicts)
    with pytest.raises(InvalidParam, match="unknown class"):
        load_manifest(path, check_paths=False)


@pytest.mark.parametrize("label,class_name", [("maybe", None), ("maybe", CLASS_NAMES[0]),
                                              ("Gunshot", CLASS_NAMES[0]), ("", None)])
def test_unknown_detection_label_rejected(tmp_path, label, class_name):
    ok = ManifestRow("a", "wav/a.wav", NO_GUNSHOT, None).to_dict()
    bad = {**ok, "id": "b", "detection_label": label, "class": class_name}
    path = _write(tmp_path / "manifest.jsonl", [ok, bad])
    with pytest.raises(InvalidParam, match=f"row b: detection_label '{label}'"):
        load_manifest(path, check_paths=False)


def test_missing_audio_file_rejected(tmp_path):
    row = ManifestRow("a", "wav/a.wav", GUNSHOT, CLASS_NAMES[0])
    path = _write(tmp_path / "manifest.jsonl", [row.to_dict()])
    with pytest.raises(InvalidParam, match="missing file"):
        load_manifest(path)
    (tmp_path / "wav").mkdir()
    (tmp_path / "wav" / "a.wav").write_bytes(b"")
    assert load_manifest(path) == [row]


@pytest.mark.parametrize("key,value", [("id", 5), ("path", None), ("detection_label", True)])
def test_field_of_the_wrong_type_rejected(tmp_path, key, value):
    row = ManifestRow("a", "wav/a.wav", GUNSHOT, CLASS_NAMES[0]).to_dict()
    row[key] = value
    path = _write(tmp_path / "manifest.jsonl", [row])
    with pytest.raises(MalformedFile, match=f"line 1: key '{key}'"):
        load_manifest(path, check_paths=False)


@pytest.mark.parametrize("rid", ["", ".", "..", "../escaped", "../../x", "a/b", "/abs",
                                 "a\\b", "..\\x", "a\0b"])
def test_id_that_is_not_one_plain_file_name_rejected(tmp_path, rid):
    ok = ManifestRow("a", "wav/a.wav", NO_GUNSHOT, None).to_dict()
    path = _write(tmp_path / "manifest.jsonl", [ok, {**ok, "id": rid}])
    with pytest.raises(InvalidParam, match=r"row .*: id is not one plain file name"):
        load_manifest(path, check_paths=False)


@pytest.mark.parametrize("rid", ["...", "a..b", ".hidden", "x.feat", "a b"])
def test_id_with_dots_inside_one_file_name_accepted(tmp_path, rid):
    row = ManifestRow(rid, "wav/a.wav", NO_GUNSHOT, None)
    path = _write(tmp_path / "manifest.jsonl", [row.to_dict()])
    assert load_manifest(path, check_paths=False) == [row]
