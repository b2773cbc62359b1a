"""Unit tests for the atomic, checksummed artifact IO layer."""

from __future__ import annotations

import json
import os

import pytest

from repro.core.atomicio import (
    atomic_write_bytes,
    atomic_write_text,
    checksum,
    content_key,
    dump_artifact,
    is_envelope,
    load_artifact,
)
from repro.core.errors import CorruptArtifactError


class TestAtomicWrite:
    def test_writes_content(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "hello\n")
        assert path.read_text() == "hello\n"

    def test_overwrites_existing(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        atomic_write_text(path, "new")
        assert path.read_text() == "new"

    def test_no_temp_file_residue(self, tmp_path):
        path = tmp_path / "out.bin"
        atomic_write_bytes(path, b"data")
        assert os.listdir(tmp_path) == ["out.bin"]

    def test_failed_write_leaves_original_intact(self, tmp_path, monkeypatch):
        path = tmp_path / "out.txt"
        path.write_text("original")

        def boom(src, dst):
            raise OSError("injected replace failure")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            atomic_write_text(path, "replacement")
        assert path.read_text() == "original"
        # and the temp file was cleaned up
        assert os.listdir(tmp_path) == ["out.txt"]


class TestEnvelope:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "a.json"
        payload = {"x": 1, "nested": {"y": [1, 2, 3]}}
        dump_artifact(payload, path)
        assert load_artifact(path) == payload

    def test_on_disk_form_is_an_envelope(self, tmp_path):
        path = tmp_path / "a.json"
        dump_artifact({"x": 1}, path)
        document = json.loads(path.read_text())
        assert is_envelope(document)
        assert document["checksum"].startswith("sha256:")

    def test_legacy_plain_json_loads_without_verification(self, tmp_path):
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps({"kind": "old", "x": 2}))
        assert load_artifact(path) == {"kind": "old", "x": 2}

    def test_bit_flip_detected(self, tmp_path):
        path = tmp_path / "a.json"
        dump_artifact({"value": 12345}, path)
        text = path.read_text().replace("12345", "12349")
        path.write_text(text)
        with pytest.raises(CorruptArtifactError) as info:
            load_artifact(path)
        assert info.value.path == str(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "a.json"
        dump_artifact({"value": list(range(100))}, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CorruptArtifactError):
            load_artifact(path)

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_artifact(tmp_path / "nope.json")


class TestChecksum:
    def test_deterministic(self):
        assert checksum("abc") == checksum("abc")
        assert checksum("abc") != checksum("abd")

    def test_prefixed(self):
        assert checksum("abc").startswith("sha256:")


class TestContentKey:
    def test_deterministic_and_input_sensitive(self):
        a = content_key("tise-lp", (1, 2.0), 10.0)
        assert a == content_key("tise-lp", (1, 2.0), 10.0)
        assert a != content_key("tise-lp", (1, 2.5), 10.0)
        assert a != content_key("other", (1, 2.0), 10.0)
