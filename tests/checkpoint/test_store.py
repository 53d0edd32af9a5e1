"""Checkpoint file format: atomic writes, validation, listing."""

import json
import os
import stat

import pytest

from repro.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointCorruptError,
    CheckpointFingerprintError,
    CheckpointSchemaError,
    atomic_write_text,
    checkpoint_filename,
    latest_checkpoint,
    list_checkpoints,
    payload_checksum,
    read_checkpoint,
    write_checkpoint,
)
from repro.checkpoint.store import CHECKPOINT_GLOB_RE, ROWS_PLACEHOLDER, EncodedRows


PAYLOAD = {"engine": {"tick_index": 7}, "tasks": [{"name": "a", "beats": 1.5}]}


def _write(tmp_path, name="ckpt_0000000007.json", **overrides):
    path = os.path.join(str(tmp_path), name)
    write_checkpoint(
        path, PAYLOAD, fingerprint="f" * 64, tick_index=7, sim_time_s=0.07
    )
    if overrides:
        with open(path) as handle:
            envelope = json.load(handle)
        envelope.update(overrides)
        with open(path, "w") as handle:
            json.dump(envelope, handle)
    return path


class TestAtomicWrite:
    def test_writes_content_and_creates_directories(self, tmp_path):
        path = os.path.join(str(tmp_path), "deep", "nested", "file.txt")
        atomic_write_text(path, "hello")
        with open(path) as handle:
            assert handle.read() == "hello"

    def test_replaces_existing_file(self, tmp_path):
        path = os.path.join(str(tmp_path), "file.txt")
        atomic_write_text(path, "old")
        atomic_write_text(path, "new")
        with open(path) as handle:
            assert handle.read() == "new"

    def test_leaves_no_temp_files_behind(self, tmp_path):
        path = os.path.join(str(tmp_path), "file.txt")
        atomic_write_text(path, "content")
        assert os.listdir(str(tmp_path)) == ["file.txt"]

    def test_streams_pieces_in_order(self, tmp_path):
        path = os.path.join(str(tmp_path), "file.txt")
        atomic_write_text(path, (piece for piece in ["a", "bc", "", "d"]))
        with open(path) as handle:
            assert handle.read() == "abcd"
        assert os.listdir(str(tmp_path)) == ["file.txt"]

    @pytest.mark.parametrize(
        "umask,mode", [(0o022, 0o644), (0o027, 0o640)], ids=["022", "027"]
    )
    def test_file_mode_honours_the_umask(self, tmp_path, umask, mode):
        path = os.path.join(str(tmp_path), "file.txt")
        previous = os.umask(umask)
        try:
            atomic_write_text(path, "content")
        finally:
            os.umask(previous)
        assert stat.S_IMODE(os.stat(path).st_mode) == mode

    def test_failing_piece_iterator_keeps_previous_file(self, tmp_path):
        path = os.path.join(str(tmp_path), "file.txt")
        atomic_write_text(path, "previous")

        def pieces():
            yield "x" * (1 << 20)  # past any buffer: bytes reach the temp file
            raise RuntimeError("encoder died mid-write")

        with pytest.raises(RuntimeError, match="mid-write"):
            atomic_write_text(path, pieces())
        with open(path) as handle:
            assert handle.read() == "previous"
        assert os.listdir(str(tmp_path)) == ["file.txt"]


class TestEnvelope:
    def test_round_trip(self, tmp_path):
        path = _write(tmp_path)
        envelope = read_checkpoint(path)
        assert envelope.tick_index == 7
        assert envelope.sim_time_s == 0.07
        assert envelope.fingerprint == "f" * 64
        assert envelope.payload == PAYLOAD

    def test_fingerprint_match_accepted(self, tmp_path):
        path = _write(tmp_path)
        envelope = read_checkpoint(path, expected_fingerprint="f" * 64)
        assert envelope.payload == PAYLOAD

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        path = _write(tmp_path)
        with pytest.raises(CheckpointFingerprintError, match="different run"):
            read_checkpoint(path, expected_fingerprint="0" * 64)

    def test_corrupted_payload_fails_checksum(self, tmp_path):
        tampered = dict(PAYLOAD, engine={"tick_index": 8})
        path = _write(tmp_path, payload=tampered)
        with pytest.raises(CheckpointCorruptError, match="checksum"):
            read_checkpoint(path)

    def test_unknown_schema_version_rejected(self, tmp_path):
        path = _write(tmp_path, schema_version=CHECKPOINT_SCHEMA_VERSION + 1)
        with pytest.raises(CheckpointSchemaError, match="schema version"):
            read_checkpoint(path)

    def test_missing_magic_rejected(self, tmp_path):
        path = _write(tmp_path, magic="something-else")
        with pytest.raises(CheckpointCorruptError, match="magic"):
            read_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = _write(tmp_path)
        with open(path) as handle:
            text = handle.read()
        with open(path, "w") as handle:
            handle.write(text[: len(text) // 2])
        with pytest.raises(CheckpointCorruptError, match="not valid JSON"):
            read_checkpoint(path)

    def test_missing_envelope_fields_rejected(self, tmp_path):
        path = _write(tmp_path)
        with open(path) as handle:
            envelope = json.load(handle)
        del envelope["payload_sha256"]
        with open(path, "w") as handle:
            json.dump(envelope, handle)
        with pytest.raises(CheckpointCorruptError, match="payload_sha256"):
            read_checkpoint(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointCorruptError, match="cannot read"):
            read_checkpoint(os.path.join(str(tmp_path), "nope.json"))

    def test_checksum_is_order_insensitive(self):
        assert payload_checksum({"a": 1, "b": 2}) == payload_checksum(
            {"b": 2, "a": 1}
        )


class TestEncodedRows:
    ROWS = [{"b": 1.5, "a": [1, 2]}, {"z": None}, {"y": "s"}, {}]

    def _spliced(self, tmp_path, chunks):
        rows = EncodedRows()
        for chunk in chunks:
            rows.extend(chunk)
        payload = {"metrics": {"samples": ROWS_PLACEHOLDER, "n": 4}, "x": 1}
        path = os.path.join(str(tmp_path), "spliced.json")
        write_checkpoint(path, payload, "f" * 64, 7, 0.07, rows=rows)
        return path

    def _inline(self, tmp_path, items):
        payload = {"metrics": {"samples": items, "n": 4}, "x": 1}
        path = os.path.join(str(tmp_path), "inline.json")
        write_checkpoint(path, payload, "f" * 64, 7, 0.07)
        return path

    @pytest.mark.parametrize("split", [0, 1, 3, 4])
    def test_spliced_file_equals_inline_file(self, tmp_path, split):
        chunks = [self.ROWS[:split], self.ROWS[split:]]
        spliced = self._spliced(tmp_path, chunks)
        inline = self._inline(tmp_path, self.ROWS)
        with open(spliced, "rb") as a, open(inline, "rb") as b:
            assert a.read() == b.read()
        assert read_checkpoint(spliced).payload["metrics"]["samples"] == self.ROWS

    def test_no_rows_is_an_empty_list(self, tmp_path):
        spliced = self._spliced(tmp_path, [])
        inline = self._inline(tmp_path, [])
        with open(spliced, "rb") as a, open(inline, "rb") as b:
            assert a.read() == b.read()

    def test_two_placeholders_are_refused(self, tmp_path):
        payload = {"a": ROWS_PLACEHOLDER, "b": ROWS_PLACEHOLDER}
        path = os.path.join(str(tmp_path), "twice.json")
        with pytest.raises(ValueError, match="at most one"):
            write_checkpoint(path, payload, "f" * 64, 7, 0.07, rows=EncodedRows())
        assert not os.path.exists(path)


class TestNamingAndListing:
    def test_filename_zero_pads_tick(self):
        assert checkpoint_filename(42) == "ckpt_0000000042.json"
        assert checkpoint_filename(42, "0-PPM") == "ckpt_0-PPM_0000000042.json"

    def test_filename_pattern_extracts_stream_and_tick(self):
        match = CHECKPOINT_GLOB_RE.match("ckpt_1-HL_0000000300.json")
        assert match.group("stream") == "1-HL"
        assert match.group("tick") == "0000000300"
        plain = CHECKPOINT_GLOB_RE.match("ckpt_0000000300.json")
        assert plain.group("stream") is None

    def test_list_is_oldest_first_and_latest_is_newest(self, tmp_path):
        for tick in (300, 100, 200):
            _write(tmp_path, name=checkpoint_filename(tick))
        paths = list_checkpoints(str(tmp_path))
        ticks = [os.path.basename(p) for p in paths]
        assert ticks == [
            "ckpt_0000000100.json",
            "ckpt_0000000200.json",
            "ckpt_0000000300.json",
        ]
        assert latest_checkpoint(str(tmp_path)) == paths[-1]

    def test_list_ignores_non_checkpoint_files(self, tmp_path):
        _write(tmp_path, name=checkpoint_filename(5))
        atomic_write_text(os.path.join(str(tmp_path), "journal_0-PPM.json"), "{}")
        assert len(list_checkpoints(str(tmp_path))) == 1

    def test_empty_or_missing_directory(self, tmp_path):
        assert list_checkpoints(os.path.join(str(tmp_path), "missing")) == []
        assert latest_checkpoint(str(tmp_path)) is None
