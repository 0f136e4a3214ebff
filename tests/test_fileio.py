"""Whole-file replacement: a failed write leaves the previous file and no temporary file."""

import errno
import os

import pytest

import mhforge.fileio as fileio_mod
from mhforge.analysis import compare_variants, count_macc, write_report
from mhforge.cli import _write_text
from mhforge.dataset import LabelCategories
from mhforge.fileio import write_atomic
from mhforge.modelfile import load_model, new_bundle, save_model
from mhforge.netspec import bind_categories, parse_netspec
from mhforge.surgery import VARIANT_KINDS

SPEC = """\
input name=img shape=1x4x4
conv name=c1 in=img out_channels=2 kernel=3
gavgpool name=g in=c1
fc name=head_kind in=g out=2 head=kind in_features=2
loss name=loss_kind in=head_kind label=kind
accuracy name=acc_kind in=head_kind label=kind
"""
CATS = LabelCategories(("kind",), (("a", "b"),))
PREVIOUS = b"previous content\n"


def interrupted(chunks):
    yield from chunks
    raise KeyboardInterrupt


class HalfWrite:
    """Stands in for `open`: writes the first bytes of the data, then fails as a full disk does."""

    def __init__(self, path, mode):
        self.file = open(path, mode)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.file.close()

    def writelines(self, chunks):
        self.file.write(b"".join(chunks)[:5])
        self.file.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


def bundle():
    return new_bundle(bind_categories(parse_netspec(SPEC), CATS), seed=0)


WRITERS = {
    "save_model": lambda path: save_model(bundle(), path),
    "write_text": lambda path: _write_text(path, "new text\n"),
    "write_report": lambda path: write_report(
        compare_variants({kind: count_macc(parse_netspec(SPEC)) for kind in VARIANT_KINDS}), "json", path
    ),
}


def test_writes_all_chunks_and_returns_the_byte_count(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(PREVIOUS)
    assert write_atomic(str(path), [b"abc", b"", b"defg"]) == 7
    assert path.read_bytes() == b"abcdefg"
    assert os.listdir(tmp_path) == ["out.bin"]


def test_new_file_gets_the_permissions_open_gives(tmp_path):
    reference = tmp_path / "reference"
    with open(reference, "wb"):
        pass
    write_atomic(str(tmp_path / "out.bin"), [b"x"])
    assert os.stat(tmp_path / "out.bin").st_mode == os.stat(reference).st_mode


@pytest.mark.parametrize("existed", [True, False], ids=["replacing", "creating"])
def test_interrupted_write_leaves_previous_file_and_no_temporary(tmp_path, existed):
    path = tmp_path / "out.bin"
    if existed:
        path.write_bytes(PREVIOUS)
    with pytest.raises(KeyboardInterrupt):
        write_atomic(str(path), interrupted([b"the first half of the new content"]))
    assert os.listdir(tmp_path) == (["out.bin"] if existed else [])
    if existed:
        assert path.read_bytes() == PREVIOUS


def test_missing_directory_fails_without_leftovers(tmp_path):
    with pytest.raises(FileNotFoundError):
        write_atomic(str(tmp_path / "absent" / "out.bin"), [b"x"])
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_writer_failing_mid_write_keeps_previous_file(tmp_path, monkeypatch, writer):
    path = tmp_path / "out"
    path.write_bytes(PREVIOUS)
    monkeypatch.setattr(fileio_mod, "open", HalfWrite, raising=False)
    with pytest.raises(OSError, match="No space left"):
        WRITERS[writer](str(path))
    assert path.read_bytes() == PREVIOUS
    assert os.listdir(tmp_path) == ["out"]
    monkeypatch.undo()
    WRITERS[writer](str(path))
    assert path.read_bytes() != PREVIOUS


def test_saved_model_length_is_the_returned_count_and_loads(tmp_path):
    path = tmp_path / "model.mhf"
    written = save_model(bundle(), str(path))
    assert written == path.stat().st_size
    assert load_model(str(path)).spec.input_shape == (1, 4, 4)
