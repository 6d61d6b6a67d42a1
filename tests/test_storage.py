import io
import re

import numpy as np
import pytest
from numpy.lib.format import read_array, write_array

from threadcurve import storage
from threadcurve.optim import init_params


V1_BYTES = ("tensorstore v1\n"
            "tensor W 2 2\n0.10000000000000001 -2 1e-300 3\n"
            "tensor b 0\n\n"
            "tensor t \n7\n").encode()


def test_store_roundtrip_is_exact(tmp_path):
    rng = np.random.default_rng(2)
    store = init_params([("W1", (3, 2)), ("b", (2,))], seed=1)
    tensors = {"W": rng.normal(size=(3, 4)), "B1": np.zeros(3),
               "empty": np.zeros((2, 0)), "scalar": np.array(-0.0),
               "mask": rng.random((4, 3)) > 0.5,
               "empty_mask": np.zeros(0, dtype=bool),
               "counts": np.arange(6, dtype=np.int64).reshape(2, 3)}
    path = str(tmp_path / "model.ckpt")
    for written in (tensors, store, {}):
        storage.save_store(written, path)
        back = storage.load_store(path)
        assert type(back) is dict
        assert list(back) == [name for name, _ in written.items()]
        for name, value in written.items():
            assert back[name].shape == value.shape
            assert back[name].dtype == value.dtype
            assert back[name].tobytes() == value.tobytes()  # -0.0 as well


def test_save_is_byte_deterministic(tmp_path):
    store = init_params([("W", (4, 4))], seed=0)
    p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
    storage.save_store(store, p1)
    storage.save_store(dict(store.items()), p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()
    assert storage.sha256_file(p1) == storage.sha256_file(p2)


def test_save_writes_numpy_records(tmp_path):
    tensors = {"W": np.array([[0.1, -2.0], [1e-300, 3.0]]),
               "b": np.zeros(0), "t": np.array(7.0), "m": np.array([True])}
    path = str(tmp_path / "model.ckpt")
    storage.save_store(tensors, path)
    with open(path, "rb") as fh:
        names = read_array(fh, allow_pickle=False)
        assert names.tolist() == ["W", "b", "t", "m"]
        for value in tensors.values():
            record = read_array(fh, allow_pickle=False)
            assert record.dtype == value.dtype
            np.testing.assert_array_equal(record, value)
        assert fh.read() == b""


def test_load_rejects_unknown_format(tmp_path):
    path = str(tmp_path / "bad.ckpt")
    storage.save_store({"W": np.ones((3, 3)), "b": np.zeros(3)}, path)
    good = open(path, "rb").read()
    floats = io.BytesIO()
    write_array(floats, np.ones(3))
    for bad in (V1_BYTES, good[:-5], good + b"\0", floats.getvalue(), b""):
        with open(path, "wb") as fh:
            fh.write(bad)
        with pytest.raises(storage.StoreError, match="unreadable tensor file "
                           + re.escape(path)):
            storage.load_store(path)


def test_atomic_write_replaces_and_leaves_no_tmp(tmp_path):
    path = str(tmp_path / "x.json")
    storage.atomic_write_json(path, {"b": 2, "a": 1})
    storage.atomic_write_json(path, {"a": 3})
    assert open(path).read() == '{\n  "a": 3\n}\n'
    assert list(tmp_path.iterdir()) == [tmp_path / "x.json"]


def test_atomic_write_removes_its_temporary_files_when_write_raises(
        tmp_path):
    """A writer that raises halfway leaves every target with its old
    bytes, or absent, and no temporary file."""
    old = tmp_path / "a.txt"
    old.write_text("old\n")
    paths = [str(old), str(tmp_path / "b.txt")]

    def write(*tmps):
        for tmp in tmps:
            with open(tmp, "w") as fh:
                fh.write("half")
        raise RuntimeError("cut")
    with pytest.raises(RuntimeError, match="cut"):
        storage.atomic_write(write, *paths)
    assert sorted(tmp_path.iterdir()) == [old]
    assert old.read_text() == "old\n"


def test_json_key_order_is_canonical(tmp_path):
    p1, p2 = str(tmp_path / "1.json"), str(tmp_path / "2.json")
    storage.atomic_write_json(p1, {"b": 2, "a": 1})
    storage.atomic_write_json(p2, {"a": 1, "b": 2})
    assert open(p1).read() == open(p2).read()
