import numpy as np
import pytest

from threadcurve import storage
from threadcurve.optim import init_params


def test_store_roundtrip_is_exact(tmp_path):
    rng = np.random.default_rng(2)
    tensors = {"W": rng.normal(size=(3, 4)), "B1": np.zeros(3),
               "big": rng.normal(size=storage.WRITE_CHUNK + 7),
               "empty": np.zeros((2, 0)), "scalar": np.array(-0.0)}
    path = str(tmp_path / "model.ckpt")
    storage.save_store(tensors, path)
    back = storage.load_store(path)
    assert type(back) is dict and list(back) == list(tensors)
    for name, value in tensors.items():
        np.testing.assert_array_equal(back[name], value)
        assert back[name].shape == value.shape


def test_save_is_byte_deterministic(tmp_path):
    store = init_params([("W", (4, 4))], seed=0)
    p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
    storage.save_store(store, p1)
    storage.save_store(dict(store.items()), p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()
    assert storage.sha256_file(p1) == storage.sha256_file(p2)


def test_save_writes_v1_bytes(tmp_path):
    tensors = {"W": np.array([[0.1, -2.0], [1e-300, 3.0]]),
               "b": np.zeros(0), "t": np.array(7.0)}
    path = str(tmp_path / "v1.ckpt")
    storage.save_store(tensors, path)
    assert open(path).read() == (
        "tensorstore v1\n"
        "tensor W 2 2\n0.10000000000000001 -2 1e-300 3\n"
        "tensor b 0\n\n"
        "tensor t \n7\n")


def test_load_rejects_unknown_format(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_text("something else\n")
    with pytest.raises(ValueError):
        storage.load_store(str(path))
    path.write_text(storage.FORMAT_HEADER + "\nnot-a-tensor W 2\n0 0\n")
    with pytest.raises(ValueError):
        storage.load_store(str(path))


def test_atomic_write_replaces_and_leaves_no_tmp(tmp_path):
    path = str(tmp_path / "x.json")
    storage.atomic_write_json(path, {"b": 2, "a": 1})
    storage.atomic_write_json(path, {"a": 3})
    assert open(path).read() == '{\n  "a": 3\n}\n'
    assert list(tmp_path.iterdir()) == [tmp_path / "x.json"]


def test_json_key_order_is_canonical(tmp_path):
    p1, p2 = str(tmp_path / "1.json"), str(tmp_path / "2.json")
    storage.atomic_write_json(p1, {"b": 2, "a": 1})
    storage.atomic_write_json(p2, {"a": 1, "b": 2})
    assert open(p1).read() == open(p2).read()
