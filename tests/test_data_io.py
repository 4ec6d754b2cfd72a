import concurrent.futures
import re
import struct
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smxreg import TrainConfig, core, data_io, train
from smxreg.core import (Dataset, DimensionMismatchError, InvalidLabelError,
                         as_matrix, column_blocks)
from smxreg.data_io import (
    CsvParseError,
    IdxFormatError,
    add_bias_row,
    encode_weights,
    load_csv,
    load_idx_dataset,
    load_idx_images,
    load_idx_labels,
    load_idx_live,
    read_idx_image_header,
    read_weights,
    write_idx_images,
    write_idx_labels,
)

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


def write_raw_images(path, images):
    """images: uint8 array (N, rows, cols) -> canonical IDX bytes."""
    n, rows, cols = images.shape
    path.write_bytes(struct.pack(">IIII", IMAGE_MAGIC, n, rows, cols)
                     + images.tobytes())


def write_raw_labels(path, labels):
    path.write_bytes(struct.pack(">II", LABEL_MAGIC, len(labels))
                     + bytes(labels))


class TestWeightsFile:
    @pytest.mark.parametrize("payload,problem", [
        (b"\0" * 40, "truncated file"),
        (b"\0" * 56, "trailing bytes"),
    ])
    def test_payload_size_is_checked_at_offset_12(self, tmp_path, payload, problem):
        path = tmp_path / "w.bin"
        path.write_bytes(encode_weights(np.zeros((2, 3)))[:12] + payload)
        with pytest.raises(IdxFormatError, match=f"{problem}: .* at offset 12"):
            read_weights(path)

    def test_short_header_is_truncated_at_offset_0(self, tmp_path):
        path = tmp_path / "w.bin"
        path.write_bytes(b"SMXW\x02\x00")
        with pytest.raises(IdxFormatError, match="truncated file: .* at offset 0"):
            read_weights(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_first_non_finite_weight_is_named_by_offset_row_and_column(self, tmp_path,
                                                                       value):
        w = np.ones((3, 4))
        w[2, 1], w[2, 3] = value, np.nan
        path = tmp_path / "w.bin"
        path.write_bytes(encode_weights(w))
        with pytest.raises(IdxFormatError) as exc:
            read_weights(path)
        assert str(exc.value) == (f"{path}: non-finite weight {value!r} at offset "
                                  f"{12 + 8 * 9} (row 2, column 1)")


class TestErrorsNameTheirFile:
    """Every IdxFormatError message starts with its file's path as given."""

    @pytest.mark.parametrize("read, blob", [
        (load_idx_images, b"\x12\x00\x08\x03" + b"\x00" * 12),
        (load_idx_images, struct.pack(">IIII", 0x00000D03, 1, 1, 1) + b"\x00"),
        (load_idx_images, struct.pack(">II", LABEL_MAGIC, 1) + b"\x00"),
        (load_idx_images, struct.pack(">II", IMAGE_MAGIC, 1)),
        (load_idx_images, struct.pack(">IIII", IMAGE_MAGIC, 2, 2, 2) + b"\x00" * 5),
        (load_idx_images, struct.pack(">IIII", IMAGE_MAGIC, 1, 2, 2) + b"\x00" * 5),
        (lambda path: load_idx_labels(path, 2), struct.pack(">II", LABEL_MAGIC, 3)),
        (read_idx_image_header, b"\x00\x00"),
        (read_weights, b"NOPE" + b"\x00" * 16),
        (read_weights, b"SMXW\x02\x00"),
        (read_weights, encode_weights(np.zeros((2, 3)))[:-1]),
        (read_weights, encode_weights(np.full((2, 3), np.nan))),
    ], ids=["magic_bytes", "dtype", "kind_magic", "short_dims", "truncated",
            "trailing", "labels_truncated", "short_magic", "weights_magic",
            "weights_header", "weights_payload", "weights_nan"])
    def test_message_starts_with_the_path(self, tmp_path, monkeypatch, read, blob):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "f.bin").write_bytes(blob)
        with pytest.raises(IdxFormatError, match=r"^sub/\./f\.bin: \S"):
            read("sub/./f.bin")


class TestRefusals:
    """An input of the wrong shape raises exactly this error."""

    def test_wrong_ndim_byte_is_a_bad_magic(self, tmp_path):
        # the magic's last byte, at offset 3, is the number of dimensions
        f = tmp_path / "imgs.idx"
        f.write_bytes(struct.pack(">IIIII", 0x00000804, 1, 1, 1, 1) + b"\x00")
        with pytest.raises(IdxFormatError) as info:
            load_idx_images(f)
        assert str(info.value) == (
            f"{f}: bad image magic 0x00000804 at offset 0 (expected 0x00000803)")

    @pytest.mark.parametrize("call, message", [
        (lambda path: write_idx_images(path, np.zeros((5, 2)), 2, 2),
         "x must be (rows*cols) x N = 4 x N, got (5, 2)"),
        (lambda path: add_bias_row(np.zeros(3)), "x must be 2-D, got shape (3,)"),
    ], ids=["write_idx_images", "add_bias_row"])
    def test_wrong_shape_is_refused(self, tmp_path, call, message):
        with pytest.raises(DimensionMismatchError) as info:
            call(tmp_path / "imgs.idx")
        assert type(info.value) is DimensionMismatchError and str(info.value) == message


class TestIdxImages:
    def test_pixel_mapping(self, tmp_path):
        images = np.array(
            [[[0, 255], [128, 64]], [[255, 0], [1, 2]]], dtype=np.uint8
        )
        f = tmp_path / "imgs.idx"
        write_raw_images(f, images)
        x = load_idx_images(f)
        assert x.shape == (4, 2)
        assert np.array_equal(x[:, 0], [0.0, 1.0, 128 / 255, 64 / 255])
        assert np.array_equal(x[:, 1], [1.0, 0.0, 1 / 255, 2 / 255])

    def test_empty_payload(self, tmp_path):
        f = tmp_path / "empty.idx"
        f.write_bytes(struct.pack(">IIII", IMAGE_MAGIC, 0, 28, 28))
        x = load_idx_images(f)
        assert x.shape == (784, 0)

    def test_round_trip_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(9, 5, 4), dtype=np.uint8)
        src = tmp_path / "src.idx"
        write_raw_images(src, images)
        x = load_idx_images(src)
        n, rows, cols = read_idx_image_header(src)
        dst = tmp_path / "dst.idx"
        write_idx_images(dst, x, rows, cols)
        assert src.read_bytes() == dst.read_bytes()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1.01, -0.01],
                             ids=["nan", "inf", "minus_inf", "above_one", "below_zero"])
    def test_writer_names_the_first_pixel_that_is_not_a_byte(self, tmp_path, value):
        x = np.full((4, 3), 0.5)
        x[3, 1] = x[0, 2] = value
        dst = tmp_path / "dst.idx"
        with pytest.raises(ValueError, match=rf"^round\(255 x\) of pixel x\[0, 2\] = {value!r} is not"):
            write_idx_images(dst, x, 2, 2)
        assert not dst.exists()

    def test_bad_magic_names_offset(self, tmp_path):
        f = tmp_path / "bad.idx"
        f.write_bytes(b"\x12\x00\x08\x03" + b"\x00" * 12)
        with pytest.raises(IdxFormatError, match="offset 0"):
            load_idx_images(f)

    def test_unsupported_dtype_names_offset(self, tmp_path):
        f = tmp_path / "bad.idx"
        f.write_bytes(struct.pack(">IIII", 0x00000D03, 1, 1, 1) + b"\x00")
        with pytest.raises(IdxFormatError, match="offset 2"):
            load_idx_images(f)

    def test_truncated_payload(self, tmp_path):
        f = tmp_path / "short.idx"
        f.write_bytes(struct.pack(">IIII", IMAGE_MAGIC, 2, 2, 2) + b"\x00" * 5)
        with pytest.raises(IdxFormatError, match="truncated"):
            load_idx_images(f)

    def test_huge_declared_count_is_refused_before_reading(self, tmp_path):
        f = tmp_path / "huge.idx"
        f.write_bytes(struct.pack(">IIII", IMAGE_MAGIC, 2**32 - 1, 28, 28)
                      + b"\x00" * 784)
        with pytest.raises(IdxFormatError, match="offset 16"):
            load_idx_images(f)

    def test_trailing_bytes_rejected(self, tmp_path):
        f = tmp_path / "long.idx"
        f.write_bytes(struct.pack(">IIII", IMAGE_MAGIC, 1, 2, 2) + b"\x00" * 5)
        with pytest.raises(IdxFormatError, match="trailing bytes"):
            load_idx_images(f)

    def test_label_magic_rejected_for_images(self, tmp_path):
        f = tmp_path / "labels.idx"
        write_raw_labels(f, [1, 2])
        with pytest.raises(IdxFormatError):
            load_idx_images(f)

    def test_c_order_and_exact_across_blocks(self, tmp_path, forced_parallel):
        n = 37  # 27 forced blocks of 1 or 2 images
        images = np.random.default_rng(2).integers(0, 256, (n, 3, 2), dtype=np.uint8)
        f = tmp_path / "imgs.idx"
        write_raw_images(f, images)
        x = load_idx_images(f)
        assert x.flags.c_contiguous and x.dtype == np.float64
        assert np.array_equal(x, images.reshape(n, 6).T / 255.0)

    # 37 images span 27 forced blocks (32 with the bias row), 1 image one
    @pytest.mark.parametrize("n", [1, 37])
    @pytest.mark.parametrize("bias", [False, True])
    def test_blocked_conversion_matches_serial(self, tmp_path, both_paths, n, bias):
        images = np.random.default_rng(7).integers(0, 256, (n, 3, 2), dtype=np.uint8)
        f = tmp_path / "imgs.idx"
        write_raw_images(f, images)
        serial, parallel, submitted = both_paths(lambda: load_idx_images(f, bias=bias))
        assert submitted == ((32 if bias else 27) if n > 1 else 0)
        _assert_bit_equal(serial, parallel)
        assert parallel.flags.c_contiguous
        assert np.array_equal(parallel[:6], images.reshape(n, 6).T / 255.0)
        assert np.all(parallel[6:] == 1.0) and parallel.shape[0] == 6 + bias


class TestIdxLabels:
    def test_huge_declared_count_is_refused_before_reading(self, tmp_path):
        f = tmp_path / "huge.idx"
        f.write_bytes(struct.pack(">II", LABEL_MAGIC, 2**32 - 1) + b"\x00" * 3)
        with pytest.raises(IdxFormatError, match="offset 8"):
            load_idx_labels(f, 10)

    def test_one_hot_mapping(self, tmp_path):
        f = tmp_path / "labels.idx"
        write_raw_labels(f, [0, 9])
        t = load_idx_labels(f, 10)
        assert t.shape == (10, 2)
        assert np.array_equal(np.argmax(t, axis=0), [0, 9])
        assert np.array_equal(t.sum(axis=0), [1.0, 1.0])

    def test_out_of_range_label(self, tmp_path):
        f = tmp_path / "labels.idx"
        write_raw_labels(f, [0, 3])
        with pytest.raises(InvalidLabelError) as exc:
            load_idx_labels(f, 3)
        assert exc.value.index == 1

    def test_round_trip(self, tmp_path):
        src = tmp_path / "src.idx"
        labels = [3, 1, 4, 1, 5, 9, 2, 6]
        write_raw_labels(src, labels)
        t = load_idx_labels(src, 10)
        dst = tmp_path / "dst.idx"
        write_idx_labels(dst, np.argmax(t, axis=0))
        assert src.read_bytes() == dst.read_bytes()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1.7, 256, -1],
                             ids=["nan", "inf", "minus_inf", "fraction", "256", "-1"])
    def test_writer_names_the_first_label_that_is_not_a_byte(self, tmp_path, value):
        dst = tmp_path / "dst.idx"
        with pytest.raises(ValueError, match=rf"^label {value!r} at position 2 is not"):
            write_idx_labels(dst, [0, 9, value, 1, value])
        assert not dst.exists()

    def test_pair_length_mismatch(self, tmp_path):
        imgs = tmp_path / "imgs.idx"
        labs = tmp_path / "labs.idx"
        write_raw_images(imgs, np.zeros((3, 2, 2), dtype=np.uint8))
        write_raw_labels(labs, [0, 1])
        with pytest.raises(IdxFormatError, match="does not match"):
            load_idx_dataset(imgs, labs, 2)

    def test_pair_loads_dataset(self, tmp_path):
        imgs = tmp_path / "imgs.idx"
        labs = tmp_path / "labs.idx"
        rng = np.random.default_rng(1)
        write_raw_images(imgs, rng.integers(0, 256, (6, 3, 3), dtype=np.uint8))
        write_raw_labels(labs, [0, 1, 2, 0, 1, 2])
        data = load_idx_dataset(imgs, labs, 3)
        assert (data.d, data.c, data.n) == (9, 3, 6)
        _assert_frozen_c(data.x)

    def test_load_and_bias_peak_memory(self, tmp_path):
        # load -> add_bias_row -> Dataset holds X and its biased copy at
        # most: about 2.1x the final X, where a copying Dataset and an
        # F-order load reach 3x.
        assert _load_and_bias_peak(tmp_path) <= 2.3


def _dead_pixel_images(n, seed=5):
    """n 3 x 4 images whose first pixel row and pixel (2, 1) are zero in
    every image: 5 dead pixels of 12, in two runs."""
    images = np.random.default_rng(seed).integers(0, 256, (n, 3, 4), dtype=np.uint8)
    images[:, 0, :] = 0
    images[:, 2, 1] = 0
    return images


class TestIdxLive:
    """``load_idx_live`` gives the live rows of ``load_idx_dataset``'s X,
    bit for bit, and the same errors, without building X."""

    @pytest.mark.parametrize("n", [1, 37])
    @pytest.mark.parametrize("bias", [False, True])
    def test_rows_of_the_full_load(self, tmp_path, both_paths, n, bias):
        imgs, labs = tmp_path / "imgs.idx", tmp_path / "labs.idx"
        write_raw_images(imgs, _dead_pixel_images(n))
        write_raw_labels(labs, [k % 3 for k in range(n)])
        serial, parallel, _ = both_paths(lambda: (
            load_idx_dataset(imgs, labs, 3, bias=bias),
            load_idx_live(imgs, labs, 3, bias=bias)))
        full = serial[0]
        rows = np.flatnonzero(np.any(full.x, axis=1))
        if n > 1:
            assert rows.tolist() == [4, 5, 6, 7, 8, 10, 11] + [12] * bias
        for _, live in (serial, parallel):
            assert live.d == full.d and np.array_equal(live.rows, rows)
            _assert_bit_equal(live.data.x, full.x[rows])
            _assert_bit_equal(live.data.t, full.t)
            _assert_frozen_c(live.data.x)

    @pytest.mark.parametrize("bias", [False, True])
    def test_all_zero_images(self, tmp_path, bias):
        imgs, labs = tmp_path / "imgs.idx", tmp_path / "labs.idx"
        write_raw_images(imgs, np.zeros((4, 2, 3), dtype=np.uint8))
        write_raw_labels(labs, [0, 1, 1, 0])
        live = load_idx_live(imgs, labs, 2, bias=bias)
        assert live.d == 6 + bias and live.n == 4
        assert live.rows.tolist() == ([6] if bias else [])
        assert np.array_equal(live.data.x, np.ones((int(bias), 4)))

    @pytest.mark.parametrize("images, labels", [
        (struct.pack(">IIII", IMAGE_MAGIC, 2, 2, 2) + b"\1" * 7, [0, 1]),
        (struct.pack(">II", IMAGE_MAGIC, 2), [0, 1]),
        (struct.pack(">IIII", IMAGE_MAGIC, 3, 2, 2) + b"\1" * 12, [0, 1]),
        (struct.pack(">IIII", IMAGE_MAGIC, 2, 2, 2) + b"\1" * 8, [0, 5]),
        (struct.pack(">IIII", IMAGE_MAGIC, 0, 2, 2), []),
        (struct.pack(">IIII", IMAGE_MAGIC, 2, 0, 2), [0, 1]),
        (struct.pack(">IIII", IMAGE_MAGIC, 2, 2, 2) + b"\1" * 7, [0, 5, 1]),
    ], ids=["truncated", "short_header", "count_mismatch", "bad_label",
            "no_images", "no_pixels", "two_faults"])
    @pytest.mark.parametrize("bias", [False, True])
    def test_errors_of_the_full_load(self, tmp_path, images, labels, bias):
        imgs, labs = tmp_path / "imgs.idx", tmp_path / "labs.idx"
        imgs.write_bytes(images)
        write_raw_labels(labs, labels)
        with pytest.raises(ValueError) as full:
            load_idx_dataset(imgs, labs, 3, bias=bias)
        with pytest.raises(type(full.value), match=f"^{re.escape(str(full.value))}$"):
            load_idx_live(imgs, labs, 3, bias=bias)

    @pytest.mark.parametrize("labels, error, message", [
        (struct.pack(">II", LABEL_MAGIC, 4) + bytes([0, 5, 1, 2]), InvalidLabelError,
         "label 5 at position 1 >= class count 3"),
        (struct.pack(">IIII", IMAGE_MAGIC, 4, 1, 1) + bytes(4), IdxFormatError,
         "bad label magic 0x00000803 at offset 0"),
        (struct.pack(">II", LABEL_MAGIC, 4) + bytes(3), IdxFormatError,
         "truncated file: header declares 4 bytes of labels at offset 8"),
        (struct.pack(">II", LABEL_MAGIC, 3) + bytes(3), IdxFormatError,
         "image count 4 does not match label count 3"),
    ], ids=["label_range", "label_magic", "labels_truncated", "count_mismatch"])
    @pytest.mark.parametrize("bias", [False, True])
    def test_bad_label_file_is_refused_before_any_pixel_is_converted(
            self, tmp_path, monkeypatch, labels, error, message, bias):
        imgs, labs = tmp_path / "imgs.idx", tmp_path / "labs.idx"
        write_raw_images(imgs, _dead_pixel_images(4))
        labs.write_bytes(labels)

        def refuse(*args, **kwargs):
            raise AssertionError("pixels converted")

        monkeypatch.setattr(data_io, "_scaled_pixels", refuse)
        for load in (load_idx_dataset, load_idx_live):
            with pytest.raises(error, match=re.escape(message)):
                load(imgs, labs, 3, bias=bias)

    @pytest.mark.parametrize("bias", [False, True])
    def test_loaders_run_no_value_check(self, tmp_path, monkeypatch, bias):
        # X is bytes / 255 (and 1.0) and T one-hot, valid by construction
        images = _dead_pixel_images(37)
        labels = [k % 3 for k in range(37)]
        imgs, labs = tmp_path / "imgs.idx", tmp_path / "labs.idx"
        write_raw_images(imgs, images)
        write_raw_labels(labs, labels)

        def refuse(*args, **kwargs):
            raise AssertionError("a value check ran")

        monkeypatch.setattr(core, "as_matrix", refuse)
        monkeypatch.setattr(core, "check_probability", refuse)
        full = load_idx_dataset(imgs, labs, 3, bias=bias)
        live = load_idx_live(imgs, labs, 3, bias=bias)
        want = images.reshape(37, -1).T / 255.0
        if bias:
            want = np.vstack([want, np.ones((1, 37))])
        _assert_bit_equal(full.x, want)
        _assert_bit_equal(live.data.x, want[live.rows])
        for t in (full.t, live.data.t):
            _assert_bit_equal(t, core.one_hot(np.array(labels) + 1, 3))
        for x in (full.x, live.data.x, full.t, live.data.t):
            _assert_frozen_c(x)
        with pytest.raises(AssertionError, match="a value check ran"):
            Dataset(full.x, full.t)

    def test_load_and_epoch_hold_no_full_x(self, tmp_path, monkeypatch):
        # MNIST-shaped: a 2-pixel blank border leaves 576 of 784 pixels
        # live.  Blocks of 1 MiB, as the paper's 277 MB of live rows make
        # 16 blocks: each block's gathered pixels are then small.
        monkeypatch.setattr(core, "PARALLEL_MIN_BYTES", 1 << 20)
        rng = np.random.default_rng(8)
        images = np.zeros((4000, 28, 28), dtype=np.uint8)
        images[:, 2:-2, 2:-2] = rng.integers(0, 256, (4000, 24, 24))
        imgs, labs = tmp_path / "imgs.idx", tmp_path / "labs.idx"
        write_raw_images(imgs, images)
        write_raw_labels(labs, rng.integers(0, 10, 4000).tolist())
        full_x_bytes = 785 * 4000 * 8
        tracemalloc.start()
        try:
            live = load_idx_live(imgs, labs, 10, bias=True)
            _, trace = train(live, TrainConfig(eta=1e-4, epochs=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert trace.live_rows == live.data.d == 577 and live.d == 785
        assert peak < full_x_bytes


def _idx_pair(tmp_path):
    """A 5000-image 28 x 28 IDX pair with 10 classes."""
    imgs = tmp_path / "imgs.idx"
    labs = tmp_path / "labs.idx"
    rng = np.random.default_rng(3)
    write_raw_images(imgs, rng.integers(0, 256, (5000, 28, 28), dtype=np.uint8))
    write_raw_labels(labs, rng.integers(0, 10, 5000).tolist())
    return imgs, labs


def _peak_ratio(load, shape):
    """The traced peak of ``load()`` over the bytes of the X it returns,
    which must have ``shape``."""
    tracemalloc.start()
    try:
        x = load()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert x.shape == shape
    return peak / x.nbytes


def _load_and_bias_peak(tmp_path):
    imgs, labs = _idx_pair(tmp_path)

    def load():
        raw = load_idx_dataset(imgs, labs, 10)
        return Dataset(add_bias_row(raw.x), raw.t).x

    return _peak_ratio(load, (785, 5000))


def _biased_load_peak(tmp_path):
    imgs, labs = _idx_pair(tmp_path)
    return _peak_ratio(lambda: load_idx_dataset(imgs, labs, 10, bias=True).x,
                       (785, 5000))


def _csv_load_peak(tmp_path):
    rng = np.random.default_rng(4)
    f = tmp_path / "big.csv"
    feats = rng.standard_normal((4000, 60))
    labels = rng.integers(0, 3, 4000)
    f.write_text("".join(",".join(map(repr, row)) + f",{lab}\n"
                         for row, lab in zip(feats.tolist(), labels)))
    return _peak_ratio(lambda: load_csv(f, -1, 3).x, (60, 4000))


@pytest.mark.parametrize("peak, bound", [
    (_load_and_bias_peak, 2.3), (_biased_load_peak, 1.3), (_csv_load_peak, 3.0),
], ids=["load-and-bias", "biased-load", "csv"])
def test_peak_bounds_hold_on_the_parallel_path(tmp_path, forced_parallel, monkeypatch,
                                               peak, bound):
    # the same bounds as the tests that run the default path.  Blocks of
    # 64 KiB: the 785 x 5000 X spans 479 blocks of 10 or 11 columns.  The
    # pool keeps about 1.8 KB per block until the call returns, which the
    # default plan (one block per 16 MiB) never makes significant.
    monkeypatch.setattr(core, "PARALLEL_MIN_BYTES", 64 << 10)
    assert peak(tmp_path) <= bound


def test_pooled_setup_passes_hold_one_blas_thread_and_restore(tmp_path, forced_parallel,
                                                              monkeypatch):
    # every setup pass runs its blocks on a pool here; each block reads
    # OpenBLAS's thread count before it runs: one, as in train's epochs
    setter = core._blas_thread_setter()
    if setter is None:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    lock, seen = threading.Lock(), []

    def count():
        with lock:
            current = setter(1)
            setter(current)
        return current

    class ReadingPool(concurrent.futures.ThreadPoolExecutor):
        def submit(self, fn, *args, **kwargs):
            def read_then_run(*a, **k):
                seen.append(count())
                return fn(*a, **k)

            return super().submit(read_then_run, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", ReadingPool)
    imgs, labs, table = tmp_path / "imgs.idx", tmp_path / "labs.idx", tmp_path / "t.csv"
    rng = np.random.default_rng(12)
    write_raw_images(imgs, rng.integers(0, 256, (30, 2, 3), dtype=np.uint8))
    write_raw_labels(labs, rng.integers(0, 3, 30).tolist())
    table.write_text("".join(f"{a!r},{b!r},{k}\n" for a, b, k in
                             zip(*rng.standard_normal((2, 30)).tolist(), [0, 1, 2] * 10)))
    restore = setter(2)
    try:
        before = count()
        column_blocks(lambda cols: None, 30, 3 * core.PARALLEL_MIN_BYTES)
        x = load_idx_images(imgs)
        data = load_idx_dataset(imgs, labs, 3, bias=True)
        load_csv(table, -1, 3, bias=True)
        Dataset(np.asfortranarray(add_bias_row(x)), data.t)
        as_matrix(x.T)
        after = count()
    finally:
        setter(restore)
    assert len(seen) >= 6 * 3
    assert set(seen) == {1} and before == after == 2


def _assert_bit_equal(a, b):
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestBiasedLoaders:
    """``bias=True`` builds the same X as the ``add_bias_row`` idiom, once."""

    def test_idx_images_match_bias_idiom(self, tmp_path, forced_parallel):
        n = 37
        images = np.random.default_rng(4).integers(0, 256, (n, 3, 2), dtype=np.uint8)
        f = tmp_path / "imgs.idx"
        write_raw_images(f, images)
        x = load_idx_images(f, bias=True)
        assert x.flags.c_contiguous and x.dtype == np.float64
        _assert_bit_equal(x, add_bias_row(load_idx_images(f)))

    def test_idx_dataset_is_adopted(self, tmp_path):
        imgs, labs = tmp_path / "imgs.idx", tmp_path / "labs.idx"
        rng = np.random.default_rng(5)
        write_raw_images(imgs, rng.integers(0, 256, (40, 4, 3), dtype=np.uint8))
        write_raw_labels(labs, rng.integers(0, 3, 40).tolist())
        loaded = load_idx_dataset(imgs, labs, 3, bias=True)
        raw = load_idx_dataset(imgs, labs, 3)
        _assert_bit_equal(loaded.x, add_bias_row(raw.x))
        _assert_bit_equal(loaded.t, raw.t)
        _assert_frozen_c(loaded.x)
        data = Dataset(loaded.x, loaded.t)
        assert np.shares_memory(data.x, loaded.x)

    @pytest.mark.parametrize("label_column,header",
                             [(0, False), (1, False), (2, True), (-1, False)])
    def test_csv_matches_bias_idiom(self, tmp_path, label_column, header):
        rng = np.random.default_rng(6)
        table = rng.standard_normal((25, 4)).round(6)
        table[:, label_column] = rng.integers(0, 3, 25)
        lines = [",".join(repr(float(v)) for v in row) for row in table]
        f = tmp_path / "t.csv"
        f.write_text("\n".join((["a,b,c,d"] if header else []) + lines) + "\n")
        loaded = load_csv(f, label_column, 3, header=header, bias=True)
        raw = load_csv(f, label_column, 3, header=header)
        _assert_bit_equal(raw.x, np.delete(table, label_column % 4, axis=1).T)
        _assert_bit_equal(loaded.x, add_bias_row(raw.x))
        _assert_bit_equal(loaded.t, raw.t)
        _assert_frozen_c(loaded.x)
        assert np.shares_memory(Dataset(loaded.x, loaded.t).x, loaded.x)

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "1e999"])
    @pytest.mark.parametrize("bias", [False, True])
    def test_csv_keeps_the_finite_check(self, tmp_path, cell, bias):
        f = tmp_path / "t.csv"
        f.write_text(f"1.0,0\n{cell},1\n")
        with pytest.raises(CsvParseError) as exc:
            load_csv(f, -1, 2, bias=bias)
        assert str(exc.value) == f"line 2: non-finite value {cell!r}"

    # numpy's reader, and the line reader for a cell only float() reads
    @pytest.mark.parametrize("text", ["1.5,0\n-2,1\n", "1_5,0\n-2,1\n"])
    @pytest.mark.parametrize("bias", [False, True])
    def test_csv_is_adopted_with_no_value_check(self, tmp_path, monkeypatch, text,
                                                bias):
        def refuse(*args, **kwargs):
            raise AssertionError("a value check ran")

        monkeypatch.setattr(core, "as_matrix", refuse)
        monkeypatch.setattr(core, "check_probability", refuse)
        f = tmp_path / "t.csv"
        f.write_text(text)
        data = load_csv(f, -1, 2, bias=bias)
        assert data.x[:, 1].tolist() == [-2.0] + [1.0] * bias
        _assert_frozen_c(data.x)
        _assert_frozen_c(data.t)

    def test_bias_row_alone_is_refused(self, tmp_path):
        f = tmp_path / "labels-only.csv"
        f.write_text("0\n1\n")
        for bias in (False, True):
            with pytest.raises(DimensionMismatchError, match="at least one row"):
                load_csv(f, 0, 2, bias=bias)

    def test_biased_load_peak_memory(self, tmp_path):
        # X is allocated once at its final (D+1) x N size; besides it only
        # the payload bytes (1/8 of X) and the one-hot targets are held.
        assert _biased_load_peak(tmp_path) <= 1.3


class TestCsv:
    def test_basic(self, tmp_path):
        f = tmp_path / "toy.csv"
        f.write_text("1,2,0\n3,4,1\n")
        data = load_csv(f, 2, 2)
        assert np.array_equal(data.x, [[1.0, 3.0], [2.0, 4.0]])
        assert np.array_equal(data.t, [[1.0, 0.0], [0.0, 1.0]])

    def test_header_skipped(self, tmp_path):
        f = tmp_path / "toy.csv"
        f.write_text("a,b,label\n1,2,0\n3,4,1\n")
        data = load_csv(f, 2, 2, header=True)
        assert data.n == 2

    def test_negative_label_column_counts_from_end(self, tmp_path):
        f = tmp_path / "toy.csv"
        f.write_text("1,2,0\n3,4,1\n")
        data = load_csv(f, -1, 2)
        assert np.array_equal(data.x, [[1.0, 3.0], [2.0, 4.0]])

    def test_ragged_row_reports_line(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("1,2,0\n3,4\n")
        with pytest.raises(CsvParseError, match="line 2"):
            load_csv(f, 2, 2)

    def test_non_numeric_cell_reports_line(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("1,2,0\n3,oops,1\n")
        with pytest.raises(CsvParseError, match="line 2"):
            load_csv(f, 2, 2)

    def test_x_is_read_only_c_order(self, tmp_path):
        f = tmp_path / "toy.csv"
        f.write_text("1,0,2\n3,1,4\n5,0,6\n")
        data = load_csv(f, 1, 2)
        assert np.array_equal(data.x, [[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]])
        _assert_frozen_c(data.x)

    def test_non_integer_label(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("1,2,0.5\n")
        with pytest.raises(CsvParseError, match="integer"):
            load_csv(f, 2, 2)

    @pytest.mark.parametrize("text, header, c, message", [
        ("h1,h2,lab\n1,2,0\n\n3,4,5\n", True, 3,
         "line 4: label 5 is not an integer in 0..2"),
        ("h1,h2,lab\r\n1,2,0\r\n\r\n3,4,5\r\n", True, 3,
         "line 4: label 5 is not an integer in 0..2"),
        ("h1,h2,lab\r1,2,0\r\r3,4,5\r", True, 3,
         "line 4: label 5 is not an integer in 0..2"),
        ("1,2,0\n3,4,-1\n", False, 2, "line 2: label -1 is not an integer in 0..1"),
        ("1,2,0\n3,4,1.5\n", False, 2, "line 2: label 1.5 is not an integer in 0..1"),
    ], ids=["after-blank-line", "crlf", "cr", "negative", "fractional"])
    def test_bad_label_names_line_and_label_as_written(self, tmp_path, text, header,
                                                       c, message):
        f = tmp_path / "bad.csv"
        f.write_bytes(text.encode())
        with pytest.raises(CsvParseError) as exc:
            load_csv(f, -1, c, header=header)
        assert str(exc.value) == message


    # in a feature cell, in the label cell, and in a header line read as data
    @pytest.mark.parametrize("text, message", [
        (b"1,2,0\n3,4\xff,1\n", "line 2: non-numeric value '4\\udcff'"),
        (b"1,2,0\n3,4,\xff\n", "line 2: non-numeric value '\\udcff'"),
        (b"caf\xe9,2,0\n3,4,1\n", "line 1: non-numeric value 'caf\\udce9'"),
    ], ids=["feature", "label", "unskipped-header"])
    def test_byte_that_is_not_utf8_is_named_by_its_line(self, tmp_path, text, message):
        f = tmp_path / "bad.csv"
        f.write_bytes(text)
        with pytest.raises(CsvParseError) as exc:
            load_csv(f, -1, 2)
        assert str(exc.value) == message

    def test_first_refused_cell_of_a_line_is_named(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("1,2,3,0\n4,nan,x,1\n")
        with pytest.raises(CsvParseError) as exc:
            load_csv(f, -1, 2)
        assert str(exc.value) == "line 2: non-finite value 'nan'"

    def test_form_feed_does_not_split_a_line(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_bytes(b"1,2,0\n3,4\f5,1\n")
        with pytest.raises(CsvParseError, match="line 2: non-numeric value"):
            load_csv(f, -1, 2)

    def test_load_peak_memory(self, tmp_path):
        # numpy's reader parses the file into one N x W table of doubles,
        # so besides X the load holds about one more X, never the whole text
        assert _csv_load_peak(tmp_path) <= 3.0


    @pytest.mark.parametrize("label_column, message", [
        (-5, "label column -5 outside -3..2"),
        (3, "label column 3 outside -3..2"),
    ])
    def test_label_column_out_of_range_is_named_as_given(self, tmp_path,
                                                         label_column, message):
        f = tmp_path / "toy.csv"
        f.write_text("1,2,0\n3,4,1\n")
        with pytest.raises(CsvParseError) as exc:
            load_csv(f, label_column, 2)
        assert str(exc.value) == message

    @pytest.mark.parametrize("text, header", [
        ("", False), ("a,b,label\n", True), ("\n\r\n\n", False), ("  \n\t\n", False),
    ], ids=["empty", "header-only", "blank-lines", "whitespace-lines"])
    def test_no_data_rows(self, tmp_path, text, header):
        # pytest turns warnings into errors, so numpy's "input contained no
        # data" warning would fail this test if it escaped the loader
        f = tmp_path / "empty.csv"
        f.write_bytes(text.encode())
        with pytest.raises(CsvParseError) as exc:
            load_csv(f, -1, 2, header=header)
        assert str(exc.value) == "no data rows"

    def test_other_warnings_are_not_silenced(self, tmp_path, monkeypatch):
        def warn(*args, **kwargs):
            warnings.warn("unrelated", UserWarning)
            return np.zeros((1, 3))

        monkeypatch.setattr(np, "loadtxt", warn)
        f = tmp_path / "toy.csv"
        f.write_text("1,2,0\n")
        with pytest.raises(UserWarning, match="unrelated"):
            load_csv(f, -1, 2)

    @pytest.mark.parametrize("text, x", [
        ("1,2,0\n   \n3,4,1\n", [[1.0, 3.0], [2.0, 4.0]]),
        ("1_000,2,0\n3,4,1\n", [[1000.0, 3.0], [2.0, 4.0]]),
        ("\u0661,2,0\n3,\u0664,1\n", [[1.0, 3.0], [2.0, 4.0]]),
    ], ids=["whitespace-line", "underscore", "arabic-indic-digits"])
    def test_cells_only_float_reads(self, tmp_path, text, x):
        f = tmp_path / "toy.csv"
        f.write_bytes(text.encode())
        data = load_csv(f, -1, 2)
        assert np.array_equal(data.x, x)
        assert np.array_equal(data.t, [[1.0, 0.0], [0.0, 1.0]])


# Cells that one reader or both refuse, or that only float() reads.
_FAULTS = ["1_0", "\xa01", "1\xa0", "\x851", "1\x85", "4\f5", "1\f", "\f",
           "\u0661", "", " ", "x", "nan", "-inf", "1e999", "0x1"]
# Bytes that are not UTF-8.
_BAD_BYTES = [b"\xff", b"\xc3", b"\x85", b"\xa0"]


@st.composite
def _csv_texts(draw):
    """(CSV bytes, label column, class count, header) around a clean table
    of doubles, with blank lines, mixed line ends and injected faults."""
    width = draw(st.integers(1, 5))
    c = draw(st.integers(2, 4))
    rows = draw(st.integers(0, 5))
    col = draw(st.sampled_from(sorted({0, width // 2, width - 1, -1, -width})))
    if draw(st.integers(0, 9)) == 0:
        col = draw(st.sampled_from([width, -width - 1]))
    double = st.floats(allow_nan=False, allow_infinity=False, width=64)
    style = draw(st.sampled_from([repr, lambda v: format(v, ".17g")]))
    place = col % width   # where the labels go, also when col is out of range
    table = []
    for _ in range(rows):
        cells = [style(draw(double)) for _ in range(width)]
        label = draw(st.integers(0, c - 1))
        cells[place] = draw(st.sampled_from([str(label), f"{label}.0", f" {label} "]))
        table.append(cells)
    for _ in range(draw(st.integers(0, 2)) if table else 0):
        cells = table[draw(st.integers(0, len(table) - 1))]
        if draw(st.booleans()):
            cells[draw(st.integers(0, width - 1))] = draw(st.sampled_from(_FAULTS))
        else:
            cells[place] = draw(st.sampled_from(["0.5", str(c), "-1", "1e0", "-0"]))
    if table and draw(st.integers(0, 4)) == 0:
        cells = table[draw(st.integers(0, len(table) - 1))]
        if len(cells) > 1 and draw(st.booleans()):
            cells.pop()
        else:
            cells.append("0")
    lines = [",".join(cells) for cells in table]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["", " ", "\t", "\f", "\xa0"])))
    header = draw(st.booleans())
    if header:
        lines.insert(0, draw(st.sampled_from(["a,b", "", "1,2,0", "h\u00e9"])))
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    text = b"".join(line.encode() + draw(ends).encode() for line in lines)
    if text and draw(st.integers(0, 19)) == 0:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(_BAD_BYTES)) + text[at:]
    if text and draw(st.booleans()):
        text = text.rstrip(b"\r\n")
    return text, col, c, header


def _outcome(load):
    """What a loader makes of a file, as a comparable value: the bytes and
    shapes of X and T, or the type and text of the error."""
    try:
        data = load()
    except ValueError as exc:
        return type(exc), str(exc)
    return data.x.shape, data.x.tobytes(), data.t.shape, data.t.tobytes()


class TestCsvReaders:
    """``load_csv`` parses with numpy's reader and hands the files it refuses
    to the line-by-line reader ``_load_csv_lines``; the two must agree."""

    @pytest.mark.parametrize("bias", [False, True])
    def test_17_digit_doubles_read_back_bit_for_bit(self, tmp_path, bias):
        # random bit patterns cover subnormals and both ends of the exponent
        rng = np.random.default_rng(11)
        feats = rng.integers(0, 2**64, (300, 7), dtype=np.uint64).view(float)
        feats[~np.isfinite(feats)] = 0.5
        labels = rng.integers(0, 4, 300)
        f = tmp_path / "exact.csv"
        f.write_text("".join(",".join(format(v, ".17g") for v in row) + f",{lab}\n"
                             for row, lab in zip(feats.tolist(), labels)))
        data = load_csv(f, -1, 4, bias=bias)
        want = add_bias_row(feats.T) if bias else feats.T
        _assert_bit_equal(data.x, want)
        assert np.array_equal(data.t.argmax(axis=0), labels)

    # ``header``: False, True, or the header line's bytes (here cp1252,
    # which is not UTF-8)
    @pytest.mark.parametrize("label_column, header, newline, bias", [
        (0, False, "\n", False), (2, True, "\r\n", True),
        (-1, False, "\r", False), (-4, True, "\n", True),
        (1, "caf\u00e9,\u00b5,\u20ac,d,e".encode("cp1252"), "\n", False),
    ])
    def test_clean_csv_never_reaches_the_line_reader(self, tmp_path, monkeypatch,
                                                     label_column, header,
                                                     newline, bias):
        # a numpy upgrade that refused these files would silently bring
        # back the slow path; this makes it fail loudly instead
        def refuse(*args, **kwargs):
            raise AssertionError("clean CSV reached the line reader")

        monkeypatch.setattr(data_io, "_load_csv_lines", refuse)
        rng = np.random.default_rng(12)
        table = rng.standard_normal((20, 5))
        table[:, label_column] = rng.integers(0, 3, 20)
        head = header if isinstance(header, bytes) else b"a,b,c,d,e"
        lines = ([head] if header else []) + [
            ",".join(repr(v) for v in row).encode() for row in table.tolist()]
        lines.insert(len(lines) // 2, b"")
        f = tmp_path / "clean.csv"
        f.write_bytes(newline.encode().join(lines) + newline.encode())
        data = load_csv(f, label_column, 3, header=bool(header), bias=bias)
        assert data.n == 20 and data.d == 4 + bias

    @settings(max_examples=300, deadline=None)
    @given(_csv_texts())
    def test_fast_path_agrees_with_line_reader(self, tmp_path_factory, case):
        text, label_column, c, header = case
        f = tmp_path_factory.getbasetemp() / "agree.csv"
        f.write_bytes(text)
        fast = _outcome(lambda: load_csv(f, label_column, c, header=header))
        lines = _outcome(lambda: data_io._load_csv_lines(f, label_column, c,
                                                         header, False))
        assert fast == lines


class TestAddBiasRow:
    def test_appends_ones(self):
        out = add_bias_row(np.array([[1.0, 2.0]]))
        assert np.array_equal(out, [[1.0, 2.0], [1.0, 1.0]])

    def test_not_idempotent(self):
        out = add_bias_row(add_bias_row(np.array([[1.0, 2.0]])))
        assert out.shape == (3, 2)
        assert np.array_equal(out[1], out[2])

    def test_empty_matrix(self):
        out = add_bias_row(np.zeros((3, 0)))
        assert out.shape == (4, 0)

    def test_result_is_read_only_c_order(self):
        out = add_bias_row(np.asfortranarray(np.ones((3, 4))))
        _assert_frozen_c(out)

    def test_blocked_copy_of_a_c_array_by_rows_matches_serial(self, both_paths):
        x = np.random.default_rng(10).standard_normal((5, 101))
        serial, parallel, submitted = both_paths(lambda: add_bias_row(x))
        assert submitted == 5  # one block per row of x
        _assert_bit_equal(serial, parallel)
        _assert_bit_equal(parallel, np.vstack([x, np.ones((1, 101))]))
        _assert_frozen_c(parallel)

    def test_pooled_copy_leaves_the_blas_thread_count_as_found(self, forced_parallel,
                                                               monkeypatch):
        # a setter that keeps a count, as OpenBLAS does, found at 4
        count, calls = [4], []

        def setter(new):
            calls.append(new)
            previous, count[0] = count[0], new
            return previous

        monkeypatch.setattr(core, "_blas_thread_setter", lambda: setter)
        x = np.random.default_rng(11).standard_normal((5, 101))
        _assert_bit_equal(add_bias_row(x), np.vstack([x, np.ones((1, 101))]))
        assert calls == [1, 4] and count == [4]

    def test_blocked_copy_of_a_strided_view_matches_serial(self, both_paths):
        base = np.random.default_rng(9).standard_normal((8, 301))
        x = base[1::2, ::3]
        serial, parallel, submitted = both_paths(lambda: add_bias_row(x))
        assert submitted == 4  # one block per row of x, as for a C array
        _assert_bit_equal(serial, parallel)
        _assert_bit_equal(parallel, np.vstack([x, np.ones((1, 101))]))
        _assert_frozen_c(parallel)


def _assert_frozen_c(x):
    assert x.flags.c_contiguous and not x.flags.writeable
