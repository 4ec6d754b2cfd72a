import struct
import tracemalloc

import numpy as np
import pytest

from smxreg.core import Dataset, DimensionMismatchError, InvalidLabelError
from smxreg.data_io import (
    IDX_BLOCK_IMAGES,
    CsvParseError,
    IdxFormatError,
    add_bias_row,
    encode_weights,
    load_csv,
    load_idx_dataset,
    load_idx_images,
    load_idx_labels,
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

    def test_c_order_and_exact_across_blocks(self, tmp_path):
        n = 2 * IDX_BLOCK_IMAGES + 37
        images = np.random.default_rng(2).integers(0, 256, (n, 3, 2), dtype=np.uint8)
        f = tmp_path / "imgs.idx"
        write_raw_images(f, images)
        x = load_idx_images(f)
        assert x.flags.c_contiguous and x.dtype == np.float64
        assert np.array_equal(x, images.reshape(n, 6).T / 255.0)


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
        imgs = tmp_path / "imgs.idx"
        labs = tmp_path / "labs.idx"
        rng = np.random.default_rng(3)
        write_raw_images(imgs, rng.integers(0, 256, (5000, 28, 28), dtype=np.uint8))
        write_raw_labels(labs, rng.integers(0, 10, 5000).tolist())
        tracemalloc.start()
        try:
            raw = load_idx_dataset(imgs, labs, 10)
            data = Dataset(add_bias_row(raw.x), raw.t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.3 * data.x.nbytes


def _assert_bit_equal(a, b):
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestBiasedLoaders:
    """``bias=True`` builds the same X as the ``add_bias_row`` idiom, once."""

    def test_idx_images_match_bias_idiom(self, tmp_path):
        n = 2 * IDX_BLOCK_IMAGES + 37
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

    @pytest.mark.parametrize("label_column,header", [(1, False), (2, True), (-1, False)])
    def test_csv_matches_bias_idiom(self, tmp_path, label_column, header):
        rng = np.random.default_rng(6)
        table = rng.standard_normal((25, 4)).round(6)
        table[:, label_column] = rng.integers(0, 3, 25)
        lines = [",".join(repr(float(v)) for v in row) for row in table]
        f = tmp_path / "t.csv"
        f.write_text("\n".join((["a,b,c,d"] if header else []) + lines) + "\n")
        loaded = load_csv(f, label_column, 3, header=header, bias=True)
        raw = load_csv(f, label_column, 3, header=header)
        _assert_bit_equal(loaded.x, add_bias_row(raw.x))
        _assert_bit_equal(loaded.t, raw.t)
        _assert_frozen_c(loaded.x)
        assert np.shares_memory(Dataset(loaded.x, loaded.t).x, loaded.x)

    def test_bias_row_alone_is_refused(self, tmp_path):
        f = tmp_path / "labels-only.csv"
        f.write_text("0\n1\n")
        for bias in (False, True):
            with pytest.raises(DimensionMismatchError, match="at least one row"):
                load_csv(f, 0, 2, bias=bias)

    def test_biased_load_peak_memory(self, tmp_path):
        # X is allocated once at its final (D+1) x N size; besides it only
        # the payload bytes (1/8 of X) and the one-hot targets are held.
        imgs = tmp_path / "imgs.idx"
        labs = tmp_path / "labs.idx"
        rng = np.random.default_rng(3)
        write_raw_images(imgs, rng.integers(0, 256, (5000, 28, 28), dtype=np.uint8))
        write_raw_labels(labs, rng.integers(0, 10, 5000).tolist())
        tracemalloc.start()
        try:
            data = load_idx_dataset(imgs, labs, 10, bias=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert data.x.shape == (785, 5000)
        assert peak <= 1.3 * data.x.nbytes


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


    def test_form_feed_does_not_split_a_line(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_bytes(b"1,2,0\n3,4\f5,1\n")
        with pytest.raises(CsvParseError, match="line 2: non-numeric value"):
            load_csv(f, -1, 2)

    def test_load_peak_memory(self, tmp_path):
        # the file is parsed line by line into one buffer of doubles, so
        # besides X the load holds about one more X, never the whole text
        rng = np.random.default_rng(4)
        f = tmp_path / "big.csv"
        feats = rng.standard_normal((4000, 60))
        labels = rng.integers(0, 3, 4000)
        f.write_text("".join(",".join(map(repr, row)) + f",{lab}\n"
                             for row, lab in zip(feats.tolist(), labels)))
        tracemalloc.start()
        try:
            data = load_csv(f, -1, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert data.x.shape == (60, 4000)
        assert peak <= 3.0 * data.x.nbytes


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


def _assert_frozen_c(x):
    assert x.flags.c_contiguous and not x.flags.writeable
