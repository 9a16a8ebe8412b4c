"""Tests for dataset generation, CSV round trips and the IDX reader."""

import csv
import os
import re
import struct

import numpy as np
import pytest

import csv_oracle
from qkan import data as dm
from qkan.errors import DataError

# golden values transcribed independently from the formula definitions,
# evaluated at (0.3, 0.8[, 0.2]), (0.5, 0.5[, 0.5]) and (0.9, 0.1[, 0.7])
GOLDEN_POINTS_2 = np.array([[0.3, 0.8], [0.5, 0.5], [0.9, 0.1]])
GOLDEN_POINTS_3 = np.array([[0.3, 0.8, 0.2], [0.5, 0.5, 0.5],
                            [0.9, 0.1, 0.7]])
GOLDEN = {
    "I.12.11": [1.2152068272698568, 1.2397127693021015, 1.0898500749821454],
    "I.29.16": [0.7712318918809006, 0.5, 0.5695576293603475],
    "I.40.1": [0.13479868923516647, 0.3032653298563167, 0.8143536762323635],
    "I.50.26": [1.6854707350894773, 1.2626581383574078, 0.66024986353601],
    "II.2.42": [-0.5599999999999999, -0.25, -0.009999999999999998],
    "II.6.15a": [0.013598204298629525, 0.028134884879909568,
                 0.05044232572174094],
    "II.35.18": [0.11215498773561293, 0.2217047209925185, 0.447759337028952],
    "II.36.38": [0.46, 0.75, 0.97],
    "III.10.19": [1.3152946437965907, 1.224744871391589, 1.3490737563232043],
    "III.17.37": [1.035215978681898, 0.7193956404725932, 0.168835796855604],
}


class TestFormulas:
    def test_all_ten_formulas_match_golden_values(self):
        for name, expected in GOLDEN.items():
            spec = dm.get_spec(name)
            pts = GOLDEN_POINTS_2 if spec.arity == 2 else GOLDEN_POINTS_3
            np.testing.assert_allclose(spec.formula(pts), expected,
                                       atol=1e-14, err_msg=name)

    def test_unknown_equation(self):
        with pytest.raises(DataError):
            dm.get_spec("IV.0.0")

    def test_sinc_removable_singularity(self):
        np.testing.assert_allclose(dm.sinc20(np.array([0.0])), 1.0)
        x = np.array([0.25])
        np.testing.assert_allclose(dm.sinc20(x), np.sin(5.0) / 5.0)


class TestRegressionGenerator:
    def test_shapes_and_meta(self):
        train, test = dm.gen_regression(dm.get_spec("I.12.11"),
                                        n_train=100, n_test=50, seed=1)
        assert train.inputs.shape == (100, 2)
        assert test.inputs.shape == (50, 2)
        assert train.targets.shape == (100, 1)
        assert train.meta["equation"] == "I.12.11"
        assert train.meta["split"] == "train"
        assert test.meta["split"] == "test"

    def test_seed_determinism(self):
        a1, b1 = dm.gen_regression(dm.get_spec("II.2.42"), seed=7)
        a2, b2 = dm.gen_regression(dm.get_spec("II.2.42"), seed=7)
        np.testing.assert_array_equal(a1.inputs, a2.inputs)
        np.testing.assert_array_equal(a1.targets, a2.targets)
        np.testing.assert_array_equal(b1.targets, b2.targets)
        a3, _ = dm.gen_regression(dm.get_spec("II.2.42"), seed=8)
        assert not np.array_equal(a1.targets, a3.targets)

    def test_noise_scale(self):
        spec = dm.get_spec("I.12.11")
        train, _ = dm.gen_regression(spec, n_train=5000, noise_frac=0.1,
                                     seed=2)
        clean = spec.formula(train.inputs)[:, None]
        resid = train.targets - clean
        mu = np.mean(np.abs(clean))
        np.testing.assert_allclose(np.std(resid), 0.1 * mu, rtol=0.1)
        assert train.meta["noise_std"] == pytest.approx(0.1 * train.meta["mu_f"])

    def test_zero_noise(self):
        spec = dm.get_spec("II.36.38")
        train, _ = dm.gen_regression(spec, n_train=50, noise_frac=0.0, seed=3)
        np.testing.assert_allclose(train.targets[:, 0],
                                   spec.formula(train.inputs), atol=1e-15)

    def test_input_range(self):
        train, test = dm.gen_regression(dm.get_spec("I.12.11"), seed=4,
                                        input_range=(-1.0, 1.0))
        for ds in (train, test):
            assert ds.inputs.min() >= -1.0 and ds.inputs.max() <= 1.0

    def test_sinc_test_split_clean(self):
        train, test = dm.gen_sinc(n_train=200, n_test=100, noise_std=0.1,
                                   seed=5)
        np.testing.assert_allclose(test.targets, dm.sinc20(test.inputs),
                                   atol=1e-15)
        resid = train.targets - dm.sinc20(train.inputs)
        assert np.std(resid) > 0.05   # training split really is noisy


# CSV texts the bulk reader must read exactly as the record-by-record
# oracle does
VALID_CSV = {
    "quoted": 'x1,y1\r\n"0.5","1.25"\r\n"-3e-5",2\r\n',
    "padded": "x1,x2,y1\n 1.5 ,\t2 , 3\n-1 ,  0.25,7\t\n",
    "underscores": "x1,y1\n1_000,2_0.5\n",
    "negative-zero": "x1,y1\n-0.0,0.0\n-0,0\n",
    "subnormal": "x1,y1\n5e-324,-2.2250738585072014e-309\n"
                 "4.9406564584124654e-324,1e-310\n",
    "extremes": "x1,y1\n1.7976931348623157e308,-1.7976931348623157e+308\n",
    "quoted-newline": 'x1,y1\n"1\n",2\n3,4\n',
    "cr-only": "x1,y1\r1,2\r3,4\r",
    "no-final-newline": "x1,y1\n1,2\n3,4",
    "wide": "x1,x2,x3,y1,y2\n1,2,3,4,5\n6,7,8,9,10\n",
    # CRLF records like write_csv's: the first three take numpy's path,
    # the others fall back to the csv module
    "crlf-written": "x1,x2,y1\r\n0.5,-1e-300,3\r\n"
                    "1.7976931348623157e308,-0.0,5e-324\r\n",
    "crlf-padded": "x1,y1\r\n 1.5 ,\t2\r\n-1\x0b,+.25\r\n",
    "crlf-unicode-spaces": "x1,y1\r\n\u30001.5\xa0,\u20282\x85\r\n",
    "crlf-lone-cr": "x1,y1\r\n1,2\r3,4\r\n",
    "crlf-underscores": "x1,y1\r\n1_000,2_0.5\r\n",
    "crlf-unicode-digits": "x1,y1\r\n\u0661\u0662,\u0663.5\r\n",
    "crlf-quoted": 'x1,y1\r\n"0.5",1\r\n',
}

# malformed CSV texts; each must give the oracle's DataError message
MALFORMED_CSV = {
    "empty": "",
    "bad-header": "a,b\n1,2\n",
    "no-targets": "x1,x2\n1,2\n",
    "no-rows": "x1,y1\n",
    "blank-line": "x1,y1\n1,2\n\n3,4\n",
    "short-row": "x1,y1\n1,2\n3\n",
    "long-row": "x1,y1\n1,2,3\n",
    "bad-token": "x1,y1\n1,2\n1,abc\n",
    "empty-cell": "x1,y1\n1,\n",
    "nan": "x1,y1\nnan,1\n",
    "-Infinity": "x1,y1\n1,2\n1,-Infinity\n",
    "overflow": "x1,y1\n1e999,1\n",
    # the first offending record is reported, whatever a later one holds
    "nan-then-short": "x1,y1\n1,2\n1,nan\n2\n",
    "token-then-short": "x1,y1\n1,abc\n2\n",
    "inf-then-token": "x1,y1\n1,inf\n2,abc\n",
    # within a record: column count, then number syntax, then finiteness
    "token-and-nan": "x1,x2,y1\nnan,abc,1\n",
    "long-and-token": "x1,y1\nabc,1,2\n",
    "token-before-oversize-field": "x1,y1\n1,abc\n1," + "1" * 200_000 + "\n",
    # CRLF records that numpy's path must hand to the csv module
    "crlf-blank-line": "x1,y1\r\n1,2\r\n\r\n3,4\r\n",
    "crlf-whitespace-line": "x1,y1\r\n1,2\r\n \t\r\n3,4\r\n",
    "crlf-every-row-long": "x1,y1\r\n1,2,3\r\n4,5,6\r\n",
    "crlf-lone-cr-short-row": "x1,y1\r\n1,2\r3\r\n",
    "crlf-lone-cr-at-end": "x1,y1\r\n1,2\r\r\n",
    "crlf-nul": "x1,y1\r\n1,2\x00\r\n",
    # numpy would read these as 4 and 5; float refuses them
    "crlf-information-separator": "x1,y1\r\n1,2\r\n\x1c4,5\r\n",
    "crlf-information-separator-after": "x1,y1\r\n4\x1f,5\r\n",
    "crlf-nan": "x1,y1\r\n1,2\r\n1,nan\r\n",
    "crlf-unicode-digits-then-token": "x1,y1\r\n\u0661,2\r\n1,abc\r\n",
    "crlf-underscores-misplaced": "x1,y1\r\n1_000,2\r\n1__0,2\r\n",
    "crlf-quoted-comma": 'x1,y1\r\n"1,5",2\r\n',
    "crlf-header-only": "x1,y1\r\n",
}


def _read(reader, path):
    """reader(path), or the type and message of the error it raises."""
    try:
        ds = reader(path)
    except (DataError, csv.Error) as exc:
        return type(exc), str(exc)
    return (ds.inputs.shape, ds.inputs.tobytes(),
            ds.targets.shape, ds.targets.tobytes())


def assert_oversize_field_at(path, line):
    with pytest.raises(DataError) as exc:
        dm.read_csv(path)
    assert str(exc.value).startswith(
        f"{path}:{line}: field larger than field limit")


class TestCsvMatchesOracle:
    @pytest.mark.parametrize("text", VALID_CSV.values(), ids=VALID_CSV)
    def test_valid_file_reads_bitwise_as_the_oracle(self, tmp_path, text):
        path = tmp_path / "ds.csv"
        path.write_bytes(text.encode())
        got = _read(dm.read_csv, path)
        assert got == _read(csv_oracle.read_csv, path)
        assert got[0][0] >= 1    # a dataset, not an error

    @pytest.mark.parametrize("text", MALFORMED_CSV.values(), ids=MALFORMED_CSV)
    def test_malformed_file_gives_the_oracles_error(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_bytes(text.encode())
        got = _read(dm.read_csv, path)
        assert got == _read(csv_oracle.read_csv, path)
        assert got[0] is DataError

    def test_oversize_field_alone_is_a_data_error(self, tmp_path):
        # the oracle lets the csv module's error escape; read_csv names
        # the line instead
        path = tmp_path / "bad.csv"
        path.write_text("x1,y1\n1,2\n1," + "1" * 200_000 + "\n")
        assert _read(csv_oracle.read_csv, path)[0] is csv.Error
        assert_oversize_field_at(path, 3)

    def test_oversize_zero_field_in_crlf_records_is_a_data_error(self,
                                                                tmp_path):
        # float reads the field as 0.0, and so would numpy; the csv
        # module refuses it, so read_csv does too
        path = tmp_path / "bad.csv"
        path.write_bytes(b"x1,y1\r\n1,2\r\n1," + b"0" * 200_000 + b"\r\n")
        assert _read(csv_oracle.read_csv, path)[0] is csv.Error
        assert_oversize_field_at(path, 3)

    def test_oversize_header_field_is_a_data_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,y" + "1" * 200_000 + "\n1,2\n")
        assert_oversize_field_at(path, 1)

    def test_undecodable_bytes_after_a_bad_record(self, tmp_path):
        # the decoder fails chunks after the bad record: it is reported
        path = tmp_path / "bad.csv"
        path.write_bytes(b"x1,y1\n1,abc\n" + b"1,2\n" * 5000 + b"\xff\n")
        got = _read(dm.read_csv, path)
        assert got == _read(csv_oracle.read_csv, path)
        assert got[0] is DataError and ":2:" in got[1]

    @pytest.mark.parametrize("n_rows, n_x, n_y", [(0, 1, 1), (1, 2, 1),
                                                  (50, 3, 2), (300, 1, 1)])
    def test_written_bytes_equal_the_oracles(self, tmp_path, n_rows, n_x, n_y):
        rng = np.random.default_rng(n_rows + 10 * n_x + 100 * n_y)
        values = rng.uniform(-1.0, 1.0, size=(n_rows, n_x + n_y)) \
            * 10.0 ** rng.integers(-320, 309, size=(n_rows, n_x + n_y))
        specials = [1e308, -1e308, -0.0, 0.0, 5e-324, -2.5e-310, 1.0, -1.0]
        values.flat[:len(specials)] = specials[:values.size]
        ds = dm.Dataset(values[:, :n_x], values[:, n_x:])
        dm.write_csv(ds, tmp_path / "new.csv")
        csv_oracle.write_csv(ds, tmp_path / "old.csv")
        assert ((tmp_path / "new.csv").read_bytes()
                == (tmp_path / "old.csv").read_bytes())


class TestCsv:
    @pytest.mark.parametrize("n_rows, n_x, n_y", [(1, 1, 1), (40, 3, 2)])
    def test_written_file_is_read_without_the_csv_module(
            self, tmp_path, monkeypatch, n_rows, n_x, n_y):
        rng = np.random.default_rng(n_rows)
        ds = dm.Dataset(rng.normal(size=(n_rows, n_x)),
                        rng.normal(size=(n_rows, n_y)))
        path = tmp_path / "ds.csv"
        dm.write_csv(ds, path)

        def no_reader(*args, **kwargs):
            raise AssertionError("csv.reader called")
        monkeypatch.setattr(csv, "reader", no_reader)
        back = dm.read_csv(path)
        assert back.inputs.tobytes() == ds.inputs.tobytes()
        assert back.targets.tobytes() == ds.targets.tobytes()

    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        ds = dm.Dataset(rng.normal(size=(20, 3)), rng.normal(size=(20, 2)))
        path = tmp_path / "ds.csv"
        dm.write_csv(ds, path)
        back = dm.read_csv(path)
        # 17 significant digits round-trip float64 exactly
        np.testing.assert_array_equal(back.inputs, ds.inputs)
        np.testing.assert_array_equal(back.targets, ds.targets)

    def test_header_layout(self, tmp_path):
        ds = dm.Dataset(np.zeros((2, 2)), np.zeros((2, 1)))
        path = tmp_path / "ds.csv"
        dm.write_csv(ds, path)
        header = path.read_text().splitlines()[0]
        assert header == "x1,x2,y1"

    def test_malformed_rows_reported_with_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,y1\n0.5,1.0\n0.25\n")
        with pytest.raises(DataError, match="3"):
            dm.read_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_reported_with_line(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"x1,y1\n0.5,1.0\n{cell},2.0\n")
        with pytest.raises(DataError, match=":3:"):
            dm.read_csv(path)

    def test_failed_write_leaves_no_partial_file(self, tmp_path):
        path = tmp_path / "train.csv"
        path.write_text("original")
        ds = dm.Dataset(np.zeros((5, 1)), np.zeros((5, 1)))
        # the fifth row cannot be formatted, after four rows were
        ds.targets = np.array([[0.0]] * 4 + [["oops"]], dtype=object)
        with pytest.raises(ValueError):
            dm.write_csv(ds, path)
        assert path.read_text() == "original"
        assert os.listdir(tmp_path) == ["train.csv"]

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DataError):
            dm.read_csv(path)

    @pytest.mark.parametrize("header", ["y1,x1,x2", "x2,x1,y1", "x1,y2",
                                        "x1,x1,y1", "x1,y1,x2", "x1 ,y1",
                                        "X1,Y1"])
    def test_header_must_be_x1_to_xn_then_y1_to_ym(self, tmp_path, header):
        # the former rule, kept in csv_oracle, counted the cells that
        # start with x or y; it read all of these but X1,Y1, and read
        # y1,x1,x2 with the target as input x1
        path = tmp_path / "bad.csv"
        path.write_text(f"{header}\n1,2,3\n")
        with pytest.raises(DataError, match=r"header must be x1\.\.xn,"
                                            r"y1\.\.ym, got \["):
            dm.read_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError):
            dm.read_csv(path)


def write_idx_images(path, images):
    n, rows, cols = images.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, n, rows, cols))
        fh.write(images.astype(np.uint8).tobytes())


def write_idx_labels(path, labels):
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, len(labels)))
        fh.write(np.asarray(labels, dtype=np.uint8).tobytes())


class TestIdx:
    def test_images_normalized(self, tmp_path):
        images = np.arange(2 * 2 * 3, dtype=np.uint8).reshape(2, 2, 3)
        images[1, 1, 2] = 255
        path = tmp_path / "imgs"
        write_idx_images(path, images)
        out = dm.read_idx(path)
        assert out.shape == (2, 6)
        # pixel 0 -> -1, pixel 255 -> +1
        np.testing.assert_allclose(out[0, 0], -1.0)
        np.testing.assert_allclose(out[1, 5], 1.0)
        np.testing.assert_allclose(out[0, 3], (3 / 255.0 - 0.5) / 0.5)

    def test_labels(self, tmp_path):
        path = tmp_path / "labels"
        write_idx_labels(path, [3, 0, 9])
        out = dm.read_idx(path)
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, [3, 0, 9])

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad"
        with open(path, "wb") as fh:
            fh.write(struct.pack(">IIII", 0x00000804, 1, 1, 1))
            fh.write(b"\x00")
        with pytest.raises(DataError, match="magic"):
            dm.read_idx(path)

    def test_truncation_reports_offset(self, tmp_path):
        path = tmp_path / "trunc"
        with open(path, "wb") as fh:
            fh.write(struct.pack(">IIII", 0x00000803, 2, 2, 2))
            fh.write(b"\x00" * 5)   # needs 8 payload bytes
        with pytest.raises(DataError, match="byte"):
            dm.read_idx(path)

    def test_header_size_beyond_int64_rejected(self, tmp_path):
        # 2^21 * 2^21 * 2^22 pixels is 0 when multiplied in int64
        path = tmp_path / "huge"
        path.write_bytes(struct.pack(">IIII", 0x00000803, 2 ** 21, 2 ** 21,
                                     2 ** 22))
        with pytest.raises(DataError,
                           match=": expected 18446744073709551632 bytes"):
            dm.read_idx(path)

    @pytest.mark.parametrize("dims", [(0, 2 ** 31, 2 ** 31), (4, 2, 0)])
    def test_images_without_pixels_rejected(self, tmp_path, dims):
        path = tmp_path / "empty"
        path.write_bytes(struct.pack(">IIII", 0x00000803, *dims))
        with pytest.raises(DataError, match="hold no pixels"):
            dm.read_idx(path)


class TestDataset:
    def test_row_mismatch(self):
        with pytest.raises(ValueError):
            dm.Dataset(np.zeros((3, 2)), np.zeros((4, 1)))

    @pytest.mark.parametrize("x, y, bad", [
        pytest.param(np.zeros((5, 1)), np.zeros(5), "targets",
                     id="1-D-targets"),
        pytest.param(np.zeros(2), np.zeros(1), "inputs", id="1-D-pair"),
        pytest.param(np.zeros((2, 1)), np.float64(0.0), "targets",
                     id="0-D-targets"),
        pytest.param(np.zeros((2, 1, 1)), np.zeros((2, 1)), "inputs",
                     id="3-D-inputs"),
    ])
    def test_not_rows_rejected(self, x, y, bad):
        """Arrays that are not (rows, dim) are refused, not promoted to
        one row, with the shape named and the 1-D fix given."""
        shape = (x if bad == "inputs" else y).shape
        with pytest.raises(ValueError, match=rf"^{bad} .*shape "
                           rf"{re.escape(str(shape))}; .*y\[:, None\]"):
            dm.Dataset(x, y)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            dm.Dataset(np.array([[np.nan, 0.0]]), np.zeros((1, 1)))
