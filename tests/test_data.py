"""Data pipeline: file format, patches, PCA, splits, leakage, synthetic scenes."""

import struct
import tracemalloc

import numpy as np
import pytest

from hsiladder import ConfigError, DataError, LadderSpec, LayerSpec
from hsiladder import cube_io
from hsiladder import data as data_mod
from hsiladder import train as train_mod
from hsiladder.data import (
    TEST_FRACTION,
    HsiCube,
    extract_patches,
    load_cube,
    make_split,
    pca_fit,
    pca_reduce_cube,
    pca_transform,
    prepare_dataset,
    scale_bands,
)
from hsiladder.synthetic import make_synthetic_cube

from helpers import extract_patches_oracle, pca_inverse, read_array_oracle, scale_bands_oracle


class TestCubeFile:
    def test_round_trip_bit_exact(self, tmp_path):
        arr = np.random.default_rng(0).standard_normal((4, 4, 2))
        path = tmp_path / "cube.hsicube"
        cube_io.write_array(path, arr)
        back = cube_io.read_array(path)
        assert back.dtype == np.float64
        np.testing.assert_array_equal(back, arr)

    def test_uint8_and_float32_round_trip(self, tmp_path):
        gt = np.arange(12, dtype=np.uint8).reshape(3, 4)
        cube_io.write_array(tmp_path / "gt.hsicube", gt)
        np.testing.assert_array_equal(cube_io.read_array(tmp_path / "gt.hsicube"), gt)
        f = np.random.default_rng(1).standard_normal((2, 3)).astype(np.float32)
        cube_io.write_array(tmp_path / "f.hsicube", f)
        np.testing.assert_array_equal(cube_io.read_array(tmp_path / "f.hsicube"), f)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"NOTACUBE" + b"\x00" * 32)
        with pytest.raises(DataError):
            cube_io.read_array(p)

    def test_truncated_data_rejected(self, tmp_path):
        arr = np.zeros((4, 4), dtype=np.float64)
        p = tmp_path / "cube.hsicube"
        cube_io.write_array(p, arr)
        raw = p.read_bytes()
        p.write_bytes(raw[:-8])
        with pytest.raises(DataError):
            cube_io.read_array(p)

    @pytest.mark.parametrize(
        "header",
        [b"HSICUBE1\x02\x00", b"HSICUBE1", b"HSICUBE1" + struct.pack("<3I", 2, 4, 4)],
        ids=["ten-bytes", "magic-only", "no-dtype-byte"],
    )
    def test_truncated_header_rejected_naming_the_file(self, tmp_path, header):
        p = tmp_path / "short.hsicube"
        p.write_bytes(header)
        with pytest.raises(DataError, match="short.hsicube: truncated header"):
            cube_io.read_array(p)

    def test_huge_dims_on_a_tiny_file_rejected_without_allocating(self, tmp_path):
        p = tmp_path / "huge.hsicube"
        p.write_bytes(b"HSICUBE1" + struct.pack("<4IB", 3, 1024, 1024, 128, 2) + bytes(16))
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match="expected 1073741824 data bytes, got 16"):
                cube_io.read_array(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # the 1 GiB the header claims is never allocated

    @pytest.mark.parametrize(
        "shape, why",
        [((), "1 to 8 dimensions"), ((1,) * 9, "1 to 8 dimensions"), ((0, 2**32), "dims up to")],
        ids=["0-d", "9-d", "dim-above-u32"],
    )
    def test_unwritable_shape_rejected_before_any_file(self, tmp_path, shape, why):
        with pytest.raises(DataError, match=why):
            cube_io.write_array(tmp_path / "cube.hsicube", np.zeros(shape))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("dtype, code", [(np.float32, 1), (np.float64, 2), (np.uint8, 3)])
    def test_bytes_and_read_match_the_bytes_based_reader(self, tmp_path, dtype, code):
        arr = np.random.default_rng(6).uniform(0, 200, size=(7, 5, 3)).astype(dtype)
        p = tmp_path / "cube.hsicube"
        cube_io.write_array(p, arr.transpose(1, 0, 2))  # not contiguous
        header = b"HSICUBE1" + struct.pack("<4IB", 3, 5, 7, 3, code)
        assert p.read_bytes() == header + np.ascontiguousarray(arr.transpose(1, 0, 2)).tobytes()
        got, expect = cube_io.read_array(p), read_array_oracle(p)
        assert got.dtype == expect.dtype and got.flags.c_contiguous and got.flags.owndata
        np.testing.assert_array_equal(got, expect)

    def test_zero_size_round_trip(self, tmp_path):
        p = tmp_path / "empty.hsicube"
        cube_io.write_array(p, np.zeros((0, 3)))
        assert cube_io.read_array(p).shape == (0, 3)

    def test_failed_write_removes_the_tmp_file_and_keeps_the_old_one(self, tmp_path):
        path = tmp_path / "a.hsicube"
        cube_io.write_array(path, np.arange(3.0))
        with pytest.raises(RuntimeError, match="half written"):
            with cube_io.atomic_write(path) as f:
                f.write(b"partial")
                raise RuntimeError("half written")
        assert list(tmp_path.iterdir()) == [path]
        np.testing.assert_array_equal(cube_io.read_array(path), np.arange(3.0))


class TestConvert:
    def test_raw_dump_round_trip(self, tmp_path):
        arr = np.random.default_rng(2).standard_normal((5, 4, 3))
        raw = tmp_path / "dump.raw"
        raw.write_bytes(arr.astype("<f8").tobytes())
        out = tmp_path / "cube.hsicube"
        cube_io.convert_raw(raw, (5, 4, 3), "f64", out)
        np.testing.assert_array_equal(cube_io.read_array(out), arr)

    def test_wrong_dims_leaves_no_partial_file(self, tmp_path):
        raw = tmp_path / "dump.raw"
        raw.write_bytes(b"\x00" * 64)
        out = tmp_path / "cube.hsicube"
        with pytest.raises(DataError) as e:
            cube_io.convert_raw(raw, (5, 4, 3), "f64", out)
        assert "480" in str(e.value) and "64" in str(e.value)
        assert not out.exists()

    def test_expected_size_does_not_wrap(self, tmp_path):
        # 2**64 elements: a product in int64 wraps to 0 bytes, which an empty dump matches
        raw = tmp_path / "dump.raw"
        raw.write_bytes(b"")
        out = tmp_path / "cube.hsicube"
        with pytest.raises(DataError, match=f"is 0 bytes .* require {2**67} bytes$"):
            cube_io.convert_raw(raw, (2**21, 2**21, 2**22), "f64", out)
        assert not out.exists()

    def test_converting_twice_is_byte_identical(self, tmp_path):
        arr = np.random.default_rng(3).standard_normal(24).astype("<f4")
        raw = tmp_path / "dump.raw"
        raw.write_bytes(arr.tobytes())
        a, b = tmp_path / "a.hsicube", tmp_path / "b.hsicube"
        cube_io.convert_raw(raw, (2, 3, 4), "f32", a)
        cube_io.convert_raw(raw, (2, 3, 4), "f32", b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("dims", [(2.9, 4), (2, 4.0), ("2", 4), (True, 8), (np.True_, 8)])
    def test_non_integer_dims_rejected_by_name(self, tmp_path, dims):
        raw = tmp_path / "dump.raw"
        raw.write_bytes(b"\x00" * 64)
        out = tmp_path / "cube.hsicube"
        with pytest.raises(ConfigError, match="^dims must be an integer"):
            cube_io.convert_raw(raw, dims, "f64", out)
        assert not out.exists()


    def test_every_record_dtype_round_trips_by_each_name(self, tmp_path):
        raw = tmp_path / "dump.raw"
        for names, arr in [
            (("f32", "float32", "F32"), np.linspace(-1, 1, 12, dtype="<f4")),
            (("f64", "float64"), np.linspace(-1, 1, 12, dtype="<f8")),
            (("u8", "uint8"), np.arange(12, dtype="u1")),
            (("u64", "uint64", "UINT64"), np.arange(12, dtype="<u8") * (2**60 + 1)),
        ]:
            raw.write_bytes(arr.tobytes())
            for name in names:
                out = tmp_path / f"{name}.hsicube"
                cube_io.convert_raw(raw, (3, 4), name, out)
                back = cube_io.read_array(out)
                assert back.dtype == arr.dtype
                np.testing.assert_array_equal(back, arr.reshape(3, 4))

    def test_unknown_dtype_names_the_choices(self, tmp_path):
        raw = tmp_path / "dump.raw"
        raw.write_bytes(b"\x00" * 8)
        with pytest.raises(DataError, match="'i8'.*f32, float64, f64, uint8, u8, uint64, u64"):
            cube_io.convert_raw(raw, (1,), "i8", tmp_path / "out.hsicube")

    def test_directory_is_not_a_data_file(self, tmp_path):
        out = tmp_path / "out.hsicube"
        with pytest.raises(DataError, match="no such file"):
            cube_io.read_array(tmp_path)
        with pytest.raises(DataError, match="no such file"):
            cube_io.convert_raw(tmp_path, (2,), "u8", out)
        assert not out.exists()


class TestLoadCube:
    def _write_pair(self, tmp_path, data, gt):
        cube_io.write_array(tmp_path / "data.hsicube", data)
        cube_io.write_array(tmp_path / "gt.hsicube", gt)
        return tmp_path / "data.hsicube", tmp_path / "gt.hsicube"

    def test_load_and_global_scale(self, tmp_path):
        rng = np.random.default_rng(4)
        data = rng.uniform(10.0, 90.0, size=(6, 5, 3))
        gt = rng.integers(0, 4, size=(6, 5)).astype(np.uint8)
        gt[0, 0] = 3
        dp, gp = self._write_pair(tmp_path, data, gt)
        cube = load_cube(dp, gp, expected_classes=3)
        assert cube.num_classes == 3
        assert cube.reflectance.min() >= 0.0 and cube.reflectance.max() <= 1.0
        for b in range(3):
            assert cube.reflectance[:, :, b].min() == 0.0
            assert cube.reflectance[:, :, b].max() == 1.0

    def test_shape_mismatch_rejected(self, tmp_path):
        dp, gp = self._write_pair(
            tmp_path, np.zeros((4, 4, 2)), np.zeros((3, 4), dtype=np.uint8)
        )
        with pytest.raises(DataError):
            load_cube(dp, gp, expected_classes=1)

    def test_label_above_declared_classes_rejected(self, tmp_path):
        gt = np.zeros((4, 4), dtype=np.uint8)
        gt[1, 1] = 10
        dp, gp = self._write_pair(tmp_path, np.zeros((4, 4, 2)), gt)
        with pytest.raises(DataError):
            load_cube(dp, gp, expected_classes=9)

    @pytest.mark.parametrize("k", [3.7, 2.9, "3", True])
    def test_non_integer_class_count_rejected_by_name(self, tmp_path, k):
        gt = np.zeros((4, 4), dtype=np.uint8)
        gt[1, 1] = 3
        dp, gp = self._write_pair(tmp_path, np.zeros((4, 4, 2)), gt)
        with pytest.raises(ConfigError, match="^expected_classes must be an integer"):
            load_cube(dp, gp, expected_classes=k)
        assert load_cube(dp, gp, expected_classes=np.int64(3)).num_classes == 3

    @pytest.mark.parametrize("shape", [(0, 4, 2), (4, 0, 2), (4, 4, 0)])
    def test_empty_axis_rejected(self, tmp_path, shape):
        dp, gp = self._write_pair(tmp_path, np.zeros(shape), np.zeros(shape[:2], dtype=np.uint8))
        with pytest.raises(DataError, match="empty"):
            load_cube(dp, gp, expected_classes=1)
        with pytest.raises(DataError, match="empty axis"):
            HsiCube(np.zeros(shape), np.zeros(shape[:2], dtype=np.int64), 1)

    def test_non_integer_ground_truth_rejected(self, tmp_path):
        dp, gp = self._write_pair(tmp_path, np.zeros((4, 4, 2)), np.zeros((4, 4)))
        with pytest.raises(DataError):
            load_cube(dp, gp, expected_classes=1)

    def test_cube_refuses_fractional_labels_and_a_bad_class_count(self):
        gt = np.repeat([[1.5, 2.5]], 4, axis=0).repeat(2, axis=1)  # two 4x2 blocks
        with pytest.raises(DataError, match="ground truth must be an integer array, got float64"):
            HsiCube(np.zeros((4, 4, 2)), gt, 3)
        for k, why in ((True, "must be an integer"), (0, "must be >= 1, got 0")):
            with pytest.raises(ConfigError, match=f"^num_classes {why}"):
                HsiCube(np.zeros((4, 4, 2)), np.zeros((4, 4), np.int64), k)

    def test_unlabeled_ground_truth_needs_a_class_count(self, tmp_path):
        # nothing is inferred from the labels: the cube loads, and only the
        # split finds no labeled pixel
        dp, gp = self._write_pair(tmp_path, np.ones((4, 4, 2)), np.zeros((4, 4), np.uint8))
        cube = load_cube(dp, gp, expected_classes=2)
        assert cube.num_classes == 2
        with pytest.raises(DataError, match="no labeled pixels"):
            prepare_dataset(cube, window=1, pca_components=None, n_per_class=1)


class TestScaleBands:
    def test_train_fit_and_guard_clip(self):
        refl = np.zeros((2, 2, 1))
        refl[:, :, 0] = [[0.0, 10.0], [5.0, 50.0]]
        gt = np.ones((2, 2), dtype=np.int64)
        cube = HsiCube(refl, gt, 1)
        # fit on the three pixels excluding the 50.0 outlier
        fit = (np.array([0, 0, 1]), np.array([0, 1, 0]))
        scaled = scale_bands(cube, fit_coords=fit)
        np.testing.assert_allclose(scaled.reflectance[0, 0, 0], 0.0)
        np.testing.assert_allclose(scaled.reflectance[0, 1, 0], 1.0)
        np.testing.assert_allclose(scaled.reflectance[1, 1, 0], 1.5)  # clipped

    @pytest.mark.parametrize(
        "dtype, scaled_dtype",
        [(np.float32, np.float32), (np.float64, np.float64), (np.int64, np.float64)],
    )
    @pytest.mark.parametrize("fit_on_corner", [False, True])
    def test_matches_out_of_place_scaling(self, dtype, scaled_dtype, fit_on_corner):
        refl = (np.random.default_rng(7).standard_normal((12, 10, 5)) * 20).astype(dtype)
        cube = HsiCube(refl, np.ones((12, 10), dtype=np.int64), 1)
        fit = (np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])) if fit_on_corner else None
        got = scale_bands(cube, fit_coords=fit).reflectance
        expect = scale_bands_oracle(refl, fit)
        assert got.dtype == expect.dtype == scaled_dtype
        np.testing.assert_array_equal(got, expect)
        if fit_on_corner:
            assert (expect == -0.5).any() and (expect == 1.5).any()


class TestPatches:
    def test_window_one_equals_spectra(self):
        cube = make_synthetic_cube(0, height=6, width=5, bands=4, block=2)
        gt = cube.ground_truth.copy()
        gt[1, 2] = 0  # an unlabeled pixel keeps its spectrum
        ps = extract_patches(HsiCube(cube.reflectance, gt, cube.num_classes), 1)
        np.testing.assert_array_equal(
            np.asarray(ps.patches).reshape(len(ps), 4), cube.reflectance.reshape(-1, 4)
        )

    def test_one_patch_per_pixel_labeled_or_not(self):
        cube = make_synthetic_cube(1, height=10, width=8, bands=3, block=2)
        gt = cube.ground_truth.copy()
        gt[::3, ::2] = 0  # unlabel some pixels
        cube = HsiCube(cube.reflectance, gt, cube.num_classes)
        rows, cols = np.divmod(np.arange(80), 8)  # row-major
        for window in (1, 3, 5):
            ps = extract_patches(cube, window)
            assert len(ps) == 80 and ps.patches.shape[1:] == (window, window, 3)
            np.testing.assert_array_equal(ps.centers, np.stack([rows, cols], axis=1))
            np.testing.assert_array_equal(ps.labels, gt[rows, cols] - 1)
            assert ps.labels.dtype == np.int64
            np.testing.assert_array_equal(np.flatnonzero(ps.labels == -1), np.flatnonzero(gt == 0))

    def test_unsigned_ground_truth_gives_minus_one_for_unlabeled(self):
        scene = make_synthetic_cube(2, height=6, width=7, bands=3, classes=3, block=2)
        gt = scene.ground_truth.astype(np.uint8)
        gt[0, :3] = 0
        ps = extract_patches(HsiCube(scene.reflectance, gt, scene.num_classes), 3)
        assert ps.labels.dtype == np.int64
        assert set(ps.labels.tolist()) == {-1, 0, 1, 2}
        np.testing.assert_array_equal(ps.labels, gt.reshape(-1).astype(np.int64) - 1)

    def test_corner_patch_mirror_padded_hand_layout(self):
        vals = np.arange(9.0).reshape(3, 3)
        cube = HsiCube(vals[:, :, None], np.ones((3, 3), dtype=np.int64), 1)
        ps = extract_patches(cube, 3)
        corner = ps.patches[0][:, :, 0]  # center (0, 0)
        expect = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [3.0, 3.0, 4.0]])
        np.testing.assert_array_equal(corner, expect)
        center = ps.patches[4][:, :, 0]  # center (1, 1): no padding involved
        np.testing.assert_array_equal(center, vals)

    @staticmethod
    def _bordered(window):
        """A 7x14 scene with one unlabeled inner pixel, its patches and the
        oracle's: one window per pixel, row-major, border pixels included."""
        cube = make_synthetic_cube(8, height=7, width=14, bands=4, block=3)
        gt = cube.ground_truth.copy()
        gt[3, 5] = 0
        cube = HsiCube(cube.reflectance, gt, cube.num_classes)
        rows, cols = np.unravel_index(np.arange(gt.size), gt.shape)
        want = extract_patches_oracle(cube.reflectance, rows, cols, window)
        return extract_patches(cube, window), want

    @pytest.mark.parametrize("window", [1, 3, 7])
    def test_matches_two_copy_gather(self, window):
        ps, want = self._bordered(window)
        assert ps.patches.shape == want.shape and ps.patches.dtype == want.dtype
        full = np.asarray(ps.patches)
        assert full.flags.c_contiguous and full.flags.owndata
        np.testing.assert_array_equal(full, want)
        np.testing.assert_array_equal(np.asarray(ps.patches, dtype=want.dtype), want)
        cast = np.asarray(ps.patches, dtype=np.float32)  # gathered and cast a chunk at a time
        assert cast.dtype == np.float32 and cast.flags.c_contiguous
        np.testing.assert_array_equal(cast, want.astype(np.float32))

    @pytest.mark.parametrize("window", [1, 3, 7])
    @pytest.mark.parametrize(
        "idx",
        [
            np.array([5, -1, 0, 5, 5, -4, 2]),  # repeats and negatives
            [3, 3, 0],
            slice(None),
            slice(-7, None, 3),
            slice(4, 2),
            np.array([], dtype=np.int64),
            0,
            -1,
            np.int64(17),
        ],
        ids=["ints", "list", "all", "step", "empty-slice", "empty", "first", "last", "np-int"],
    )
    def test_index_forms_match_oracle(self, window, idx):
        ps, want = self._bordered(window)
        got = ps.patches[idx]
        assert got.shape == want[idx].shape and got.dtype == want.dtype
        assert got.flags.c_contiguous and got.flags.writeable
        np.testing.assert_array_equal(got, want[idx])

    def test_boolean_mask_selects_rows(self):
        ps, want = self._bordered(3)
        mask = np.arange(len(ps)) % 4 == 1
        np.testing.assert_array_equal(ps.patches[mask], want[mask])

    @pytest.mark.parametrize("idx", [98, -99, np.array([0, 98]), [1, -99]])
    def test_out_of_range_index_raises(self, idx):
        ps, want = self._bordered(3)
        assert len(ps) == len(want) == 98
        with pytest.raises(IndexError):
            ps.patches[idx]

    def test_a_scalar_row_is_a_copy(self):
        ps, want = self._bordered(3)
        row = ps.patches[0]
        row[...] = -1.0
        np.testing.assert_array_equal(ps.patches[0], want[0])

    def test_extract_allocates_the_padded_cube_not_the_patches(self):
        cube = make_synthetic_cube(9, height=40, width=40, bands=10, block=4)
        padded_bytes = 46 * 46 * 10 * 8
        tracemalloc.start()
        try:
            ps = extract_patches(cube, 7)
            live, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n = len(ps)
        assert ps.patches.shape == (n, 7, 7, 10) and n * 7 * 7 * 10 * 8 > 30 * padded_bytes
        # the padded cube plus a few int64 per pixel (coordinates, centers,
        # labels)
        assert peak < 1.1 * padded_bytes + 8 * 8 * n
        assert live < padded_bytes + 4 * 8 * n

    def test_cast_read_peaks_at_one_copy(self):
        ps = extract_patches(make_synthetic_cube(9, height=96, width=96, bands=15, block=8), 7)
        assert ps.patches.shape == (9216, 7, 7, 15) and ps.patches.dtype == np.float64
        tracemalloc.start()
        try:
            full = np.asarray(ps.patches, np.float32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a gather then a cast would hold the f64 copy beside the f32 result (3x)
        assert full.dtype == np.float32 and peak <= 1.1 * full.nbytes

    def test_gather_peak_memory_is_one_copy(self):
        cube = make_synthetic_cube(9, height=40, width=40, bands=10, block=4)
        ps = extract_patches(cube, 7)
        idx = np.random.default_rng(3).integers(0, len(ps), 300)
        tracemalloc.start()
        try:
            out = ps.patches[idx]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.nbytes == 300 * 7 * 7 * 10 * 8
        assert peak < 1.25 * out.nbytes  # only the rows asked for

    def test_even_window_rejected(self):
        cube = make_synthetic_cube(2, height=6, width=6, bands=2, block=2)
        with pytest.raises(ConfigError):
            extract_patches(cube, 4)

    @pytest.mark.parametrize("window", [3.9, 3.0, "3", True])
    def test_non_integer_window_rejected_by_name(self, window):
        cube = make_synthetic_cube(2, height=6, width=6, bands=2, block=2)
        with pytest.raises(ConfigError, match="window must be an integer"):
            extract_patches(cube, window)

    def test_numpy_integer_window_accepted(self):
        cube = make_synthetic_cube(2, height=6, width=6, bands=2, block=2)
        np.testing.assert_array_equal(
            extract_patches(cube, np.int64(3)).patches, extract_patches(cube, 3).patches
        )


class TestPca:
    def test_axis_aligned_diagonal_covariance(self):
        rng = np.random.default_rng(5)
        n = 40
        a = rng.standard_normal(n)
        b = rng.standard_normal(n)
        a = (a - a.mean()) / a.std(ddof=1) * 2.0  # sample variance exactly 4
        b = (b - b.mean()) / b.std(ddof=1) * 1.0
        b -= (a @ b) / (a @ a) * a  # deflate correlation
        b = b / b.std(ddof=1)
        x = np.stack([a, b], axis=1)
        model = pca_fit(x, 2)
        np.testing.assert_allclose(model.explained_variance, [4.0, 1.0], atol=1e-9)
        np.testing.assert_allclose(np.abs(model.components), np.eye(2), atol=1e-9)
        # sign convention: largest-magnitude entry positive
        assert model.components[0, 0] > 0 and model.components[1, 1] > 0

    def test_full_rank_invertible(self):
        x = np.random.default_rng(6).standard_normal((30, 7))
        model = pca_fit(x, 7)
        back = pca_inverse(model, pca_transform(model, x))
        assert np.abs(back - x).max() < 1e-8

    def test_orthonormal_and_monotone_reconstruction(self):
        x = np.random.default_rng(7).standard_normal((200, 10))
        model = pca_fit(x, 10)
        gram = model.components.T @ model.components
        assert np.abs(gram - np.eye(10)).max() < 1e-8
        assert np.all(np.diff(model.explained_variance) <= 1e-12)
        errors = []
        for k in range(1, 11):
            mk = pca_fit(x, k)
            back = pca_inverse(mk, pca_transform(mk, x))
            errors.append(float(((back - x) ** 2).sum()))
        assert all(e2 <= e1 + 1e-9 for e1, e2 in zip(errors, errors[1:]))

    def test_distances_preserved_at_full_rank(self):
        x = np.random.default_rng(8).standard_normal((25, 6))
        model = pca_fit(x, 6)
        y = pca_transform(model, x)
        dx = np.linalg.norm(x[:, None] - x[None, :], axis=2)
        dy = np.linalg.norm(y[:, None] - y[None, :], axis=2)
        assert np.abs(dx - dy).max() < 1e-8

    @pytest.mark.parametrize("shape", [(1, 1), (0, 1)])
    def test_fewer_than_two_samples_rejected(self, shape):
        with pytest.raises(ConfigError, match="at least 2 samples"):
            pca_fit(np.ones(shape), 1)

    def test_too_many_components_rejected(self):
        with pytest.raises(ConfigError):
            pca_fit(np.zeros((10, 3)), 4)

    @pytest.mark.parametrize("k", [2.7, 2.0, True])
    def test_non_integer_k_rejected_by_name(self, k):
        x = np.random.default_rng(9).standard_normal((50, 5))
        with pytest.raises(ConfigError, match="k must be an integer"):
            pca_fit(x, k)

    def test_numpy_integer_k_accepted(self):
        x = np.random.default_rng(9).standard_normal((50, 5))
        assert pca_fit(x, np.int32(2)).components.shape == (5, 2)

    def test_deterministic(self):
        x = np.random.default_rng(9).standard_normal((50, 5))
        m1, m2 = pca_fit(x, 3), pca_fit(x, 3)
        np.testing.assert_array_equal(m1.components, m2.components)

    @pytest.mark.parametrize(
        "shape, k, block_bytes, blocks",
        [
            ((7, 5, 8), 3, None, 1),
            ((7, 5, 8), 3, 3 * 8 * 8, 12),  # 3 rows of 8 bands per block
            ((50, 61, 103), 15, None, 3),  # the paper's band count at the default
        ],
        ids=["one-block", "3rows", "103bands"],
    )
    def test_reduce_cube_matches_one_transform(self, shape, k, block_bytes, blocks, monkeypatch):
        if block_bytes is not None:
            monkeypatch.setattr(data_mod, "PCA_BLOCK_BYTES", block_bytes)
        h, w, c = shape
        cube = make_synthetic_cube(4, height=h, width=w, bands=c, block=2)
        flat = cube.reflectance.reshape(-1, c)
        step = data_mod.PCA_BLOCK_BYTES // (flat.itemsize * c)
        assert -(-len(flat) // step) == blocks
        assert blocks == 1 or len(flat) % step  # the last block partial
        model = pca_fit(flat, k)
        got = pca_reduce_cube(cube, model).reflectance
        assert got.shape == (h, w, k)
        np.testing.assert_array_equal(got, pca_transform(model, flat).reshape(h, w, k))

    def test_reduce_cube_holds_no_full_band_centered_copy(self, monkeypatch):
        monkeypatch.setattr(data_mod, "PCA_BLOCK_BYTES", 64 << 10)
        cube = make_synthetic_cube(4, height=64, width=64, bands=40, block=8)
        model = pca_fit(cube.reflectance.reshape(-1, 40), 4)
        tracemalloc.start()
        try:
            reduced = pca_reduce_cube(cube, model).reflectance
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the result plus a block's temporaries, against a centered copy of
        # the whole cube
        bound = reduced.nbytes + 3 * data_mod.PCA_BLOCK_BYTES
        assert peak < bound < cube.reflectance.nbytes / 3


class TestSplit:
    def _labels(self, counts, seed=0):
        labels = np.concatenate([np.full(n, c) for c, n in enumerate(counts)])
        return np.random.default_rng(seed).permutation(labels)

    def test_five_per_class_nine_classes(self):
        labels = self._labels([60] * 9)
        split = make_split(labels, 5, seed=1)
        assert len(split.labeled_train) == 45

    def test_same_seed_identical(self):
        labels = self._labels([50, 80, 40])
        a = make_split(labels, 5, seed=3)
        b = make_split(labels, 5, seed=3)
        np.testing.assert_array_equal(a.labeled_train, b.labeled_train)
        np.testing.assert_array_equal(a.unlabeled_train, b.unlabeled_train)
        np.testing.assert_array_equal(a.test, b.test)

    def test_partition_property(self):
        labels = self._labels([33, 47, 29])
        split = make_split(labels, 4, seed=5)
        union = np.sort(
            np.concatenate([split.labeled_train, split.unlabeled_train, split.test])
        )
        np.testing.assert_array_equal(union, np.arange(len(labels)))

    def test_test_size_and_stratification(self):
        counts = [101, 53, 207]
        labels = self._labels(counts)
        split = make_split(labels, 5, seed=7)
        assert TEST_FRACTION == 0.25
        assert len(split.test) == round(TEST_FRACTION * sum(counts))
        for c, n in enumerate(counts):
            got = int((labels[split.test] == c).sum())
            assert abs(got - TEST_FRACTION * n) < 1.0

    def test_exactly_n_labeled_per_class(self):
        labels = self._labels([40, 40, 40])
        split = make_split(labels, 7, seed=9)
        lab = labels[split.labeled_train]
        for c in range(3):
            assert (lab == c).sum() == 7

    def test_test_set_shared_across_label_budgets(self):
        labels = self._labels([60, 60, 60])
        a = make_split(labels, 5, seed=11)
        b = make_split(labels, 25, seed=11)
        np.testing.assert_array_equal(a.test, b.test)

    def test_class_too_small_names_class(self):
        labels = self._labels([40, 6, 40])
        with pytest.raises(DataError) as e:
            make_split(labels, 10, seed=13)
        assert "class 2" in str(e.value)

    @pytest.mark.parametrize("n", [-1, 0, 2.0, 2.5, True, None])
    def test_bad_budget_rejected_by_name(self, n):
        with pytest.raises(ConfigError, match="n_per_class"):
            make_split(self._labels([30, 30]), n, seed=17)

    def test_numpy_integer_budget_accepted(self):
        labels = self._labels([30, 30])
        a, b = make_split(labels, np.int64(4), seed=17), make_split(labels, 4, seed=17)
        np.testing.assert_array_equal(a.labeled_train, b.labeled_train)

    @pytest.mark.parametrize(
        "labels",
        [np.zeros((4, 4), np.int64), np.array([0.5, 1.5, 0.5, 1.5]), np.array([[0], [1]])],
        ids=["2-d", "float", "column"],
    )
    def test_labels_must_be_a_1d_integer_vector(self, labels):
        with pytest.raises(DataError, match="labels must be a 1-d integer vector"):
            make_split(labels, 1, seed=1)

    @pytest.mark.parametrize("n", [1, 3])
    def test_unlabeled_points_join_only_the_unlabeled_pool(self, n):
        labels = self._labels([20, 20, 20, 20])
        labels[labels == 3] = -1  # the fourth "class" is unlabeled
        split = make_split(labels, n, seed=19)
        unlabeled = np.flatnonzero(labels == -1)
        assert np.isin(unlabeled, split.unlabeled_train).all()
        assert (labels[split.labeled_train] >= 0).all() and (labels[split.test] >= 0).all()
        assert len(split.test) == round(TEST_FRACTION * 60)  # drawn from the labeled points only
        union = np.concatenate([split.labeled_train, split.unlabeled_train, split.test])
        np.testing.assert_array_equal(np.sort(union), np.arange(80))

    def test_unlabeled_points_leave_the_labeled_draw_unchanged(self):
        labels = self._labels([30, 30])
        masked = np.concatenate([labels, np.full(7, -1)])
        a, b = make_split(labels, 4, seed=23), make_split(masked, 4, seed=23)
        np.testing.assert_array_equal(a.labeled_train, b.labeled_train)
        np.testing.assert_array_equal(a.test, b.test)
        np.testing.assert_array_equal(b.unlabeled_train, np.append(a.unlabeled_train, np.arange(60, 67)))

    @pytest.mark.parametrize("bad", [-2, np.iinfo(np.int64).min])
    def test_label_below_minus_one_rejected(self, bad):
        labels = np.array([-1, -1, bad, 0, 0, 0, 0, 1, 1, 1, 1])
        with pytest.raises(DataError, match=f"labels must be >= -1 .*got {bad}"):
            make_split(labels, 2, seed=1)


class TestPipeline:
    def test_cube_without_labeled_pixels_names_the_problem(self):
        scene = make_synthetic_cube(3, height=8, width=8, bands=4, block=4)
        cube = HsiCube(scene.reflectance, np.zeros((8, 8), dtype=np.int64), scene.num_classes)
        with pytest.raises(DataError, match="no labeled pixels"):
            prepare_dataset(cube, window=1, pca_components=None, n_per_class=5, seed=1)
        with pytest.raises(DataError, match="no labeled pixels"):
            make_split(np.array([], dtype=np.int64), 1, seed=1)

    def test_overlapping_split_refused(self, monkeypatch):
        real = data_mod.make_split

        def overlapping(labels, n_per_class, seed=0):
            split = real(labels, n_per_class, seed)
            # the first test pixel is also labeled, and one pixel is in no set
            split.labeled_train[0] = split.test[0]
            return split

        monkeypatch.setattr(data_mod, "make_split", overlapping)
        with pytest.raises(DataError, match="does not partition the scene's pixels"):
            prepare_dataset(make_synthetic_cube(3), window=1, pca_components=None, n_per_class=5)

    @staticmethod
    def _masked(seed=4, height=24, width=20):
        """A synthetic scene with about 70% of its ground truth set to 0."""
        scene = make_synthetic_cube(seed, height=height, width=width, bands=6, block=4)
        gt = scene.ground_truth.copy()
        gt[np.random.default_rng(seed).random(gt.shape) < 0.7] = 0
        return HsiCube(scene.reflectance, gt, scene.num_classes)

    @pytest.mark.parametrize("n_per_class", [1, 3])
    def test_masked_scene_split_covers_every_pixel(self, n_per_class):
        cube = self._masked()
        gt = cube.ground_truth.reshape(-1)
        prep = prepare_dataset(cube, window=3, pca_components=None, n_per_class=n_per_class, seed=2)
        split, labels = prep.split, prep.patches.labels
        assert len(prep.patches) == gt.size
        np.testing.assert_array_equal(labels, gt - 1)
        assert (labels[split.labeled_train] >= 0).all() and (labels[split.test] >= 0).all()
        assert np.isin(np.flatnonzero(gt == 0), split.unlabeled_train).all()
        union = np.concatenate([split.labeled_train, split.unlabeled_train, split.test])
        np.testing.assert_array_equal(np.sort(union), np.arange(gt.size))

    def test_masked_scene_map_predicts_every_pixel(self):
        cube = self._masked(seed=6, height=9, width=7)
        prep = prepare_dataset(cube, window=3, pca_components=4, n_per_class=2, seed=3)
        spec = LadderSpec(
            (LayerSpec("conv3x3", 5), LayerSpec("softmax_head", cube.num_classes, "none")),
            0.3, (1.0, 0.1, 0.1), (3, 3, 4),
        )
        # a short ladder run whose unlabeled pool holds every unlabeled pixel
        config = train_mod.TrainConfig(spec, 0.05, 20, seed=1, batch_size=8)
        net, _ = train_mod.train(config, prep.patches, prep.split)
        reader = prep.patches.patches
        got = net.predict(reader)
        assert got.shape == (9 * 7,) and len(np.unique(got)) > 1
        one_by_one = [net.predict(reader[i : i + 1])[0] for i in range(len(reader))]
        np.testing.assert_array_equal(got, one_by_one)

    def test_prepare_dataset_deterministic_and_leak_free(self):
        cube = make_synthetic_cube(3)
        a = prepare_dataset(cube, window=3, pca_components=4, n_per_class=5, seed=17)
        b = prepare_dataset(cube, window=3, pca_components=4, n_per_class=5, seed=17)
        np.testing.assert_array_equal(a.patches.patches, b.patches.patches)
        np.testing.assert_array_equal(a.split.labeled_train, b.split.labeled_train)
        np.testing.assert_array_equal(a.pca.components, b.pca.components)
        assert np.intersect1d(a.split.train_indices(), a.split.test).size == 0
        assert a.patches.patches.shape[1:] == (3, 3, 4)

    @pytest.mark.parametrize("pca_components", [None, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_the_one_stage_at_a_time_oracles(self, tmp_path, dtype, pca_components):
        scene = make_synthetic_cube(10, height=20, width=16, bands=6, block=4)
        gt = scene.ground_truth.astype(np.uint8)
        gt[np.random.default_rng(10).random(gt.shape) < 0.5] = 0
        dp, gp = tmp_path / "data.hsicube", tmp_path / "gt.hsicube"
        cube_io.write_array(dp, scene.reflectance.astype(dtype))
        cube_io.write_array(gp, gt)
        cube = load_cube(dp, gp, expected_classes=scene.num_classes, scale=False)
        np.testing.assert_array_equal(cube.reflectance, read_array_oracle(dp).astype(np.float64))
        rows, cols = np.unravel_index(np.arange(20 * 16), (20, 16))
        for window in (1, 3, 7):
            prep = prepare_dataset(cube, window, pca_components, n_per_class=5, seed=21)
            train = prep.split.train_indices()
            # every non-test pixel, the unlabeled ones included
            assert train.size + prep.split.test.size == 20 * 16
            refl = scale_bands_oracle(cube.reflectance, (rows[train], cols[train]))
            if pca_components is not None:
                pca = pca_fit(refl[rows[train], cols[train]], pca_components)
                np.testing.assert_array_equal(prep.pca.components, pca.components)
                reduced = pca_reduce_cube(HsiCube(refl, cube.ground_truth, cube.num_classes), pca)
                refl = reduced.reflectance
            np.testing.assert_array_equal(
                prep.patches.patches, extract_patches_oracle(refl, rows, cols, window)
            )


class TestSynthetic:
    def test_shape_classes_and_determinism(self):
        a = make_synthetic_cube(5)
        b = make_synthetic_cube(5)
        assert a.reflectance.shape == (48, 48, 8)
        assert set(np.unique(a.ground_truth)) == {1, 2, 3}
        np.testing.assert_array_equal(a.reflectance, b.reflectance)
        c = make_synthetic_cube(6)
        assert not np.array_equal(a.reflectance, c.reflectance)

    def test_too_few_blocks_for_the_classes_rejected(self):
        with pytest.raises(ConfigError, match="classes=5"):
            make_synthetic_cube(0, height=8, width=8, classes=5, block=4)

    @pytest.mark.parametrize(
        "arg, value",
        [
            ("block", 0),
            ("noise", -1.0),
            ("height", 0),
            ("width", -3),
            ("bands", 0),
            ("classes", 0),
            ("brightness_jitter", -0.1),
            ("height", 24.0),
            ("width", 24.0),
            ("bands", 4.0),
            ("classes", 3.0),
            ("block", 8.5),
            ("noise", "a"),
            ("brightness_jitter", "0.3"),
            ("noise", float("inf")),
            ("height", True),
            ("noise", True),
            ("brightness_jitter", np.True_),
        ],
    )
    def test_bad_argument_rejected_by_name(self, arg, value):
        with pytest.raises(ConfigError, match=arg):
            make_synthetic_cube(0, **{arg: value})

    def test_numpy_integer_sizes_accepted(self):
        a = make_synthetic_cube(3, height=np.int64(12), width=12, bands=np.int32(4), block=4)
        b = make_synthetic_cube(3, height=12, width=12, bands=4, block=4)
        np.testing.assert_array_equal(a.reflectance, b.reflectance)
