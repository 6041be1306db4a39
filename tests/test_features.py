"""Tests for chunk normalization, AR fitting and order selection."""

import contextlib
import tracemalloc
import warnings

import numpy as np
import pytest

from shmseq import features
from shmseq.errors import NonFiniteSignal, ShmSeqError, SingularDesign, ZeroVariance
from shmseq.features import (
    SINGULAR_RATIO,
    ArModel,
    DsfConfig,
    SignalChunk,
    aic_values,
    extract_dsf_stream,
    fit_ar,
    normalize_chunk,
    select_order,
)
from shmseq.features import _aic_curves, _fit_rows, _fit_stack, _standardize

from helpers import gen_ar


def chunk(samples, sensor_id=0, index=1):
    return SignalChunk(sensor_id=sensor_id, chunk_index=index, samples=np.asarray(samples, float))


class TestNormalize:
    def test_three_point_exact(self):
        assert np.allclose(normalize_chunk(chunk([1.0, 2.0, 3.0])), [-1.0, 0.0, 1.0])

    def test_constant_chunk_raises(self):
        with pytest.raises(ZeroVariance):
            normalize_chunk(chunk([5.0, 5.0, 5.0]))

    def test_gaussian_chunk_moments(self):
        rng = np.random.default_rng(11)
        z = normalize_chunk(chunk(rng.normal(size=1000)))
        assert abs(z.mean()) < 1e-12
        assert abs(z.std(ddof=1) - 1.0) < 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_moment_invariant(self, seed):
        rng = np.random.default_rng(seed)
        z = normalize_chunk(chunk(rng.normal(3.0, 12.0, size=int(rng.integers(10, 500)))))
        assert abs(z.mean()) < 1e-10
        assert abs(z.std(ddof=1) - 1.0) < 1e-10


class TestFitAr:
    def test_noiseless_decay_recovers_exactly(self):
        x = 0.9 ** np.arange(60)
        model = fit_ar(x, 1)
        assert abs(model.coefficients[0] - 0.9) < 1e-9
        assert model.residual_variance < 1e-20

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        x = gen_ar([0.6, -0.2], 500, rng)
        a = fit_ar(x, 2)
        b = fit_ar(3.7 * x, 2)
        assert np.allclose(a.coefficients, b.coefficients, atol=1e-9)
        assert np.isclose(b.residual_variance, 3.7**2 * a.residual_variance, rtol=1e-9)

    def test_white_noise_coefficient_near_zero(self):
        rng = np.random.default_rng(21)
        model = fit_ar(rng.normal(size=100_000), 1)
        assert abs(model.coefficients[0]) < 0.02

    def test_ar2_monte_carlo_recovery(self):
        rng = np.random.default_rng(8)
        x = gen_ar([0.5, -0.3], 10_000, rng)
        model = fit_ar(x, 2)
        assert np.all(np.abs(model.coefficients - [0.5, -0.3]) < 0.03)

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            fit_ar(np.arange(4.0), 3)

    def test_order_below_one_raises(self):
        with pytest.raises(ValueError, match="AR order must be >= 1"):
            fit_ar(np.random.default_rng(0).normal(size=100), 0)

    def test_rank_deficient_design_raises(self):
        # alternating signs make the two lag columns exactly collinear
        x = np.array([1.0, -1.0] * 10)
        with pytest.raises(SingularDesign):
            fit_ar(x, 2)

    @pytest.mark.parametrize("cell", [np.nan, np.inf])
    def test_non_finite_sample_raises_without_a_warning(self, cell):
        x = normalize_chunk(chunk(gen_ar([0.5, -0.3], 400, np.random.default_rng(7))))
        x[123] = cell
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteSignal, match=r"^1 of 400 samples are nan or inf$"):
                fit_ar(x, 2)

    def test_singularity_floor(self):
        rng = np.random.default_rng(6)
        tone = np.sin(0.3 * np.arange(400))
        z = normalize_chunk(chunk(tone + 1e-2 * rng.normal(size=400)))
        model = fit_ar(z, 12)  # nearly a tone, still full rank
        design = np.column_stack([z[12 - j : 400 - j] for j in range(1, 13)])
        coef, *_ = np.linalg.lstsq(design, z[12:], rcond=None)
        assert np.allclose(model.coefficients, coef, rtol=0, atol=1e-9)
        with pytest.raises(SingularDesign, match=r"\(rank \d+ < 12\)"):
            fit_ar(normalize_chunk(chunk(tone)), 12)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            ArModel(order=2, coefficients=[0.5], residual_variance=1.0)
        with pytest.raises(ValueError):
            ArModel(order=1, coefficients=[0.5], residual_variance=-1.0)

    def test_order_zero_model_and_one_sample_chunk_raise(self):
        with pytest.raises(ValueError, match="AR order must be >= 1"):
            ArModel(order=0, coefficients=[], residual_variance=1.0)
        with pytest.raises(ValueError, match="at least two samples"):
            SignalChunk(0, 1, [1.0])


class TestSelectOrder:
    def test_ar3_recovered(self):
        rng = np.random.default_rng(7)
        chunks = [chunk(gen_ar([0.5, -0.4, 0.3], 1000, rng), index=k + 1) for k in range(16)]
        assert select_order(chunks, 10) == 3

    def test_white_noise_picks_smallest(self):
        rng = np.random.default_rng(40)
        chunks = [chunk(rng.normal(size=2000), index=k + 1) for k in range(12)]
        assert select_order(chunks, 5) == 1

    def test_aic_curve_reproducible_by_brute_force(self):
        """The published AIC curve must match an independent re-evaluation."""
        rng = np.random.default_rng(3)
        chunks = [chunk(gen_ar([0.4, 0.2], 600, rng), index=k + 1) for k in range(5)]
        for p_max in (6, 12):
            got = aic_values(chunks, p_max)
            expected = np.zeros(p_max)
            for c in chunks:
                z = (c.samples - c.samples.mean()) / c.samples.std(ddof=1)
                m_len = z.size
                for p in range(1, p_max + 1):
                    design = np.column_stack([z[p - j : m_len - j] for j in range(1, p + 1)])
                    coef, *_ = np.linalg.lstsq(design, z[p:], rcond=None)
                    rss = float(np.sum((z[p:] - design @ coef) ** 2))
                    expected[p - 1] += m_len * np.log(rss / (m_len - p)) + 2 * p
            expected /= len(chunks)
            assert np.allclose(got, expected, rtol=0, atol=1e-10)
            assert select_order(chunks, p_max) == int(np.argmin(expected)) + 1

    def test_singular_chunk_names_sensor_and_chunk(self):
        rng = np.random.default_rng(5)
        chunks = [chunk(rng.normal(size=400), sensor_id=4, index=k + 1) for k in range(5)]
        chunks[2] = chunk(np.sin(0.3 * np.arange(400)), sensor_id=4, index=3)  # a pure tone
        with pytest.raises(SingularDesign, match="^sensor 4 chunk 3: ") as exc:
            select_order(chunks, 6)
        assert exc.value.chunk_index == 3
        assert exc.value.sensor_id == 4

    def test_empty_input_and_order_below_one_raise(self):
        with pytest.raises(ValueError, match="p_max must be >= 1"):
            aic_values([chunk(np.random.default_rng(0).normal(size=100))], 0)
        with pytest.raises(ValueError, match="need at least one chunk"):
            aic_values([], 3)

    def test_default_order_for_structural_data(self):
        # the structural-data default carried by the extraction config
        assert DsfConfig(chunk_size=100).order == 7


def tone_with_noise(m_len, p, factor):
    """A tone plus white noise whose AR(p) lag Gram has lambda_min / lambda_max near
    ``factor * SINGULAR_RATIO``; returns the samples and that ratio."""
    t = np.arange(m_len)
    noise = np.random.default_rng(3).normal(size=m_len)

    def ratio(scale):
        z = normalize_chunk(chunk(np.sin(0.3 * t) + scale * noise))
        design = np.column_stack([z[p - j : m_len - j] for j in range(1, p + 1)])
        eig = np.linalg.eigvalsh(design.T @ design)
        return eig[0] / eig[-1]

    scale = 1e-5 * np.sqrt(factor * SINGULAR_RATIO / ratio(1e-5))  # the ratio grows as scale**2
    return np.sin(0.3 * t) + scale * noise, ratio(scale)


class TestAicKernel:
    """The cross-product AIC kernel against one explicit-residual fit per order."""

    @staticmethod
    def explicit(z, p_max):
        m_len = z.shape[1]
        curves = np.empty((len(z), p_max))
        ranks = np.empty((len(z), p_max), dtype=int)
        for p in range(1, p_max + 1):
            _, ranks[:, p - 1], rss = _fit_stack(z, p, with_rss=True)
            with np.errstate(divide="ignore"):
                curves[:, p - 1] = m_len * np.log(rss / (m_len - p)) + 2 * p
        return curves, ranks

    @pytest.mark.parametrize("p_max", [1, 2, 6, 12])
    @pytest.mark.parametrize("short", [True, False], ids=["p_max+2", "400"])
    def test_matches_explicit_fits(self, p_max, short):
        m_len = p_max + 2 if short else 400
        rng = np.random.default_rng(p_max)
        t = np.arange(m_len)
        rows = [gen_ar(c, m_len, rng) for c in ([0.5], [0.6, -0.3], [0.5, -0.4, 0.3], [0.3] * 3)]
        rows += [np.sin(0.3 * t), np.sin(0.3 * t) + 0.7 * np.sin(1.1 * t + 0.4)]
        rows += [np.full(m_len, 2.0), rng.normal(size=m_len), rng.normal(size=m_len)]
        rows[-2][1], rows[-1][-1] = np.nan, -np.inf
        if not short and p_max >= 6:
            middle = p_max // 2 + 1
            for factor in (0.5, 1.2, 3.0):
                samples, ratio = tone_with_noise(m_len, middle, factor)
                assert SINGULAR_RATIO / 10 < ratio < 10 * SINGULAR_RATIO
                rows.append(samples)
        x = np.array(rows)
        z, bad = _standardize(x)
        curves, ranks = _aic_curves(z, p_max)
        want_curves, want_ranks = self.explicit(z, p_max)

        # every order below a chunk's lowest singular one gives it a curve value
        fit = ~bad[:, None] & np.cumprod(want_ranks == np.arange(1, p_max + 1), axis=1).astype(bool)
        np.testing.assert_allclose(curves[fit], want_curves[fit], rtol=0, atol=1e-10)

        chunks = [chunk(row, sensor_id=2, index=k + 1) for k, row in enumerate(rows)]

        def errors(chunk_ranks):
            found = []
            with contextlib.suppress(ShmSeqError):
                _fit_rows(chunks.__getitem__, x, bad, chunk_ranks, range(1, p_max + 1), found)
            return [(e.chunk_index, type(e), str(e)) for e in found]

        expected = errors(want_ranks)
        assert errors(ranks) == expected
        skipped = []
        if len(expected) == len(chunks):
            with pytest.raises(ShmSeqError):
                aic_values(chunks, p_max, skipped)
        else:
            keep = fit.all(axis=1)
            np.testing.assert_allclose(aic_values(chunks, p_max, skipped),
                                       want_curves[keep].mean(axis=0), rtol=0, atol=1e-10)
        assert [(e.chunk_index, type(e), str(e)) for e in skipped] == expected
        if not short and p_max >= 6:
            # the pure tone is singular from order 4 on; a noisy one first fails at a higher
            # order, which only the per-order fallback behind the screen can find
            assert fit[4].sum() == 3
            assert any(3 < fit[i].sum() < p_max for i in (9, 10, 11))


class TestExtract:
    def test_chunk_count(self):
        rng = np.random.default_rng(2)
        cfg = DsfConfig(chunk_size=100, order=3)
        data = gen_ar([0.5], 1040, rng)
        dsfs = extract_dsf_stream(data, cfg)
        assert len(dsfs) == 10
        for k, row in enumerate(dsfs):  # row k holds chunk (step) k + 1
            z = normalize_chunk(chunk(data[100 * k : 100 * (k + 1)], index=k + 1))
            assert np.array_equal(row, fit_ar(z, 3).coefficients)
        assert dsfs.shape[1] == 3

    def test_coefficient_subset(self):
        rng = np.random.default_rng(2)
        cfg = DsfConfig(chunk_size=100, order=7, coef_indices=(1, 2))
        dsfs = extract_dsf_stream(gen_ar([0.5, -0.3], 700, rng), cfg)
        assert dsfs.shape[1] == 2
        full = extract_dsf_stream(gen_ar([0.5, -0.3], 700, np.random.default_rng(2)),
                                  DsfConfig(chunk_size=100, order=7))
        assert np.allclose(dsfs[0], full[0, :2])

    def test_deterministic(self):
        rng = np.random.default_rng(17)
        data = gen_ar([0.3, 0.1], 900, rng)
        cfg = DsfConfig(chunk_size=150, order=4)
        a = extract_dsf_stream(data, cfg)
        b = extract_dsf_stream(data.copy(), cfg)
        assert np.array_equal(a, b)

    def test_stationary_mean_matches_generating_coefficients(self):
        rng = np.random.default_rng(99)
        cfg = DsfConfig(chunk_size=2000, order=2)
        dsfs = extract_dsf_stream(gen_ar([0.5, -0.3], 2000 * 60, rng), cfg)
        values = dsfs
        se = values.std(axis=0, ddof=1) / np.sqrt(len(dsfs))
        assert np.all(np.abs(values.mean(axis=0) - [0.5, -0.3]) < 3 * se)

    def test_error_annotated_with_chunk_index(self):
        rng = np.random.default_rng(1)
        data = np.concatenate([rng.normal(size=200), np.full(100, 2.0), rng.normal(size=100)])
        cfg = DsfConfig(chunk_size=100, order=2)
        with pytest.raises(ZeroVariance, match="chunk 3") as exc:
            extract_dsf_stream(data, cfg)
        assert exc.value.chunk_index == 3

    def test_singular_design_names_sensor_and_chunk(self):
        rng = np.random.default_rng(1)
        data = np.concatenate([rng.normal(size=100), [1.0, -1.0] * 50])
        cfg = DsfConfig(chunk_size=100, order=2)
        with pytest.raises(SingularDesign, match="^sensor 5 chunk 2: ") as exc:
            extract_dsf_stream(data, cfg, sensor_id=5)
        assert exc.value.chunk_index == 2

    @pytest.mark.parametrize("order", range(1, 13))
    def test_rows_match_per_chunk_lstsq(self, order):
        rng = np.random.default_rng(12)
        data = gen_ar([0.5, -0.4, 0.3], 400 * 6, rng)
        dsfs = extract_dsf_stream(data, DsfConfig(chunk_size=400, order=order))
        for k, row in enumerate(dsfs):
            z = normalize_chunk(chunk(data[400 * k : 400 * (k + 1)], index=k + 1))
            design = np.column_stack([z[order - j : 400 - j] for j in range(1, order + 1)])
            coef, *_ = np.linalg.lstsq(design, z[order:], rcond=None)
            assert np.allclose(row, coef, rtol=0, atol=1e-12)
            assert np.allclose(fit_ar(z, order).coefficients, coef, rtol=0, atol=1e-12)

    def test_first_failing_chunk_wins(self):
        # chunk 2 is a pure tone (singular at order 6), chunk 4 holds a nan
        rng = np.random.default_rng(8)
        data = rng.normal(size=400 * 5)
        data[400:800] = np.sin(0.3 * np.arange(400))
        data[1300] = np.nan
        with pytest.raises(SingularDesign, match="^sensor 7 chunk 2: ") as exc:
            extract_dsf_stream(data, DsfConfig(chunk_size=400, order=6), sensor_id=7)
        assert exc.value.chunk_index == 2
        chunks = [chunk(data[400 * k : 400 * (k + 1)], sensor_id=7, index=k + 1) for k in range(5)]
        with pytest.raises(SingularDesign, match="^sensor 7 chunk 2: ") as exc:
            select_order(chunks, 6)
        assert exc.value.chunk_index == 2
        # at order 3 the tone (a sinusoid plus the removed mean) is full rank, for lstsq too
        assert extract_dsf_stream(data[400:800], DsfConfig(chunk_size=400, order=3)).shape == (1, 3)

    @pytest.mark.parametrize("cell", [np.nan, np.inf])
    def test_non_finite_chunk_raises_without_warning(self, cell):
        rng = np.random.default_rng(9)
        data = rng.normal(size=400)
        data[250] = cell
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteSignal, match="^sensor 0 chunk 3: 1 of 100 samples"):
                extract_dsf_stream(data, DsfConfig(chunk_size=100, order=2))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DsfConfig(chunk_size=5, order=4)
        with pytest.raises(ValueError):
            DsfConfig(chunk_size=100, order=4, coef_indices=(0, 2))
        with pytest.raises(ValueError):
            DsfConfig(chunk_size=100, order=4, coef_indices=(5,))

    def test_config_order_below_one(self):
        with pytest.raises(ValueError, match="AR order must be >= 1"):
            DsfConfig(chunk_size=400, order=0)

    @pytest.mark.parametrize(
        "settings, name",
        [({"order": 2.5}, "order"), ({"order": True}, "order"), ({"order": "2"}, "order"),
         ({"chunk_size": 400.0}, "chunk_size"), ({"coef_indices": (1.7,)}, "coef_indices"),
         ({"coef_indices": (1, True)}, "coef_indices")],
        ids=["order-2.5", "order-true", "order-string", "chunk-400.0", "index-1.7", "index-true"],
    )
    def test_config_values_must_be_integers(self, settings, name):
        with pytest.raises(ValueError, match=f"^{name}.* must be an integer, got "):
            DsfConfig(**{"chunk_size": 400, "order": 2, **settings})

    def test_numpy_integers_are_integers(self):
        cfg = DsfConfig(chunk_size=np.int64(100), order=np.int32(3), coef_indices=(np.int64(2), 1))
        assert cfg.dim == 2 and cfg.coef_indices == (1, 2)
        assert all(type(i) is int for i in cfg.coef_indices)
        data = gen_ar([0.5], 400, np.random.default_rng(4))
        full = extract_dsf_stream(data, DsfConfig(chunk_size=100, order=3))
        assert np.array_equal(extract_dsf_stream(data, cfg), full[:, :2])

    def test_one_stream_only(self):
        data = gen_ar([0.5, -0.3], 1200, np.random.default_rng(6))
        one = extract_dsf_stream(data, DsfConfig(chunk_size=200, order=2))
        assert one.shape == (6, 2)
        for column in (data[:, None], data[None, :]):  # a single column or row is one stream
            assert np.array_equal(extract_dsf_stream(column, DsfConfig(chunk_size=200, order=2)), one)
        two = np.column_stack([data, data[::-1]])  # two sensors side by side
        with pytest.raises(ValueError, match=r"one stream, got an array of shape \(1200, 2\)"):
            extract_dsf_stream(two, DsfConfig(chunk_size=200, order=2))


class TestBlocks:
    """Records long enough to be fitted in several blocks of chunks (``BLOCK_BYTES``)."""

    M = 400

    @classmethod
    def record(cls, p, seed=0):
        """A record of three blocks and a partial fourth at order p, and its block size."""
        step = max(1, features.BLOCK_BYTES // (8 * (p + 1) * cls.M))
        n = 3 * step + step // 2 + 1
        rng = np.random.default_rng(seed)
        return rng.normal(size=n * cls.M) + 0.3 * np.sin(0.2 * np.arange(n * cls.M)), step

    @pytest.mark.parametrize("order", [2, 12])
    def test_features_equal_one_chunk_calls(self, order):
        data, _ = self.record(order)
        cfg = DsfConfig(chunk_size=self.M, order=order, coef_indices=(1, order))
        single = [extract_dsf_stream(row, cfg) for row in data.reshape(-1, self.M)]
        assert np.array_equal(extract_dsf_stream(data, cfg), np.vstack(single))

    def test_one_chunk_blocks(self, monkeypatch):
        data, _ = self.record(3)
        cfg = DsfConfig(chunk_size=self.M, order=3)
        whole = extract_dsf_stream(data, cfg)
        monkeypatch.setattr(features, "BLOCK_BYTES", 1)  # below one chunk's lag rows
        assert np.array_equal(extract_dsf_stream(data, cfg), whole)

    @pytest.mark.parametrize("p_max", [2, 12])
    def test_aic_is_the_mean_of_per_chunk_curves(self, p_max):
        data, _ = self.record(p_max, seed=1)
        chunks = [chunk(row, index=k + 1) for k, row in enumerate(data.reshape(-1, self.M))]
        rows = [_aic_curves(_standardize(c.samples[None, :])[0], p_max)[0] for c in chunks]
        assert np.array_equal(aic_values(chunks, p_max), np.vstack(rows).mean(axis=0))

    @pytest.mark.parametrize("order", [2, 12])
    def test_failures_keep_their_chunk_index_and_order(self, order):
        data, step = self.record(order, seed=2)
        n = data.size // self.M
        tone, dead, last = step + 3, 2 * step + 1, n - 1  # 0-based, in blocks 2, 3 and the last
        rows = data.reshape(n, self.M)
        rows[tone] = [1.0, -1.0] * (self.M // 2)  # singular at every order >= 2
        rows[dead] = 0.5
        rows[last, 7] = np.nan
        expected = [(tone + 1, SingularDesign), (dead + 1, ZeroVariance)]
        expected.append((last + 1, NonFiniteSignal))
        cfg = DsfConfig(chunk_size=self.M, order=order)
        skipped = []
        dsfs = extract_dsf_stream(data, cfg, sensor_id=6, skipped=skipped)
        assert [(e.chunk_index, type(e)) for e in skipped] == expected
        assert all(str(e).startswith(f"sensor 6 chunk {e.chunk_index}: ") for e in skipped)
        keep = np.setdiff1d(np.arange(n), [tone, dead, last])
        assert np.array_equal(dsfs, extract_dsf_stream(rows[keep].ravel(), cfg))
        with pytest.raises(SingularDesign, match=f"^sensor 6 chunk {tone + 1}: "):
            extract_dsf_stream(data, cfg, sensor_id=6)
        chunks = [chunk(row, sensor_id=6, index=k + 1) for k, row in enumerate(rows)]
        skipped = []
        aic_values(chunks, order, skipped)
        assert [(e.chunk_index, type(e)) for e in skipped] == expected

    def test_unequal_lengths_in_different_blocks_raise(self):
        data, step = self.record(12)
        chunks = [chunk(data[k : k + self.M]) for k in range(0, 2 * step * self.M, self.M)]
        chunks.append(chunk(data[: self.M - 1]))  # in a later block than the first chunk
        with pytest.raises(ValueError, match=r"equal lengths, got \[399, 400\]"):
            aic_values(chunks, 12)

    def test_record_shorter_than_one_chunk(self):
        data = np.random.default_rng(3).normal(size=self.M - 1)
        assert extract_dsf_stream(data, DsfConfig(chunk_size=self.M, order=4)).shape == (0, 4)
        cfg = DsfConfig(chunk_size=self.M, order=4, coef_indices=(2, 3))
        assert extract_dsf_stream(data, cfg).shape == (0, 2)

    def test_memory_is_one_block(self):
        data = np.random.default_rng(4).normal(size=2000 * self.M)  # 6.4 MB
        cfg = DsfConfig(chunk_size=self.M, order=12)
        tracemalloc.start()
        try:
            dsfs = extract_dsf_stream(data, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert dsfs.shape == (2000, 12)
        assert peak <= 4 * 2**20  # a whole-record lag tensor alone is 77 MB


class TestIntegerSizes:
    @pytest.mark.parametrize("p_max", [2.5, 2.0, True, "2"])
    def test_p_max_must_be_an_integer(self, p_max):
        chunks = [chunk(np.random.default_rng(0).normal(size=100))]
        with pytest.raises(ValueError, match="^p_max must be an integer, got "):
            aic_values(chunks, p_max)
        with pytest.raises(ValueError, match="^p_max must be an integer, got "):
            select_order(chunks, p_max)

    @pytest.mark.parametrize("p", [2.5, 2.0, True, "2"])
    def test_ar_order_must_be_an_integer(self, p):
        with pytest.raises(ValueError, match="^p must be an integer, got "):
            fit_ar(np.random.default_rng(0).normal(size=100), p)

    def test_numpy_integer_orders(self):
        x = normalize_chunk(chunk(gen_ar([0.5, -0.3], 400, np.random.default_rng(5))))
        assert np.array_equal(fit_ar(x, np.int64(2)).coefficients, fit_ar(x, 2).coefficients)
        chunks = [chunk(x)]
        assert np.array_equal(aic_values(chunks, np.int32(3)), aic_values(chunks, 3))
        assert select_order(chunks, np.int64(3)) == select_order(chunks, 3)
