"""Tests for the shear-frame simulator physics and data contracts."""

import json
import tracemalloc
import warnings

import numpy as np
import pytest

from shmseq import cli, shearsim
from shmseq.errors import ConfigError, EigenFailure
from shmseq.features import DsfConfig, extract_dsf_stream
from shmseq.shearsim import (
    BLOCK,
    SCAN,
    DamageScenario,
    Excitation,
    ShearFrameModel,
    SimulationResult,
    _array_source,
    _modal_response,
    _scan,
    _scan_tables,
    modal_frequencies,
    response_to_forces,
    simulate,
)

from helpers import (
    expm_kernel,
    expm_system,
    uniform_building_frequencies,
    whole_record_simulation,
)


def default_model(zeta=0.02):
    return ShearFrameModel.uniform(4, 1000.0, 3.28e5, zeta=zeta)


def respond(kernel, model, forces, x0):
    """(outputs, final state) of ``kernel`` for ``model`` at 50 Hz, driven by ``forces``."""
    out = np.empty((len(forces), model.stories))
    x = kernel(model, model.stiffness_matrix(), 1.0 / 50.0, _array_source(forces), out, x0)
    return out, x


class TestModal:
    def test_single_story_one_hertz(self):
        model = ShearFrameModel.uniform(1, 1.0, 4.0 * np.pi**2, zeta=0.0)
        assert abs(modal_frequencies(model)[0] - 1.0) < 1e-12

    @pytest.mark.parametrize("stories", [1, 2, 4, 8])
    def test_uniform_closed_form(self, stories):
        mass, stiffness = 2.0, 500.0
        model = ShearFrameModel.uniform(stories, mass, stiffness, zeta=0.05)
        got = modal_frequencies(model)
        expected = uniform_building_frequencies(stories, mass, stiffness)
        assert np.abs(got - expected).max() < 1e-9

    @pytest.mark.parametrize("story", [1, 2, 3, 4])
    @pytest.mark.parametrize("retention", [0.9, 0.5])
    def test_any_stiffness_reduction_lowers_fundamental(self, story, retention):
        model = default_model()
        f1 = modal_frequencies(model)[0]
        weakened = model.stiffnesses.copy()
        weakened[story - 1] *= retention
        assert modal_frequencies(model, weakened)[0] < f1

    def test_nonuniform_reduction_also_lowers_fundamental(self):
        model = ShearFrameModel(masses=[1.0, 2.0, 1.5], stiffnesses=[400.0, 300.0, 350.0])
        f1 = modal_frequencies(model)[0]
        weakened = model.stiffnesses * np.array([1.0, 0.7, 1.0])
        assert modal_frequencies(model, weakened)[0] < f1

    def test_overflowing_stiffness_is_an_eigen_failure(self):
        model = ShearFrameModel.uniform(2, 1.0, 1e308)  # k_1 + k_2 overflows to inf
        with pytest.warns(RuntimeWarning, match="overflow"), pytest.raises(EigenFailure):
            modal_frequencies(model)

    def test_a_failing_eigensolver_is_an_eigen_failure(self, monkeypatch, tmp_path, capsys):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        with pytest.raises(EigenFailure, match="^Eigenvalues did not converge$"):
            modal_frequencies(default_model())
        scen = tmp_path / "scenario.json"
        scen.write_text(json.dumps({
            "stories": 2, "masses": 1000.0, "stiffnesses": 328000.0, "chunk_size": 400,
            "excitation": {"seed": 1, "intensity": 100.0, "fs": 50.0, "duration_s": 16.0},
        }))
        assert cli.main(["gen", "--scenario", str(scen), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: Eigenvalues did not converge"]

    def test_model_validation(self):
        with pytest.raises(ValueError):
            ShearFrameModel(masses=[1.0], stiffnesses=[1.0, 2.0])
        with pytest.raises(ValueError):
            ShearFrameModel(masses=[-1.0], stiffnesses=[1.0])
        with pytest.raises(ValueError):
            ShearFrameModel(masses=[1.0], stiffnesses=[1.0], zeta=1.0)

    @pytest.mark.parametrize(
        "stiffnesses",
        [[3e5] * 5, [3e5] * 3, 3e5, [3e5, 3e5, np.nan, 3e5], [3e5, 3e5, True, 3e5],
         [3e5, "3e5", 3e5, 3e5], [[3e5, 3e5], [3e5, 3e5]]],
        ids=["five", "three", "scalar", "nan", "bool", "string", "2-d"],
    )
    def test_stiffnesses_must_be_one_finite_number_per_story(self, stiffnesses):
        model = default_model()
        with pytest.raises(ValueError, match="stiffnesses"):
            model.stiffness_matrix(stiffnesses)
        with pytest.raises(ValueError, match="stiffnesses"):
            modal_frequencies(model, stiffnesses)


class TestIntegration:
    def test_diagonalized_recursion_matches_direct_loop(self):
        model = default_model()
        rng = np.random.default_rng(3)
        forces = rng.normal(0.0, 50.0, size=(400, 4))
        x0 = np.zeros(8)
        fast, x_fast = respond(_modal_response, model, forces, x0)
        slow, x_slow = respond(expm_kernel, model, forces, x0)
        scale = np.abs(slow).max()
        assert np.abs(fast - slow).max() < 1e-9 * scale
        assert np.abs(x_fast - x_slow).max() < 1e-9 * max(1.0, np.abs(x_slow).max())

    def test_modal_kernel_matches_loop_from_a_nonzero_state(self):
        model = default_model()
        rng = np.random.default_rng(4)
        forces = rng.normal(0.0, 50.0, size=(6000, 4))
        x0 = rng.normal(0.0, 0.01, size=8)
        fast, x_fast = respond(_modal_response, model, forces, x0)
        slow, x_slow = respond(expm_kernel, model, forces, x0)
        assert np.abs(fast - slow).max() < 1e-9 * np.abs(slow).max()
        assert np.abs(x_fast - x_slow).max() < 1e-9 * max(1.0, np.abs(x_slow).max())

    def test_modal_kernel_with_a_real_mode_and_a_complex_pair(self):
        # the scan is generic in its poles: a real one, a damped complex one, one on the unit circle
        lam = np.array([0.5, 0.95 * np.exp(0.3j), np.exp(-2.0j)])
        rng = np.random.default_rng(5)
        for n in (SCAN - 5, SCAN, BLOCK):
            u = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
            z0 = np.array([0.5, -1.0 + 0.3j, 2.0j])
            direct = np.empty((3, n + 1), dtype=complex)
            direct[:, 0] = z0
            for t in range(n):
                direct[:, t + 1] = lam * direct[:, t] + u[:, t]
            states = _scan(u, z0, _scan_tables(lam, n))
            assert np.abs(states - direct).max() < 1e-9 * np.abs(direct).max()

    def test_response_across_a_damage_switch_matches_loop(self, monkeypatch):
        model = default_model()
        damaged = DamageScenario(story=2, retention=0.5, lambda_chunk=11)
        forces = np.random.default_rng(6).normal(0.0, 100.0, size=(6000, 4))
        fast = response_to_forces(model, damaged, forces, 50.0, 400)
        monkeypatch.setattr(shearsim, "_modal_response", expm_kernel)
        slow = response_to_forces(model, damaged, forces, 50.0, 400)
        assert np.abs(fast - slow).max() < 1e-9 * np.abs(slow).max()

    @pytest.mark.parametrize(
        "zeta", [0.0, 0.02, 0.999, 1.0 - 1e-9, 1.0 - 1e-15],
        ids=["undamped", "light", "0.999", "1-1e-9", "1-1e-15"],
    )
    def test_signals_match_the_expm_oracle_at_any_damping(self, monkeypatch, zeta):
        # 20 chunks of 1000, the switch after 10: each segment spans two force blocks
        model = default_model(zeta=zeta)
        damaged = DamageScenario(story=2, retention=0.5, lambda_chunk=11)
        forces = np.random.default_rng(25).normal(0.0, 100.0, size=(20_000, 4))
        fast = response_to_forces(model, damaged, forces, 50.0, 1000)
        monkeypatch.setattr(shearsim, "_modal_response", expm_kernel)
        slow = response_to_forces(model, damaged, forces, 50.0, 1000)
        assert np.abs(fast - slow).max() < 1e-9 * np.abs(slow).max()

    def test_block_edges_match_loop_and_each_length_is_a_prefix_of_the_next(self):
        model = default_model()
        rng = np.random.default_rng(21)
        forces = rng.normal(0.0, 50.0, size=(2 * BLOCK + 7, 4))
        x0 = rng.normal(0.0, 0.01, size=8)
        longest, _ = respond(_modal_response, model, forces, x0)
        for n in (BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 7):
            fast, x_fast = respond(_modal_response, model, forces[:n], x0)
            slow, x_slow = respond(expm_kernel, model, forces[:n], x0)
            assert np.abs(fast - slow).max() < 1e-9 * np.abs(slow).max()
            assert np.abs(x_fast - x_slow).max() < 1e-9 * max(1.0, np.abs(x_slow).max())
            assert np.array_equal(fast, longest[:n])

    @pytest.mark.parametrize("zeta", [0.0, 0.999], ids=["undamped", "near-critical"])
    def test_extreme_damping_matches_loop_without_warnings(self, zeta):
        model = default_model(zeta=zeta)
        rng = np.random.default_rng(22)
        forces = rng.normal(0.0, 50.0, size=(BLOCK + 100, 4))
        x0 = rng.normal(0.0, 0.01, size=8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fast, x_fast = respond(_modal_response, model, forces, x0)
        ad = expm_system(model, model.stiffness_matrix(), 1.0 / 50.0)[0]
        poles = np.abs(np.linalg.eigvals(ad))
        assert np.allclose(poles, 1.0, rtol=0, atol=1e-12) if zeta == 0 else poles.max() < 1.0
        slow, x_slow = respond(expm_kernel, model, forces, x0)
        assert np.abs(fast - slow).max() < 1e-9 * np.abs(slow).max()
        assert np.abs(x_fast - x_slow).max() < 1e-9 * max(1.0, np.abs(x_slow).max())

    def test_memory_beyond_the_output_is_bounded(self):
        model = default_model()
        forces = np.random.default_rng(23).normal(0.0, 50.0, size=(200_000, 4))
        tracemalloc.start()
        try:
            out, _ = respond(_modal_response, model, forces, np.zeros(8))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * out.nbytes

    def test_response_decays_when_forcing_stops(self):
        # stiff, well damped model so the free decay fits in a short window
        model = ShearFrameModel.uniform(2, 1.0, 4000.0, zeta=0.05)
        fs = 100.0
        rng = np.random.default_rng(1)
        forces = np.vstack([rng.normal(0.0, 10.0, size=(500, 2)), np.zeros((800, 2))])
        accel = response_to_forces(model, DamageScenario.undamaged(), forces, fs, 100)
        peak = np.abs(accel).max()
        tail = np.abs(accel[-int(fs) :]).max()
        assert tail < 0.01 * peak

    def test_stiffness_switch_is_the_only_discontinuity(self):
        model = default_model()
        damaged = DamageScenario(story=2, retention=0.5, lambda_chunk=3)
        exc = Excitation(seed=11, intensity=80.0, sample_rate=50.0, duration_s=20.0, noise_snr_db=None)
        with_damage = simulate(model, damaged, exc, chunk_size=100)
        healthy = simulate(model, DamageScenario.undamaged(), exc, chunk_size=100)
        switch = (damaged.lambda_chunk - 1) * 100
        assert np.array_equal(with_damage.signals[:switch], healthy.signals[:switch])
        assert not np.allclose(with_damage.signals[switch:], healthy.signals[switch:])

    def test_damage_from_first_chunk_is_the_reduced_model(self):
        model = default_model()
        damaged = DamageScenario(story=2, retention=0.5, lambda_chunk=1)
        reduced = ShearFrameModel(model.masses, model.stiffnesses * [1.0, 0.5, 1.0, 1.0], model.zeta)
        exc = Excitation(seed=12, intensity=80.0, sample_rate=50.0, duration_s=20.0)
        with_damage = simulate(model, damaged, exc, chunk_size=100)
        healthy_reduced = simulate(reduced, DamageScenario.undamaged(), exc, chunk_size=100)
        assert np.array_equal(with_damage.signals, healthy_reduced.signals)


class TestSimulate:
    @pytest.mark.parametrize(
        "sensors_per_story, intensity, noise_snr_db, lambda_chunk",
        [(1, 100.0, 40.0, 26), (3, 100.0, 40.0, 26), (1, 100.0, None, 1), (3, 80.0, None, 1),
         (3, 0.0, 40.0, None), (2, 50.0, 20.0, None)],
        ids=["noise-mid", "3-per-story-noise-mid", "quiet-first", "3-per-story-quiet-first",
             "zero-intensity", "undamaged"],
    )
    def test_block_draws_equal_whole_record_draws(
        self, sensors_per_story, intensity, noise_snr_db, lambda_chunk
    ):
        # 50 chunks of 400, the switch after 25: each segment spans two force blocks
        scenario = (DamageScenario(story=3, retention=0.6, lambda_chunk=lambda_chunk)
                    if lambda_chunk else DamageScenario.undamaged())
        exc = Excitation(seed=41, intensity=intensity, sample_rate=50.0, duration_s=400.0,
                         noise_snr_db=noise_snr_db)
        result = simulate(default_model(), scenario, exc, 400, sensors_per_story)
        time, signals = whole_record_simulation(default_model(), scenario, exc, 400, sensors_per_story)
        assert result.signals.shape == (50 * 400, 4 * sensors_per_story)
        assert np.array_equal(result.signals, signals)
        assert np.array_equal(result.time, time)

    @pytest.mark.parametrize("samples", [200_000, 400_000])
    @pytest.mark.parametrize("sensors_per_story", [1, 3])
    def test_memory_beyond_the_signals_does_not_grow_with_the_record(
        self, sensors_per_story, samples
    ):
        scenario = DamageScenario(story=2, retention=0.5, lambda_chunk=samples // 800)
        exc = Excitation(seed=24, intensity=100.0, sample_rate=50.0, duration_s=samples / 50.0)
        np.random.default_rng()  # numpy imports numpy.random on first use: keep it out of the trace
        tracemalloc.start()
        try:
            result = simulate(default_model(), scenario, exc, 400, sensors_per_story)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.signals.shape == (samples, 4 * sensors_per_story)
        assert peak <= result.signals.nbytes + 3 * 2**20

    @pytest.mark.parametrize(
        "n", [1, 8, 127, 128, 129, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 8, 100_003, 800_000]
    )
    def test_sum_of_squares_is_numpys_bit_for_bit(self, n):
        for scale in (1e-3, 1.0, 1e5):
            record = np.random.default_rng(n).normal(0.0, scale, size=(n, 3))
            for column in (np.asfortranarray(record)[:, 1], record[:, 1]):  # contiguous, strided
                assert shearsim._sum_of_squares(column) == np.add.reduce(column * column)

    def test_a_record_past_numpys_dimension_limit_is_a_config_error(self):
        exc = Excitation(seed=3, intensity=100.0, sample_rate=50.0, duration_s=1e18)
        with pytest.raises(ConfigError, match=r"^50000000000000000000 samples x 8 sensors need "
                           r"2\.98e\+12 GiB, more than can be allocated$"):
            simulate(default_model(), DamageScenario.undamaged(), exc, 400, 2)

    def test_a_record_too_large_to_allocate_is_a_config_error(self, monkeypatch):
        def no_memory(shape, *args, **kwargs):
            raise MemoryError(f"Unable to allocate an array with shape {shape}")

        monkeypatch.setattr(np, "empty", no_memory)
        exc = Excitation(seed=3, intensity=100.0, sample_rate=50.0, duration_s=2000.0)
        with pytest.raises(ConfigError, match=r"^100000 samples x 4 sensors need 0\.00298 GiB, "):
            simulate(default_model(), DamageScenario.undamaged(), exc, 400)

    @pytest.mark.parametrize("sensors_per_story", [1, 3])
    def test_each_sensor_is_one_contiguous_column(self, sensors_per_story):
        exc = Excitation(seed=27, intensity=100.0, sample_rate=50.0, duration_s=8000.0)
        result = simulate(default_model(), DamageScenario.undamaged(), exc, 400, sensors_per_story)
        for j in range(result.signals.shape[1]):
            column = result.signals[:, j]
            assert column.flags.c_contiguous
            assert np.shares_memory(np.ascontiguousarray(column), result.signals)
        tracemalloc.start()
        try:
            extract_dsf_stream(result.signals[:, -1], DsfConfig(chunk_size=400, order=2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < result.signals[:, -1].nbytes  # features from the column in place

    def test_response_to_forces_has_one_contiguous_column_per_story(self):
        forces = np.random.default_rng(28).normal(0.0, 50.0, size=(1000, 4))
        accel = response_to_forces(default_model(), DamageScenario.undamaged(), forces, 50.0, 100)
        assert all(accel[:, j].flags.c_contiguous for j in range(4))

    def test_zero_intensity_gives_zero_response(self):
        exc = Excitation(seed=5, intensity=0.0, sample_rate=50.0, duration_s=20.0)
        result = simulate(default_model(), DamageScenario.undamaged(), exc, chunk_size=100)
        assert np.all(result.signals == 0.0)

    def test_same_seed_byte_identical(self, tmp_path):
        exc = Excitation(seed=9, intensity=80.0, sample_rate=50.0, duration_s=20.0)
        paths = []
        for name in ("a.csv", "b.csv"):
            result = simulate(default_model(), DamageScenario.undamaged(), exc, chunk_size=100)
            path = tmp_path / name
            result.to_csv(path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_to_csv_makes_no_copy_of_the_record(self, tmp_path):
        exc = Excitation(seed=26, intensity=100.0, sample_rate=50.0, duration_s=200 * 8.0)
        result = simulate(default_model(), DamageScenario.undamaged(), exc, chunk_size=400)
        tracemalloc.start()
        try:
            result.to_csv(tmp_path / "data.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < result.signals.nbytes  # blocks of rows, never the whole table

    def test_csv_cell_format(self, tmp_path):
        """Time with 6 decimals, samples with 12 significant digits."""
        result = SimulationResult(
            signals=np.array([[-0.0, 1e-05], [0.1, 1.23456789012e14]]),
            sensor_ids=[1, 2],
            sensor_stories=[1, 2],
            sample_rate=50.0,
            chunk_size=2,
            lambda_chunk=None,
            seed=0,
        )
        result.to_csv(tmp_path / "data.csv")
        assert (tmp_path / "data.csv").read_text() == (
            "time,sensor_1,sensor_2\n"
            "0.000000,-0,1e-05\n"
            "0.020000,0.1,1.23456789012e+14\n"
        )

    def test_sensor_layout_and_metadata(self):
        exc = Excitation(seed=2, intensity=50.0, sample_rate=50.0, duration_s=12.0)
        damaged = DamageScenario(story=3, retention=0.6, lambda_chunk=2)
        result = simulate(default_model(), damaged, exc, chunk_size=100, sensors_per_story=2)
        assert result.signals.shape == (600, 8)
        assert result.sensor_stories == [1, 1, 2, 2, 3, 3, 4, 4]
        meta = result.metadata()
        assert meta["lambda_chunk"] == 2
        assert meta["damaged_story"] == 3
        assert meta["sensors"][0] == {
            "column": "sensor_1", "id": 1, "story": 1, "position": "story_1",
        }

    def test_duration_must_cover_damage_chunk(self):
        exc = Excitation(seed=2, intensity=50.0, sample_rate=50.0, duration_s=4.0)
        damaged = DamageScenario(story=1, retention=0.5, lambda_chunk=5)
        with pytest.raises(ConfigError):
            simulate(default_model(), damaged, exc, chunk_size=100)

    @pytest.mark.parametrize(
        "name, value, message",
        [("sample_rate", 0.0, "sample_rate and duration_s must be positive"),
         ("duration_s", -4.0, "sample_rate and duration_s must be positive"),
         ("intensity", -0.5, "intensity must be non-negative"),
         ("duration_s", 1e308, "sample_rate and duration_s give more samples than a float can count")],
    )
    def test_excitation_ranges(self, name, value, message):
        settings = dict(seed=2, intensity=50.0, sample_rate=50.0, duration_s=20.0)
        with pytest.raises(ValueError, match=message):
            Excitation(**{**settings, name: value})

    @pytest.mark.parametrize(
        "seed, message",
        [(-3, "seed must be >= 0, got -3"), (1.5, "seed must be an integer, got 1.5"),
         (True, "seed must be an integer, got True"), ("7", "seed must be an integer, got '7'")],
        ids=["negative", "float", "bool", "string"],
    )
    def test_seed_must_be_a_non_negative_integer(self, seed, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Excitation(seed=seed, intensity=50.0, sample_rate=50.0, duration_s=20.0)

    def test_numpy_integer_seed(self):
        exc = Excitation(seed=np.int64(9), intensity=80.0, sample_rate=50.0, duration_s=20.0)
        plain = Excitation(seed=9, intensity=80.0, sample_rate=50.0, duration_s=20.0)
        model, undamaged = default_model(), DamageScenario.undamaged()
        assert np.array_equal(
            simulate(model, undamaged, exc, 100).signals, simulate(model, undamaged, plain, 100).signals
        )

    def test_force_history_needs_one_column_per_story(self):
        model = ShearFrameModel.uniform(2, 1.0, 1e4)
        with pytest.raises(ConfigError, match="force history needs one column per story"):
            response_to_forces(model, DamageScenario.undamaged(), np.zeros((100, 3)), 50.0, 10)

    @pytest.mark.parametrize(
        "chunk_size, sensors_per_story, duration_s, message",
        [(1, 1, 20.0, "chunk_size must be >= 2"),
         (100, 0, 20.0, "sensors_per_story must be >= 1"),
         (100, 1, 1.0, "duration shorter than a single chunk")],
    )
    def test_simulate_ranges(self, chunk_size, sensors_per_story, duration_s, message):
        exc = Excitation(seed=2, intensity=50.0, sample_rate=50.0, duration_s=duration_s)
        with pytest.raises(ConfigError, match=message):
            simulate(default_model(), DamageScenario.undamaged(), exc, chunk_size, sensors_per_story)

    @pytest.mark.parametrize(
        "chunk_size, sensors_per_story, name",
        [(100.0, 1, "chunk_size"), (True, 1, "chunk_size"), ("100", 1, "chunk_size"),
         (100, 1.5, "sensors_per_story"), (100, True, "sensors_per_story")],
        ids=["chunk-100.0", "chunk-true", "chunk-string", "sensors-1.5", "sensors-true"],
    )
    @pytest.mark.parametrize("damaged", [False, True], ids=["undamaged", "damaged"])
    def test_sizes_must_be_integers(self, chunk_size, sensors_per_story, name, damaged):
        exc = Excitation(seed=2, intensity=50.0, sample_rate=50.0, duration_s=20.0)
        undamaged = DamageScenario.undamaged()
        scenario = DamageScenario(story=2, retention=0.5, lambda_chunk=2) if damaged else undamaged
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            simulate(default_model(), scenario, exc, chunk_size, sensors_per_story)

    def test_numpy_integer_sizes(self):
        exc = Excitation(seed=4, intensity=80.0, sample_rate=50.0, duration_s=20.0)
        damaged = DamageScenario(story=2, retention=0.5, lambda_chunk=2)
        plain = simulate(default_model(), damaged, exc, 100, 2)
        numpy = simulate(default_model(), damaged, exc, np.int64(100), np.int32(2))
        assert np.array_equal(numpy.signals, plain.signals)

    @pytest.mark.parametrize("stories", [2.5, 2.0, True, "2"])
    def test_uniform_stories_must_be_an_integer(self, stories):
        with pytest.raises(ValueError, match="^stories must be an integer, got "):
            ShearFrameModel.uniform(stories, 1000.0, 3.28e5)

    @pytest.mark.parametrize("value", ["1000", True], ids=["string", "bool"])
    @pytest.mark.parametrize("name", ["mass", "stiffness"])
    def test_uniform_mass_and_stiffness_must_be_numbers(self, name, value):
        settings = {"mass": 1000.0, "stiffness": 3.28e5, name: value}
        with pytest.raises(ValueError, match=f"^{name}es must be numbers, got "):
            ShearFrameModel.uniform(4, **settings)

    def test_uniform_numpy_integer_stories(self):
        model = ShearFrameModel.uniform(np.int64(3), 1000.0, 3.28e5)
        plain = ShearFrameModel.uniform(3, 1000.0, 3.28e5)
        assert model.stories == 3
        assert np.array_equal(model.stiffness_matrix(), plain.stiffness_matrix())

    def test_damaged_story_must_exist(self):
        exc = Excitation(seed=2, intensity=50.0, sample_rate=50.0, duration_s=20.0)
        damaged = DamageScenario(story=9, retention=0.5, lambda_chunk=2)
        with pytest.raises(ConfigError):
            simulate(default_model(), damaged, exc, chunk_size=100)

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            DamageScenario(story=None, retention=0.5)
        with pytest.raises(ValueError):
            DamageScenario(story=1, retention=1.0, lambda_chunk=2)
        with pytest.raises(ValueError):
            DamageScenario(story=1, retention=0.5, lambda_chunk=None)

    @pytest.mark.parametrize(
        "story, lambda_chunk",
        [(1.5, 2), (2.0, 2), (True, 2), ("2", 2), (2, 2.5), (2, False), (None, 2.0)],
        ids=["story-1.5", "story-2.0", "story-true", "story-string", "chunk-2.5", "chunk-false",
             "undamaged-chunk-2.0"],
    )
    def test_story_and_lambda_chunk_must_be_integers(self, story, lambda_chunk):
        retention = 1.0 if story is None else 0.5
        with pytest.raises(ValueError, match="must be an integer"):
            DamageScenario(story=story, retention=retention, lambda_chunk=lambda_chunk)

    def test_numpy_integers_are_integers(self):
        scenario = DamageScenario(story=np.int64(2), retention=0.5, lambda_chunk=np.int32(3))
        assert scenario.is_damaged

    def test_spectral_peak_shifts_down_after_damage(self):
        model = default_model()
        damaged = DamageScenario(story=2, retention=0.5, lambda_chunk=11)
        exc = Excitation(seed=31, intensity=100.0, sample_rate=50.0, duration_s=420.0)
        result = simulate(model, damaged, exc, chunk_size=1000)
        story2 = result.signals[:, 1]
        switch = 10 * 1000

        def dominant_frequency(x):
            segments = x[: (x.size // 2048) * 2048].reshape(-1, 2048)
            psd = np.abs(np.fft.rfft(segments, axis=1)) ** 2
            freqs = np.fft.rfftfreq(2048, d=1.0 / 50.0)
            return freqs[np.argmax(psd.mean(axis=0))]

        pre_peak = dominant_frequency(story2[:switch])
        post_peak = dominant_frequency(story2[switch:])
        assert post_peak < pre_peak

    def test_predamage_windows_are_stationary(self):
        """Two disjoint pre-damage windows must have compatible feature means."""
        model = default_model()
        damaged = DamageScenario(story=2, retention=0.5, lambda_chunk=41)
        exc = Excitation(seed=8, intensity=100.0, sample_rate=50.0, duration_s=500.0)
        result = simulate(model, damaged, exc, chunk_size=500)
        cfg = DsfConfig(chunk_size=500, order=4)
        dsfs = extract_dsf_stream(result.signals[:, 0], cfg)
        first = dsfs[:20]
        second = dsfs[20:40]
        pooled_se = np.sqrt(
            first.var(axis=0, ddof=1) / len(first) + second.var(axis=0, ddof=1) / len(second)
        )
        assert np.all(np.abs(first.mean(axis=0) - second.mean(axis=0)) < 3 * pooled_se)
