"""End-to-end pipeline and CLI tests on small synthetic scenarios."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from shmseq import cli, features, pipeline, tables
from shmseq.detector import DetectorState, GeometricPrior, update
from shmseq.errors import ConfigError
from shmseq.estimator import AdaptiveDetector, fit_predamage
from shmseq.features import DsfConfig, aic_values, extract_dsf_stream
from shmseq.pipeline import PipelineConfig, read_signal_csv


def scenario_dict(seed, duration_s, damage=None):
    return {
        "stories": 4,
        "masses": 1000.0,
        "stiffnesses": 328000.0,
        "zeta": 0.02,
        "damage": damage,
        "excitation": {"seed": seed, "intensity": 100.0, "fs": 50.0, "duration_s": duration_s},
        "chunk_size": 400,
        "noise_snr_db": 40.0,
    }


@pytest.fixture(scope="module")
def datasets(tmp_path_factory):
    """One training set, one damaged run, one clean run, one damaged-from-start set."""
    root = tmp_path_factory.mktemp("data")
    damage = {"story": 2, "r": 0.5, "lambda_chunk": 8}
    from_start = {"story": 2, "r": 0.5, "lambda_chunk": 1}
    pipeline.gen(scenario_dict(900, 800.0), str(root / "train"))
    pipeline.gen(scenario_dict(901, 208.0, damage), str(root / "damaged"))
    pipeline.gen(scenario_dict(902, 208.0), str(root / "clean"))
    pipeline.gen(scenario_dict(903, 320.0, from_start), str(root / "post"))
    return root


def write_tone(src_path, dest, chunks, chunk_size=400):
    """A copy of a `gen` file whose sensor_3 is a pure tone, an AR(2) signal, in ``chunks``."""
    rows = Path(src_path).read_text().splitlines()
    for chunk in chunks:
        for row in range((chunk - 1) * chunk_size + 1, chunk * chunk_size + 1):
            fields = rows[row].split(",")
            fields[3] = repr(math.sin(0.3 * row))
            rows[row] = ",".join(fields)
    Path(dest).write_text("\n".join(rows) + "\n")
    return dest


def base_config(datasets, out, **overrides):
    cfg = dict(
        input_csv=str(datasets / "damaged" / "data.csv"),
        training_csv=str(datasets / "train" / "data.csv"),
        metadata_json=str(datasets / "damaged" / "metadata.json"),
        output_dir=str(out),
        chunk_size=400,
        order=3,
        alpha=1e-5,
        rho=1e-5,
        mode="adaptive",
    )
    cfg.update(overrides)
    return PipelineConfig.from_dict(cfg)


class TestRun:
    def test_adaptive_detects_and_reports_delay(self, datasets, tmp_path):
        result = pipeline.run(base_config(datasets, tmp_path / "out"))
        assert result.exit_code == pipeline.EXIT_DETECTED
        assert result.summary["detected"]
        for sensor in result.summary["sensors"]:
            assert sensor["lambda_true"] == 8
            if sensor["tau"] is not None and not sensor["false_alarm"]:
                assert sensor["delay"] == sensor["tau"] - 8 >= 0
        assert (tmp_path / "out" / "trace.csv").exists()
        assert (tmp_path / "out" / "summary.json").exists()
        assert (tmp_path / "out" / "localization.json").exists()
        ids = [e["id"] for e in result.localization["sensors"]]
        assert ids == [1, 2, 3, 4]

    def test_known_mode_with_postdamage_training(self, datasets, tmp_path):
        config = base_config(
            datasets,
            tmp_path / "out",
            mode="known",
            postdamage_csv=str(datasets / "post" / "data.csv"),
        )
        result = pipeline.run(config)
        assert result.exit_code == pipeline.EXIT_DETECTED
        taus = {s["sensor_id"]: s["tau"] for s in result.summary["sensors"]}
        # the sensors flanking the damaged story detect; far sensors may be
        # slower than the run is long (their divergence is small)
        assert taus[1] is not None and taus[2] is not None
        assert taus[1] >= 8 and taus[2] >= 8
        detected = [t for t in taus.values() if t is not None]
        assert min(detected) == taus[1]

    def test_clean_run_exits_zero_with_empty_di2(self, datasets, tmp_path):
        config = base_config(
            datasets,
            tmp_path / "out",
            input_csv=str(datasets / "clean" / "data.csv"),
            metadata_json=str(datasets / "clean" / "metadata.json"),
        )
        result = pipeline.run(config)
        assert result.exit_code == pipeline.EXIT_CLEAN
        assert not result.summary["detected"]
        assert all(e["di2"] is None for e in result.localization["sensors"])

    def test_hand_written_lambda_chunk_alone_sets_every_sensors_delay(self, datasets, tmp_path):
        meta = tmp_path / "metadata.json"
        meta.write_text(json.dumps({"lambda_chunk": 11}))  # gen's file says 8
        result = pipeline.run(base_config(datasets, tmp_path / "out", metadata_json=str(meta)))
        assert result.summary["detected"]
        for s in result.summary["sensors"]:
            tau = s["tau"]
            early = tau is not None and tau < 11
            assert (s["lambda_true"], s["false_alarm"]) == (11, early), s
            assert s["delay"] == (None if tau is None or early else tau - 11), s
            assert s["position"] == f"sensor_{s['sensor_id']}"  # no sensors listed
        assert any(s["delay"] is not None for s in result.summary["sensors"])

    def test_hand_written_position_labels_its_sensor(self, datasets, tmp_path):
        meta = tmp_path / "metadata.json"
        meta.write_text(json.dumps({"sensors": [{"column": "sensor_2", "position": "roof"}]}))
        pipeline.run(base_config(datasets, tmp_path / "out", metadata_json=str(meta)))
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        localization = json.loads((tmp_path / "out" / "localization.json").read_text())
        expected = {1: "sensor_1", 2: "roof", 3: "sensor_3", 4: "sensor_4"}
        assert {s["sensor_id"]: s["position"] for s in summary["sensors"]} == expected
        assert {e["id"]: e["position"] for e in localization["sensors"]} == expected
        assert not any("lambda_true" in s for s in summary["sensors"])  # no lambda_chunk

    def test_streaming_equals_rerunning_by_hand(self, datasets, tmp_path):
        """The pipeline trace must match a manual pass over the same stream."""
        config = base_config(datasets, tmp_path / "out")
        result = pipeline.run(config)
        _, train = read_signal_csv(config.training_csv)
        _, signals = read_signal_csv(config.input_csv)
        cfg = DsfConfig(chunk_size=400, order=3)
        trace = {}
        for col, samples in signals.items():
            g = fit_predamage(extract_dsf_stream(train[col], cfg))
            det = AdaptiveDetector(g, GeometricPrior(config.rho), config.alpha)
            posts = [det.update(x) for x in extract_dsf_stream(samples, cfg)]
            trace[int(col.split("_")[1])] = posts
        lines = (tmp_path / "out" / "trace.csv").read_text().splitlines()[1:]
        for line in lines:
            sid, step, posterior, ccdf = line.split(",")
            expected = trace[int(sid)][int(step) - 1]
            assert abs(float(posterior) - expected) < 1e-9
            assert abs(float(ccdf) - (1.0 - expected)) < 1e-9

    def test_known_mode_reproduces_adaptive_final_posterior(self, datasets, tmp_path):
        """Known-f run at the adaptive final estimate lands on the same posterior."""
        config = base_config(datasets, tmp_path / "out")
        _, train = read_signal_csv(config.training_csv)
        _, signals = read_signal_csv(config.input_csv)
        cfg = DsfConfig(chunk_size=400, order=3)
        col = "sensor_3"
        g = fit_predamage(extract_dsf_stream(train[col], cfg))
        dsfs = extract_dsf_stream(signals[col], cfg)
        prior = GeometricPrior(config.rho)
        det = AdaptiveDetector(g, prior, config.alpha)
        for x in dsfs:
            det.update(x)
        state = DetectorState()
        for x in dsfs:
            state = update(state, x, g, det.params_estimate, prior)
        assert abs(det.posterior - state.posterior) < 1e-9


    def test_ccdf_resolves_past_posterior_rounding(self, datasets, tmp_path):
        """Where the posterior prints as 1 the CCDF still follows exp(-r)."""
        config = base_config(
            datasets, tmp_path / "out", mode="known", postdamage_csv=str(datasets / "post" / "data.csv")
        )
        pipeline.run(config)
        _, train = read_signal_csv(config.training_csv)
        _, post = read_signal_csv(config.postdamage_csv)
        _, signals = read_signal_csv(config.input_csv)
        cfg = DsfConfig(chunk_size=400, order=3)
        log_odds = {}
        for col, samples in signals.items():
            g = fit_predamage(extract_dsf_stream(train[col], cfg))
            f = fit_predamage(extract_dsf_stream(post[col], cfg))
            state = DetectorState()
            for x in extract_dsf_stream(samples, cfg):
                state = update(state, x, g, f, GeometricPrior(config.rho))
                log_odds[int(col.split("_")[1]), state.step] = state.log_odds
        strong = 0
        for line in (tmp_path / "out" / "trace.csv").read_text().splitlines()[1:]:
            sid, step, _, ccdf = line.split(",")
            r = log_odds[int(sid), int(step)]
            assert float(ccdf) > 0.0
            if r > 40.0:
                strong += 1
                assert abs(float(ccdf) - math.exp(-r)) <= 1e-9 * math.exp(-r)
        assert strong > 0


class TestInputValidation:
    def test_malformed_cell_cites_row(self, datasets, tmp_path):
        src = (datasets / "damaged" / "data.csv").read_text().splitlines()
        fields = src[16].split(",")
        fields[2] = "oops"
        src[16] = ",".join(fields)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(src) + "\n")
        with pytest.raises(ConfigError, match="row 17"):
            read_signal_csv(bad)

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_cell_fails_only_its_sensor(self, datasets, tmp_path, capfd, cell):
        src = (datasets / "damaged" / "data.csv").read_text().splitlines()
        fields = src[1000].split(",")  # sample 1000 of sensor_2, in chunk 3
        fields[2] = cell
        src[1000] = ",".join(fields)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(src) + "\n")
        for mode in ("adaptive", "known"):
            config = base_config(
                datasets,
                tmp_path / mode,
                input_csv=str(bad),
                mode=mode,
                postdamage_csv=str(datasets / "post" / "data.csv"),
            )
            result = pipeline.run(config)
            sensors = {s["sensor_id"]: s for s in result.summary["sensors"]}
            assert "sensor 2 chunk 3" in sensors[2]["error"]
            assert sensors[2]["error"].count("chunk 3") == 1
            assert str(bad) in sensors[2]["error"]  # names the file
            assert all("error" not in sensors[i] and "tau" in sensors[i] for i in (1, 3, 4))
            assert [e["id"] for e in result.localization["sensors"]] == [1, 3, 4]
        assert "DLASCL" not in capfd.readouterr().err

    def test_non_finite_cell_in_a_later_block_names_its_chunk(self, datasets, tmp_path):
        src = (datasets / "damaged" / "data.csv").read_text().splitlines()
        fields = src[9000].split(",")  # sample 9000 of sensor_2: chunk 23, in block 3 of 4000 rows
        fields[2] = "nan"
        src[9000] = ",".join(fields)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(src) + "\n")
        for mode in ("adaptive", "known"):
            config = base_config(
                datasets, tmp_path / mode, input_csv=str(bad), mode=mode,
                postdamage_csv=str(datasets / "post" / "data.csv"),
            )
            sensors = {s["sensor_id"]: s for s in pipeline.run(config).summary["sensors"]}
            assert sensors[2]["error"] == f"sensor 2 chunk 23: 1 of 400 samples are nan or inf (in {bad})"
            assert all("error" not in sensors[i] and "tau" in sensors[i] for i in (1, 3, 4))
            trace = np.loadtxt(tmp_path / mode / "trace.csv", delimiter=",", skiprows=1)
            assert set(trace[:, 0]) == {1.0, 3.0, 4.0}  # no rows of the steps sensor 2 took

    def test_a_trailing_partial_chunk_is_left_out(self, datasets, tmp_path):
        rows = (datasets / "damaged" / "data.csv").read_text().splitlines()
        outputs = []
        for name, samples in (("whole", 25 * 400), ("partial", 25 * 400 + 150)):
            path = tmp_path / f"{name}.csv"
            path.write_text("\n".join(rows[: 1 + samples]) + "\n")  # 3 blocks, the last partial
            pipeline.run(base_config(datasets, tmp_path / name, input_csv=str(path)))
            outputs.append([(tmp_path / name / f).read_bytes() for f in ("trace.csv", "summary.json")])
        assert outputs[0] == outputs[1]

    def test_dead_chunk_fails_only_its_sensor(self, datasets, tmp_path):
        src = (datasets / "damaged" / "data.csv").read_text().splitlines()
        for row in range(801, 1201):  # all of chunk 3 of sensor_3
            fields = src[row].split(",")
            fields[3] = "0.5"
            src[row] = ",".join(fields)
        dead = tmp_path / "dead.csv"
        dead.write_text("\n".join(src) + "\n")
        for mode in ("adaptive", "known"):
            config = base_config(
                datasets,
                tmp_path / mode,
                input_csv=str(dead),
                mode=mode,
                postdamage_csv=str(datasets / "post" / "data.csv"),
            )
            result = pipeline.run(config)
            sensors = {s["sensor_id"]: s for s in result.summary["sensors"]}
            assert sensors[3]["error"].startswith("sensor 3 chunk 3: standard deviation ")
            assert str(dead) in sensors[3]["error"]
            assert all("error" not in sensors[i] and "tau" in sensors[i] for i in (1, 2, 4))
            assert [e["id"] for e in result.localization["sensors"]] == [1, 2, 4]

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_training_cell_skips_only_its_chunk(
        self, datasets, tmp_path, monkeypatch, cell
    ):
        src = (datasets / "train" / "data.csv").read_text().splitlines()
        fields = src[1000].split(",")  # sample 1000 of sensor_3, in chunk 3
        fields[3] = cell
        src[1000] = ",".join(fields)
        bad = tmp_path / "bad_train.csv"
        bad.write_text("\n".join(src) + "\n")
        config = base_config(datasets, tmp_path / "out", training_csv=str(bad), order="auto")
        curves = []

        def keep_curve(chunks, p_max, skipped=None):
            curve = aic_values(chunks, p_max, skipped)
            curves.append((chunks, p_max, skipped, curve))
            return curve

        monkeypatch.setattr(features, "aic_values", keep_curve)
        result = pipeline.run(config)
        sensors = {s["sensor_id"]: s for s in result.summary["sensors"]}
        assert all("error" not in sensors[i] and "tau" in sensors[i] for i in (1, 2, 3, 4))
        [skipped] = sensors[3]["skipped_training_chunks"]
        assert skipped.startswith("sensor 3 chunk 3: 1 of 400 samples are nan or inf")
        assert skipped.count("chunk 3") == 1
        assert skipped.endswith(f"(in {bad})")  # names the file
        assert all("skipped_training_chunks" not in sensors[i] for i in (1, 2, 4))
        assert isinstance(result.summary["order"], int)
        # AIC left out chunk 3 of sensor 3 alone: its curve is that of the other 399 chunks
        [(chunks, p_max, aic_skipped, curve)] = curves
        assert [(e.sensor_id, e.chunk_index) for e in aic_skipped] == [(3, 3)]
        used = [c for c in chunks if (c.sensor_id, c.chunk_index) != (3, 3)]
        assert len(used) == 399 and sum(c.sensor_id == 3 for c in used) == 99
        assert np.array_equal(curve, aic_values(used, p_max))
        assert result.summary["order"] == int(np.argmin(curve)) + 1

    def test_pure_tone_training_chunk_under_auto_order_fails_at_most_its_sensor(
        self, datasets, tmp_path
    ):
        # all of chunk 2 of sensor_3 an AR(2) signal: AIC's lag matrix is singular
        tone = write_tone(datasets / "train" / "data.csv", tmp_path / "tone_train.csv", [2])
        config = base_config(datasets, tmp_path / "out", training_csv=str(tone), order="auto")
        result = pipeline.run(config)
        sensors = {s["sensor_id"]: s for s in result.summary["sensors"]}
        assert all("error" not in sensors[i] and "tau" in sensors[i] for i in (1, 2, 4))
        error = sensors[3].get("error")
        assert error is None or (error.startswith("sensor 3 chunk 2: ") and str(tone) in error)

    def test_pure_tone_training_chunk_is_skipped_and_its_sensor_runs(self, datasets, tmp_path):
        damage = {"story": 2, "r": 0.5, "lambda_chunk": 101}
        pipeline.gen(scenario_dict(904, 1600.0, damage), str(tmp_path / "long"))  # 200 chunks
        tone = write_tone(datasets / "train" / "data.csv", tmp_path / "tone_train.csv", [2])
        config = base_config(
            datasets,
            tmp_path / "out",
            input_csv=str(tmp_path / "long" / "data.csv"),
            metadata_json=str(tmp_path / "long" / "metadata.json"),
            training_csv=str(tone),
            order="auto",
        )
        result = pipeline.run(config)
        sensors = {s["sensor_id"]: s for s in result.summary["sensors"]}
        assert all("error" not in s and "tau" in s for s in sensors.values())
        [skipped] = sensors[3]["skipped_training_chunks"]
        assert skipped.startswith("sensor 3 chunk 2: lag regressor matrix is rank deficient")
        assert skipped.endswith(f"(in {tone})")
        assert all("skipped_training_chunks" not in sensors[i] for i in (1, 2, 4))
        trace = np.loadtxt(result.paths["trace"], delimiter=",", skiprows=1)
        assert np.count_nonzero(trace[:, 0] == 3) == 200

    def test_known_mode_skips_bad_chunks_of_both_training_files(self, datasets, tmp_path):
        tone = write_tone(datasets / "train" / "data.csv", tmp_path / "tone_train.csv", [2, 5])
        post = write_tone(datasets / "post" / "data.csv", tmp_path / "tone_post.csv", [1])
        config = base_config(
            datasets, tmp_path / "out", training_csv=str(tone), postdamage_csv=str(post),
            mode="known", order=4,  # a standardized tone is singular from order 4 on
        )
        result = pipeline.run(config)
        sensors = {s["sensor_id"]: s for s in result.summary["sensors"]}
        assert all("error" not in s and "tau" in s for s in sensors.values())
        skipped = sensors[3]["skipped_training_chunks"]
        assert [text.split(":")[0] for text in skipped] == [
            "sensor 3 chunk 2", "sensor 3 chunk 5", "sensor 3 chunk 1"
        ]
        assert [text[text.rindex("(in ") :] for text in skipped] == [
            f"(in {tone})", f"(in {tone})", f"(in {post})"
        ]

    def test_sensor_without_post_damage_baseline_has_no_rows_in_any_table(self, datasets, tmp_path):
        post = write_tone(datasets / "post" / "data.csv", tmp_path / "tone_post.csv", range(1, 41))
        config = base_config(
            datasets, tmp_path / "out", postdamage_csv=str(post), mode="known", order=4,
            dump_dsf=True,
        )
        result = pipeline.run(config)
        sensors = {s["sensor_id"]: s for s in result.summary["sensors"]}
        assert sensors[3]["error"].startswith("0 of 40 training chunks in")
        assert all("error" not in sensors[i] for i in (1, 2, 4))
        for table in ("trace", "dsf"):
            ids = np.loadtxt(result.paths[table], delimiter=",", skiprows=1)[:, 0]
            assert set(ids) == {1.0, 2.0, 4.0}
            assert np.count_nonzero(ids == 1.0) == 26  # every monitored step of a good sensor
        assert [e["id"] for e in result.localization["sensors"]] == [1, 2, 4]

    def test_too_few_fit_training_chunks_fail_only_their_sensor(self, datasets, tmp_path):
        rows = (datasets / "train" / "data.csv").read_text().splitlines()[: 1 + 5 * 400]
        short = tmp_path / "short_train.csv"
        short.write_text("\n".join(rows) + "\n")  # 5 chunks; order 4 needs 4 vectors
        tone = write_tone(short, tmp_path / "tone_train.csv", [1, 3])
        config = base_config(datasets, tmp_path / "out", training_csv=str(tone), order=4)
        result = pipeline.run(config)
        sensors = {s["sensor_id"]: s for s in result.summary["sensors"]}
        assert sensors[3]["error"] == f"3 of 5 training chunks in {tone} can be fit, need >= 4"
        assert len(sensors[3]["skipped_training_chunks"]) == 2
        assert all("error" not in sensors[i] and "tau" in sensors[i] for i in (1, 2, 4))

    @pytest.mark.parametrize("order", [3, "auto"])
    def test_dead_training_column_lists_every_chunk_from_one_extraction(
        self, datasets, tmp_path, monkeypatch, order
    ):
        rows = (datasets / "train" / "data.csv").read_text().splitlines()
        for row in range(1, len(rows)):
            fields = rows[row].split(",")
            fields[3] = "0.5"  # sensor_3 is dead in all 100 chunks
            rows[row] = ",".join(fields)
        dead = tmp_path / "dead_train.csv"
        dead.write_text("\n".join(rows) + "\n")
        calls = []

        def count_calls(samples, config, **kwargs):
            calls.append(kwargs["sensor_id"])
            return extract_dsf_stream(samples, config, **kwargs)

        monkeypatch.setattr(pipeline, "extract_dsf_stream", count_calls)
        config = base_config(datasets, tmp_path / "out", training_csv=str(dead), order=order)
        result = pipeline.run(config)
        sensors = {s["sensor_id"]: s for s in result.summary["sensors"]}
        need = max(2, result.summary["order"])
        assert sensors[3]["error"] == (
            f"0 of 100 training chunks in {dead} can be fit, need >= {need}"
        )
        skipped = sensors[3]["skipped_training_chunks"]
        assert [text.split(":")[0] for text in skipped] == [
            f"sensor 3 chunk {k}" for k in range(1, 101)
        ]
        assert all(text.endswith(f"(in {dead})") for text in skipped)
        assert calls.count(3) == 1  # one extraction of the training file, and no other
        assert all("error" not in sensors[i] and "tau" in sensors[i] for i in (1, 2, 4))

    def test_auto_order_with_no_usable_training_column_is_a_config_error(self, datasets, tmp_path):
        src = (datasets / "train" / "data.csv").read_text().splitlines()
        fields = src[1].split(",")
        src[1] = ",".join(fields[:1] + ["nan"] * (len(fields) - 1))
        bad = tmp_path / "bad_train.csv"
        bad.write_text("\n".join(src[: 1 + 400]) + "\n")  # one chunk, a nan in every column
        config = base_config(datasets, tmp_path / "out", training_csv=str(bad), order="auto")
        with pytest.raises(ConfigError, match="order selection; the first: sensor 1 chunk 1: "):
            pipeline.run(config)

    def test_a_non_finite_row_across_the_training_columns_skips_one_chunk_each(
        self, datasets, tmp_path
    ):
        src = (datasets / "train" / "data.csv").read_text().splitlines()
        fields = src[1].split(",")
        src[1] = ",".join(fields[:1] + ["nan"] * (len(fields) - 1))
        bad = tmp_path / "bad_train.csv"
        bad.write_text("\n".join(src) + "\n")
        config = base_config(datasets, tmp_path / "out", training_csv=str(bad), order="auto")
        result = pipeline.run(config)
        for sensor in result.summary["sensors"]:
            assert "error" not in sensor and "tau" in sensor
            [skipped] = sensor["skipped_training_chunks"]
            assert skipped.startswith(f"sensor {sensor['sensor_id']} chunk 1: 1 of 400 samples")

    def test_input_shorter_than_one_chunk_exits_1_before_any_sensor_work(
        self, datasets, tmp_path, capsys, monkeypatch
    ):
        rows = (datasets / "damaged" / "data.csv").read_text().splitlines()
        short = tmp_path / "short.csv"
        short.write_text("\n".join(rows[: 1 + 200]) + "\n")
        monkeypatch.setattr(pipeline, "_train_sensor", None)  # the work would fail loudly
        code = cli.main([
            "run",
            "--input", str(short),
            "--training", str(datasets / "train" / "data.csv"),
            "--chunk-size", "400",
            "--out", str(tmp_path / "out"),
        ])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert err == [f"error: {short} has 200 samples, fewer than one chunk of 400"], err
        assert not (tmp_path / "out").exists()

    def test_bad_row_in_a_later_block_exits_1_naming_it(self, datasets, tmp_path, capsys):
        src = (datasets / "damaged" / "data.csv").read_text().splitlines()
        src[9000] = src[9000].replace(",", ",x", 1)  # row 9001, in block 3
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(src) + "\n")
        code = cli.main([
            "run", "--input", str(bad), "--training", str(datasets / "train" / "data.csv"),
            "--chunk-size", "400", "--order", "3", "--out", str(tmp_path / "out"),
        ])
        err = capsys.readouterr().err.splitlines()
        cell = "x" + src[9000].split(",x")[1].split(",")[0]
        assert (code, err) == (1, [f"error: {bad}: row 9001: cannot parse {cell!r} as a number"])
        assert not (tmp_path / "out").exists()

    def test_input_that_is_not_utf8_exits_1_naming_it(self, datasets, tmp_path, capsys):
        src = (datasets / "damaged" / "data.csv").read_bytes().splitlines()
        src[9000] = src[9000].replace(b",", b",\xe9", 1)  # line 9001, in block 3
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\n".join(src) + b"\n")
        code = cli.main([
            "run", "--input", str(bad), "--training", str(datasets / "train" / "data.csv"),
            "--chunk-size", "400", "--order", "3", "--out", str(tmp_path / "out"),
        ])
        err = capsys.readouterr().err.splitlines()
        byte = src[9000].index(b"\xe9") + 1
        assert (code, err) == (1, [
            f"error: {bad}: line 9001 is not UTF-8: byte {byte} is 0xe9 (invalid continuation byte)"
        ])

    def test_byte_order_mark_is_ignored(self, tmp_path):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        text = "time,sensor_1,sensor_2\n0.0,1.0,-2.5\n0.02,3.0,4.0\n"
        plain.write_text(text, encoding="utf-8")
        marked.write_text("\ufeff" + text, encoding="utf-8")
        time, signals = read_signal_csv(plain)
        marked_time, marked_signals = read_signal_csv(marked)
        assert np.array_equal(marked_time, time)
        assert list(marked_signals) == list(signals) == ["sensor_1", "sensor_2"]
        assert all(np.array_equal(marked_signals[c], signals[c]) for c in signals)

    def test_one_call_ingest_equals_the_row_loop(self, datasets, monkeypatch):
        path = datasets / "damaged" / "data.csv"
        parsed, loadtxt = [], np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda *a, **k: parsed.append(loadtxt(*a, **k)) or parsed[0])
        time, signals = read_signal_csv(path)
        assert parsed[0].shape == (time.size, 1 + len(signals))  # one call parsed every row

        def reject(*args, **kwargs):
            raise ValueError("forced onto the row loop")

        monkeypatch.setattr(np, "loadtxt", reject)
        strict_time, strict_signals = read_signal_csv(path)
        assert np.array_equal(time, strict_time)
        assert list(signals) == list(strict_signals)
        assert all(np.array_equal(signals[c], strict_signals[c]) for c in signals)

    @staticmethod
    def _loadtxt_outcomes(monkeypatch):
        """Record what each ``np.loadtxt`` call returned (an array) or raised (its type)."""
        outcomes, loadtxt = [], np.loadtxt

        def recording(*args, **kwargs):
            try:
                outcomes.append(loadtxt(*args, **kwargs))
            except Exception as err:
                outcomes.append(type(err))
                raise
            return outcomes[-1]

        monkeypatch.setattr(np, "loadtxt", recording)
        return outcomes

    @staticmethod
    def _row_loop(path):
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            return tables._read_rows(path, reader, len(next(reader)))

    def test_crlf_file_parses_in_one_call(self, datasets, tmp_path, monkeypatch):
        text = (datasets / "damaged" / "data.csv").read_text()
        path = tmp_path / "crlf.csv"
        path.write_bytes(text.replace("\n", "\r\n").encode())
        outcomes = self._loadtxt_outcomes(monkeypatch)
        time, signals = read_signal_csv(path)
        rows = self._row_loop(path)
        assert len(outcomes) == 1 and outcomes[0].shape == rows.shape
        assert np.array_equal(time, rows[:, 0])
        assert list(signals) == ["sensor_1", "sensor_2", "sensor_3", "sensor_4"]
        assert all(np.array_equal(signals[c], rows[:, j]) for j, c in enumerate(signals, start=1))

    def test_header_with_a_quoted_line_break_falls_back_to_the_row_loop(self, tmp_path, monkeypatch):
        path = tmp_path / "quoted.csv"
        path.write_text('time,"sensor_1\n",sensor_2\n0.0,1.0,-2.5\n0.02,3.0,4.0\n0.04,5.0,6.5\n')
        outcomes = self._loadtxt_outcomes(monkeypatch)
        time, signals = read_signal_csv(path)
        rows = self._row_loop(path)
        assert len(outcomes) == 1 and outcomes[0] is ValueError  # its second line is no data row
        assert rows.tolist() == [[0.0, 1.0, -2.5], [0.02, 3.0, 4.0], [0.04, 5.0, 6.5]]
        assert np.array_equal(time, rows[:, 0])
        assert list(signals) == ["sensor_1", "sensor_2"]
        assert all(np.array_equal(signals[c], rows[:, j]) for j, c in enumerate(signals, start=1))

    def test_cells_only_the_row_loop_takes_still_parse(self, tmp_path):
        text = 'time,sensor_1\n0.0,"1.5"\n\n0.02,1_0\n'
        for name, prefix in (("plain.csv", ""), ("marked.csv", "\ufeff")):
            path = tmp_path / name
            path.write_text(prefix + text, encoding="utf-8")
            time, signals = read_signal_csv(path)
            assert time.tolist() == [0.0, 0.02]
            assert signals["sensor_1"].tolist() == [1.5, 10.0]

    def test_short_row_cites_row(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,sensor_1\n0.0,1.0\n0.1\n")
        with pytest.raises(ConfigError, match="row 3"):
            read_signal_csv(bad)

    @pytest.mark.parametrize(
        "row, cell, message",
        [
            (17, "0.280000", r"row 17: time 0\.28 s does not come after 0\.28 s"),
            (17, "nan", "row 17: time nan is not a finite number"),
            (None, None, r"row 31: time step 0\.04 s differs from the sample interval 0\.02 s"),
        ],
        ids=["repeated", "nan", "missing-row"],
    )
    def test_bad_time_column_cites_row(self, datasets, tmp_path, row, cell, message):
        src = (datasets / "damaged" / "data.csv").read_text().splitlines()
        if row is None:
            del src[30]  # the sample of row 31
        else:
            fields = src[row - 1].split(",")
            fields[0] = cell
            src[row - 1] = ",".join(fields)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(src) + "\n")
        with pytest.raises(ConfigError, match=message):
            read_signal_csv(bad)

    def test_time_row_counts_blank_rows(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,sensor_1\n0.0,1.0\n\n0.5,2.0\n1.0,3.0\n\n2.0,4.0\n")
        with pytest.raises(ConfigError, match="row 7: time step 1 s differs"):
            read_signal_csv(bad)

    def test_times_printed_to_the_microsecond_are_even(self, tmp_path):
        scenario = scenario_dict(7, 30.0)
        scenario["excitation"]["fs"] = 300.0  # 1/300 s is no whole number of microseconds
        paths = pipeline.gen(scenario, str(tmp_path))
        time, _ = read_signal_csv(paths["data"], 1.0 / 300.0)
        assert time.size == 9000 and np.ptp(np.diff(time)) > 0.5e-6

    @pytest.mark.parametrize("which", ["input_csv", "postdamage_csv"])
    def test_sample_rate_must_match_the_training_file(self, datasets, tmp_path, which):
        src = (datasets / "damaged" / "data.csv").read_text().splitlines()
        halved = tmp_path / "halved.csv"
        halved.write_text("\n".join(src[:1] + src[1::2]) + "\n")  # every other sample: 25 Hz
        files = {"postdamage_csv": str(datasets / "post" / "data.csv"), which: str(halved)}
        config = base_config(datasets, tmp_path / "out", mode="known", **files)
        with pytest.raises(ConfigError) as err:
            pipeline.run(config)
        assert str(err.value) == (
            f"{halved}: row 3: time step 0.04 s differs from the training file's"
            " sample interval 0.02 s by more than 1e-06 s"
        )

    def test_bad_header(self, tmp_path):
        bad = tmp_path / "bad.csv"
        for header in ("when,sensor_1", "time,sensor_1,sensor_1", "time,sensor_x"):
            bad.write_text(f"{header}\n0.0,1.0,1.0\n")
            with pytest.raises(ConfigError, match="row 1"):
                read_signal_csv(bad)

    @pytest.mark.parametrize(
        "metadata, named",
        [
            ({"sensors": [{"id": 1}]}, "expected"),
            ([], "expected"),
            ({"sensors": 3}, "expected"),
            ({"lambda_chunk": "41"}, "lambda_chunk"),
            ({"chunk_size": 400, "sensors": []}, "chunk_size"),  # the run's is the default 1600
            ({"lambda_chunk": 0}, "lambda_chunk"),
            ({"lambda_chunk": 4.5}, "lambda_chunk"),
            ({"lambda_chunk": True}, "lambda_chunk"),
            ({"sensors": [{"column": "sensor_2", "position": 3}]}, "position"),
            ({"chunk_size": "1600"}, "chunk_size must be an integer,"),  # the run's, as text
            ({"chunk_size": 1600.0}, "chunk_size must be an integer,"),
        ],
        ids=[
            "no-column", "list", "sensors-int", "lambda-str", "chunk-size", "lambda-zero",
            "lambda-float", "lambda-bool", "position-int", "chunk-size-str", "chunk-size-float",
        ],
    )
    def test_malformed_metadata_exits_1_naming_it(self, datasets, tmp_path, capsys, metadata, named):
        meta = tmp_path / "metadata.json"
        meta.write_text(json.dumps(metadata))
        code = cli.main([
            "run",
            "--input", str(datasets / "damaged" / "data.csv"),
            "--training", str(datasets / "train" / "data.csv"),
            "--metadata", str(meta),
            "--out", str(tmp_path / "out"),
        ])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith(f"error: {meta}: {named} "), err
        assert not (tmp_path / "out").exists()

    def test_metadata_sensor_the_input_lacks_exits_1_naming_it(self, datasets, tmp_path, capsys):
        meta = tmp_path / "metadata.json"
        meta.write_text(json.dumps({"sensors": [
            {"column": "sensor_2", "position": "roof"}, {"column": "sensor_9", "position": "x"},
        ]}))
        data = datasets / "damaged" / "data.csv"
        code = cli.main([
            "run",
            "--input", str(data),
            "--training", str(datasets / "train" / "data.csv"),
            "--metadata", str(meta),
            "--out", str(tmp_path / "out"),
        ])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {data}, which {meta} describes, lacks columns ['sensor_9']"
        ]

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            PipelineConfig(input_csv="a.csv", training_csv="b.csv", alpha=2.0).validate()
        with pytest.raises(ConfigError):
            PipelineConfig(input_csv="a.csv", training_csv="b.csv", mode="oracle").validate()
        with pytest.raises(ConfigError):
            PipelineConfig(input_csv="a.csv", training_csv="b.csv", mode="known").validate()
        with pytest.raises(ConfigError):
            PipelineConfig(input_csv="a.csv", training_csv="b.csv", chunk_size=5, order=7).validate()
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({"no_such_key": 1})

    def test_config_validation_of_inputs_rho_and_order(self):
        with pytest.raises(ConfigError, match="input_csv and training_csv are required"):
            PipelineConfig().validate()
        with pytest.raises(ConfigError, match="rho must lie strictly between 0 and 1"):
            PipelineConfig(input_csv="a.csv", training_csv="b.csv", rho=1.0).validate()
        with pytest.raises(ConfigError, match="order must be >= 1"):
            PipelineConfig(input_csv="a.csv", training_csv="b.csv", order=0).validate()

    def test_default_thresholds(self):
        config = PipelineConfig()
        assert config.alpha == 1e-5
        assert config.rho == 1e-5
        assert config.chunk_size == 1600


class TestCli:
    def test_gen_run_report_flow(self, datasets, tmp_path):
        out = tmp_path / "cliout"
        code = cli.main(
            [
                "run",
                "--input", str(datasets / "damaged" / "data.csv"),
                "--training", str(datasets / "train" / "data.csv"),
                "--metadata", str(datasets / "damaged" / "metadata.json"),
                "--out", str(out),
                "--chunk-size", "400",
                "--order", "3",
                "--mode", "adaptive",
                "--dump-dsf",
                "--dump-estimates",
            ]
        )
        assert code == 2
        header = (out / "dsf.csv").read_text().splitlines()[0]
        assert header == "sensor_id,step," + ",".join(f"coef_{i}" for i in range(1, 4))
        est_header = (out / "estimates.csv").read_text().splitlines()[0].split(",")
        assert est_header[:3] == ["sensor_id", "step", "mu_hat_1"]
        assert "sigma_hat_1_1" in est_header

        assert cli.main(["report", "--run-dir", str(out)]) == 0
        plot = json.loads((out / "ccdf_plot.json").read_text())
        assert plot["ccdf_threshold"] == 1e-5
        assert plot["lambda_true"] == 8
        assert set(plot["series"]) == {"1", "2", "3", "4"}

    def test_known_mode_dump_estimates_writes_no_estimates(self, datasets, tmp_path):
        argv = [
            "run",
            "--input", str(datasets / "damaged" / "data.csv"),
            "--training", str(datasets / "train" / "data.csv"),
            "--post-training", str(datasets / "post" / "data.csv"),
            "--chunk-size", "400",
            "--order", "3",
            "--mode", "known",
        ]
        code = cli.main([*argv, "--out", str(tmp_path / "plain")])
        dumped = tmp_path / "dumped"
        assert cli.main([*argv, "--out", str(dumped), "--dump-dsf", "--dump-estimates"]) == code
        assert code == 2
        assert (dumped / "dsf.csv").exists()
        assert not (dumped / "estimates.csv").exists()  # f is learned, not estimated
        assert (dumped / "trace.csv").read_bytes() == (tmp_path / "plain" / "trace.csv").read_bytes()

    def test_gen_seed_override(self, tmp_path):
        scen = tmp_path / "scenario.json"
        scen.write_text(json.dumps(scenario_dict(1, 24.0)))
        cli.main(["gen", "--scenario", str(scen), "--out", str(tmp_path / "a"), "--seed", "77"])
        cli.main(["gen", "--scenario", str(scen), "--out", str(tmp_path / "b"), "--seed", "77"])
        cli.main(["gen", "--scenario", str(scen), "--out", str(tmp_path / "c")])
        a = (tmp_path / "a" / "data.csv").read_bytes()
        assert a == (tmp_path / "b" / "data.csv").read_bytes()
        assert a != (tmp_path / "c" / "data.csv").read_bytes()

    @pytest.mark.parametrize(
        "key, text, field",
        [
            ("noise_snr_db", '"40"', "noise_snr_db"),
            ("noise_snr_db", "NaN", "noise_snr_db"),
            ("noise_snr_db", "-1e400", "noise_snr_db"),
            ("noise_snr_db", "true", "noise_snr_db"),
            ("duration_s", "1e400", "duration_s"),
            ("duration_s", "1e308", "sample_rate and duration_s"),
            ("intensity", "1e400", "intensity"),
            ("intensity", "NaN", "intensity"),
            ("fs", "NaN", "sample_rate"),
            ("fs", "false", "sample_rate"),
            ("masses", "NaN", "masses"),
            ("stiffnesses", "[1e5, true, 1e5, 1e5]", "stiffnesses"),
            ("zeta", "NaN", "zeta"),
            ("damage.r", '"0.5"', "retention"),
            ("damage.r", "true", "retention"),
            ("damage.r", "NaN", "retention"),
        ],
    )
    def test_bad_scenario_value_exits_1_naming_it(self, tmp_path, capsys, key, text, field):
        scenario = scenario_dict(1, 24.0, {"story": 2, "r": 0.5, "lambda_chunk": 2})
        *outer, name = key.split(".")
        where = scenario[outer[0]] if outer else scenario
        if name in scenario["excitation"]:
            where = scenario["excitation"]
        where[name] = "@VALUE@"
        scen = tmp_path / "scenario.json"
        scen.write_text(json.dumps(scenario).replace('"@VALUE@"', text))
        code = cli.main(["gen", "--scenario", str(scen), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error: bad scenario description: " + field), err
        assert not (tmp_path / "out" / "data.csv").exists()

    def test_record_too_large_to_hold_exits_1_with_one_error_line(self, tmp_path, capsys):
        scen = tmp_path / "scenario.json"
        scen.write_text(json.dumps(scenario_dict(1, 1e18)))  # past numpy's dimension limit
        code = cli.main(["gen", "--scenario", str(scen), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert err == ["error: 50000000000000000000 samples x 4 sensors need 1.49e+12 GiB, "
                       "more than can be allocated"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key, text",
        [
            ("stories", "true"),
            ("stories", "4.0"),
            ("chunk_size", "400.9"),
            ("chunk_size", '"400"'),
            ("sensors_per_story", "1.5"),
            ("excitation.seed", "1.7"),
            ("damage.story", "2.0"),
            ("damage.lambda_chunk", "false"),
        ],
    )
    def test_non_integer_scenario_key_exits_1_naming_it(self, tmp_path, capsys, key, text):
        scenario = scenario_dict(1, 24.0, {"story": 2, "r": 0.5, "lambda_chunk": 2})
        *outer, name = key.split(".")
        where = scenario[outer[0]] if outer else scenario
        where[name] = "@VALUE@"
        scen = tmp_path / "scenario.json"
        scen.write_text(json.dumps(scenario).replace('"@VALUE@"', text))
        code = cli.main(["gen", "--scenario", str(scen), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert err == [f"error: bad scenario description: {key} must be an integer, got "
                       + repr(json.loads(text))]
        assert not (tmp_path / "out" / "data.csv").exists()

    @pytest.mark.parametrize("flag", [False, True], ids=["json-seed", "seed-flag"])
    def test_negative_seed_exits_1_before_the_output_directory(self, tmp_path, capsys, flag):
        scenario = scenario_dict(1, 24.0)
        argv = []
        if flag:
            argv = ["--seed", "-5"]
        else:
            scenario["excitation"]["seed"] = -5
        scen = tmp_path / "scenario.json"
        scen.write_text(json.dumps(scenario))
        code = cli.main(["gen", "--scenario", str(scen), "--out", str(tmp_path / "out"), *argv])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert err == ["error: bad scenario description: seed must be >= 0, got -5"]
        assert not (tmp_path / "out").exists()

    def test_src_has_one_integer_check(self):
        src = Path(pipeline.__file__).parent
        assert [
            p.name for p in sorted(src.glob("*.py")) if "must be an integer" in p.read_text()
        ] == ["errors.py"]

    def test_null_noise_snr_means_no_noise(self, tmp_path):
        signals = {}
        for name, snr in (("noisy", 40.0), ("silent", None)):
            scen = tmp_path / f"{name}.json"
            scen.write_text(json.dumps(dict(scenario_dict(1, 24.0), noise_snr_db=snr)))
            assert cli.main(["gen", "--scenario", str(scen), "--out", str(tmp_path / name)]) == 0
            signals[name] = np.loadtxt(tmp_path / name / "data.csv", delimiter=",", skiprows=1)[:, 1:]
        noise = signals["noisy"] - signals["silent"]
        rms = np.sqrt(np.mean(signals["silent"] ** 2, axis=0))
        assert np.all(noise.std(axis=0) > 0.005 * rms) and np.all(noise.std(axis=0) < 0.02 * rms)

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["run", "--input", "a.csv", "--training", "b.csv", "--alpha", "abc"], 1),
            (["run", "--no-such-flag"], 1),
            (["run", "--warmup", "30"], 1),  # retired: the warm-up is m + 1 steps
            (["run", "--positions", "a=b"], 1),  # retired: positions come from --metadata
            (["run", "--lambda-true", "3"], 1),  # retired: so does the true damage step
            ([], 1),
            (["--help"], 0),
        ],
        ids=[
            "bad-value", "unknown-flag", "retired-warmup-flag", "retired-positions-flag",
            "retired-lambda-true-flag", "no-subcommand", "help",
        ],
    )
    def test_usage_error_exits_1_not_2(self, capsys, argv, code):
        assert cli.main(argv) == code  # 2 would read as "damage declared"

    def test_run_into_a_file_exits_1_before_the_work(self, datasets, tmp_path, capsys, monkeypatch):
        taken = tmp_path / "taken"
        taken.write_text("")
        monkeypatch.setattr(pipeline, "read_signal_csv", None)  # the work would fail loudly
        code = cli.main([
            "run",
            "--input", str(datasets / "damaged" / "data.csv"),
            "--training", str(datasets / "train" / "data.csv"),
            "--chunk-size", "400",
            "--out", str(taken),
        ])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error: ") and str(taken) in err[0], err

    def test_gen_under_a_file_exits_1_before_the_work(self, tmp_path, capsys, monkeypatch):
        scen = tmp_path / "scenario.json"
        scen.write_text(json.dumps(scenario_dict(1, 24.0)))
        taken = tmp_path / "taken"
        taken.write_text("")
        monkeypatch.setattr(pipeline.shearsim, "simulate", None)  # the work would fail loudly
        code = cli.main(["gen", "--scenario", str(scen), "--out", str(taken / "x")])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error: ") and str(taken / "x") in err[0], err

    @staticmethod
    def deny_access(monkeypatch, directory):
        """Make ``os.access`` deny ``directory``, as for one this process cannot write."""
        access = os.access

        def denied(path, mode, *args, **kwargs):
            return os.path.abspath(path) != str(directory) and access(path, mode, *args, **kwargs)

        monkeypatch.setattr(os, "access", denied)

    @staticmethod
    def command_argv(datasets, tmp_path, command):
        """A ``run`` or ``gen`` command line that succeeds once given an ``--out``."""
        if command == "run":
            return [
                "run",
                "--input", str(datasets / "damaged" / "data.csv"),
                "--training", str(datasets / "train" / "data.csv"),
                "--chunk-size", "400",
                "--order", "3",
            ]
        scen = tmp_path / "scenario.json"
        scen.write_text(json.dumps(scenario_dict(1, 24.0)))
        return ["gen", "--scenario", str(scen)]

    @staticmethod
    def fail_the_work(monkeypatch):
        """Make reading a CSV or simulating a record fail loudly."""
        monkeypatch.setattr(pipeline, "read_signal_csv", None)
        monkeypatch.setattr(pipeline.shearsim, "simulate", None)

    @pytest.mark.parametrize("under", [False, True], ids=["locked", "locked-child"])
    @pytest.mark.parametrize("command", ["run", "gen"])
    def test_an_unwritable_directory_exits_1_before_the_work(
        self, datasets, tmp_path, capsys, monkeypatch, command, under
    ):
        argv = self.command_argv(datasets, tmp_path, command)
        locked = tmp_path / "locked"
        locked.mkdir()
        out = locked / "new" if under else locked
        self.deny_access(monkeypatch, locked)
        self.fail_the_work(monkeypatch)
        code = cli.main([*argv, "--out", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert err == [f"error: cannot write to {out}: {str(locked)!r} is not a writable directory"]
        assert not any(locked.iterdir())

    @pytest.mark.parametrize("command", ["run", "gen"])
    def test_an_empty_out_exits_1_before_the_work(
        self, datasets, tmp_path, capsys, monkeypatch, command
    ):
        argv = self.command_argv(datasets, tmp_path, command)
        self.fail_the_work(monkeypatch)
        code = cli.main([*argv, "--out", ""])
        err = capsys.readouterr().err.splitlines()
        assert (code, err) == (1, ["error: cannot write to : '' is not a writable directory"])

    @pytest.mark.parametrize("command", ["run", "gen"])
    def test_a_directory_that_cannot_be_made_exits_1_naming_it(
        self, datasets, tmp_path, capsys, monkeypatch, command
    ):
        def too_long(path, *args, **kwargs):
            raise OSError(36, "File name too long")  # the check cannot foresee this

        argv = self.command_argv(datasets, tmp_path, command)
        monkeypatch.setattr(os, "makedirs", too_long)
        out = tmp_path / "out"
        code = cli.main([*argv, "--out", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert (code, err) == (1, [f"error: cannot write to {out}: [Errno 36] File name too long"])
        assert not out.exists()

    def test_report_into_a_missing_directory_exits_1(self, datasets, tmp_path, capsys):
        out = tmp_path / "out"
        pipeline.run(base_config(datasets, out))
        plot = tmp_path / "missing" / "plot.json"
        code = cli.main(["report", "--run-dir", str(out), "--out", str(plot)])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error: ") and str(plot) in err[0], err

    @pytest.mark.parametrize(
        "name, damage",
        [
            ("trace.csv", lambda text: "\n".join(
                ",".join(row.split(",")[:3]) for row in text.splitlines()
            )),
            ("trace.csv", lambda text: text.replace("\n1,1,", "\n1,x,", 1)),
            ("summary.json", lambda text: "{}"),
        ],
        ids=["no-ccdf-column", "bad-step", "empty-summary"],
    )
    def test_report_on_a_malformed_run_exits_1_naming_the_file(
        self, datasets, tmp_path, capsys, name, damage
    ):
        out = tmp_path / "out"
        pipeline.run(base_config(datasets, out))
        path = out / name
        path.write_text(damage(path.read_text()))
        code = cli.main(["report", "--run-dir", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith(f"error: {path}: "), err

    def test_cli_import_leaves_scipy_signal_unloaded(self):
        src = str(Path(pipeline.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        probe = "import sys, shmseq.cli; print('scipy.signal' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"

    def test_detection_path_loads_no_scipy(self, datasets, tmp_path):
        src = str(Path(pipeline.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        run = (
            "from shmseq import pipeline;"
            f"config = dict(input_csv={str(datasets / 'damaged' / 'data.csv')!r},"
            f" training_csv={str(datasets / 'train' / 'data.csv')!r},"
            f" postdamage_csv={str(datasets / 'post' / 'data.csv')!r},"
            " chunk_size=400, order=3);"
            f"pipeline.run(pipeline.PipelineConfig(**config, mode='known', output_dir={str(tmp_path / 'k')!r}));"
            f"pipeline.run(pipeline.PipelineConfig(**config, mode='adaptive', output_dir={str(tmp_path / 'a')!r}));"
        )
        gen = f"pipeline.gen({scenario_dict(5, 40.0)!r}, {str(tmp_path / 'gen')!r});"
        loaded = "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy'}))"
        for probe, expected in [
            ("import sys, shmseq;", "[]"),
            ("import sys, shmseq.cli;", "[]"),
            ("import sys;" + run, "[]"),
            ("import sys;" + run + gen, "[]"),
            # a control: the probe does see scipy once something imports it
            ("import sys, scipy.signal; from shmseq import pipeline;" + gen, "['scipy']"),
        ]:
            out = subprocess.run(
                [sys.executable, "-c", probe + loaded],
                env=env, capture_output=True, text=True, check=True, timeout=300,
            )
            assert out.stdout.strip() == expected, probe
        assert (tmp_path / "k" / "trace.csv").exists() and (tmp_path / "a" / "trace.csv").exists()
        assert (tmp_path / "gen" / "data.csv").exists()

    def test_error_exit_code(self, tmp_path):
        code = cli.main(
            [
                "run",
                "--input", str(tmp_path / "missing.csv"),
                "--training", str(tmp_path / "missing.csv"),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "setting, flags",
        [
            ({"order": 7.5}, []),
            ({"chunk_size": "400"}, []),
            ({"alpha": "1e-5"}, []),
            ({"coef_indices": 3}, []),
            ({}, ["--order", "abc"]),
            ({"coef_indices": [5], "order": 3}, []),
            ({"coef_indices": [9], "p_max": 4}, []),
            ({"coef_indices": []}, []),
            ({"chunk_size": True}, []),
            ({"order": True}, []),
            ({"alpha": False}, []),
            ({"order": "3"}, []),  # the comma and integer forms are flag syntax only
            ({"coef_indices": "1,2"}, []),
            ({}, ["--coeffs", "1,x"]),
        ],
        ids=[
            "order-float", "chunk_size-str", "alpha-str", "coef_indices-int", "order-flag",
            "coef_indices-above-order", "coef_indices-above-p_max", "coef_indices-empty",
            "chunk_size-bool", "order-bool", "alpha-bool", "order-str", "coef_indices-str",
            "coeffs-flag",
        ],
    )
    def test_bad_setting_exits_1_naming_it(self, datasets, tmp_path, capsys, setting, flags):
        config_path = tmp_path / "run.json"
        run = {
            "input_csv": str(datasets / "damaged" / "data.csv"),
            "training_csv": str(datasets / "train" / "data.csv"),
            "output_dir": str(tmp_path / "out"),
        }
        config_path.write_text(json.dumps({**run, **setting}))
        code = cli.main(["run", "--config", str(config_path), *flags])
        err = capsys.readouterr().err.splitlines()
        key = next(iter(setting), "coef_indices" if "--coeffs" in flags else "order")
        assert code == 1
        assert len(err) == 1 and err[0].startswith(f"error: {key} "), err
        assert not (tmp_path / "out").exists()

    def test_coeffs_above_the_order_aic_chose_exits_1_naming_it(self, tmp_path, capsys):
        noise = tmp_path / "noise.csv"  # white noise: AIC picks order 1
        samples = np.random.default_rng(5).normal(size=(4000, 2))
        np.savetxt(noise, np.column_stack((0.02 * np.arange(4000), samples)), delimiter=",",
                   header="time,sensor_1,sensor_2", comments="")
        code = cli.main([
            "run", "--input", str(noise), "--training", str(noise), "--chunk-size", "400",
            "--p-max", "5", "--coeffs", "2,5", "--out", str(tmp_path / "out"),
        ])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert err == [f"error: coef_indices [2, 5] exceed order 1, which AIC chose in"
                       f" 1..p_max = 5 on {noise}"]

    def test_auto_order_reads_only_the_monitored_training_columns(self, tmp_path, capsys):
        def ar(coefs, n, rng):  # an AR(len(coefs)) stream after a burn-in of 500 samples
            x, e = np.zeros(n + 500), rng.normal(size=n + 500)
            for t in range(len(coefs), n + 500):
                x[t] = e[t] + np.dot(coefs, x[t - len(coefs) : t][::-1])
            return x[500:]

        def write(name, columns):  # 4000 samples at 50 Hz
            path = tmp_path / name
            np.savetxt(path, np.column_stack((0.02 * np.arange(4000), *columns.values())),
                       delimiter=",", header=",".join(["time", *columns]), comments="")
            return path

        def chosen_order(inputs, training, out):
            code = cli.main(["run", "--input", str(inputs), "--training", str(training),
                             "--chunk-size", "400", "--out", str(tmp_path / out)])
            assert code in (0, 2), capsys.readouterr().err
            return json.loads((tmp_path / out / "summary.json").read_text())["order"]

        rng = np.random.default_rng(3)
        ar2, ar8 = ar([0.5, -0.3], 4000, rng), ar([0.0] * 7 + [0.6], 4000, rng)
        monitored = write("in.csv", {"sensor_1": ar([0.5, -0.3], 4000, rng)})
        alone = write("alone.csv", {"sensor_1": ar2})
        both = write("both.csv", {"sensor_1": ar2, "sensor_2": ar8})
        assert chosen_order(monitored, alone, "alone") == 2
        assert chosen_order(monitored, both, "both") == 2  # sensor_2 is not monitored
        assert chosen_order(both, both, "both_monitored") == 8  # once monitored, it counts

    def test_every_run_flag_lands_in_its_field(self, tmp_path):
        settings = {
            "input_csv": "in.csv",
            "training_csv": "train.csv",
            "postdamage_csv": "post.csv",
            "metadata_json": "meta.json",
            "output_dir": "elsewhere",
            "mode": "known",
            "alpha": 1e-3,
            "rho": 2e-4,
            "chunk_size": 800,
            "order": 5,
            "p_max": 9,
            "coef_indices": [2, 4],
            "dump_dsf": True,
            "dump_estimates": True,
        }
        argv = [
            "run",
            "--input", "in.csv",
            "--training", "train.csv",
            "--post-training", "post.csv",
            "--metadata", "meta.json",
            "--out", "elsewhere",
            "--mode", "known",
            "--alpha", "1e-3",
            "--rho", "2e-4",
            "--chunk-size", "800",
            "--order", "5",
            "--p-max", "9",
            "--coeffs", "2,4",
            "--dump-dsf",
            "--dump-estimates",
        ]
        assert set(settings) == set(PipelineConfig.__dataclass_fields__)
        from_flags = cli._run_config(cli.build_parser().parse_args(argv))
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(settings))
        from_file = cli._run_config(
            cli.build_parser().parse_args(["run", "--config", str(config_path)])
        )
        default = PipelineConfig()
        for key in settings:
            flag_value, file_value = getattr(from_flags, key), getattr(from_file, key)
            assert flag_value == file_value != getattr(default, key), key
        assert from_flags.coef_indices == (2, 4)
        from_flags.validate()

    def test_config_file_with_flag_override(self, datasets, tmp_path):
        config_path = tmp_path / "run.json"
        config_path.write_text(
            json.dumps(
                {
                    "input_csv": str(datasets / "clean" / "data.csv"),
                    "training_csv": str(datasets / "train" / "data.csv"),
                    "output_dir": str(tmp_path / "from_file"),
                    "chunk_size": 400,
                    "order": 3,
                    "mode": "adaptive",
                }
            )
        )
        code = cli.main(
            ["run", "--config", str(config_path),
             "--input", str(datasets / "damaged" / "data.csv"),
             "--out", str(tmp_path / "overridden")]
        )
        assert code == 2  # the damaged input from the flag wins
        assert (tmp_path / "overridden" / "summary.json").exists()


class TestErrorExits:
    """Each input error the CLI reports with exit 1, and one row error `report` shows."""

    @staticmethod
    def run_cli(datasets, tmp_path, capsys, *flags, training=None):
        code = cli.main([
            "run",
            "--input", str(datasets / "damaged" / "data.csv"),
            "--training", str(training or datasets / "train" / "data.csv"),
            "--chunk-size", "400",
            "--order", "3",
            "--out", str(tmp_path / "out"),
            *flags,
        ])
        return code, capsys.readouterr().err.splitlines()

    @staticmethod
    def without_sensor_4(datasets, tmp_path):
        rows = (datasets / "train" / "data.csv").read_text().splitlines()
        path = tmp_path / "three_sensors.csv"
        path.write_text("\n".join(",".join(row.split(",")[:4]) for row in rows) + "\n")
        return path

    def test_every_sensor_failing_exits_1_and_writes_no_table(self, datasets, tmp_path, capsys):
        rows = (datasets / "damaged" / "data.csv").read_text().splitlines()
        fields = rows[1].split(",")
        rows[1] = ",".join(fields[:1] + ["nan"] * (len(fields) - 1))
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(rows) + "\n")
        code, err = self.run_cli(datasets, tmp_path, capsys, "--input", str(bad))
        assert code == 1 and len(err) == 1, err
        assert err[0].startswith("error: every sensor failed: sensor_1: sensor 1 chunk 1: "), err
        for s in (2, 3, 4):
            assert f"; sensor_{s}: sensor {s} chunk 1: 1 of 400 samples are nan" in err[0]
        assert not (tmp_path / "out" / "trace.csv").exists()
        assert not (tmp_path / "out" / "summary.json").exists()

    def test_training_file_lacking_a_monitored_column_exits_1(self, datasets, tmp_path, capsys):
        training = self.without_sensor_4(datasets, tmp_path)
        code, err = self.run_cli(datasets, tmp_path, capsys, training=training)
        monitored = datasets / "damaged" / "data.csv"
        expected = f"error: {training} lacks columns ['sensor_4'] that {monitored} monitors"
        assert (code, err) == (1, [expected])

    def test_post_damage_file_lacking_a_monitored_column_exits_1(self, datasets, tmp_path, capsys):
        post = self.without_sensor_4(datasets, tmp_path)
        code, err = self.run_cli(
            datasets, tmp_path, capsys, "--mode", "known", "--post-training", str(post)
        )
        monitored = datasets / "damaged" / "data.csv"
        expected = f"error: {post} lacks columns ['sensor_4'] that {monitored} monitors"
        assert (code, err) == (1, [expected])

    @staticmethod
    def failing_inputs(datasets, tmp_path, failure):
        """The flags and training file of a run that fails once its output directory is checked."""
        if failure == "missing-training":
            return [], tmp_path / "missing.csv"
        rows = (datasets / "damaged" / "data.csv").read_text().splitlines()
        if failure == "short-input":
            rows = rows[: 1 + 200]
        else:  # every sensor fails at its first chunk
            rows[1] = ",".join(rows[1].split(",")[:1] + ["nan"] * 4)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(rows) + "\n")
        return ["--input", str(bad)], None

    FAILURES = ["missing-training", "short-input", "every-sensor-fails"]

    @pytest.mark.parametrize("failure", FAILURES)
    def test_a_failed_run_leaves_no_output_directory(self, datasets, tmp_path, capsys, failure):
        flags, training = self.failing_inputs(datasets, tmp_path, failure)
        out = tmp_path / "new" / ".." / "made" / "out"  # makes new, made and out
        code, err = self.run_cli(
            datasets, tmp_path, capsys, *flags, "--out", str(out), training=training
        )
        assert code == 1 and len(err) == 1 and err[0].startswith("error: "), err
        assert not {"new", "made"} & {p.name for p in tmp_path.iterdir()}

    @pytest.mark.parametrize("relative", [False, True], ids=["absolute", "relative"])
    def test_a_run_makes_its_output_directory_and_its_parents(
        self, datasets, tmp_path, capsys, monkeypatch, relative
    ):
        out = Path("new", "..", "made", "out")
        if relative:
            monkeypatch.chdir(tmp_path)
        else:
            out = tmp_path / out
        code, err = self.run_cli(datasets, tmp_path, capsys, "--out", str(out))
        assert code in (0, 2) and err == [], err
        assert {"new", "made"} <= {p.name for p in tmp_path.iterdir()}
        assert sorted(p.name for p in (tmp_path / "made" / "out").iterdir()) == [
            "localization.json", "summary.json", "trace.csv"
        ]

    @pytest.mark.parametrize("failure", FAILURES)
    def test_a_failed_run_keeps_an_output_directory_that_existed(
        self, datasets, tmp_path, capsys, failure
    ):
        flags, training = self.failing_inputs(datasets, tmp_path, failure)
        out = tmp_path / "out"
        out.mkdir()
        code, err = self.run_cli(datasets, tmp_path, capsys, *flags, training=training)
        assert code == 1 and len(err) == 1, err
        assert out.is_dir() and not any(out.iterdir())

    def test_a_failed_write_keeps_what_was_written(self, datasets, tmp_path, capsys, monkeypatch):
        def full(path, data):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(pipeline, "write_json", full)
        code, err = self.run_cli(datasets, tmp_path, capsys)
        out = tmp_path / "out"
        assert (code, err) == (1, [f"error: cannot write to {out}: [Errno 28] No space left on device"])
        assert [p.name for p in out.iterdir()] == ["trace.csv"]

    def test_auto_order_on_training_shorter_than_one_chunk_exits_1(self, datasets, tmp_path, capsys):
        rows = (datasets / "train" / "data.csv").read_text().splitlines()
        short = tmp_path / "short.csv"
        short.write_text("\n".join(rows[: 1 + 200]) + "\n")
        code, err = self.run_cli(datasets, tmp_path, capsys, "--order", "auto", training=short)
        assert (code, err) == (1, [f"error: training data in {short} is shorter than one chunk"])

    def test_config_file_holding_an_array_exits_1(self, datasets, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text("[1, 2]")
        code, err = self.run_cli(datasets, tmp_path, capsys, "--config", str(config))
        assert (code, err) == (1, [f"error: {config}: expected a JSON object of run settings"])

    def test_config_file_holding_the_retired_warmup_key_exits_1(self, datasets, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"warmup": 30}))
        code, err = self.run_cli(datasets, tmp_path, capsys, "--config", str(config))
        assert (code, err) == (1, ["error: unknown config keys: ['warmup']"])
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "setting", [{"lambda_true": 11}, {"positions": {"sensor_2": "roof"}}],
        ids=["lambda_true", "positions"],
    )
    def test_config_file_holding_a_retired_metadata_key_exits_1(
        self, datasets, tmp_path, capsys, setting
    ):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(setting))  # such facts come from --metadata only
        code, err = self.run_cli(datasets, tmp_path, capsys, "--config", str(config))
        assert (code, err) == (1, [f"error: unknown config keys: {list(setting)}"])
        assert not (tmp_path / "out").exists()

    def test_truncated_metadata_exits_1_naming_it(self, datasets, tmp_path, capsys):
        meta = tmp_path / "metadata.json"
        meta.write_text('{"sensors": ')
        code, err = self.run_cli(datasets, tmp_path, capsys, "--metadata", str(meta))
        assert code == 1 and len(err) == 1, err
        assert err[0].startswith(f"error: {meta}: Expecting value"), err

    def test_report_shows_a_failed_sensor_row_and_exits_0(self, datasets, tmp_path, capsys):
        rows = (datasets / "damaged" / "data.csv").read_text().splitlines()
        fields = rows[1000].split(",")  # sample 1000 of sensor_2, in chunk 3
        fields[2] = "nan"
        rows[1000] = ",".join(fields)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(rows) + "\n")
        code, _ = self.run_cli(datasets, tmp_path, capsys, "--input", str(bad))
        assert code in (0, 2)
        assert cli.main(["report", "--run-dir", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out.splitlines()
        [row] = [line for line in out if " error: " in line]
        assert row.split()[:3] == ["2", "sensor_2", "error:"], row
        assert row.endswith(f"sensor 2 chunk 3: 1 of 400 samples are nan or inf (in {bad})"), row
