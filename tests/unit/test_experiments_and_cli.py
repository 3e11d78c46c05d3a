"""Tests for the experiment harness configuration, Table 1 plumbing, and the CLI."""

import json

import numpy as np
import pytest

from repro.cli import diagnose as cli_diagnose
from repro.cli import inject as cli_inject
from repro.cli import serve as cli_serve
from repro.cli import table1 as cli_table1
from repro.cli import train as cli_train
from repro.core import DefectClassifierConfig
from repro.defects import DefectType
from repro.exceptions import ConfigurationError, ExperimentError, ServeError
from repro.experiments import (
    MODEL_DATASETS,
    PAPER_TABLE1,
    ExperimentSettings,
    fit_weights,
    model_hyperparameters,
    preset,
)
from repro.experiments.calibrate import CalibrationExample, describe_weights
from repro.experiments.config import PRESETS
from repro.experiments.runner import make_dataset, make_model
from repro.experiments.table1 import Table1Result, Table1Row, format_table1
from repro.serve import ArtifactRegistry


SMOKE = preset("smoke")


class TestExperimentSettings:
    def test_defaults_are_valid(self):
        settings = ExperimentSettings()
        assert settings.model in MODEL_DATASETS

    def test_for_model_switches_dataset(self):
        settings = ExperimentSettings().for_model("resnet")
        assert settings.model == "resnet"
        assert settings.dataset == "cifar"

    def test_with_seed(self):
        assert ExperimentSettings().with_seed(5).seed == 5

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ExperimentSettings(dataset="imagenet")
        with pytest.raises(ConfigurationError):
            ExperimentSettings(model="vgg")
        with pytest.raises(ConfigurationError):
            ExperimentSettings(epochs=0)

    def test_presets_exist(self):
        assert set(PRESETS) == {"default", "quick", "smoke", "paper"}
        with pytest.raises(ConfigurationError):
            preset("gigantic")

    def test_model_hyperparameters_cover_all_models(self):
        for model in MODEL_DATASETS:
            assert model_hyperparameters(model)
            assert model_hyperparameters(model, scale="paper")
        with pytest.raises(ConfigurationError):
            model_hyperparameters("vgg")

    def test_paper_scale_resnet_is_resnet34_layout(self):
        assert model_hyperparameters("resnet", scale="paper")["block_counts"] == [3, 4, 6, 3]
        assert model_hyperparameters("densenet", scale="paper")["units_per_block"] == [12, 12, 12]


class TestRunnerPlumbing:
    def test_make_dataset_shapes(self):
        _, train, test = make_dataset(SMOKE)
        assert train.input_shape == (1, 14, 14)
        assert train.num_classes == 10
        assert len(train) == SMOKE.train_per_class * 10
        assert len(test) == SMOKE.test_per_class * 10

    def test_make_dataset_is_deterministic(self):
        _, train_a, _ = make_dataset(SMOKE)
        _, train_b, _ = make_dataset(SMOKE)
        np.testing.assert_allclose(train_a.inputs, train_b.inputs)

    def test_make_model_matches_dataset(self):
        model = make_model(SMOKE.for_model("resnet"))
        assert model.kind == "resnet"
        assert model.input_shape == (3, 16, 16)


class TestTable1Structures:
    def test_paper_table_has_all_twelve_cells(self):
        assert len(PAPER_TABLE1) == 12
        for (model, defect), ratios in PAPER_TABLE1.items():
            assert model in MODEL_DATASETS
            assert defect in {"itd", "utd", "sd"}
            assert len(ratios) == 3

    def test_paper_table_is_diagonally_dominant(self):
        order = ["itd", "utd", "sd"]
        for (model, defect), ratios in PAPER_TABLE1.items():
            assert int(np.argmax(ratios)) == order.index(defect)

    def test_row_and_result_helpers(self):
        row = Table1Row(
            model="lenet",
            dataset="mnist",
            injected_defect=DefectType.ITD,
            ratios={DefectType.ITD: 0.6, DefectType.UTD: 0.25, DefectType.SD: 0.15},
            dominant_defect=DefectType.ITD,
            test_accuracy=0.8,
            num_faulty_cases=40,
        )
        assert row.diagonal_correct
        assert row.paper_ratios() == PAPER_TABLE1[("lenet", "itd")]
        result = Table1Result(rows=[row])
        assert result.diagonal_accuracy == 1.0
        assert result.row("lenet", "itd") is row
        with pytest.raises(KeyError):
            result.row("lenet", "utd")
        rendered = format_table1(result)
        assert "lenet" in rendered and "diagonal dominance" in rendered

    def test_run_table1_rejects_unknown_model(self):
        from repro.experiments import run_table1

        with pytest.raises(ExperimentError):
            run_table1(models=["vgg"], settings=SMOKE)

    def test_run_table1_rejects_invalid_jobs(self):
        from repro.experiments import run_table1

        for jobs in (0, -3):
            with pytest.raises(ExperimentError, match="jobs must be >= 1"):
                run_table1(models=["lenet"], defects=["itd"], settings=SMOKE, jobs=jobs)

    def test_run_table1_parallel_matches_serial_bitwise(self):
        """Per-cell seed derivation makes the pool a pure throughput knob."""
        from repro.experiments import run_table1

        serial = run_table1(
            models=["lenet"], defects=["itd", "utd"], settings=SMOKE, jobs=1
        )
        parallel = run_table1(
            models=["lenet"], defects=["itd", "utd"], settings=SMOKE, jobs=2
        )
        assert len(serial.rows) == len(parallel.rows) == 2
        for serial_row, parallel_row in zip(serial.rows, parallel.rows):
            assert serial_row.model == parallel_row.model
            assert serial_row.injected_defect == parallel_row.injected_defect
            for defect, ratio in serial_row.ratios.items():
                assert parallel_row.ratios[defect] == ratio  # bitwise
            assert serial_row.test_accuracy == parallel_row.test_accuracy
            assert serial_row.num_faulty_cases == parallel_row.num_faulty_cases


class TestCalibrationFit:
    def test_fit_weights_separates_synthetic_clusters(self):
        from repro.core import FEATURE_NAMES

        rng = np.random.default_rng(0)
        num_features = len(FEATURE_NAMES)
        examples = []
        for label_index, defect in enumerate([DefectType.ITD, DefectType.UTD, DefectType.SD]):
            center = np.zeros(num_features)
            center[1 + label_index] = 3.0
            for _ in range(30):
                features = center + rng.normal(0, 0.1, size=num_features)
                features[0] = 1.0
                examples.append(CalibrationExample(features=features, label=defect, model="lenet"))
        config, metrics = fit_weights(examples, epochs=150)
        assert isinstance(config, DefectClassifierConfig)
        assert metrics["train_accuracy"] > 0.95
        assert "feature_quality" in describe_weights(config)

    def test_fit_weights_rejects_empty(self):
        with pytest.raises(ExperimentError):
            fit_weights([])


class TestCli:
    def test_train_and_diagnose_cli_round_trip(self, tmp_path, capsys):
        model_path = tmp_path / "model.npz"
        exit_code = cli_train.main([
            "--preset", "smoke", "--model", "lenet", "--output", str(model_path),
        ])
        assert exit_code == 0
        assert model_path.exists()

        report_path = tmp_path / "report.json"
        exit_code = cli_diagnose.main([
            "--preset", "smoke", "--model", "lenet",
            "--model-file", str(model_path), "--report", str(report_path),
        ])
        assert exit_code == 0
        assert report_path.exists()
        payload = json.loads(report_path.read_text())
        assert set(payload["ratios"]) == {"itd", "utd", "sd"}
        captured = capsys.readouterr()
        assert "dominant defect" in captured.out

    def test_inject_cli_json_output(self, capsys):
        exit_code = cli_inject.main([
            "--preset", "smoke", "--model", "lenet", "--defect", "utd", "--json",
        ])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["injected_defect"] == "utd"
        assert payload["model"] == "lenet"

    def test_table1_cli_single_cell(self, tmp_path, capsys):
        json_path = tmp_path / "table1.json"
        exit_code = cli_table1.main([
            "--preset", "smoke", "--models", "lenet", "--defects", "utd",
            "--json", str(json_path),
        ])
        assert exit_code == 0
        payload = json.loads(json_path.read_text())
        assert len(payload["rows"]) == 1
        assert "diagonal dominance" in capsys.readouterr().out

    def test_table1_cli_jobs_flag(self, tmp_path, capsys):
        args = cli_table1.build_parser().parse_args(["--jobs", "2"])
        assert args.jobs == 2
        assert cli_table1.build_parser().parse_args([]).jobs == 1

        json_path = tmp_path / "table1_jobs.json"
        exit_code = cli_table1.main([
            "--preset", "smoke", "--models", "lenet", "--defects", "itd", "utd",
            "--jobs", "2", "--json", str(json_path),
        ])
        assert exit_code == 0
        payload = json.loads(json_path.read_text())
        assert len(payload["rows"]) == 2
        capsys.readouterr()

    def test_table1_cli_rejects_invalid_jobs(self):
        with pytest.raises(ExperimentError, match="jobs must be >= 1"):
            cli_table1.main([
                "--preset", "smoke", "--models", "lenet", "--defects", "utd",
                "--jobs", "0",
            ])

    @pytest.fixture
    def handed(self, monkeypatch):
        """What ``repro-serve`` hands to the gateway, recorded instead of served."""
        handed = {}

        def fake_serve(pool, **kwargs):
            handed.update(pool=pool, **kwargs)

        monkeypatch.setattr(cli_serve, "serve_gateway_forever", fake_serve)
        return handed

    def test_serve_cli_hands_a_pool_to_the_gateway(self, tmp_path, handed):
        exit_code = cli_serve.main([
            "--registry", str(tmp_path), "--port", "0",
            "--replicas", "1", "--wire-codec", "binary",
        ])
        assert exit_code == 0
        pool = handed["pool"]
        assert pool.num_replicas == 1
        assert handed["default_codec"] == "binary"
        assert handed["port"] == 0
        with pytest.raises(ServeError, match="closed"):
            pool.acquire()

    def test_serve_cli_pool_defaults(self, tmp_path, handed):
        assert cli_serve.main(["--registry", str(tmp_path)]) == 0
        pool = handed["pool"]
        assert pool.num_replicas == 2
        assert pool.max_queue_per_replica == 8
        assert pool.max_inflight == 16  # replicas * max-queue-per-replica
        assert (handed["host"], handed["port"]) == ("127.0.0.1", 8421)
        assert handed["default_codec"] == "json"

    def test_serve_cli_projects_service_flags_onto_every_replica(self, tmp_path, handed):
        assert cli_serve.main([
            "--registry", str(tmp_path), "--port", "0",
            "--replicas", "2", "--max-inflight", "3",
            "--max-batch-cases", "32",
            "--inference-dtype", "float64", "--monitor",
        ]) == 0
        pool = handed["pool"]
        assert pool.max_inflight == 3
        assert len(pool.replicas) == 2
        for service in pool.replicas:
            assert service.engine.max_batch_cases == 32
            assert service.inference_dtype.name == "float64"
            assert service.monitor is not None

    def test_serve_cli_closes_the_pool_when_serving_fails(self, tmp_path, monkeypatch):
        handed = {}

        def failing_serve(pool, **kwargs):
            handed["pool"] = pool
            raise OSError("address already in use")

        monkeypatch.setattr(cli_serve, "serve_gateway_forever", failing_serve)
        with pytest.raises(OSError, match="address already in use"):
            cli_serve.main(["--registry", str(tmp_path), "--replicas", "1"])
        with pytest.raises(ServeError, match="closed"):
            handed["pool"].acquire()

    def test_serve_cli_list_prints_the_registry_without_serving(
        self, tmp_path, handed, fitted_deepmorph, capsys
    ):
        assert cli_serve.main(["--registry", str(tmp_path), "--list"]) == 0
        assert "is empty" in capsys.readouterr().out
        ArtifactRegistry(tmp_path).register("tiny", fitted_deepmorph)
        assert cli_serve.main(["--registry", str(tmp_path), "--list"]) == 0
        assert "tiny@v1" in capsys.readouterr().out
        assert handed == {}
