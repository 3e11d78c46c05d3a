"""Micro-benchmarks of the substrate and ablations of DeepMorph's design knobs.

These are not paper figures; they quantify the cost of the building blocks
(training throughput, probe inference, footprint statistics) and the effect of
DeepMorph's design knobs: soft vs. hard evidence assignment
(``DefectClassifierConfig.soft_assignment``) and late-layer emphasis.
"""

import numpy as np
import pytest

from repro.core import DeepMorph, DefectClassifierConfig, find_faulty_cases
from repro.data import SyntheticMNIST
from repro.defects import InsufficientTrainingData
from repro.models import LeNet, ResNet
from repro.optim import Adam
from repro.training import Trainer


@pytest.fixture(scope="module")
def mnist_batch():
    generator = SyntheticMNIST()
    data = generator.sample(20, rng=0)
    return data.inputs, data.labels


@pytest.fixture(scope="module")
def itd_scenario():
    generator = SyntheticMNIST()
    train, production = generator.splits(50, 25, rng=0)
    starved, _ = InsufficientTrainingData(affected_classes=[1, 4, 7], keep_fraction=0.1).apply(
        train, rng=1
    )
    model = LeNet(input_shape=(1, 14, 14), num_classes=10, rng=7)
    Trainer(model, Adam(model.parameters(), lr=0.01), rng=2).fit(starved, epochs=8, batch_size=32)
    return model, starved, production


@pytest.mark.benchmark(group="micro-substrate")
def test_lenet_forward_throughput(benchmark, mnist_batch):
    inputs, _ = mnist_batch
    model = LeNet(input_shape=(1, 14, 14), num_classes=10, rng=0)
    model.eval()
    benchmark(model.forward, inputs)
    benchmark.extra_info["batch_size"] = int(inputs.shape[0])


@pytest.mark.benchmark(group="micro-substrate")
def test_resnet_forward_throughput(benchmark):
    model = ResNet(input_shape=(3, 16, 16), num_classes=10, base_channels=12,
                   block_counts=(2, 2, 2), rng=0)
    model.eval()
    inputs = np.random.default_rng(0).random((64, 3, 16, 16))
    benchmark(model.forward, inputs)
    benchmark.extra_info["batch_size"] = 64


@pytest.mark.benchmark(group="micro-substrate")
def test_lenet_training_step(benchmark, mnist_batch):
    inputs, labels = mnist_batch
    model = LeNet(input_shape=(1, 14, 14), num_classes=10, rng=0)
    trainer = Trainer(model, Adam(model.parameters(), lr=0.01), rng=0)
    benchmark(trainer.train_step, inputs[:32], labels[:32])


@pytest.mark.benchmark(group="micro-deepmorph")
def test_footprint_extraction_throughput(benchmark, itd_scenario, mnist_batch):
    model, starved, _ = itd_scenario
    inputs, labels = mnist_batch
    morph = DeepMorph(probe_epochs=6, rng=0)
    morph.fit(model, starved)
    benchmark(morph.extract_footprints, inputs, labels)
    benchmark.extra_info["num_inputs"] = int(inputs.shape[0])


@pytest.mark.benchmark(group="ablation-classifier")
@pytest.mark.parametrize("soft_assignment", [True, False], ids=["soft-evidence", "hard-votes"])
def test_ablation_soft_vs_hard_assignment(benchmark, itd_scenario, soft_assignment):
    """Ablation: soft evidence aggregation vs. hard per-case votes.

    Both variants must still rank the injected ITD defect first; the recorded
    ratios show how much smoother the soft assignment is.
    """
    model, starved, production = itd_scenario
    faulty_inputs, faulty_labels, _ = find_faulty_cases(model, production)
    config = DefectClassifierConfig(soft_assignment=soft_assignment)
    morph = DeepMorph(probe_epochs=6, classifier_config=config, rng=0)
    morph.fit(model, starved)

    report = benchmark.pedantic(
        morph.diagnose, args=(faulty_inputs, faulty_labels), rounds=1, iterations=1,
        warmup_rounds=0,
    )
    benchmark.extra_info["ratios"] = {k.value: round(v, 4) for k, v in report.ratios.items()}
    benchmark.extra_info["dominant"] = report.dominant_defect.value


@pytest.mark.benchmark(group="ablation-classifier")
@pytest.mark.parametrize("emphasis", [0.0, 0.5, 1.0], ids=["uniform", "default", "late-heavy"])
def test_ablation_late_layer_emphasis(benchmark, itd_scenario, emphasis):
    """Ablation: how strongly pattern matching weights the later hidden layers."""
    model, starved, production = itd_scenario
    faulty_inputs, faulty_labels, _ = find_faulty_cases(model, production)
    morph = DeepMorph(probe_epochs=6, late_layer_emphasis=emphasis, rng=0)
    morph.fit(model, starved)

    report = benchmark.pedantic(
        morph.diagnose, args=(faulty_inputs, faulty_labels), rounds=1, iterations=1,
        warmup_rounds=0,
    )
    benchmark.extra_info["late_layer_emphasis"] = emphasis
    benchmark.extra_info["ratios"] = {k.value: round(v, 4) for k, v in report.ratios.items()}
