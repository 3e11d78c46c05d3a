"""Figure 1: the DeepMorph pipeline, benchmarked stage by stage and end to end.

The paper's Figure 1 is the system-overview diagram (instrument → learn
patterns → extract footprints → reason about defects); these benchmarks time
each stage of that pipeline plus the end-to-end diagnosis on a LeNet / UTD
scenario, so the cost profile of the figure's boxes is measurable.
"""

import pytest

from repro.core import (
    DeepMorph,
    FootprintExtractor,
    PatternLibrary,
    SoftmaxInstrumentedModel,
    find_faulty_cases,
)
from repro.data import SyntheticMNIST
from repro.defects import UnreliableTrainingData
from repro.models import LeNet
from repro.optim import Adam
from repro.training import Trainer


@pytest.fixture(scope="module")
def utd_scenario():
    """A trained LeNet with an injected UTD defect plus its data splits."""
    generator = SyntheticMNIST()
    train, production = generator.splits(60, 30, rng=0)
    corrupted, _ = UnreliableTrainingData(source_class=3, target_class=5, fraction=0.5).apply(
        train, rng=1
    )
    model = LeNet(input_shape=(1, 14, 14), num_classes=10, rng=7)
    Trainer(model, Adam(model.parameters(), lr=0.01), rng=2).fit(corrupted, epochs=10, batch_size=32)
    faulty_inputs, faulty_labels, _ = find_faulty_cases(model, production)
    return model, corrupted, production, faulty_inputs, faulty_labels


@pytest.fixture(scope="module")
def fitted_pipeline(utd_scenario):
    model, corrupted, _, _, _ = utd_scenario
    morph = DeepMorph(rng=3)
    morph.fit(model, corrupted)
    return morph


@pytest.mark.benchmark(group="figure1-pipeline")
def test_stage1_softmax_instrumentation(benchmark, utd_scenario):
    """Figure 1, stage 1: build + train the softmax-instrumented model."""
    model, corrupted, _, _, _ = utd_scenario

    def instrument():
        return SoftmaxInstrumentedModel(model, probe_epochs=12, rng=0).fit(corrupted)

    instrumented = benchmark.pedantic(instrument, rounds=1, iterations=1, warmup_rounds=0)
    benchmark.extra_info["num_probes"] = instrumented.num_layers
    assert instrumented.is_fitted


@pytest.mark.benchmark(group="figure1-pipeline")
def test_stage2_pattern_learning(benchmark, fitted_pipeline, utd_scenario):
    """Figure 1, stage 2: learn each class's execution pattern."""
    _, corrupted, _, _, _ = utd_scenario

    def learn():
        return PatternLibrary(fitted_pipeline.instrumented).fit(corrupted)

    library = benchmark.pedantic(learn, rounds=1, iterations=1, warmup_rounds=0)
    benchmark.extra_info["num_patterns"] = len(library.classes())
    assert library.is_fitted


@pytest.mark.benchmark(group="figure1-pipeline")
def test_stage3_footprint_extraction(benchmark, fitted_pipeline, utd_scenario):
    """Figure 1, stage 3: extract the faulty cases' data-flow footprints."""
    _, _, _, faulty_inputs, faulty_labels = utd_scenario
    extractor = FootprintExtractor(fitted_pipeline.instrumented)

    footprints = benchmark(extractor.extract, faulty_inputs, faulty_labels)
    benchmark.extra_info["num_faulty_cases"] = len(footprints)
    assert footprints


@pytest.mark.benchmark(group="figure1-pipeline")
def test_stage4_defect_reasoning(benchmark, fitted_pipeline, utd_scenario):
    """Figure 1, stage 4: score the footprint specifics and aggregate the report."""
    _, _, _, faulty_inputs, faulty_labels = utd_scenario
    footprints = fitted_pipeline.extract_footprints(faulty_inputs, faulty_labels).misclassified()
    specifics = fitted_pipeline.compute_specifics(footprints)
    classifier = fitted_pipeline.case_classifier
    context = classifier.build_context(
        specifics,
        num_classes=10,
        pattern_overlap=fitted_pipeline.patterns.pattern_overlap(),
        feature_quality=fitted_pipeline.patterns.feature_quality(),
        training_inconsistency=fitted_pipeline.patterns.training_inconsistency(),
    )

    report = benchmark(classifier.aggregate, specifics, context)
    benchmark.extra_info["ratios"] = {k.value: round(v, 4) for k, v in report.ratios.items()}


@pytest.mark.benchmark(group="figure1-pipeline")
def test_end_to_end_diagnosis(benchmark, utd_scenario):
    """Figure 1 end to end: fit DeepMorph and diagnose the production faulty cases."""
    model, corrupted, production, _, _ = utd_scenario

    def diagnose():
        morph = DeepMorph(rng=3)
        morph.fit(model, corrupted)
        return morph.diagnose_dataset(production)

    report = benchmark.pedantic(diagnose, rounds=1, iterations=1, warmup_rounds=0)
    benchmark.extra_info["dominant_defect"] = report.dominant_defect.value
    benchmark.extra_info["num_cases"] = report.num_cases
