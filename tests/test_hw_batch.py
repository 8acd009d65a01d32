"""Golden-equivalence suite for the batched FPGA estimation engine.

The contract of :mod:`repro.hw.batch` is bit-exactness: for every config,
``BatchedDNNEstimator.estimate_batch`` must reproduce the scalar
``DNNPerformanceModel`` estimate to *full float precision* — not within a
tolerance.  Journals, checkpoints and Pareto selections are byte-identical
between the two paths only because of this property, so every comparison in
this file uses ``==`` on raw floats, never ``pytest.approx``.
"""

from __future__ import annotations

import json
import random
import sys
import threading
from array import array

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.telemetry as telemetry
from repro.core.auto_dnn import AutoDNN
from repro.core.auto_hls import AutoHLS
from repro.core.bundle_generation import get_bundle
from repro.core.dnn_config import DNNConfig
from repro.detection.task import DAC_SDC_TASK, TINY_DETECTION_TASK
from repro.hw.analytical import (
    AnalyticalModelCoefficients,
    DEFAULT_COEFFICIENTS,
    DNNPerformanceModel,
    PerformanceEstimate,
)
import repro.hw.batch as batch_module
from repro.hw.batch import BatchedDNNEstimator, estimate_batch
from repro.detection.accuracy_model import SurrogateAccuracyModel
from repro.core.constraints import LatencyTarget
from repro.hw.device import PYNQ_Z1, ULTRA96, get_device, list_devices
from repro.hw.ip_library import default_ip_library
from repro.hw.workload import NetworkWorkload
from repro.hw.tile_arch import TileArchAccelerator
from repro.search import SearchSession
from repro.utils.serialization import to_jsonable

# A refit-style coefficient set: every knob off its default, so coefficient
# mix-ups between the paths cannot cancel out.
REFIT = AnalyticalModelCoefficients(
    alpha=1.17, beta=0.93, phi=1.41, ctl_gamma=0.8,
    gamma_lut=311.0, gamma_ff=207.0, gamma_bram=1.5,
)


@pytest.fixture
def fresh_stores(monkeypatch):
    """Empty process-wide statics stores for the duration of one test."""
    monkeypatch.setattr(batch_module, "_STORES", {})


def scalar_estimate(config, device, coefficients, clock_mhz, library=None) -> PerformanceEstimate:
    """The reference scalar path, exactly as AutoHLS.estimate runs it."""
    accelerator = TileArchAccelerator.build(
        config.to_workload(), device,
        parallel_factor=config.parallel_factor, clock_mhz=clock_mhz, library=library,
    )
    return DNNPerformanceModel(accelerator, coefficients).estimate()


def assert_bit_identical(batched: PerformanceEstimate, scalar: PerformanceEstimate):
    assert batched.latency_ms == scalar.latency_ms
    assert batched.compute_ms == scalar.compute_ms
    assert batched.data_movement_ms == scalar.data_movement_ms
    assert batched.resources.lut == scalar.resources.lut
    assert batched.resources.ff == scalar.resources.ff
    assert batched.resources.dsp == scalar.resources.dsp
    assert batched.resources.bram == scalar.resources.bram


def config_grid(task) -> list[DNNConfig]:
    """A deliberately heterogeneous batch: several bundles, replication
    counts, elastic Pi / X vectors, activations, bit widths and parallel
    factors, all mixed into one call."""
    configs = []
    cases = [
        # (bundle_id, reps, expansion, downsample, activation, wb, stem)
        (13, 2, (1.5, 1.5), (1, 1), "relu4", 8, 16),
        (13, 3, (1.2, 1.8, 1.4), (1, 0, 1), "relu", 8, 24),
        (1, 1, (2.0,), (1,), "relu8", 8, 16),
        (5, 2, (1.0, 2.0), (0, 1), "relu4", 16, 32),
        (9, 3, (1.5, 1.3, 1.1), (1, 1, 0), "relu8", 8, 48),
        (17, 2, (1.7, 1.6), (1, 1), "relu", 16, 16),
    ]
    for bundle_id, reps, expansion, downsample, activation, wb, stem in cases:
        for pf in (3, 4, 8, 16):
            configs.append(DNNConfig(
                bundle=get_bundle(bundle_id),
                task=task,
                num_repetitions=reps,
                channel_expansion=expansion,
                downsample=downsample,
                stem_channels=stem,
                activation=activation,
                weight_bits=wb,
                parallel_factor=pf,
                max_channels=64 if task is TINY_DETECTION_TASK else 512,
            ))
    return configs


class TestGoldenEquivalence:
    @pytest.mark.parametrize("device,clock_mhz", [
        (PYNQ_Z1, None),          # device default clock
        (PYNQ_Z1, 142.5),         # non-default clock
        (ULTRA96, None),
        (ULTRA96, 201.25),
    ])
    @pytest.mark.parametrize("coefficients", [DEFAULT_COEFFICIENTS, REFIT])
    def test_batch_matches_scalar_exactly(self, device, clock_mhz, coefficients):
        configs = config_grid(TINY_DETECTION_TASK)
        estimator = BatchedDNNEstimator(device)
        batched = estimator.estimate_batch(
            configs, coefficients=coefficients, clock_mhz=clock_mhz
        )
        clock = clock_mhz or device.default_clock_mhz
        assert len(batched) == len(configs)
        for config, estimate in zip(configs, batched):
            assert_bit_identical(
                estimate, scalar_estimate(config, device, coefficients, clock)
            )

    def test_full_resolution_task(self, device):
        # The DAC-SDC input resolution exercises different tile choices.
        configs = config_grid(DAC_SDC_TASK)[:8]
        batched = BatchedDNNEstimator(device).estimate_batch(configs)
        for config, estimate in zip(configs, batched):
            assert_bit_identical(
                estimate,
                scalar_estimate(
                    config, device, DEFAULT_COEFFICIENTS, device.default_clock_mhz
                ),
            )

    def test_empty_batch(self, device):
        assert BatchedDNNEstimator(device).estimate_batch([]) == []

    def test_single_config_batch(self, tiny_config, device):
        [estimate] = BatchedDNNEstimator(device).estimate_batch([tiny_config])
        assert_bit_identical(
            estimate,
            scalar_estimate(
                tiny_config, device, DEFAULT_COEFFICIENTS, device.default_clock_mhz
            ),
        )

    def test_statics_cache_survives_coefficient_refit(self, tiny_config, device):
        # One estimator instance, two coefficient fits and two clocks: the
        # cached group statics must not leak anything coefficient- or
        # clock-dependent between calls.
        estimator = BatchedDNNEstimator(device)
        estimator.estimate_batch([tiny_config])  # warm the caches
        for coefficients, clock in [(REFIT, 87.5), (DEFAULT_COEFFICIENTS, None)]:
            resolved = clock or device.default_clock_mhz
            [estimate] = estimator.estimate_batch(
                [tiny_config], coefficients=coefficients, clock_mhz=clock
            )
            assert_bit_identical(
                estimate, scalar_estimate(tiny_config, device, coefficients, resolved)
            )

    def test_duplicate_configs_share_one_group(self, tiny_config, device, fresh_stores):
        estimator = BatchedDNNEstimator(device)
        results = estimator.estimate_batch([tiny_config, tiny_config, tiny_config])
        assert results[0] == results[1] == results[2]
        assert len(estimator._store) == 1

    def test_module_level_convenience(self, tiny_config, device):
        [estimate] = estimate_batch([tiny_config], device, clock_mhz=120.0)
        assert_bit_identical(
            estimate, scalar_estimate(tiny_config, device, DEFAULT_COEFFICIENTS, 120.0)
        )

    @given(
        bundle_id=st.sampled_from([1, 4, 8, 13, 18]),
        reps=st.integers(min_value=1, max_value=4),
        expansion=st.sampled_from([1.0, 1.2, 1.5, 1.7, 2.0]),
        downsample_bit=st.integers(min_value=0, max_value=1),
        stem=st.sampled_from([16, 32, 48]),
        activation=st.sampled_from(["relu", "relu4", "relu8"]),
        weight_bits=st.sampled_from([8, 16]),
        pf=st.sampled_from([1, 2, 3, 5, 8, 16, 32]),
    )
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_config_property(
        self, bundle_id, reps, expansion, downsample_bit, stem, activation,
        weight_bits, pf,
    ):
        config = DNNConfig(
            bundle=get_bundle(bundle_id),
            task=TINY_DETECTION_TASK,
            num_repetitions=reps,
            channel_expansion=(expansion,) * reps,
            downsample=(downsample_bit,) * reps,
            stem_channels=stem,
            activation=activation,
            weight_bits=weight_bits,
            parallel_factor=pf,
            max_channels=64,
        )
        [estimate] = BatchedDNNEstimator(PYNQ_Z1).estimate_batch([config])
        assert_bit_identical(
            estimate,
            scalar_estimate(
                config, PYNQ_Z1, DEFAULT_COEFFICIENTS, PYNQ_Z1.default_clock_mhz
            ),
        )


class TestEstimatorInternals:
    def test_workload_for_is_cached(self, tiny_config, device):
        estimator = BatchedDNNEstimator(device)
        workload = estimator.workload_for(tiny_config)
        assert workload is estimator.workload_for(tiny_config)
        reference = tiny_config.to_workload()
        assert workload.total_macs == reference.total_macs
        assert len(workload.layers) == len(reference.layers)

    def test_group_key_ignores_parallel_factor_and_name(
        self, bundle13, tiny_task, device, fresh_stores
    ):
        base = dict(
            bundle=bundle13, task=tiny_task, num_repetitions=2,
            channel_expansion=(1.5, 1.5), downsample=(1, 1),
            stem_channels=16, max_channels=64,
        )
        estimator = BatchedDNNEstimator(device)
        estimator.estimate_batch([
            DNNConfig(parallel_factor=4, name="a", **base),
            DNNConfig(parallel_factor=16, name="b", **base),
        ])
        assert len(estimator._store) == 1

    def test_telemetry_counters(self, tiny_config, device):
        telemetry.disable()
        reg = telemetry.enable()
        try:
            BatchedDNNEstimator(device).estimate_batch([tiny_config, tiny_config])
            assert reg.counter("hw.estimate.count").value == 2
            assert reg.counter("hw.estimate.batch.calls").value == 1
        finally:
            telemetry.disable()


class TestResourcesHoistRegression:
    def test_bundle_resources_computed_once_per_estimate(self, tiny_config, device, monkeypatch):
        # Eq. 1 does not depend on the layer group being scored, so one
        # estimate() must evaluate BundlePerformanceModel.resources exactly
        # once — not once per bundle group (the pre-fix behaviour).
        from repro.hw.analytical import BundlePerformanceModel, bundle_layer_groups

        calls = {"resources": 0}
        original = BundlePerformanceModel.resources

        def counting(self):
            calls["resources"] += 1
            return original(self)

        monkeypatch.setattr(BundlePerformanceModel, "resources", counting)
        accelerator = TileArchAccelerator.build(
            tiny_config.to_workload(), device,
            parallel_factor=tiny_config.parallel_factor,
        )
        model = DNNPerformanceModel(accelerator)
        num_groups = len(bundle_layer_groups(accelerator.workload))
        assert num_groups >= 2, "test needs a multi-group workload to be meaningful"
        model.estimate()
        assert calls["resources"] == 1


CATALOGUE = [get_device(name) for name in list_devices()]
PARALLEL_FACTORS = (4, 8, 16, 32, 64, 128, 256)


def structures(task=TINY_DETECTION_TASK) -> list[DNNConfig]:
    """One config per distinct structure of the heterogeneous grid."""
    return [config for config in config_grid(task) if config.parallel_factor == 4]


def interleaved_grid() -> list[DNNConfig]:
    """Every structure at PF 4..256, shuffled so groups interleave.

    A few full-resolution structures join the tiny ones: only there do
    layers span several tiles, so a reuse count other than 1 is exercised.
    """
    mixed = structures() + structures(DAC_SDC_TASK)[:3]
    configs = [
        config.with_updates(parallel_factor=pf)
        for config in mixed for pf in PARALLEL_FACTORS
    ]
    random.Random(7).shuffle(configs)
    return configs


@pytest.fixture(scope="module")
def refit_coefficients():
    """Coefficients refit by Auto-HLS sampling, per catalogue device."""
    samples = [config.to_workload() for config in structures()[:2]]
    fitted = {}
    for device in CATALOGUE:
        engine = AutoHLS(device)
        engine.fit_models(samples)
        assert engine.coefficients != DEFAULT_COEFFICIENTS
        fitted[device.name] = engine.coefficients
    return fitted


class TestGoldenCatalogue:
    """Engine == scalar model on every device, clock, fit and PF."""

    @pytest.mark.parametrize("device", CATALOGUE, ids=lambda d: d.name)
    @pytest.mark.parametrize("clock", ["default", "max"])
    @pytest.mark.parametrize("refit", [False, True], ids=["default-fit", "refit"])
    def test_mixed_batches_and_batches_of_one(
        self, device, clock, refit, refit_coefficients, fresh_stores
    ):
        coefficients = refit_coefficients[device.name] if refit else DEFAULT_COEFFICIENTS
        clock_mhz = device.default_clock_mhz if clock == "default" else device.max_clock_mhz
        configs = interleaved_grid()
        estimator = BatchedDNNEstimator(device)
        cold = estimator.estimate_batch(configs, coefficients, clock_mhz)
        singles = [
            estimator.estimate_batch([config], coefficients, clock_mhz)[0]
            for config in configs
        ]
        for config, batched, single in zip(configs, cold, singles):
            scalar = scalar_estimate(config, device, coefficients, clock_mhz)
            assert_bit_identical(batched, scalar)
            assert_bit_identical(single, scalar)

    def test_results_survive_forced_eviction(self, monkeypatch, fresh_stores):
        configs = interleaved_grid()
        reference = BatchedDNNEstimator(ULTRA96).estimate_batch(configs, REFIT, 201.25)
        monkeypatch.setattr(batch_module, "_STORES", {})
        monkeypatch.setattr(batch_module, "_STORE_CAPACITY", 2)
        estimator = BatchedDNNEstimator(ULTRA96)
        # Nine interleaved groups through a two-entry store: nearly every
        # config evicts a group and rebuilds its own.
        for _ in range(2):
            evicted = estimator.estimate_batch(configs, REFIT, 201.25)
            assert len(estimator._store) == 2
            assert evicted == reference
        for config, estimate in zip(configs, evicted):
            assert_bit_identical(
                estimate, scalar_estimate(config, ULTRA96, REFIT, 201.25)
            )


def _walk(value):
    """Every object reachable through containers from ``value``."""
    yield value
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _walk(key)
            yield from _walk(item)
    elif isinstance(value, (list, tuple, set, frozenset)):
        for item in value:
            yield from _walk(item)
    elif hasattr(value, "__slots__"):
        for name in value.__slots__:
            yield from _walk(getattr(value, name))


class TestStatisticsStore:
    def test_store_never_exceeds_capacity(self, monkeypatch, fresh_stores):
        monkeypatch.setattr(batch_module, "_STORE_CAPACITY", 3)
        estimator = BatchedDNNEstimator(PYNQ_Z1)
        for config in interleaved_grid():
            estimator.estimate_batch([config])
            assert len(estimator._store) <= 3
        assert len(estimator._store) == 3

    def test_least_recently_used_group_is_evicted(self, monkeypatch, fresh_stores):
        monkeypatch.setattr(batch_module, "_STORE_CAPACITY", 2)
        first, second, third = structures()[:3]
        estimator = BatchedDNNEstimator(PYNQ_Z1)
        estimator.estimate_batch([first, second, first, third])
        keys = list(estimator._store._entries)
        assert keys == [first.structure_key, third.structure_key]

    def test_store_holds_rows_only(self, fresh_stores):
        estimator = BatchedDNNEstimator(PYNQ_Z1)
        estimator.estimate_batch(interleaved_grid())
        assert estimator.workload_for(structures()[0]) is not None
        entries = estimator._store._entries
        assert len(entries) == len(structures()) + 3
        for key, statics in entries.items():
            for value in _walk((key, statics)):
                assert not isinstance(value, (NetworkWorkload, np.ndarray))
            assert isinstance(statics.layers, array)
            assert isinstance(statics.instances, array)

    def test_estimators_of_one_device_share_a_store(self, fresh_stores):
        config = structures()[0]
        BatchedDNNEstimator(PYNQ_Z1).estimate_batch([config])
        other = BatchedDNNEstimator(PYNQ_Z1)
        assert config.structure_key in other._store._entries
        assert other._store is not BatchedDNNEstimator(ULTRA96)._store

    def test_custom_library_never_shares_default_entries(self, fresh_stores):
        library = default_ip_library()
        slow = library.get("conv3x3")
        library.register(type(slow)(**{**slow.__dict__, "efficiency": 0.07}))
        configs = interleaved_grid()
        default = BatchedDNNEstimator(PYNQ_Z1)
        custom = BatchedDNNEstimator(PYNQ_Z1, library=library)
        assert custom._store is not default._store
        default_results = default.estimate_batch(configs)
        assert len(custom._store) == 0
        custom_results = custom.estimate_batch(configs)
        assert custom_results != default_results
        for config, estimate in zip(configs, custom_results):
            assert_bit_identical(
                estimate,
                scalar_estimate(
                    config, PYNQ_Z1, DEFAULT_COEFFICIENTS,
                    PYNQ_Z1.default_clock_mhz, library=library,
                ),
            )


class TestWorkerThreads:
    def test_store_stress_under_thread_switching(self, monkeypatch, fresh_stores):
        # More threads than cores, a tiny store and a short switch interval:
        # lookups, builds, inserts and evictions interleave constantly.
        monkeypatch.setattr(batch_module, "_STORE_CAPACITY", 3)
        configs = interleaved_grid()
        reference = [
            scalar_estimate(config, PYNQ_Z1, DEFAULT_COEFFICIENTS, PYNQ_Z1.default_clock_mhz)
            for config in configs
        ]
        estimator = BatchedDNNEstimator(PYNQ_Z1)
        results: dict[int, list] = {}

        def worker(seed: int) -> None:
            order = list(range(len(configs)))
            random.Random(seed).shuffle(order)
            got = [None] * len(configs)
            for _ in range(3):
                for index in order:
                    [got[index]] = estimator.estimate_batch([configs[index]])
            results[seed] = got

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(results) == list(range(8))
        for got in results.values():
            assert got == reference
        assert len(estimator._store) <= 3

    @pytest.mark.parametrize("strategy", ["evolutionary", "random"])
    def test_threaded_search_journal_matches_serial(self, strategy, monkeypatch):
        def journal(workers: int) -> str:
            # A cold store per run, so the worker threads race to build,
            # insert and evict the same groups.
            monkeypatch.setattr(batch_module, "_STORES", {})
            monkeypatch.setattr(batch_module, "_STORE_CAPACITY", 8)
            session = SearchSession(name="threads")
            auto_dnn = AutoDNN(
                task=TINY_DETECTION_TASK, device=PYNQ_Z1, auto_hls=AutoHLS(PYNQ_Z1),
                accuracy_model=SurrogateAccuracyModel(noise=0.0),
                stem_channels=16, max_channels=128, rng=3, strategy=strategy,
                workers=workers, session=session,
            )
            try:
                auto_dnn.search(
                    [get_bundle(13), get_bundle(5)],
                    [LatencyTarget(fps=150.0, tolerance_ms=3.0)],
                    activations=("relu4",), num_candidates=2, max_iterations=80,
                )
            finally:
                auto_dnn.close()
            return json.dumps(to_jsonable(session.as_dict()), sort_keys=True)

        assert journal(workers=4) == journal(workers=1)
