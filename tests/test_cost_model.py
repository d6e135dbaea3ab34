"""Analytic MAC model vs the instrumented counter, timing harness, sweep IO."""

import itertools
import json
import time

import numpy as np
import pytest

from stochpool.attention import _blas_pinned_to_one_thread, _openblas_threads
from stochpool.cost_model import (
    CSV_HEADER,
    RETAKES,
    CostReport,
    analytic_cost,
    analytic_cost_dataset,
    instrumented_macs,
    measure,
    sweep,
    write_csv,
    write_json,
)
from stochpool.data import SineFeatureDataset
from stochpool.encoder import EncoderConfig, EncoderModel, preset
from stochpool.errors import ConfigError, InputError
from stochpool.stochastic import fixed_config

STANDARD = [(1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2)]


class TestAnalyticFormulas:
    def test_attention_scores_instantiation(self):
        # T'=100, E=64, s_q=s_k=1, one layer: 2*100*100*64
        enc = EncoderConfig(model_dim=64, depth=1, heads=4)
        report = analytic_cost(fixed_config(1, 1, 1, 1), enc, 100)
        assert report.macs_attn_scores == 2 * 100 * 100 * 64 == 1_280_000

    def test_quarter_scaling_with_both_pools(self):
        enc = EncoderConfig(model_dim=64, depth=1, heads=4)
        base = analytic_cost(fixed_config(1, 1, 1, 1), enc, 100).macs_attn_scores
        pooled = analytic_cost(fixed_config(1, 2, 2, 1), enc, 100).macs_attn_scores
        assert pooled * 4 == base  # N even: exactly one quarter

    def test_total_is_sum_of_parts(self):
        enc = preset("tiny")
        report = analytic_cost(fixed_config(2, 2, 2, enc.depth), enc, 50, from_audio=True)
        parts = (report.macs_fe + report.macs_attn_proj + report.macs_attn_scores
                 + report.macs_ffn + report.macs_upsample)
        assert report.macs_total == parts

    def test_upsample_head_only_when_squeezing(self):
        enc = preset("tiny")
        assert analytic_cost(fixed_config(1, 2, 2, 2), enc, 50).macs_upsample == 0
        # the head runs on the T' = 25 squeezed rows, before the upsample
        assert analytic_cost(fixed_config(2, 1, 1, 2), enc, 50).macs_upsample == 25 * 64 * 64

    def test_per_layer_factors_attributed_individually(self):
        enc = preset("tiny")
        from stochpool.stochastic import CompressionConfig

        mixed = CompressionConfig(1, ((1, 1), (2, 2)))
        report = analytic_cost(mixed, enc, 40)
        want = 2 * 40 * 40 * 64 + 2 * 20 * 20 * 64
        assert report.macs_attn_scores == want

    def test_factor_ceiling_checked(self):
        enc = preset("tiny")
        with pytest.raises(ConfigError):
            analytic_cost(fixed_config(4, 1, 1, enc.depth), enc, 50)


class TestInstrumentedOracle:
    def test_exact_match_all_tiny_configs(self):
        # at 51 and 53 frames T' and the pooled lengths are odd, so both ceilings
        # of n = ceil(ceil(T/s_f)/s) bite
        model = EncoderModel(preset("tiny"), seed=0)
        buckets = ("fe", "attn_proj", "attn_scores", "ffn", "upsample")
        for frames in (50, 51, 53):
            for s_f, s_k, s_q in itertools.product((1, 2), repeat=3):
                config = fixed_config(s_f, s_k, s_q, model.config.depth)
                for from_audio in (False, True):
                    where = f"{s_f}-{s_k}-{s_q} T={frames} from_audio={from_audio}"
                    analytic = analytic_cost(config, model.config, frames, from_audio=from_audio)
                    counted = instrumented_macs(model, config, frames, from_audio=from_audio)
                    assert analytic.macs_total == counted.total, where
                    want = {b: getattr(analytic, f"macs_{b}") for b in buckets}
                    got = {b: counted.by_scope.get(b, 0) for b in buckets}
                    assert got == want and set(counted.by_scope) <= set(buckets), where

    def test_buckets_match_counter_scopes(self):
        model = EncoderModel(preset("tiny"), seed=0)
        config = fixed_config(2, 2, 1, model.config.depth)
        analytic = analytic_cost(config, model.config, 50, from_audio=True)
        counted = instrumented_macs(model, config, 50, from_audio=True)
        assert counted.by_scope["fe"] == analytic.macs_fe
        assert counted.by_scope["attn_proj"] == analytic.macs_attn_proj
        assert counted.by_scope["attn_scores"] == analytic.macs_attn_scores
        assert counted.by_scope["ffn"] == analytic.macs_ffn
        assert counted.by_scope["upsample"] == analytic.macs_upsample


class TestMonotonicity:
    def test_non_increasing_in_each_factor(self):
        enc = EncoderConfig(model_dim=64, depth=2, heads=4,
                            max_squeeze=4, max_kv_pool=4, max_q_pool=4)
        for frames in (50, 100, 1000):
            for axis in range(3):
                previous = None
                for value in (1, 2, 3, 4):
                    triplet = [1, 1, 1]
                    triplet[axis] = value
                    total = analytic_cost(fixed_config(*triplet, 2), enc, frames).macs_total
                    if previous is not None:
                        assert total <= previous, f"axis {axis} value {value} T={frames}"
                    previous = total

    def test_standard_sweep_strictly_decreasing(self):
        enc = preset("tiny")
        totals = [analytic_cost(fixed_config(*t, enc.depth), enc, 50).macs_total
                  for t in STANDARD]
        assert all(a > b for a, b in zip(totals, totals[1:]))


class TestMeasure:
    def test_repeats_validated(self):
        model = EncoderModel(preset("tiny"), seed=0)
        ds = SineFeatureDataset(1, 64, seed=0, min_frames=20, max_frames=20)
        with pytest.raises(ConfigError):
            measure(model, [fixed_config(1, 1, 1, 2)], ds, repeats=2)

    def test_median_within_min_max(self):
        model = EncoderModel(preset("tiny"), seed=0)
        ds = SineFeatureDataset(2, 64, seed=0, min_frames=30, max_frames=30)
        (report,) = measure(model, [fixed_config(2, 2, 2, 2)], ds, repeats=5)
        assert report.wall_ms_min <= report.wall_ms_median <= report.wall_ms_max
        assert report.frames == 60

    def test_quadratic_attention_dominates_large_t(self):
        model = EncoderModel(preset("tiny"), seed=0)
        config = fixed_config(1, 1, 1, 2)
        times = {}
        for frames in (250, 500, 1000, 2000):
            ds = SineFeatureDataset(1, 64, seed=0, min_frames=frames, max_frames=frames)
            times[frames] = measure(model, [config], ds, repeats=3)[0].wall_ms_median
        assert times[2000] > 2.0 * times[1000]

    @pytest.mark.parametrize("off_cpu", [False, True])
    def test_configs_interleaved_and_descheduled_passes_retaken(self, monkeypatch, off_cpu):
        model = EncoderModel(preset("tiny"), seed=0)
        ds = SineFeatureDataset(2, 64, seed=0, min_frames=20, max_frames=20)
        configs = [fixed_config(1, 1, 1, 2), fixed_config(2, 2, 2, 2)]
        seen = []
        forward = EncoderModel.forward
        monkeypatch.setattr(EncoderModel, "forward",
                            lambda self, x, c: seen.append(c) or forward(self, x, c))
        # a CPU clock that never advances reads as a pass spent off the CPU;
        # one that keeps pace with the wall clock, as a pass that kept it
        monkeypatch.setattr(time, "process_time_ns",
                            (lambda: 0) if off_cpu else time.perf_counter_ns)
        measure(model, configs, ds, repeats=3)
        passes = 1 + RETAKES if off_cpu else 1
        round_ = [c for c in configs for _ in range(passes)]
        assert seen == (configs + 3 * round_) * 2

    def test_empty_dataset_rejected(self):
        class Empty:
            def __len__(self):
                return 0

        model = EncoderModel(preset("tiny"), seed=0)
        with pytest.raises(InputError):
            measure(model, [fixed_config(1, 1, 1, 2)], Empty(), repeats=3)

    def test_blas_pinned_inside_and_restored_after(self):
        blas = _openblas_threads()
        if blas is None:
            pytest.skip("numpy has no bundled OpenBLAS in this environment")
        get_threads, set_threads = blas
        before = get_threads()
        set_threads(2)
        try:
            with _blas_pinned_to_one_thread():
                inside = get_threads()
            after = get_threads()
        finally:
            set_threads(before)
        assert inside == 1
        assert after == 2


class TestSweep:
    def test_empty_config_list_rejected(self):
        model = EncoderModel(preset("tiny"), seed=0)
        ds = SineFeatureDataset(1, 64, seed=0)
        with pytest.raises(ConfigError):
            sweep(model, [], ds)

    @pytest.mark.timing
    def test_analytic_columns_reproducible_and_measured_close(self):
        model = EncoderModel(preset("tiny"), seed=0)
        ds = SineFeatureDataset(2, 64, seed=3, min_frames=600, max_frames=600)
        configs = [fixed_config(*t, 2) for t in STANDARD]
        first = sweep(model, configs, ds, repeats=7)
        second = sweep(model, configs, ds, repeats=7)
        for a, b in zip(first, second):
            assert a.macs_total == b.macs_total
            assert a.to_json_dict()["macs_attn_scores"] == b.to_json_dict()["macs_attn_scores"]
            ratio = a.wall_ms_median / b.wall_ms_median
            assert 0.8 <= ratio <= 1.25, f"timing jitter out of range: {ratio:.3f}"

    def test_rows_without_measurement_leave_cells_absent(self, tmp_path):
        model = EncoderModel(preset("tiny"), seed=0)
        ds = SineFeatureDataset(1, 64, seed=0, min_frames=30, max_frames=30)
        reports = sweep(model, [fixed_config(*t, 2) for t in STANDARD], ds,
                        measure_time=False)
        assert all(r.wall_ms_median is None for r in reports)
        csv_path = tmp_path / "sweep.csv"
        write_csv(csv_path, reports)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 5
        first_row = lines[1].split(",")
        wall_idx = CSV_HEADER.split(",").index("wall_ms_median")
        assert first_row[wall_idx] == ""  # absent, not zero

    def test_json_mirror_field_names(self, tmp_path):
        model = EncoderModel(preset("tiny"), seed=0)
        ds = SineFeatureDataset(1, 64, seed=0, min_frames=30, max_frames=30)
        reports = sweep(model, [fixed_config(1, 1, 1, 2)], ds, measure_time=False)
        path = tmp_path / "sweep.json"
        write_json(path, reports)
        rows = json.loads(path.read_text())
        assert set(rows[0]) == set(CSV_HEADER.split(","))

    def test_dataset_totals_are_additive(self):
        enc = preset("tiny")
        config = fixed_config(2, 2, 2, enc.depth)
        total = analytic_cost_dataset(config, enc, [30, 50], preset="tiny")
        parts = [analytic_cost(config, enc, t, preset="tiny") for t in (30, 50)]
        assert total.macs_total == sum(p.macs_total for p in parts)
        assert total.frames == 80


class TestCostReportSchema:
    def test_csv_header_frozen(self):
        assert CSV_HEADER == ("config,preset,frames,macs_total,macs_attn_scores,"
                              "macs_attn_proj,macs_ffn,macs_fe,macs_upsample,"
                              "wall_ms_median,wall_ms_min,wall_ms_max,symbol_error")

    def test_row_cell_order_matches_header(self):
        report = CostReport("2-1-1", "tiny", 50, macs_fe=10, macs_attn_proj=20,
                            macs_attn_scores=30, macs_ffn=40, macs_upsample=50,
                            wall_ms_median=1.5, wall_ms_min=1.0, wall_ms_max=2.0,
                            symbol_error=0.25)
        cells = report.to_csv_row().split(",")
        header = CSV_HEADER.split(",")
        assert len(cells) == len(header)
        assert cells[header.index("config")] == "2-1-1"
        assert cells[header.index("macs_total")] == "150"
        assert cells[header.index("symbol_error")] == "0.25"
