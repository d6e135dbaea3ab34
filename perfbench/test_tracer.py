"""Self-tests of the benchmark's tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import sys
import types
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import stochpool  # noqa: E402
from metrics import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402
from tracer import NO_PARENT, Patches, Tracer  # noqa: E402


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_of_synthetic_nested_call():
    # outer [0, 100] calls inner [10, 30] and inner [40, 70]; inner calls leaf [50, 55]
    module = types.ModuleType("fake")

    def leaf():
        return "leaf"

    def inner(with_leaf):
        return module.leaf() if with_leaf else None

    def outer():
        module.inner(False)
        module.inner(True)

    module.leaf, module.inner, module.outer = leaf, inner, outer
    tracer = Tracer(clock=FakeClock([0, 10, 30, 40, 50, 55, 70, 100]))
    with Patches() as patches:
        for fn in (leaf, inner, outer):
            patches.replace_everywhere([module], fn, tracer.wrap(fn.__name__, fn))
        tracer.current_rid = 7
        module.outer()
    assert [tracer.names[c] for c in tracer.name] == ["outer", "inner", "inner", "leaf"]
    assert list(tracer.parent) == [NO_PARENT, 0, 0, 2]
    assert list(tracer.rid) == [7, 7, 7, 7]
    assert tracer.self_times() == [100 - 20 - 30, 20, 30 - 5, 5]
    assert tracer.ancestor_with(lambda n: n == "inner") == [NO_PARENT, 1, 2, 2]


def test_span_block_nests_under_wrapped_call():
    tracer = Tracer(clock=FakeClock([0, 2, 8, 10]))

    def body():
        with tracer.span("block"):
            pass

    tracer.wrap("call", body)()
    assert list(tracer.parent) == [NO_PARENT, 0]
    assert tracer.self_times() == [4, 6]


def _stochpool_bindings():
    """Every module-level and class-level binding the tracer may replace."""
    from stochpool import data, encoder, training

    bound = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "stochpool" or name.startswith("stochpool.")):
            bound.update({(name, k): v for k, v in vars(module).items()})
    for cls in (encoder.EncoderModel, training.Adam, data.SymbolFeatureDataset):
        bound.update({(cls.__qualname__, k): v for k, v in vars(cls).items()})
    return bound


def test_wrappers_removed_after_traced_run():
    import bench
    from stochpool import stochastic

    before = _stochpool_bindings()
    model = stochpool.EncoderModel(stochpool.preset("tiny"), seed=0)
    feats = np.ones((12, model.config.model_dim))
    config = stochastic.fixed_config(2, 2, 2, model.config.depth)
    tracer = Tracer()
    with Patches() as patches:
        macs = bench.MacLog(tracer)
        bench.install_tracing(tracer, patches, macs)
        assert _stochpool_bindings() != before
        traced = model.forward(feats, config).data
    assert patches.restored()
    spans = len(tracer)
    assert spans > 0
    assert {tracer.names[c] for c in tracer.name} >= {
        "encoder.forward", "attention.multi_head_pooled", "attention.attend",
        "tensor.gelu", "pooling.downsample", "scope.ffn"}
    assert macs.mismatched_rids() == set()
    after = _stochpool_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    untraced = model.forward(feats, config).data
    assert len(tracer) == spans
    np.testing.assert_array_equal(traced, untraced)


def test_benchmark_json_matches_metric_tables():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    import bench

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert set(bench.WORKLOADS) == set(WORKLOADS)
