"""The benchmark's tracer (bench/spans.py) wraps package functions where
their callers look them up.  Renaming or removing one of those names must
fail here rather than crash every traced benchmark run."""

import importlib.util
import os

from smartcharge import cli, harness, optimizer

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_hook_point_and_unwraps():
    spans = load_spans()
    before = {
        (owner, name): getattr(owner, name)
        for owner, name in (
            (cli, "run"),
            (harness, "learn_policy"),
            (harness, "_map_batches"),
            (optimizer, "evaluate_policy_arrays"),
        )
    }
    tracer = spans.Tracer("hooks")
    spans.install(tracer, pool_wait=True)
    try:
        for (owner, name), fn in before.items():
            assert getattr(owner, name) is not fn
    finally:
        tracer.unwrap_all()
    for (owner, name), fn in before.items():
        assert getattr(owner, name) is fn
