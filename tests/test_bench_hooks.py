"""The benchmark's tracer (bench/spans.py) wraps package functions where
their callers look them up.  Renaming or removing one of those names must
fail here rather than crash every traced benchmark run, and so must a
kernel that stops running under its wrapped name, whose per-layer metrics
would silently read 0."""

import importlib.util
import os

import pytest

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


@pytest.mark.parametrize(
    "mode_args",
    [["--mode", "offline"], ["--mode", "online", "--warmup", "5"], ["--mode", "predict"]],
    ids=str,
)
def test_traced_run_flows_through_every_kernel(tmp_path, fleet_csv, mode_args):
    """A tiny traced run in this process: the mode's kernels must run under
    the names the tracer wraps, the parse result must count its rows with
    len(), and the module self times must account for the whole run."""
    spans = load_spans()
    tracer = spans.Tracer("smoke")
    spans.install(tracer)
    try:
        rc = cli.main(
            ["--input", fleet_csv, "--min-sessions", "5", "--n-tries", "10"]
            + ["--history", "5", "--out-dir", str(tmp_path / "out")]
            + mode_args
        )
    finally:
        tracer.unwrap_all()
    assert rc == 0
    tracer.save(str(tmp_path / "spans.npz"))
    trace = spans.load(str(tmp_path / "spans.npz"))
    metrics = spans.layer_metrics(trace)
    # the fixture's 6 chargers x 14 rows, all accepted
    assert metrics["dataset.rows_read"] == 84
    assert metrics["dataset.rows_rejected"] == 0
    # (optimizer.learn_calls is not among them: the harness searches through
    # learn_policies, a name the tracer does not wrap yet)
    kernels = (
        ("predictor.cv_calls", "predictor.fit_calls")
        if "predict" in mode_args
        else (
            "charging.simulate_calls",
            "charging.profile_calls",
            "charging.eval_calls",
            "aggregation.accumulate_calls",
        )
    )
    for name in kernels:
        assert metrics[name] > 0, name
    selfs = spans.module_self_times(trace)
    assert abs(metrics["harness.run_s"] - sum(selfs.values())) <= 1e-6
