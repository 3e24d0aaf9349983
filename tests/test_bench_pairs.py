import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

RSS = {"name": "peak_rss_mb", "unit": "MiB", "better": "lower",
       "bound": 0.05}
RATE = {"name": "auth_per_s", "unit": "1/s", "better": "higher",
        "bound": 0.25}


def runs(metric, values):
    return [{"metrics": {metric["name"]: {"value": v}}} for v in values]


@pytest.mark.parametrize("metric, old, new, expected", [
    # Lower in nine pairs of ten, by more than the parent's IQR.
    (RSS, [23.65, 23.63, 23.50, 23.47, 23.67, 23.60, 23.55, 23.62, 23.58,
           23.49],
     [22.72, 22.80, 22.82, 22.71, 22.72, 22.75, 22.78, 22.70, 22.74,
      23.60], "gain"),
    (RATE, [17.0, 16.5, 17.2, 16.8, 17.1], [19.0, 19.5, 18.8, 19.2, 19.1],
     "gain"),
    # 10% more memory against a 5% bound.
    (RSS, [23.0, 23.1, 22.9, 23.0, 23.05], [25.3, 25.4, 25.2, 25.3, 25.3],
     "worse"),
    # The parent's runs spread 30%, wider than the 5% bound, and the
    # change's runs fall among them.
    (RSS, [20.0, 28.0, 16.0, 24.0, 18.0], [20.0, 22.0, 18.0, 26.0, 19.0],
     "unresolved"),
    (RSS, [23.0, 23.1, 22.9, 23.0, 23.05], [23.02, 23.0, 23.1, 22.95, 23.0],
     "same"),
    # A wide parent spread, but every change run beats every parent run.
    (RSS, [20.0, 28.0, 16.0, 24.0, 18.0], [15.9] * 5, "same"),
], ids=["gain-lower", "gain-higher", "worse", "unresolved", "same",
        "same-separated"])
def test_compare_gives_each_metric_a_verdict(metric, old, new, expected):
    row = bench_pairs.compare(runs(metric, old), runs(metric, new),
                              [metric])[metric["name"]]
    assert row["verdict"] == expected
    assert row["pairs"] == len(old)


def test_workload_entry_keeps_each_runs_timed_attempts():
    # Three pairs whose runs made different numbers of attempts: the entry
    # sums them per side and keeps each run's count in seed order, so a
    # peak_rss_mb move can be read against the attempts behind it.
    def side(rss, attempts):
        return [{"metrics": {"peak_rss_mb": {"value": v}}, "failed": 0,
                 "attempted": n, "timed_attempts": n,
                 "environment": {"load_1m": 0.5}}
                for v, n in zip(rss, attempts)]

    runs = {"parent": side([23.0, 23.1, 22.9], [1500, 1520, 1480]),
            "change": side([24.1, 24.3, 24.0], [1900, 1950, 1880])}
    entry = bench_pairs.workload_entry(runs, [RSS])
    assert entry["timed_attempts"] == {"parent": [1500, 1520, 1480],
                                       "change": [1900, 1950, 1880]}
    assert entry["attempted"] == {"parent": 4500, "change": 5730}
    assert entry["failed"] == {"parent": 0, "change": 0}
    assert entry["metrics"]["peak_rss_mb"]["change_runs"] == [24.1, 24.3,
                                                             24.0]
    assert len(entry["environments"]["change"]) == 3
