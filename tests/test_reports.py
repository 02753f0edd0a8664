"""Report tests: the config hash ignores key order, the metrics table
round-trips through its CSV, and a line plot embeds its series exactly."""

import html
import json
import re

from prelab.reports import (METRICS_HEADER, config_hash, read_metrics_csv, svg_line_plot,
                            write_metrics)


def test_config_hash_ignores_key_order():
    a = {"lam": 0.5, "grid": 8, "anchor": "pre-llm"}
    b = {"anchor": "pre-llm", "grid": 8, "lam": 0.5}
    assert config_hash(a) == config_hash(b)
    assert len(config_hash(a)) == 16
    assert config_hash(a) != config_hash({**a, "lam": 0.25})


def test_metrics_report_round_trips(tmp_path):
    # coupling is NaN when no image has two classes
    rows = [{"layer": layer, "probe_acc": 0.1 + 0.2 * layer, "cohesion": 1 / 3,
             "coupling": float("nan") if layer == 2 else -1e-17 * layer,
             "contrast": 2.0 ** -30, "eff_dim": 7 - layer, "redundancy": 0.123456789012345}
            for layer in range(3)]
    meta = {"config_hash": "0123456789abcdef", "seed": 4}
    write_metrics(tmp_path, rows, meta)
    assert (tmp_path / "metrics.csv").read_text().splitlines()[0] == ",".join(METRICS_HEADER)
    # repr tells 7 from 7.0 and compares NaN, so this checks types and bits
    assert repr(read_metrics_csv(tmp_path / "metrics.csv")) == repr(rows)
    assert json.loads((tmp_path / "summary.json").read_text()) == meta


def test_line_plot_desc_holds_the_series_exactly():
    series = {"baseline": ([0, 1, 2], [0.1 + 0.2, 1 / 3, 1e-300]),
              "+aux <&\">": ([0, 1, 2], [-2.5, 7.000000000000001, 123456789.123])}
    svg = svg_line_plot("probe & contrast", "acc", series)
    desc = re.search(r"<desc>(.*)</desc>", svg).group(1)
    data = json.loads(html.unescape(desc))
    assert data["title"] == "probe & contrast"
    assert data["series"] == {label: [[float(x) for x in xs], list(ys)]
                              for label, (xs, ys) in series.items()}
