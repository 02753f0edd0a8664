"""Report tests: the config hash ignores key order, a metrics directory
round-trips through its files, a report lists each run's lens rows once
behind its run tag, and a line plot embeds its series exactly."""

import html
import json
import re

import numpy as np

from prelab.data import token_name
from prelab.reports import (METRICS_HEADER, config_hash, read_metrics, svg_line_plot,
                            write_comparison, write_metrics)


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
    meta = {"config": {"grid": 4, "layers": 2}, "config_hash": "0123456789abcdef", "seed": 4,
            "sim_patch": 5}
    lens = [[(9, 0.5 + 1e-16 * layer), (3, 1 / 3), (40, 2.0 ** -40)] for layer in range(3)]
    sims = [np.random.default_rng(layer).uniform(-1, 1, size=(4, 4)) for layer in range(3)]
    sims[1][0, 0] = -0.0
    metrics = tmp_path / "metrics"
    metrics.mkdir()
    write_metrics(metrics, rows, meta, lens, sims)
    assert (metrics / "metrics.csv").read_text().splitlines()[0] == ",".join(METRICS_HEADER)
    back_rows, back_meta, back_lens, back_sims = read_metrics(metrics)
    # repr tells 7 from 7.0, 0.0 from -0.0 and compares NaN, so this checks types and bits
    assert repr(back_rows) == repr(rows)
    assert back_meta == meta
    want_lens = [(layer, rank, tok, token_name(tok), mass)
                 for layer, tops in enumerate(lens) for rank, (tok, mass) in enumerate(tops, 1)]
    assert repr(back_lens) == repr(want_lens)
    assert repr([grid.tolist() for grid in back_sims]) == repr([grid.tolist() for grid in sims])

    write_comparison((back_rows, back_meta, back_lens, back_sims),
                     (back_rows, back_meta, back_lens[:2], back_sims), tmp_path / "report")
    report_lens = (tmp_path / "report" / "logitlens.csv").read_text().splitlines()
    assert report_lens == (["run,layer,rank,token,token_name,mass"]
                           + [",".join(map(str, ("baseline",) + row)) for row in want_lens]
                           + [",".join(map(str, ("pre",) + row)) for row in want_lens[:2]])


def test_line_plot_desc_holds_the_series_exactly():
    series = {"baseline": ([0, 1, 2], [0.1 + 0.2, 1 / 3, 1e-300]),
              "+aux <&\">": ([0, 1, 2], [-2.5, 7.000000000000001, 123456789.123])}
    svg = svg_line_plot("probe & contrast", "acc", series)
    desc = re.search(r"<desc>(.*)</desc>", svg).group(1)
    data = json.loads(html.unescape(desc))
    assert data["title"] == "probe & contrast"
    assert data["series"] == {label: [[float(x) for x in xs], list(ys)]
                              for label, (xs, ys) in series.items()}
