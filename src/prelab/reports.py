"""Metric tables, run summaries, comparison reports, and SVG plots.

SVG is emitted directly (no plotting library). Every plot embeds its raw
numeric series as JSON inside a <desc> element and derives the drawn
coordinates from that same data, so reported values can be cross-checked
against the CSVs mechanically.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

METRICS_HEADER = ["layer", "probe_acc", "cohesion", "coupling", "contrast",
                  "eff_dim", "redundancy"]


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


@dataclass
class MetricsReport:
    rows: list          # dicts with METRICS_HEADER keys, one per layer
    meta: dict          # seed, config hash, version, counts, extras

    def write(self, out_dir) -> None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "metrics.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(METRICS_HEADER)
            for row in self.rows:
                writer.writerow([_fmt(row[k]) for k in METRICS_HEADER])
        (out_dir / "summary.json").write_text(
            json.dumps(self.meta, indent=2, sort_keys=True) + "\n")


def _fmt(v):
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def read_metrics_csv(path) -> list:
    rows = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            rows.append({
                "layer": int(row["layer"]),
                "probe_acc": float(row["probe_acc"]),
                "cohesion": float(row["cohesion"]),
                "coupling": float(row["coupling"]),
                "contrast": float(row["contrast"]),
                "eff_dim": int(row["eff_dim"]),
                "redundancy": float(row["redundancy"]),
            })
    return rows


# ---------------------------------------------------------------------------
# SVG primitives
# ---------------------------------------------------------------------------

_SERIES_COLORS = ("#1f77b4", "#d62728")
_W, _H = 560, 360
_ML, _MR, _MT, _MB = 64, 16, 36, 44  # margins


def _esc(s: str) -> str:
    return (str(s).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace('"', "&quot;"))


def _ticks(lo: float, hi: float, n: int = 5):
    if hi <= lo:
        hi = lo + 1.0
    raw = np.linspace(lo, hi, n)
    return [float(t) for t in raw]


def svg_line_plot(title: str, ylabel: str, series: dict) -> str:
    """Overlay line plot; series maps label -> (xs, ys). The numeric data is
    embedded verbatim in a <desc> JSON block and the polylines are computed
    from it."""
    data = {label: ([float(x) for x in xs], [float(y) for y in ys])
            for label, (xs, ys) in series.items()}
    all_x = [x for xs, _ in data.values() for x in xs]
    all_y = [y for _, ys in data.values() for y in ys if np.isfinite(y)]
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(all_y), max(all_y)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.06 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    plot_w = _W - _ML - _MR
    plot_h = _H - _MT - _MB

    def px(x):
        return _ML + (x - x_lo) / (x_hi - x_lo or 1.0) * plot_w

    def py(y):
        return _MT + (1.0 - (y - y_lo) / (y_hi - y_lo)) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f"<desc>{_esc(json.dumps({'title': title, 'series': data}, sort_keys=True))}</desc>",
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="20" text-anchor="middle" font-size="14" '
        f'font-family="sans-serif">{_esc(title)}</text>',
        f'<rect x="{_ML}" y="{_MT}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#888"/>',
    ]
    for t in _ticks(y_lo, y_hi):
        y = py(t)
        parts.append(f'<line x1="{_ML}" y1="{y:.1f}" x2="{_ML - 4}" y2="{y:.1f}" stroke="#444"/>')
        parts.append(f'<text x="{_ML - 8}" y="{y + 4:.1f}" text-anchor="end" '
                     f'font-size="10" font-family="sans-serif">{t:.3g}</text>')
    for t in _ticks(x_lo, x_hi, int(min(9, max(2, x_hi - x_lo + 1)))):
        x = px(t)
        parts.append(f'<line x1="{x:.1f}" y1="{_H - _MB}" x2="{x:.1f}" '
                     f'y2="{_H - _MB + 4}" stroke="#444"/>')
        parts.append(f'<text x="{x:.1f}" y="{_H - _MB + 16}" text-anchor="middle" '
                     f'font-size="10" font-family="sans-serif">{t:.3g}</text>')
    parts.append(f'<text x="{_W / 2:.1f}" y="{_H - 8}" text-anchor="middle" '
                 f'font-size="11" font-family="sans-serif">layer</text>')
    parts.append(f'<text x="16" y="{_H / 2:.1f}" text-anchor="middle" font-size="11" '
                 f'font-family="sans-serif" transform="rotate(-90 16 {_H / 2:.1f})">'
                 f'{_esc(ylabel)}</text>')
    for i, (label, (xs, ys)) in enumerate(data.items()):
        color = _SERIES_COLORS[i % len(_SERIES_COLORS)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys)
                       if np.isfinite(y))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="2" '
                     f'points="{pts}" data-label="{_esc(label)}"/>')
        ly = _MT + 16 + 16 * i
        parts.append(f'<line x1="{_W - 150}" y1="{ly - 4}" x2="{_W - 126}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{_W - 120}" y="{ly}" font-size="11" '
                     f'font-family="sans-serif">{_esc(label)}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def _heat_color(v: float) -> str:
    """Map [-1, 1] to blue-white-red."""
    v = float(np.clip(v, -1.0, 1.0))
    if v >= 0:
        r, g, b = 255, int(255 * (1 - v)), int(255 * (1 - v))
    else:
        r, g, b = int(255 * (1 + v)), int(255 * (1 + v)), 255
    return f"#{r:02x}{g:02x}{b:02x}"


def svg_heatmap(title: str, grid: np.ndarray, probe_index: int) -> str:
    """Grid heatmap of values in [-1, 1]; the probe cell gets a green frame."""
    grid = np.asarray(grid, dtype=np.float64)
    g_rows, g_cols = grid.shape
    cell = 36
    w = g_cols * cell + 40
    h = g_rows * cell + 60
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f"<desc>{_esc(json.dumps({'title': title, 'grid': grid.tolist()}, sort_keys=True))}</desc>",
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<text x="{w / 2:.1f}" y="20" text-anchor="middle" font-size="13" '
        f'font-family="sans-serif">{_esc(title)}</text>',
    ]
    for r in range(g_rows):
        for c in range(g_cols):
            x, y = 20 + c * cell, 36 + r * cell
            parts.append(f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                         f'fill="{_heat_color(grid[r, c])}" stroke="#ccc"/>')
    pr, pc = divmod(probe_index, g_cols)
    x, y = 20 + pc * cell, 36 + pr * cell
    parts.append(f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                 f'fill="none" stroke="#00a000" stroke-width="3"/>')
    parts.append("</svg>")
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# comparison report
# ---------------------------------------------------------------------------

COMPARE_METRICS = ("probe_acc", "contrast", "eff_dim", "redundancy")


def write_comparison(baseline_rows, pre_rows, out_dir, baseline_sim: dict, pre_sim: dict,
                     sim_probe_index: int, baseline_lens, pre_lens) -> None:
    """Emit comparison.csv, one overlay SVG per metric, the similarity
    heatmaps (grids keyed by layer), and a logit-lens comparison table."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if len(baseline_rows) != len(pre_rows):
        raise ValueError(f"layer count mismatch: {len(baseline_rows)} vs {len(pre_rows)}")
    layers = [row["layer"] for row in baseline_rows]

    with open(out_dir / "comparison.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["layer"]
        for m in COMPARE_METRICS:
            header += [f"{m}_baseline", f"{m}_pre", f"{m}_delta"]
        writer.writerow(header)
        for rb, rp in zip(baseline_rows, pre_rows):
            row = [rb["layer"]]
            for m in COMPARE_METRICS:
                row += [_fmt(rb[m]), _fmt(rp[m]), _fmt(rp[m] - rb[m])]
            writer.writerow(row)

    titles = {"probe_acc": "Linear probe accuracy of pooled visual features",
              "contrast": "Patch semantic contrast (cohesion / coupling)",
              "eff_dim": "PCA effective dimension of pooled features",
              "redundancy": "Mean |off-diagonal| feature correlation"}
    for m in COMPARE_METRICS:
        svg = svg_line_plot(titles[m], m, {
            "baseline": (layers, [rb[m] for rb in baseline_rows]),
            "+aux": (layers, [rp[m] for rp in pre_rows]),
        })
        (out_dir / f"{m}.svg").write_text(svg)

    for tag, sims in (("baseline", baseline_sim), ("pre", pre_sim)):
        for layer, grid in sorted(sims.items()):
            svg = svg_heatmap(f"patch cosine similarity, layer {layer} ({tag})",
                              grid, probe_index=sim_probe_index)
            (out_dir / f"simmap_{tag}_layer{layer:02d}.svg").write_text(svg)

    with open(out_dir / "logitlens.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run", "layer", "rank", "token", "token_name", "mass"])
        for tag, lens_rows in (("baseline", baseline_lens), ("pre", pre_lens)):
            for entry in lens_rows:
                for rank, (tok, name, mass) in enumerate(entry["top"], 1):
                    writer.writerow([tag, entry["layer"], rank, tok, name, _fmt(mass)])
