"""Metric tables, run summaries, comparison reports, and SVG plots.

The formats of a run's metrics directory (write_metrics, read_metrics) and
of a report directory (write_comparison) are defined here alone. Floats are
written as their repr, so every value reads back bit for bit. SVG is emitted
directly (no plotting library). Every plot embeds its raw numeric series as
JSON inside a <desc> element and derives the drawn coordinates from that
same data, so reported values can be cross-checked against the CSVs.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

from .data import token_name

METRICS_HEADER = ["layer", "probe_acc", "cohesion", "coupling", "contrast",
                  "eff_dim", "redundancy"]
_INT_COLUMNS = {"layer", "eff_dim"}  # the METRICS_HEADER columns read as int, the rest float
LENS_HEADER = ["layer", "rank", "token", "token_name", "mass"]


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def write_metrics(out_dir, rows, meta, lens, sims) -> None:
    """Write a metrics directory: metrics.csv from rows (dicts with
    METRICS_HEADER keys), summary.json from meta, logitlens.csv from lens
    (logit_lens's top tokens) and simmap_layerNN.txt from sims (a similarity
    grid), each of rows, lens and sims one entry per layer."""
    out_dir = Path(out_dir)
    _write_csv(out_dir / "metrics.csv", METRICS_HEADER,
               ([_fmt(row[k]) for k in METRICS_HEADER] for row in rows))
    (out_dir / "summary.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    _write_csv(out_dir / "logitlens.csv", LENS_HEADER,
               ([layer, rank, tok, token_name(tok), _fmt(mass)]
                for layer, tops in enumerate(lens) for rank, (tok, mass) in enumerate(tops, 1)))
    for layer, grid in enumerate(sims):
        lines = [" ".join(repr(float(v)) for v in row) for row in grid]
        (out_dir / f"simmap_layer{layer:02d}.txt").write_text("\n".join(lines) + "\n")


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(v):
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


class MetricsDirError(ValueError):
    """A metrics directory that lacks a file or a layer's metrics row, or
    holds a similarity map that is not its run's grid x grid."""


def read_metrics(path) -> tuple:
    """Read a metrics directory: (rows, meta, lens, sims), the metrics.csv
    rows (layer and eff_dim int, the rest float), summary.json, the
    logitlens.csv rows as (layer, rank, token, token_name, mass), and the
    similarity grid of every layer in metrics.csv. Raises MetricsDirError
    ("no <name> in <path>") for the first file missing, for metrics.csv rows
    not of layers 0..layers, and for the first similarity grid whose shape
    is not (grid, grid), with layers and grid from summary.json's config."""
    path = Path(path)

    def read(name):
        try:
            return (path / name).read_text()
        except FileNotFoundError:
            raise MetricsDirError(f"no {name} in {path}") from None

    rows = [{k: (int if k in _INT_COLUMNS else float)(row[k]) for k in METRICS_HEADER}
            for row in csv.DictReader(read("metrics.csv").splitlines())]
    meta = json.loads(read("summary.json"))
    layers, top = [row["layer"] for row in rows], meta["config"]["layers"]
    if layers != list(range(top + 1)):
        raise MetricsDirError(f"metrics.csv in {path} has layers {layers}, not 0..{top}")
    lens = [(int(r["layer"]), int(r["rank"]), int(r["token"]), r["token_name"],
             float(r["mass"])) for r in csv.DictReader(read("logitlens.csv").splitlines())]
    grid = meta["config"]["grid"]
    sims = []
    for row in rows:
        name = f"simmap_layer{row['layer']:02d}.txt"
        sims.append(np.array([[float(v) for v in line.split()]
                              for line in read(name).splitlines()]))
        if sims[-1].shape != (grid, grid):
            raise MetricsDirError(f"{name} in {path} has shape {sims[-1].shape}, "
                                  f"not {(grid, grid)}")
    return rows, meta, lens, sims


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


def write_comparison(baseline, pre, out_dir) -> None:
    """Write a report directory from the read_metrics results of a baseline
    and a +aux run of one layer count and similarity probe: comparison.csv,
    one SVG per COMPARE_METRICS entry and per run's similarity grid,
    logitlens.csv (both runs' lens rows, each behind its run tag) and
    summary.txt."""
    b_rows, b_meta, b_lens, b_sims = baseline
    p_rows, p_meta, p_lens, p_sims = pre
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    layers = [row["layer"] for row in b_rows]

    header = ["layer"] + [f"{m}_{col}" for m in COMPARE_METRICS
                          for col in ("baseline", "pre", "delta")]
    rows = ([rb["layer"]] + [_fmt(v) for m in COMPARE_METRICS
                             for v in (rb[m], rp[m], rp[m] - rb[m])]
            for rb, rp in zip(b_rows, p_rows))
    _write_csv(out_dir / "comparison.csv", header, rows)

    titles = {"probe_acc": "Linear probe accuracy of pooled visual features",
              "contrast": "Patch semantic contrast (cohesion / coupling)",
              "eff_dim": "PCA effective dimension of pooled features",
              "redundancy": "Mean |off-diagonal| feature correlation"}
    for m in COMPARE_METRICS:
        svg = svg_line_plot(titles[m], m, {
            "baseline": (layers, [rb[m] for rb in b_rows]),
            "+aux": (layers, [rp[m] for rp in p_rows]),
        })
        (out_dir / f"{m}.svg").write_text(svg)

    for tag, sims in (("baseline", b_sims), ("pre", p_sims)):
        for layer, grid in zip(layers, sims):
            svg = svg_heatmap(f"patch cosine similarity, layer {layer} ({tag})",
                              grid, probe_index=b_meta["sim_patch"])
            (out_dir / f"simmap_{tag}_layer{layer:02d}.svg").write_text(svg)

    _write_csv(out_dir / "logitlens.csv", ["run"] + LENS_HEADER,
               ((tag, *row[:4], _fmt(row[4]))
                for tag, lens in (("baseline", b_lens), ("pre", p_lens)) for row in lens))

    mid = len(b_rows) // 2
    lines = [
        f"comparison of {b_meta['config_hash']} (baseline) vs {p_meta['config_hash']} (+aux)",
        f"layers: {len(b_rows) - 1} + input; mid layer = {mid}",
        "",
        f"probe accuracy  L0 {b_rows[0]['probe_acc']:.3f} -> mid "
        f"{b_rows[mid]['probe_acc']:.3f} (baseline), {p_rows[mid]['probe_acc']:.3f} (+aux)",
        f"contrast        L0 {b_rows[0]['contrast']:.3f} -> mid "
        f"{b_rows[mid]['contrast']:.3f} (baseline), {p_rows[mid]['contrast']:.3f} (+aux)",
        f"mid-layer degradation (baseline contrast, L0 - mid): "
        f"{b_rows[0]['contrast'] - b_rows[mid]['contrast']:+.3f}",
        f"mid-layer aux effect (contrast, +aux - baseline): "
        f"{p_rows[mid]['contrast'] - b_rows[mid]['contrast']:+.3f}",
    ]
    (out_dir / "summary.txt").write_text("\n".join(lines) + "\n")
