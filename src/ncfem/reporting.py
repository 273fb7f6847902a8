"""CSV serialization of convergence records and static SVG log-log plots.

CSV uses a header row, '.' decimal separator and repr() floats (shortest
round-trip); missing values are empty fields.  The record CSVs end each row
with CR LF (the csv.writer default), the inf-sup CSV of `ncfem infsup` with
LF alone.  The SVG writer emits plain SVG 1.1 with fixed-format coordinates,
so identical input produces byte-identical files.
"""
from __future__ import annotations

import csv
import math
import sys

__all__ = ["write_records_csv", "emit_plots"]

_COLUMNS = ["level", "n_free", "h_max", "error_pw", "eta_total",
            "newton_iters", "rate_error", "rate_eta"]


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float) and math.isnan(value):
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def write_records_csv(records, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_COLUMNS)
        for r in records:
            writer.writerow([_fmt(getattr(r, c)) for c in _COLUMNS])


# ---------------------------------------------------------------------------
# minimal deterministic SVG log-log plotting

_W, _H = 640, 480
_ML, _MR, _MT, _MB = 70, 20, 20, 50
_COLORS = ("#1f77b4", "#d62728", "#2ca02c")


def _ticks(lo, hi):
    return [10.0 ** k for k in range(math.floor(lo), math.ceil(hi) + 1)]


class _LogAxes:
    def __init__(self, xs, ys):
        self.x0, self.x1 = math.log10(min(xs)), math.log10(max(xs))
        self.y0, self.y1 = math.log10(min(ys)), math.log10(max(ys))
        for attr in ("x", "y"):
            lo, hi = getattr(self, attr + "0"), getattr(self, attr + "1")
            if hi - lo < 1e-9:
                setattr(self, attr + "0", lo - 0.5)
                setattr(self, attr + "1", hi + 0.5)

    def px(self, x):
        f = (math.log10(x) - self.x0) / (self.x1 - self.x0)
        return _ML + f * (_W - _ML - _MR)

    def py(self, y):
        f = (math.log10(y) - self.y0) / (self.y1 - self.y0)
        return _H - _MB - f * (_H - _MT - _MB)


def _polyline(ax, pts, color, dash=""):
    coords = " ".join(f"{ax.px(x):.2f},{ax.py(y):.2f}" for x, y in pts)
    extra = f' stroke-dasharray="{dash}"' if dash else ""
    return (f'<polyline fill="none" stroke="{color}" stroke-width="1.5"'
            f'{extra} points="{coords}"/>')


def svg_loglog(series, ref_slope):
    """Log-log plot against n_free; series: non-empty list of (label,
    [(x, y), ...]); ref_slope: (slope, label) of the dashed reference line."""
    pts_all = [p for _, pts in series for p in pts]
    ax = _LogAxes([p[0] for p in pts_all], [p[1] for p in pts_all])
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
             f'width="{_W}" height="{_H}" viewBox="0 0 {_W} {_H}">',
             f'<rect width="{_W}" height="{_H}" fill="white"/>']
    for tick in _ticks(ax.x0, ax.x1):
        if ax.x0 <= math.log10(tick) <= ax.x1:
            x = ax.px(tick)
            parts.append(f'<line x1="{x:.2f}" y1="{_MT}" x2="{x:.2f}" '
                         f'y2="{_H - _MB}" stroke="#dddddd"/>')
            parts.append(f'<text x="{x:.2f}" y="{_H - _MB + 18}" '
                         f'font-size="12" text-anchor="middle">1e{int(math.log10(tick))}</text>')
    for tick in _ticks(ax.y0, ax.y1):
        if ax.y0 <= math.log10(tick) <= ax.y1:
            y = ax.py(tick)
            parts.append(f'<line x1="{_ML}" y1="{y:.2f}" x2="{_W - _MR}" '
                         f'y2="{y:.2f}" stroke="#dddddd"/>')
            parts.append(f'<text x="{_ML - 8}" y="{y + 4:.2f}" font-size="12" '
                         f'text-anchor="end">1e{int(math.log10(tick))}</text>')
    parts.append(f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
                 f'height="{_H - _MT - _MB}" fill="none" stroke="black"/>')
    for i, (label, pts) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        parts.append(_polyline(ax, pts, color))
        parts.append(f'<text x="{_W - _MR - 10}" y="{_MT + 20 + 16 * i}" '
                     f'font-size="12" text-anchor="end" fill="{color}">{label}</text>')
    slope, label = ref_slope
    x_a, x_b = min(p[0] for p in pts_all), max(p[0] for p in pts_all)
    anchor = series[0][1][0]
    y_a = anchor[1] * (x_a / anchor[0]) ** slope
    y_b = anchor[1] * (x_b / anchor[0]) ** slope
    parts.append(_polyline(ax, [(x_a, y_a), (x_b, y_b)], "#888888", dash="4 3"))
    parts.append(f'<text x="{_W - _MR - 10}" y="{_MT + 20 + 16 * len(series)}" '
                 f'font-size="12" text-anchor="end" fill="#888888">{label}</text>')
    parts.append(f'<text x="{(_ML + _W - _MR) / 2:.2f}" y="{_H - 12}" '
                 f'font-size="13" text-anchor="middle">n_free</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_plots(records, output_dir, stem="convergence"):
    """Log-log plot of error_pw and eta_total against n_free with a
    slope -1/2 reference line (rate h^1 in 2D).  Returns written paths;
    empty record sets produce a warning and no file."""
    import pathlib

    records = list(records)
    if not records:
        print("emit_plots: no records, nothing plotted", file=sys.stderr)
        return []
    series = []
    err = [(r.n_free, r.error_pw) for r in records
           if r.error_pw is not None and r.error_pw > 0]
    if err:
        series.append(("error_pw", err))
    eta = [(r.n_free, r.eta_total) for r in records if r.eta_total > 0]
    if eta:
        series.append(("eta_total", eta))
    if not series:
        print("emit_plots: records carry no positive data", file=sys.stderr)
        return []
    out = pathlib.Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{stem}.svg"
    path.write_text(svg_loglog(series, ref_slope=(-0.5, "slope -1/2")))
    return [str(path)]
