"""Deterministic SVG figures.

Hand-rolled SVG so output is byte-stable across runs and platforms; no
plotting dependency.  Every figure embeds a <metadata> block holding a
canonical-JSON dictionary of the numbers the drawing is built from, so
a reader (or a test) can check the picture against the computation
without parsing coordinates out of path data.
"""

from __future__ import annotations

import math

from .equation import critical_height, critical_point, critical_value, real_root
from .errors import PreconditionError
from .jsonio import canonical_json, complex_to_json
from .paths import DEFAULT_RHO, composite_loop, keyhole_loop
from .rootsets import Window
from .rootwindow import find_roots
from .tracking import track_bundle

_W, _H = 640, 480
_MARGIN = 48


class SvgCanvas:
    """Minimal fixed-size SVG builder with a world-to-screen transform."""

    def __init__(self, x_min, x_max, y_min, y_max, *, title=""):
        if not (x_min < x_max and y_min < y_max):
            raise PreconditionError("degenerate canvas extents")
        self.x_min, self.x_max = x_min, x_max
        self.y_min, self.y_max = y_min, y_max
        self.title = title
        self.body: list[str] = []
        self.metadata: dict = {}

    def sx(self, x: float) -> float:
        return _MARGIN + (x - self.x_min) / (self.x_max - self.x_min) * (_W - 2 * _MARGIN)

    def sy(self, y: float) -> float:
        # SVG y grows downward
        return _H - _MARGIN - (y - self.y_min) / (self.y_max - self.y_min) * (_H - 2 * _MARGIN)

    def _fmt(self, v: float) -> str:
        return f"{v:.2f}"

    def polyline(self, points, *, stroke="#1f5fbf", width=1.5):
        pts = " ".join(f"{self._fmt(self.sx(p[0]))},{self._fmt(self.sy(p[1]))}" for p in points)
        self.body.append(
            f'<polyline fill="none" stroke="{stroke}" stroke-width="{width}" points="{pts}"/>'
        )

    def line(self, x0, y0, x1, y1):
        self.body.append(
            f'<line x1="{self._fmt(self.sx(x0))}" y1="{self._fmt(self.sy(y0))}" '
            f'x2="{self._fmt(self.sx(x1))}" y2="{self._fmt(self.sy(y1))}" '
            f'stroke="#999999" stroke-width="1.0"/>'
        )

    def mark(self, x, y, *, r=4.0, fill="#c03020"):
        self.body.append(
            f'<circle cx="{self._fmt(self.sx(x))}" cy="{self._fmt(self.sy(y))}" '
            f'r="{r}" fill="{fill}" stroke="none"/>'
        )

    def cross(self, x, y):
        cx, cy, s = self.sx(x), self.sy(y), 5.0
        self.body.append(
            f'<path d="M {cx - s:.2f} {cy - s:.2f} L {cx + s:.2f} {cy + s:.2f} '
            f'M {cx - s:.2f} {cy + s:.2f} L {cx + s:.2f} {cy - s:.2f}" '
            f'stroke="#222222" stroke-width="1.5" fill="none"/>'
        )

    def text(self, x, y, s):
        self.body.append(
            f'<text x="{self._fmt(self.sx(x))}" y="{self._fmt(self.sy(y))}" '
            f'font-family="monospace" font-size="12" text-anchor="start" '
            f'fill="#222222">{s}</text>'
        )

    def axes(self):
        if self.x_min < 0 < self.x_max:
            self.line(0, self.y_min, 0, self.y_max)
        if self.y_min < 0 < self.y_max:
            self.line(self.x_min, 0, self.x_max, 0)

    def render(self) -> str:
        meta = canonical_json(self.metadata) if self.metadata else "{}"
        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
            f'viewBox="0 0 {_W} {_H}">',
            f"<title>{self.title}</title>",
            f'<metadata id="anchors">{meta}</metadata>',
            f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="#ffffff"/>',
        ]
        parts.extend(self.body)
        parts.append("</svg>")
        return "\n".join(parts) + "\n"


_COLORS = ("#c03020", "#1f5fbf", "#208040", "#a06010", "#7030a0", "#108080")
# the loop the three path figures draw: around a_2 at the default radius
_LOOP_N = 2


def figure_real_graph() -> str:
    """Graph of x + e^x on the reals with its lone root marked."""
    x0 = real_root()
    cv = SvgCanvas(-4.0, 1.5, -4.0, 4.0, title="x + e^x on the real line")
    cv.axes()
    n = 220
    pts = []
    for i in range(n + 1):
        x = -4.0 + 5.5 * i / n
        y = x + math.exp(x)
        if -4.0 <= y <= 4.0:
            pts.append((x, y))
    cv.polyline(pts)
    cv.mark(x0, 0.0)
    cv.text(x0 + 0.08, 0.25, f"x = {x0:.6f}")
    cv.metadata = {
        "real_root": x0,
        "residual": abs(x0 + math.exp(x0)),
        "curve": "x + exp(x)",
    }
    return cv.render()


def figure_parameter_path() -> str:
    """The composite loop in the parameter plane with critical values marked."""
    n, rho = _LOOP_N, DEFAULT_RHO
    path = composite_loop(n, rho)
    pts = [(p.real, p.imag) for p in path.sample(0.02)]
    y_max = max(p[1] for p in pts) + 1.5
    y_min = min(p[1] for p in pts) - 1.5
    cv = SvgCanvas(-3.2, 1.2, y_min, y_max, title=f"parameter loop around a_{n}")
    cv.axes()
    cv.polyline(pts, stroke="#1f5fbf")
    marked = []
    k = 0
    while critical_value(k).imag < y_max:
        ak = critical_value(k)
        cv.cross(ak.real, ak.imag)
        cv.text(ak.real + 0.1, ak.imag + 0.2, f"a_{k}")
        marked.append(complex_to_json(ak))
        k += 1
    cv.mark(0.0, 0.0, r=3.5, fill="#208040")
    cv.text(0.1, 0.3, "basepoint")
    cv.metadata = {
        "n": n,
        "rho": rho,
        "critical_values": marked,
        "basepoint": [0.0, 0.0],
    }
    return cv.render()


def figure_root_trajectories() -> str:
    """Root trajectories in the z-plane along the composite loop around a_n."""
    n, rho = _LOOP_N, DEFAULT_RHO
    window = Window(-5.0, 5.0, -6.0, 18.0)
    start = find_roots(0j, window)
    path = composite_loop(n, rho)
    end, report = track_bundle(start, path, record=True)
    by_label: dict[int, list] = {}
    for arc, lab, z, _a, _r in report.trajectory:
        by_label.setdefault(lab, []).append((z.real, z.imag))
    cv = SvgCanvas(-6.0, 6.0, -7.0, 19.0, title=f"root paths under the loop around a_{n}")
    cv.axes()
    for i, lab in enumerate(sorted(by_label)):
        cv.polyline(by_label[lab], stroke=_COLORS[i % len(_COLORS)], width=1.2)
    moved = []
    for e in start.entries:
        z_end = end.position(e.label)
        cv.mark(e.z.real, e.z.imag, r=3.0)
        cv.text(e.z.real + 0.15, e.z.imag + 0.25, str(e.label))
        if abs(z_end - e.z) > 1e-6:
            moved.append(e.label)
    k = 0
    while critical_point(k).z.imag < 19.0:
        zk = critical_point(k).z
        cv.cross(zk.real, zk.imag)
        k += 1
    cv.metadata = {
        "n": n,
        "rho": rho,
        "labels_moved": moved,
        "start_roots": {str(e.label): complex_to_json(e.z) for e in start.entries},
        "critical_points": [[0.0, critical_height(j)] for j in range(k)],
    }
    return cv.render()


def figure_keyhole() -> str:
    """The keyhole loop with winding numbers about each nearby critical value."""
    n, rho = _LOOP_N, DEFAULT_RHO
    path = keyhole_loop(n, rho)
    pts = [(p.real, p.imag) for p in path.sample(0.02)]
    y_max = max(p[1] for p in pts) + 1.5
    y_min = min(p[1] for p in pts) - 1.5
    cv = SvgCanvas(-3.2, 1.2, y_min, y_max, title=f"keyhole loop around a_{n}")
    cv.axes()
    cv.polyline(pts, stroke="#208040")
    windings = {}
    k = 0
    while critical_value(k).imag < y_max:
        ak = critical_value(k)
        w = path.winding_number(ak)
        windings[str(k)] = w
        cv.cross(ak.real, ak.imag)
        cv.text(ak.real + 0.1, ak.imag + 0.2, f"a_{k}: w={w}")
        k += 1
    cv.metadata = {"n": n, "rho": rho, "windings": windings}
    return cv.render()


FIGURES = {
    "real_graph": figure_real_graph,
    "parameter_path": figure_parameter_path,
    "root_trajectories": figure_root_trajectories,
    "keyhole": figure_keyhole,
}
