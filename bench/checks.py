"""Output checks: references recorded for seed 0, and acceptance bands that
hold for every seed.

Reference comparison: the header, the row count, the ``stable`` and
``error`` columns and every non-numeric cell must match exactly; numeric
cells must agree to a relative 1e-6 (absolute 1e-9 near zero).  The CSVs
print 9 significant digits, so this allows last-digit rounding changes and
nothing a physics change would produce.
"""

from __future__ import annotations

import gzip
import math
from pathlib import Path

REF_DIR = Path(__file__).resolve().parent / "ref"
REL_TOL = 1e-6
ABS_TOL = 1e-9
EXACT_COLUMNS = ("stable", "error")
OMEGA_B = 2 * math.pi * 10e6        # mechanical frequency of every preset, rad/s

# criterion 4: fig2a E_N(a_cw|m) maximum at (delta_a, delta_m_eff) / omega_b
FIG2A_OPTIMUM = (-0.72, 0.76)
FIG2A_TOL = 0.06
# criterion 3: filtered output-magnon resource at the lowest damping
FILTERED_EN = (0.23, 0.02)
FIDELITY = (0.55, 0.02)
# criterion 2 (at fine resolution): comb threshold 8.5 MHz
COMB_TARGET_HZ = 8.5e6
COMB_PROBE_KINDS = ["oscillatory", "steady", "oscillatory"]


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    """Header and data rows of a chiralcmm CSV; metadata lines are skipped."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        return [], []
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    return parse_csv(path.read_text(encoding="utf-8"))


def reference_path(config: str) -> Path:
    return REF_DIR / f"{config}.csv.gz"


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _cells_match(column: str, ours: str, ref: str) -> bool:
    a, b = _number(ours), _number(ref)
    if column in EXACT_COLUMNS or a is None or b is None:
        return ours == ref
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def compare_reference(config: str, header, rows) -> list[str]:
    """Differences from the seed-0 reference of ``config``; empty if none."""
    with gzip.open(reference_path(config), "rt", encoding="utf-8") as fh:
        ref_header, ref_rows = parse_csv(fh.read())
    if header != ref_header:
        return [f"{config}: header {header} != reference {ref_header}"]
    if len(rows) != len(ref_rows):
        return [f"{config}: {len(rows)} rows, reference has {len(ref_rows)}"]
    problems = []
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        bad = [c for c, a, b in zip(header, row, ref) if not _cells_match(c, a, b)]
        if bad or len(row) != len(ref):
            problems.append(f"row {i} differs in {bad or 'length'}")
    if problems:
        return [f"{config}: {len(problems)} rows differ from the reference, "
                f"first: {problems[0]}"]
    return []


def fig2a_optimum(header, rows) -> list[str]:
    """Criterion 4: where the stable E_N(a_cw|m) maximum of the map sits."""
    col = {c: i for i, c in enumerate(header)}
    stable = [r for r in rows if r[col["stable"]] == "1"]
    if not stable:
        return ["fig2a: no stable row"]
    best = max(stable, key=lambda r: float(r[col["en_a_cw_m"]]))
    da = float(best[col["delta_a"]]) / OMEGA_B
    dm = float(best[col["delta_m_eff"]]) / OMEGA_B
    if (abs(da - FIG2A_OPTIMUM[0]) <= FIG2A_TOL
            and abs(dm - FIG2A_OPTIMUM[1]) <= FIG2A_TOL):
        return []
    return [f"fig2a: maximum at ({da:+.3f}, {dm:+.3f}) w_b, expected "
            f"{FIG2A_OPTIMUM} +-{FIG2A_TOL}"]


def filtered_resource(header, rows) -> list[str]:
    """Criterion 3 bands on the lowest-damping fig2d_magnon row."""
    col = {c: i for i, c in enumerate(header)}
    row = min(rows, key=lambda r: float(r[col["gamma_b"]]))
    e_n, fid = float(row[col["filtered_en"]]), float(row[col["fidelity"]])
    if (abs(e_n - FILTERED_EN[0]) <= FILTERED_EN[1]
            and abs(fid - FIDELITY[0]) <= FIDELITY[1] and fid > 0.5):
        return []
    return [f"fig2d_magnon: filtered E_N = {e_n:.4f}, F = {fid:.4f} outside "
            f"{FILTERED_EN[0]}+-{FILTERED_EN[1]}, {FIDELITY[0]}+-{FIDELITY[1]}"]


def comb_result(rows, probes) -> list[str]:
    """Bisection probes oscillatory, steady, oscillatory; threshold at the
    midpoint of the last bracket, which must contain criterion 2's value."""
    kinds = [kind for _, kind, _ in probes]
    if kinds != COMB_PROBE_KINDS:
        return [f"comb: probe kinds {kinds}, expected {COMB_PROBE_KINDS}"]
    fields = dict((r[0], r[1]) for r in rows if len(r) == 2)
    value = _number(fields.get("comb_threshold_hz", ""))
    lo, hi = probes[1][0], probes[2][0]
    problems = []
    if value is None or not math.isclose(value, 0.5 * (lo + hi), rel_tol=1e-8):
        problems.append(f"comb: threshold {value} Hz is not the midpoint of "
                        f"[{lo}, {hi}] Hz")
    if not lo <= COMB_TARGET_HZ <= hi:
        problems.append(f"comb: bracket [{lo}, {hi}] Hz misses {COMB_TARGET_HZ} Hz")
    return problems
